"""Rectangular result tables with deterministic, atomic CSV output."""

import os
import tempfile

import numpy as np


class ResultTable:
    """Whole real columns, given as (name, unit, values) triples of equal length.

    A column with an integer dtype prints without a dot; every other value
    prints as repr(float(v)).
    """

    def __init__(self, columns):
        self.columns, self.units, values = map(list, zip(*columns))
        self.values = [np.asarray(v) for v in values]
        if (any(v.ndim != 1 or v.dtype.kind not in "biuf" for v in self.values)
                or len({v.size for v in self.values}) > 1):
            shapes = ", ".join(f"{c} {v.dtype}{list(v.shape)}"
                               for c, v in zip(self.columns, self.values))
            raise ValueError(f"columns must be real, one-dimensional, of equal length: {shapes}")

    def header(self) -> list:
        return [f"{c} [{u}]" if u else c for c, u in zip(self.columns, self.units)]

    def column(self, name) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"column {name!r} not in table (have {', '.join(self.columns)})")
        return self.values[self.columns.index(name)]

    def to_csv(self) -> str:
        cells = [map(repr, (v if v.dtype.kind in "iu" else v.astype(float)).tolist())
                 for v in self.values]
        return "\n".join([",".join(self.header()), *map(",".join, zip(*cells))]) + "\n"

    def write_csv(self, path):
        write_atomic(path, self.to_csv().encode("ascii"))


def write_atomic(path, data: bytes):
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
