"""Rectangular result tables with deterministic, atomic CSV output."""

import os

import numpy as np

# Python floats and strings exist for one block of rows at a time, and each
# block is appended to one buffer, so writing a table holds its CSV bytes about
# once, not the whole table as Python objects as well
CSV_BLOCK_ROWS = 4096


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

    def write_csv(self, path):
        """Write the header and rows as ASCII CSV, formatted CSV_BLOCK_ROWS rows at a time."""
        values = [v if v.dtype.kind in "iu" else v.astype(float, copy=False) for v in self.values]
        data = bytearray(",".join(self.header()).encode("ascii") + b"\n")
        for start in range(0, values[0].size, CSV_BLOCK_ROWS):
            cells = [map(repr, v[start:start + CSV_BLOCK_ROWS].tolist()) for v in values]
            data += ("\n".join(map(",".join, zip(*cells))) + "\n").encode("ascii")
        write_atomic(path, data)


def write_atomic(path, data: bytes | bytearray):
    """Write via a temp file in the target directory plus rename.

    The temp file is created with mode 0o666, which the kernel masks with the
    umask as for any open(): mkstemp's owner-only 0o600 would survive the
    rename.  O_EXCL refuses a name that already exists, and O_BINARY (Windows
    only) keeps newlines as written.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
