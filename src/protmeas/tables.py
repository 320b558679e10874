"""Rectangular result tables with deterministic, atomic CSV output."""

import os
import tempfile
from dataclasses import dataclass, field


@dataclass
class ResultTable:
    """Columns with unit labels; values are floats (ints format without dot)."""

    columns: list
    units: list
    rows: list = field(default_factory=list, init=False)
    int_columns: frozenset = frozenset()

    def __post_init__(self):
        if len(self.columns) != len(self.units):
            raise ValueError("columns and units must align")

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells, table has {len(self.columns)} columns")
        self.rows.append(list(values))

    def header(self) -> list:
        return [f"{c} [{u}]" if u else c for c, u in zip(self.columns, self.units)]

    def column(self, name):
        if name not in self.columns:
            raise KeyError(f"column {name!r} not in table (have {', '.join(self.columns)})")
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def _format(self, name, value) -> str:
        if name in self.int_columns:
            return str(int(value))
        return repr(float(value))

    def to_csv(self) -> str:
        lines = [",".join(self.header())]
        for r in self.rows:
            lines.append(",".join(self._format(c, v) for c, v in zip(self.columns, r)))
        return "\n".join(lines) + "\n"

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
