"""The package's one CSV layout.

One ``# key=value`` line per metadata entry (ending in ``\\n``, the
value written with ``str``), an optional row of column names, then one
row per record with every value written as ``%.17g``, so float64
round-trips exactly.  Rows end in ``\\r\\n``, as :mod:`csv` writes them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np


def write_csv(
    path: str | Path, meta: dict | None, names: Sequence[str] | None, rows: Iterable
) -> None:
    """Write ``meta``, the column ``names`` (None for no name row) and ``rows``."""
    with open(path, "w", newline="") as fh:
        for k, v in (meta or {}).items():
            fh.write(f"# {k}={v}\n")
        if names is not None:
            fh.write(",".join(names) + "\r\n")
        line = None
        for row in rows:
            row = tuple(row)
            # one %-format per row is twice as fast as csv.writer, and
            # the bytes are the same: %.17g output never needs quoting
            line = line or ",".join(["%.17g"] * len(row)) + "\r\n"
            fh.write(line % row)


def read_csv(path: str | Path, names: Sequence[str] | None = None) -> tuple[dict, np.ndarray]:
    """Metadata and float rows of a file; a given ``names`` must be its first row."""
    meta: dict[str, str] = {}
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            elif line:
                rows.append(line.split(","))
    if names is not None:
        if not rows or rows[0] != list(names):
            raise ValueError(f"{path}: expected the column row {','.join(names)}")
        rows = rows[1:]
    return meta, np.array([[float(v) for v in row] for row in rows])
