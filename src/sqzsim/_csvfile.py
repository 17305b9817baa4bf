"""The package's one CSV layout.

One ``# key=value`` line per metadata entry (ending in ``\\n``, the
value written with ``str``), a row of column names, then one row per
record with every value written as ``%.17g``, so float64
round-trips exactly.  Rows end in ``\\r\\n``, as :mod:`csv` writes them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path


def write_csv(path: str | Path, meta: dict, names: Sequence[str], rows: Iterable) -> None:
    """Write ``meta``, the column ``names`` and ``rows``."""
    with open(path, "w", newline="") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}={v}\n")
        fh.write(",".join(names) + "\r\n")
        line = None
        for row in rows:
            row = tuple(row)
            # one %-format per row is twice as fast as csv.writer, and
            # the bytes are the same: %.17g output never needs quoting
            line = line or ",".join(["%.17g"] * len(row)) + "\r\n"
            fh.write(line % row)

