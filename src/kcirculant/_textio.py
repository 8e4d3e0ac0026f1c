"""The one text writer behind the CSV exporters and the command line. write_csv is the
only CSV row formatter: a cell is the str of a Python int, float or str (a float's str is
its repr), and numpy columns go through tolist(), so no numpy scalar's text reaches a file."""

from __future__ import annotations

import numpy as np

_CSV_ROWS = 1 << 16  # rows formatted per write: bounds the text held at once


def write_text(path, data: str, append: bool = False) -> None:
    """Write data to an open stream, or to the file at path (ASCII)."""
    if hasattr(path, "write"):
        path.write(data)
        return
    with open(path, "a" if append else "w", encoding="ascii") as fh:
        fh.write(data)


def write_csv(path, header: str, columns, append: bool = False) -> None:
    """Write the header line, unless appending, then one row per index of columns:
    equal-length numpy arrays or lists of Python ints, floats and strs."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    if not append:
        write_text(path, header + "\n")
    for lo in range(0, len(columns[0]), _CSV_ROWS):
        cells = [map(str, c[lo:lo + _CSV_ROWS].tolist() if isinstance(c, np.ndarray)
                     else c[lo:lo + _CSV_ROWS]) for c in columns]
        write_text(path, "\n".join(map(",".join, zip(*cells))) + "\n", append=True)
