"""The one text writer behind the exporters and the command line. write_rows formats every
CSV and SVG row; a CSV cell is the str of a Python int, float or str (a float's repr), and
numpy columns go through tolist(), so no numpy scalar's text reaches a file."""

from __future__ import annotations

import sys

import numpy as np

_ROWS = 1 << 16  # rows formatted per write: bounds the text held at once


def write_text(path, data: str, append: bool = False) -> None:
    """Write data to an open stream, to sys.stdout as the call finds it for "-", or to the
    file at path (ASCII)."""
    stream = sys.stdout if path == "-" else path
    if hasattr(stream, "write"):
        stream.write(data)
        return
    with open(path, "a" if append else "w", encoding="ascii") as fh:
        fh.write(data)


def write_rows(path, header: str, columns, append: bool = False, row: str | None = None) -> None:
    """Write the header line, unless appending, then one line per index of columns:
    equal-length numpy arrays or lists of Python ints, floats and strs. A line is the
    template row % its cells, by default "%s,%s,...": their str joined by commas (CSV)."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    if not append:
        write_text(path, header + "\n")
    row = row or ",".join(["%s"] * len(columns))
    for lo in range(0, len(columns[0]), _ROWS):
        cells = [c[lo:lo + _ROWS].tolist() if isinstance(c, np.ndarray) else c[lo:lo + _ROWS]
                 for c in columns]
        write_text(path, "\n".join(map(row.__mod__, zip(*cells))) + "\n", append=True)
