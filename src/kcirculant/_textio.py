"""The one text writer behind the CSV exporters and the command line."""

from __future__ import annotations


def write_text(path, data: str, append: bool = False) -> None:
    """Write data to an open stream, or to the file at path (ASCII)."""
    if hasattr(path, "write"):
        path.write(data)
        return
    with open(path, "a" if append else "w", encoding="ascii") as fh:
        fh.write(data)
