"""Plain-text matrix files.

Format: a header line ``rows cols``, then one line per row of whitespace
separated decimals.  Values are written with 17 significant digits so every
float64 round-trips exactly.  Lines whose first non-blank character is ``#``
are comments and may appear anywhere; blank lines are ignored.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .kernels import _as_matrix

__all__ = ["format_matrix", "parse_matrix", "save_matrix", "load_matrix"]


def format_matrix(a):
    """Render a matrix in the text format, ending with a newline."""
    a = _as_matrix(a, "matrix")
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Parse the text format into a float64 array."""
    rows = cols = None
    data = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows is None:
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected header 'rows cols'")
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad header {line!r}") from exc
            if rows < 1 or cols < 1:
                raise InvalidInput(f"line {lineno}: dimensions must be positive")
            continue
        tokens = line.split()
        if len(tokens) != cols:
            raise InvalidInput(
                f"line {lineno}: expected {cols} values, got {len(tokens)}"
            )
        try:
            data.append([float(t) for t in tokens])
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: bad number in {line!r}") from exc
        if len(data) > rows:
            raise InvalidInput(f"line {lineno}: more than {rows} data rows")
    if rows is None:
        raise InvalidInput("no header line found")
    if len(data) != rows:
        raise InvalidInput(f"expected {rows} data rows, got {len(data)}")
    a = np.array(data, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    return a


def save_matrix(path, a):
    """Write a matrix to `path`."""
    text = format_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path):
    """Read a matrix from `path`."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
