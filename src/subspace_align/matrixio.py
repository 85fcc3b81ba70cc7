"""Plain-text matrix files.

Format: a header line ``rows cols``, then one line per row of whitespace
separated decimals.  Values are written with 17 significant digits so every
float64 round-trips exactly.  Lines whose first non-blank character is ``#``
are comments and may appear anywhere; blank lines are ignored.  Files are
ASCII text, comments included, with no digit-group underscore (``1_0``).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .kernels import _as_matrix

__all__ = ["format_matrix", "parse_matrix", "save_matrix", "load_matrix"]


def format_matrix(a):
    """Render a matrix in the text format, ending with a newline."""
    a = _as_matrix(a, "matrix")
    row = " ".join(["%.17g"] * a.shape[1])
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [row % tuple(values) for values in a.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Parse the text format into a float64 array."""
    rows = cols = None
    tokens = []  # every value token, converted in one pass at the end
    data = []  # (line number, line) of each data row
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows is None:
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected header 'rows cols'")
            try:
                if "_" in line:  # int() would read "1_0" as 10
                    raise ValueError("digit-group underscore")
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad header {line!r}") from exc
            if rows < 1 or cols < 1:
                raise InvalidInput(f"line {lineno}: dimensions must be positive")
            continue
        parts = line.split()
        if len(parts) != cols:
            _floats(tokens, data)  # a bad number on an earlier row comes first
            raise InvalidInput(
                f"line {lineno}: expected {cols} values, got {len(parts)}"
            )
        tokens += parts
        data.append((lineno, line))
        if len(data) > rows:
            _floats(tokens, data)
            raise InvalidInput(f"line {lineno}: more than {rows} data rows")
    if rows is None:
        raise InvalidInput("no header line found")
    a = np.array(_floats(tokens, data), dtype=np.float64)
    if len(data) != rows:
        raise InvalidInput(f"expected {rows} data rows, got {len(data)}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    return a.reshape(rows, cols)


def _floats(tokens, data):
    """The tokens as floats; on a bad one, InvalidInput naming its line."""
    try:
        if any("_" in line for _, line in data):  # float() reads "1_0" as 10
            raise ValueError("digit-group underscore")
        return list(map(float, tokens))
    except ValueError:
        for lineno, line in data:
            try:
                if "_" in line:
                    raise ValueError("digit-group underscore")
                list(map(float, line.split()))
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad number in {line!r}") from exc
        raise


def save_matrix(path, a):
    """Write a matrix to `path`."""
    text = format_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path):
    """Read a matrix from `path`."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return parse_matrix(fh.read())
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}: not an ASCII matrix file: {exc}") from exc
