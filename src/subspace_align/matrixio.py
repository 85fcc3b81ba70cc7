"""Plain-text matrix files.

Format: a header line ``rows cols``, then one line per row of whitespace
separated decimals.  Values are written with 17 significant digits so every
float64 round-trips exactly.  A line ends only at LF, CR LF or CR.  Lines
whose first non-blank character is ``#`` are comments and may appear
anywhere; blank lines are ignored.  Files are ASCII text, comments included,
with no digit-group underscore (``1_0``).
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress

import numpy as np

from .errors import InvalidInput
from .kernels import _shaped, _top

__all__ = ["format_matrix", "parse_matrix", "save_matrix", "load_matrix"]


def format_matrix(a):
    """Render a matrix in the text format, ending with a newline."""
    a = _shaped(a, "matrix", stack=False)
    _top(a, "matrix")  # InvalidInput for a non-finite entry
    row = " ".join(["%.17g"] * a.shape[1])  # one format string for the whole file
    return "\n".join(["%d %d" % a.shape] + [row] * len(a)) % tuple(a.ravel().tolist()) + "\n"


def parse_matrix(text):
    """Parse the text format, a str, into a float64 array."""
    if not isinstance(text, str):
        raise InvalidInput(f"matrix text must be a str, got {type(text).__name__}")
    if not text.isascii():  # int() and float() read other scripts' digits and spaces
        raise InvalidInput(f"not an ASCII matrix file: {_non_ascii_line(text)}")
    lines = _lines(text)
    for lineno, line in enumerate(map(str.strip, lines), 1):
        if line and line[0] != "#":
            break
    else:
        raise InvalidInput("no header line found")
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
    rest = lines[lineno:]
    # loadtxt skips blank lines itself; comment lines go only if there are any
    data = [raw for raw in rest if raw.lstrip()[:1] != "#"] if "#" in text else rest
    a = None
    if any(map(str.strip, data)):  # loadtxt warns on input with no data rows
        # float()'s tokens and bits but not "1_0"; comments=None keeps "1 # x" bad
        with suppress(ValueError):
            a = np.loadtxt(data, np.float64, comments=None, ndmin=2)
    if a is None or a.shape != (rows, cols):
        numbered = enumerate(map(str.strip, rest), lineno + 1)
        # the same rules, line by line, to name the fault
        a = _rows([(i, s) for i, s in numbered if s and s[0] != "#"], rows, cols)
    _top(a, "matrix")  # InvalidInput for a non-finite entry
    return a


def _rows(data, rows, cols):
    """The data rows by the format's rules, line by line; InvalidInput names the first fault."""
    values = []
    for count, (lineno, line) in enumerate(data, start=1):
        parts = line.split()
        if len(parts) != cols:
            raise InvalidInput(f"line {lineno}: expected {cols} values, got {len(parts)}")
        try:
            if "_" in line:  # float() reads "1_0" as 10
                raise ValueError("digit-group underscore")
            values += map(float, parts)
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: bad number in {line!r}") from exc
        if count > rows:
            raise InvalidInput(f"line {lineno}: more than {rows} data rows")
    if len(data) != rows:
        raise InvalidInput(f"expected {rows} data rows, got {len(data)}")
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def _lines(text):
    """The lines of `text`, each ended only by LF, CR LF or CR.

    str.splitlines also ends a line at \\v, \\f and \\x1c to \\x1e.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _non_ascii_line(text):
    """``line N: ...`` naming the first line of `text` that is not ASCII."""
    for lineno, raw in enumerate(_lines(text), start=1):
        if not raw.isascii():
            return f"line {lineno}: non-ASCII character in {raw!r}"


def save_matrix(path, a):
    """Write a matrix to `path`.

    An existing file is rewritten in place and cut to length when it
    closes, with the bytes a fresh file gets: a symlink is followed to its
    target and the file keeps its mode bits, as with ``open(path, "w")``."""
    text = format_matrix(a)
    with _rewrite(path, encoding="ascii") as fh:
        fh.write(text)


@contextmanager
def _rewrite(path, **open_kwargs):
    """``open(path, "w", **open_kwargs)`` that rewrites an existing file in
    place: it is opened without ``O_TRUNC`` and cut, on the way out, to what
    was written, even when the body raises.  So the file ends with exactly
    the new bytes, or the part of them written before the body raised.  A
    process killed part-way (SIGKILL, power loss) never reaches the cut: it
    leaves the new head followed by the tail of the old file, which may still
    parse.  A symlink is followed, an existing file keeps its mode and a new
    one gets ``0o666 & ~umask``, as with open; only a regular file is cut, as
    ``O_TRUNC`` cuts only those.

    Every file the package writes goes through here.  Where truncating
    pages just written waits on their writeback (ext4 mounted with
    ``discard``), an ``O_TRUNC`` rewrite of a sweep's 27 KB CSV took about
    130 us against about 20 us in place.
    """
    with open(path, "w", opener=_keep_contents, **open_kwargs) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _keep_contents(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def load_matrix(path):
    """Read a matrix from `path`; every parse error starts with the path."""
    # each non-ASCII byte decodes to a lone surrogate, which the ASCII rule rejects
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        return parse_matrix(text)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
