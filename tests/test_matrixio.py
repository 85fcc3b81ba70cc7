import os
import re
import stat
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subspace_align import (
    InvalidInput,
    format_matrix,
    load_matrix,
    parse_matrix,
    save_matrix,
)

from subspace_align.matrixio import _rewrite

from support import reference_parse_matrix


def test_round_trip_exact(tmp_path, rng):
    a = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-200, 200, size=(7, 3))
    path = tmp_path / "a.txt"
    save_matrix(path, a)
    b = load_matrix(path)
    assert b.shape == a.shape
    assert np.array_equal(a, b)


def test_round_trip_small_values(tmp_path):
    a = np.array([[1e-300, -1e300], [0.0, -0.0], [np.pi, 2.0 / 3.0]])
    path = tmp_path / "b.txt"
    save_matrix(path, a)
    assert np.array_equal(load_matrix(path), a)


def test_format_header_and_newline():
    text = format_matrix(np.array([[1.5, 2.0]]))
    lines = text.splitlines()
    assert lines[0] == "1 2"
    assert text.endswith("\n")
    assert len(lines) == 2


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n2 2\n1 2\n# interior comment\n3 4\n"
    assert np.array_equal(parse_matrix(text), np.array([[1.0, 2.0], [3.0, 4.0]]))


_EDGES = st.sampled_from((-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308))
_MATRICES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False) | _EDGES,
)


@given(a=_MATRICES)
def test_round_trip_bit_identical(a):
    b = parse_matrix(format_matrix(a))
    assert b.shape == a.shape
    assert b.tobytes() == a.tobytes()


@given(a=_MATRICES)
def test_format_is_one_17_digit_value_per_entry(a):
    # the per-value rendering the format was defined by
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in a]
    assert format_matrix(a) == "\n".join(lines) + "\n"


# Each rejected text, with the message it must be rejected with.  A bad
# number is named by its own line, also after valid rows and when a later
# line is malformed too.
_MALFORMED = {
    "": "no header line found",
    "# only a comment\n": "no header line found",
    "2\n1 2\n": "line 1: expected header",
    "2 2\n1 2\n": "expected 2 data rows, got 1",
    "1 2\n1 2 3\n": "line 2: expected 2 values, got 3",
    "1 1\npotato\n": "line 2: bad number",
    "1 1\ninf\n": "non-finite",
    "1 1\nnan\n": "non-finite",
    "0 3\n": "line 1: dimensions must be positive",
    "1 2\n1 2\n3 4\n": "line 3: more than 1 data rows",
    "# c\n3 2\n1 2\n\n3 4\n5 x\n": "line 6: bad number",
    "3 2\n1 2\n1 x\n1 2 3\n": "line 3: bad number",
    # int() and float() read PEP 515 digit groups; the format has none
    "2 1\n1_0\n2\n": "line 2: bad number in '1_0'",
    "2 1\n1\n2.5e1_0\n": "line 3: bad number in '2.5e1_0'",
    "1_0 1\n1\n": "line 1: bad header '1_0 1'",
    "# c\n1 1_0\n1\n": "line 2: bad header",
    "3 2\n1_0 2\n1 2 3\n": "line 2: bad number",
    # and digits and spaces of other scripts; the format is ASCII, comments too
    "1 1\n\u0661\n": "line 2: non-ASCII character",
    "\uff11 \uff11\n2\n": "line 1: non-ASCII character",
    "1 2\n1\xa02\n": "line 2: non-ASCII character",
    "1 1\n# caf\xe9\n1\n": "line 2: non-ASCII character",
    # a row ends only at LF, CR LF or CR; \t, \v, \f and \x1c-\x1f are whitespace
    "2 2\n1 2\v3 4\n": "line 2: expected 2 values, got 4",
    "1 1\n\f\nx\n": "line 3: bad number",
    # a comment is a whole line: after a value, "#" is one more token
    "1 2\n1 #2\n": "line 2: bad number",
    "1 1\n1 #2\n": "line 2: expected 1 values, got 2",
    "1 1\n1\x00\n": "line 2: bad number",
    # whitespace-only lines are no data; numpy's reader would warn on them
    "2 2\n\n \n\t\n": "expected 2 data rows, got 0",
}


@pytest.mark.parametrize("text", list(_MALFORMED))
def test_malformed_inputs_rejected(text):
    with pytest.raises(InvalidInput, match=_MALFORMED[text]):
        parse_matrix(text)


@pytest.mark.parametrize("text", [b"1 1\n1\n", None, 1, ["1 1", "1"]])
def test_non_text_rejected_by_type(text):
    name = type(text).__name__
    with pytest.raises(InvalidInput, match=f"^matrix text must be a str, got {name}$"):
        parse_matrix(text)


def test_underscores_allowed_in_comments():
    a = parse_matrix("# x_tilde, n_rows\n1 2\n# row_1\n1.5 2\n")
    assert a.tolist() == [[1.5, 2.0]]


def test_non_ascii_file_rejected_by_name(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes("# café\n1 1\n1\n".encode("utf-8"))
    with pytest.raises(InvalidInput, match="not an ASCII matrix file: line 1: non-ASCII"):
        load_matrix(path)


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f", "\v", "\f", "\t"])
def test_only_line_ends_end_a_row(sep):
    # str.splitlines ends a line at each of these; the format does not
    assert parse_matrix(f"1 4\n1 2{sep}3 4\n").tolist() == [[1.0, 2.0, 3.0, 4.0]]


#: lines that hold no data row: blank, whitespace only, or comments
_NOISE_LINES = ["", " ", "\t", "\v", "\x1c", "# c", "  # 1_0 x"]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("noise", [False, True])
def test_line_ends_blank_and_comment_lines_keep_the_bits(end, noise, rng):
    a = rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-300, 300, size=(6, 3))
    header, *rows = format_matrix(a).split("\n")[:-1]
    lines = [header]
    for row in rows:
        lines += [row] + (_NOISE_LINES if noise else [])
    text = end.join(lines) + end
    # through numpy's reader, and through the line walk alone
    for reader in (nullcontext(), mock.patch.object(np, "loadtxt", side_effect=ValueError)):
        with reader:
            got = parse_matrix(text)
        assert got.shape == a.shape and got.tobytes() == a.tobytes()


def test_file_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1\nfish\n")
    message = f"{path}: line 3: bad number in 'fish'"
    with pytest.raises(InvalidInput, match="^" + re.escape(message)):
        load_matrix(path)


@pytest.mark.parametrize("shape", [(2048, 8), (1, 8), (2048, 1)])
def test_format_matrix_at_full_size(shape, rng):
    # format_matrix fills one format string of rows * cols fields
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    lines = [f"{shape[0]} {shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in a.tolist()]
    assert format_matrix(a) == "\n".join(lines) + "\n"


_VALUES = st.floats(allow_nan=False, allow_infinity=False)
_VALID = _VALUES.map(repr) | _VALUES.map("%.17g".__mod__)
_EDGE = st.sampled_from(["nan", "-inf", "1e500", "1e-400", "1_0", "0x10", "1e", "+.5", "\x00", "#", "#2"])
_TOKENS = st.sampled_from([_VALID] * 7 + [_EDGE]).flatmap(lambda tokens: tokens)
_SEPARATORS = st.text(st.sampled_from(" \t\v\f\x1c\x1d\x1e\x1f"), min_size=1, max_size=2)
_ENDS = st.just("") | _SEPARATORS
_TAILS = st.sampled_from([""] * 6 + [" # x", "#"])  # not a comment after a value
_NOISE = st.lists(st.sampled_from(["", " \t", "\x1f", "# c", "  # 1_0 x"]), max_size=1)


@st.composite
def _matrix_texts(draw):
    """Matrix texts, mostly well formed: every row and value count, token,
    separator, comment and line end can go wrong or vary."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    off = st.sampled_from([0] * 6 + [-1, 1])  # a wrong count one time in four
    lines = draw(_NOISE) + [f"{rows} {cols}"]
    for _ in range(max(rows + draw(off), 0)):
        line = draw(_ENDS)
        for i in range(max(cols + draw(off), 0)):
            line += (draw(_SEPARATORS) if i else "") + draw(_TOKENS)
        lines += draw(_NOISE) + [line + draw(_ENDS) + draw(_TAILS)]
    lines += draw(_NOISE)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


@given(text=_matrix_texts())
@settings(max_examples=400)
def test_parse_matrix_matches_the_line_by_line_reader(text):
    try:
        expected = reference_parse_matrix(text)
    except InvalidInput as exc:
        expected = exc
    # through numpy's reader, and through the line walk alone
    for reader in (nullcontext(), mock.patch.object(np, "loadtxt", side_effect=ValueError)):
        with reader:
            if isinstance(expected, InvalidInput):
                with pytest.raises(InvalidInput) as got:
                    parse_matrix(text)
                assert str(got.value) == str(expected)
            else:
                got = parse_matrix(text)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestRewrite:
    """Every file the package writes goes through ``_rewrite``: an existing
    file is rewritten in place and cut to length when it closes."""

    def test_a_shorter_matrix_leaves_exactly_its_bytes(self, tmp_path, rng):
        small = rng.standard_normal((4, 2))
        save_matrix(tmp_path / "fresh.txt", small)
        save_matrix(tmp_path / "a.txt", rng.standard_normal((2048, 8)))
        save_matrix(tmp_path / "a.txt", small)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()

    def test_a_symlink_is_followed_to_its_target(self, tmp_path, rng):
        a = rng.standard_normal((3, 2))
        save_matrix(tmp_path / "fresh.txt", a)
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("9 9\n" + "1 " * 500 + "\n", encoding="ascii")
        link.symlink_to(target)
        save_matrix(link, a)
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh.txt").read_bytes()
        # a dangling link gets its target made, as open(path, "w") makes it
        dangling = tmp_path / "dangling.txt"
        dangling.symlink_to(tmp_path / "made.txt")
        save_matrix(dangling, a)
        assert (tmp_path / "made.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()

    def test_modes_are_those_of_open(self, tmp_path):
        kept = tmp_path / "kept.txt"
        kept.write_text("long old text " * 100, encoding="ascii")
        kept.chmod(0o600)
        save_matrix(kept, np.eye(2))
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        assert kept.read_text(encoding="ascii") == format_matrix(np.eye(2))
        old = os.umask(0o027)
        try:
            save_matrix(tmp_path / "new.txt", np.eye(2))
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o666 & ~0o027

    def test_a_failed_write_is_cut_at_what_was_written(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("the previous run's bytes\n" * 50, encoding="ascii")
        with pytest.raises(RuntimeError, match="part-way"):
            with _rewrite(path, encoding="ascii") as fh:
                fh.write("new prefix\n")
                raise RuntimeError("part-way")
        assert path.read_text(encoding="ascii") == "new prefix\n"
        # an encoding error writes nothing of the failing call
        with pytest.raises(UnicodeEncodeError):
            with _rewrite(path, encoding="ascii") as fh:
                fh.write("kept")
                fh.write("\u03b4")
        assert path.read_text(encoding="ascii") == "kept"

    def test_a_file_that_is_not_regular_is_not_cut(self):
        # O_TRUNC leaves devices alone, and ftruncate fails on them
        save_matrix(os.devnull, np.eye(2))
