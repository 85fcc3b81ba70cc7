import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subspace_align import (
    InvalidInput,
    format_matrix,
    load_matrix,
    parse_matrix,
    save_matrix,
)


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
}


@pytest.mark.parametrize("text", list(_MALFORMED))
def test_malformed_inputs_rejected(text):
    with pytest.raises(InvalidInput, match=_MALFORMED[text]):
        parse_matrix(text)


def test_underscores_allowed_in_comments():
    a = parse_matrix("# x_tilde, n_rows\n1 2\n# row_1\n1.5 2\n")
    assert a.tolist() == [[1.5, 2.0]]


def test_non_ascii_file_rejected_by_name(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes("# café\n1 1\n1\n".encode("utf-8"))
    with pytest.raises(InvalidInput, match="not an ASCII matrix file"):
        load_matrix(path)
