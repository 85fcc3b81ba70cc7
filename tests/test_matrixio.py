import numpy as np
import pytest

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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n",
        "2\n1 2\n",
        "2 2\n1 2\n",
        "1 2\n1 2 3\n",
        "1 1\npotato\n",
        "1 1\ninf\n",
        "1 1\nnan\n",
        "0 3\n",
        "1 2\n1 2\n3 4\n",
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(InvalidInput):
        parse_matrix(text)


def test_non_ascii_file_rejected_by_name(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes("# café\n1 1\n1\n".encode("utf-8"))
    with pytest.raises(InvalidInput, match="not an ASCII matrix file"):
        load_matrix(path)
