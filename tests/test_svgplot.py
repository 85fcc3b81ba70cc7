import hashlib
import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from subspace_align import ExperimentConfig, run_sweep
from subspace_align.svgplot import loglog_svg, write_loglog_svg

_DECADES = [10.0**e for e in range(-4, 1)]

#: Series that reach each branch of loglog_svg, by name.
_SERIES = {
    # 0, a negative value, NaN and +-inf in either coordinate drop their point
    "dropped_points": [
        (
            "measured",
            [1e-4, 0.0, 1e-3, -1e-2, 1e-2, math.nan, 1e-1, math.inf, 1.0, 3.0],
            [2e-9, 1e-8, -0.5, 3e-7, math.nan, 1e-6, -math.inf, 4e-5, 1e-4, math.inf],
        ),
        ("bound", _DECADES, [3e-8, 0.0, 2e-6, 1e-5, 5e-4]),
    ],
    "every_point_dropped": [
        ("measured", [0.0, -1.0, math.nan], [1.0, 1.0, 1.0]),
        ("bound", [1.0, 2.0], [math.inf, -math.inf]),
    ],
    "single_point": [("measured", [1e-3], [2.5e-7])],
    # five palette colours, so the sixth series reuses the first; odd ones dash
    "six_series": [
        (f"series {i}", _DECADES, [x ** (1 + 0.25 * i) for x in _DECADES]) for i in range(6)
    ],
    # 24 decades across and 35 up: grid steps of 2 and 3 decades
    "wide_span": [
        ("measured", [1e-12, 1e-3, 1e12], [1e-30, 1e-20, 1e5]),
        ("bound", [3e-11, 2e11], [5e-29, 7e4]),
    ],
}

#: sha256 of each series' SVG text, with a title and both axis labels.
_SERIES_SHA256 = {
    "dropped_points": "c39ff507c2ae09b54533473273fbf858e54162df56cd1c7032c8d6cf2d6bdd13",
    "every_point_dropped": "dd4fdbda2c33b48e459984f911916de85541c69983f78821ae5b1ad1254278c0",
    "single_point": "dd5cbec0ec99449544be0b1f36b352df09d4cf35aa0dffd8fa9cddd02cea1572",
    "six_series": "f09490a1387b903ace58e00ad4a71d73eeadc0728e8f583bab917b0ef80f8360",
    "wide_span": "327b978ad8a276dbdd602d080310a491cfd8e3ae861db1f5878549b5a1ea1436",
}

#: sha256 of the three SVG files of figure 3 at seed 0.
_FIGURE3_SHA256 = {
    "spectral": "9be9f1a1b236d87888f27d229cbf24707516d1681b3d4aeb557d8aaeff2865d4",
    "frobenius": "ffb0f6841cecfc6358f328568d616eacf2b716c99d855f2b86c7bb3093708f52",
    "trace": "032f1a02b01e468c96e283a7a514fbf49e289e7858ef69244a40b9d3321f9387",
}


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_svg_bytes(name):
    svg = loglog_svg(_SERIES[name], title=f"{name} plot", xlabel="delta", ylabel="error")
    assert _sha256(svg) == _SERIES_SHA256[name]


def test_figure3_svg_bytes(tmp_path):
    run_sweep(ExperimentConfig(rank_deficiency=2, seed=0), out_dir=tmp_path)
    for kind, digest in _FIGURE3_SHA256.items():
        assert _sha256((tmp_path / f"sweep_{kind}.svg").read_text(encoding="ascii")) == digest


def test_text_is_escaped():
    svg = loglog_svg(
        [("a<b", [1, 10], [1, 10]), ("c & d", [1, 10], [2, 20])],
        title="x & y",
        xlabel="<delta>",
        ylabel="error > 0",
    )
    root = ET.fromstring(svg)
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("x & y", "<delta>", "error > 0", "a<b", "c & d"):
        assert text in texts
        assert f">{escape(text)}</text>" in svg


def test_non_ascii_text_is_written_as_character_references(tmp_path):
    path = tmp_path / "plot.svg"
    write_loglog_svg(path, [("\u03b4 = 1e-6", [1, 10], [1, 10])], title="\u03b4 sweep")
    raw = path.read_bytes()
    assert raw.isascii() and b">&#948; sweep</text>" in raw
    root = ET.parse(path).getroot()
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "\u03b4 sweep" in texts and "\u03b4 = 1e-6" in texts
