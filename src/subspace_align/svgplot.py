"""Minimal hand-written SVG line plots with log-log axes.

No plotting dependency: the sweep harness only needs polylines over decade
grids.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math

from .matrixio import _rewrite

__all__ = ["loglog_svg", "write_loglog_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 720, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 24, 40, 56


def _escape(text):
    """`text` with ``&``, ``<`` and ``>`` as XML entities, the rule of
    ``xml.sax.saxutils.escape``; that module imports ``urllib.request``,
    which costs every CLI process about 3 MB."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decades(lo, hi):
    """The whole decades in ``[lo, hi]``, on a grid stepped from ``floor(lo)``."""
    first = math.floor(lo)
    last = math.ceil(hi)
    step = max(1, (last - first) // 10)
    return [exp for exp in range(first, last + 1, step) if lo <= exp <= hi]


def loglog_svg(series, title="", xlabel="", ylabel=""):
    """Render labelled (x, y) series on log-log axes; returns SVG text.

    `series` is a sequence of ``(label, xs, ys)`` triples.  Points with a
    nonpositive or non-finite coordinate are dropped, since they have no
    logarithm to plot.  The title, the axis labels and the series labels are
    XML-escaped.
    """
    logged = []
    for label, xs, ys in series:
        pts = [
            (math.log10(x), math.log10(y))
            for x, y in zip(xs, ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
        ]
        logged.append((label, pts))
    all_pts = [p for _, pts in logged for p in pts]
    if not all_pts:
        xlo, xhi, ylo, yhi = -1.0, 1.0, -1.0, 1.0
    else:
        lxs, lys = zip(*all_pts)
        xlo, xhi, ylo, yhi = min(lxs), max(lxs), min(lys), max(lys)
    if xhi - xlo < 1e-9:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-9:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    xspan, yspan = xhi - xlo, yhi - ylo

    def px(lx):
        return _MARGIN_L + (lx - xlo) / xspan * plot_w

    def py(ly):
        return _MARGIN_T + (yhi - ly) / yspan * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]

    for exp in _decades(xlo, xhi):
        gx = px(exp)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_T}" x2="{gx:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">1e{exp}</text>'
        )
    for exp in _decades(ylo, yhi):
        gy = py(exp)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{gy:.2f}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{gy:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{exp}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_HEIGHT / 2:.1f})">{_escape(ylabel)}</text>'
    )

    for i, (label, pts) in enumerate(logged):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            # px and py inlined in their order of operations, so each point keeps its bits
            coords = " ".join([
                "%.2f,%.2f" % (
                    _MARGIN_L + (lx - xlo) / xspan * plot_w,
                    _MARGIN_T + (yhi - ly) / yspan * plot_h,
                )
                for lx, ly in pts
            ])
            dash = ' stroke-dasharray="6,4"' if i % 2 == 1 else ""
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"{dash}/>'
            )
        ly = _MARGIN_T + 16 + 18 * i
        parts.append(
            f'<line x1="{_MARGIN_L + 10}" y1="{ly - 4}" x2="{_MARGIN_L + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_loglog_svg(path, series, title="", xlabel="", ylabel=""):
    """Write :func:`loglog_svg` output to `path` as ASCII, each other
    character as an XML character reference; the text is built first, so a
    failure to draw leaves no file behind.  An existing file is rewritten in
    place and cut to length when it closes, with the bytes a fresh file
    gets: a symlink is followed to its target and the file keeps its mode
    bits, as with ``open(path, "w")``."""
    text = loglog_svg(series, title=title, xlabel=xlabel, ylabel=ylabel)
    with _rewrite(path, encoding="ascii", errors="xmlcharrefreplace") as fh:
        fh.write(text)
