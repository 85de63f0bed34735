"""SVG rendering of patches, net points, and square-grid overlays.

Produces self-contained SVG 1.1 documents: one ``<polygon>`` per half-tile
with fills keyed by tile kind, optional ``<circle>`` markers for net points,
and an optional unit-grid overlay for reading off square counts.  The y axis
is flipped so the mathematical orientation (counterclockwise positive)
matches the on-screen picture.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .net import Net
from .tiling import _CLASS_KIND, _COORD_BLOCK, Patch, _coord_blocks, _embed, _format_rows

__all__ = ["render_svg"]

KITE_FILL = "#8ecae6"
DART_FILL = "#ffb703"
KITE_POINT_FILL = "#1d5a7a"
DART_POINT_FILL = "#9a5a00"
GRID_STEP = 1.0  # grid overlay spacing, one counting cell
MARGIN = 0.5  # blank border around the drawing


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def _grid_steps(lo: float, hi: float) -> np.ndarray:
    """Multiples of GRID_STEP from the one at or below ``lo`` up to ``hi``."""
    start = math.floor(lo / GRID_STEP) * GRID_STEP
    steps = start + GRID_STEP * np.arange(math.floor((hi - start) / GRID_STEP) + 2)
    return steps[steps <= hi]


def render_svg(
    patch: Patch,
    net: Net | None = None,
    overlay: str = "none",
    stroke_width: float = 0.03,
    kite_fill: str = KITE_FILL,
    dart_fill: str = DART_FILL,
) -> str:
    """Render the patch (and overlay) to an SVG document string.

    ``overlay`` is one of ``"none"``, ``"net"`` (incenter markers; requires
    ``net``), or ``"grid"`` (unit grid lines over the drawing, plus net
    markers when a net is supplied).
    """
    return "".join(_svg_blocks(patch, net, overlay, stroke_width, kite_fill, dart_fill))


def _svg_blocks(
    patch: Patch, net: Net | None, overlay: str, stroke_width: float, kite_fill: str, dart_fill: str,
) -> Iterator[str]:
    """The document ``render_svg`` returns, as blocks of text to write in turn.

    A file written block by block never holds the whole document in memory.
    The arguments are checked here, when it is called, before any block.
    """
    if overlay not in ("none", "net", "grid"):
        raise ValueError(f"unknown overlay {overlay!r}")
    if overlay == "net" and net is None:
        raise ValueError("net overlay requires a net")
    _check_style(stroke_width, kite_fill, dart_fill)
    return _svg_document(patch, net, overlay, stroke_width, kite_fill, dart_fill)


def _check_style(stroke_width: float, kite_fill: str, dart_fill: str) -> None:
    """Refuse (ValueError) a stroke width or fill that would make invalid SVG.

    It needs no patch, so a caller that loads one can check first.
    """
    if not (math.isfinite(stroke_width) and stroke_width >= 0):
        raise ValueError(f"stroke width must be finite and non-negative, got {stroke_width!r}")
    for fill in (kite_fill, dart_fill):
        # _format_rows would refuse it only after the document's first blocks
        if "\0" in fill:
            raise ValueError(f"fill colours must not hold NUL, got {fill!r}")


def _svg_document(
    patch: Patch, net: Net | None, overlay: str, stroke_width: float, kite_fill: str, dart_fill: str,
) -> Iterator[str]:
    # two passes over the vertices, a block at a time (one block is kept): the bounds, then the polygons
    if not len(patch):
        raise ValueError("cannot draw an empty patch")
    blocks = lambda: ((start, _embed(coords, patch.scale_exp)) for start, coords in _coord_blocks(patch))
    kept = list(blocks()) if len(patch) <= _COORD_BLOCK else None
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    for _, emb in kept or blocks():
        # one whole-array reduction per axis is far faster than an axis-0 one
        lo = np.minimum(lo, [emb[..., k].min() for k in (0, 1)])
        hi = np.maximum(hi, [emb[..., k].max() for k in (0, 1)])
    lo, hi = lo - MARGIN, hi + MARGIN
    width, height = hi - lo

    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width * 40)}" height="{_fmt(height * 40)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        f'<g stroke="#30343a" stroke-width="{_fmt(stroke_width)}" '
        'stroke-linejoin="round">\n'
    )
    for start, emb in kept or blocks():
        # "+ 0.0" turns an exact -0.0 into 0.0, as _fmt does
        corners = np.stack([emb[:, :, 0] - lo[0], hi[1] - emb[:, :, 1]], axis=2) + 0.0
        yield from _format_rows(
            '<polygon points="%.6g,%.6g %.6g,%.6g %.6g,%.6g" fill="%s"/>\n',
            corners.reshape(len(corners), 6),
            ((kite_fill, dart_fill), _CLASS_KIND[patch.classes[start:start + len(corners)]]),  # HALF_KITE 0
        )
    yield "</g>\n"

    if overlay == "grid":
        # vertical lines, then horizontal ones, flipped like the polygons
        gx = _grid_steps(lo[0], hi[0]) - lo[0]
        gy = hi[1] - _grid_steps(lo[1], hi[1])
        zx, zy = np.zeros_like(gx), np.zeros_like(gy)
        ends = np.concatenate([np.column_stack([gx, zx + height, gx, zx]),
                               np.column_stack([zy, gy, zy + width, gy])]) + 0.0
        yield '<g stroke="#666" stroke-width="0.012" opacity="0.7">\n'
        yield from _format_rows('<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g"/>\n', ends)
        yield "</g>\n"

    if net is not None and overlay in ("net", "grid"):
        yield '<g stroke="none">\n'
        centers = np.column_stack([net.xy[:, 0] - lo[0], hi[1] - net.xy[:, 1]]) + 0.0
        yield from _format_rows(
            '<circle cx="%.6g" cy="%.6g" r="0.09" fill="%s"/>\n',
            centers,
            ((KITE_POINT_FILL, DART_POINT_FILL), net.source_kinds),
        )
        yield "</g>\n"

    yield "</svg>\n"
