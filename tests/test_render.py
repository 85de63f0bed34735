"""SVG rendering: byte identity with the per-polygon writer it replaced."""

import math

import numpy as np
import pytest

from penrosenet import cli, render, tiling
from penrosenet.cli import main
from penrosenet.golden import CycloPoint
from penrosenet.net import Net, extract_net
from penrosenet.render import (
    DART_FILL,
    DART_POINT_FILL,
    GRID_STEP,
    KITE_FILL,
    KITE_POINT_FILL,
    MARGIN,
    _svg_blocks,
    render_svg,
)
from penrosenet.tiling import (
    HALF_DART,
    HALF_KITE,
    LEFT,
    RIGHT,
    Patch,
    Square,
    deflate_patch,
    generate_patch_covering,
    load_patch,
    save_patch,
)

from test_tiling import full_tile


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def per_polygon_render(patch, net=None, overlay="none", stroke_width=0.03,
                       kite_fill=KITE_FILL, dart_fill=DART_FILL) -> str:
    """The one-polygon-per-iteration render_svg that the block formatter replaced."""
    emb = patch.embedded()
    lo = emb.reshape(-1, 2).min(axis=0) - MARGIN
    hi = emb.reshape(-1, 2).max(axis=0) + MARGIN
    width, height = hi - lo

    def pt(x, y):
        return f"{_fmt(x - lo[0])},{_fmt(hi[1] - y)}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width * 40)}" height="{_fmt(height * 40)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<g stroke="#30343a" stroke-width="{_fmt(stroke_width)}" '
        'stroke-linejoin="round">',
    ]
    fills = {True: kite_fill, False: dart_fill}
    kinds = patch.kinds  # built once, not per polygon
    for i in range(len(patch)):
        points = " ".join(pt(float(v[0]), float(v[1])) for v in emb[i])
        parts.append(
            f'<polygon points="{points}" fill="{fills[bool(kinds[i] == HALF_KITE)]}"/>'
        )
    parts.append("</g>")
    if overlay == "grid":
        parts.append('<g stroke="#666" stroke-width="0.012" opacity="0.7">')
        x = math.floor(lo[0] / GRID_STEP) * GRID_STEP
        while x <= hi[0]:
            (ax, ay), (bx, by) = pt(x, lo[1]).split(","), pt(x, hi[1]).split(",")
            parts.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
            x += GRID_STEP
        y = math.floor(lo[1] / GRID_STEP) * GRID_STEP
        while y <= hi[1]:
            (ax, ay), (bx, by) = pt(lo[0], y).split(","), pt(hi[0], y).split(",")
            parts.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
            y += GRID_STEP
        parts.append("</g>")
    if net is not None and overlay in ("net", "grid"):
        parts.append('<g stroke="none">')
        point_fills = {True: KITE_POINT_FILL, False: DART_POINT_FILL}
        for j in range(len(net)):
            cx, cy = pt(float(net.xy[j, 0]), float(net.xy[j, 1])).split(",")
            fill = point_fills[bool(net.source_kinds[j] == HALF_KITE)]
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="0.09" fill="{fill}"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


PATCHES = {
    "full_tile": lambda: full_tile(HALF_KITE),
    "deflated_half_dart": lambda: deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-3), 3),
    "covering_64": lambda: generate_patch_covering(Square(-20.0, 13.0, 64.0)),
}


@pytest.fixture(scope="module", params=list(PATCHES))
def patch_and_net(request):
    patch = PATCHES[request.param]()
    return patch, extract_net(patch)


@pytest.mark.parametrize("overlay", ["none", "net", "grid"])
def test_matches_per_polygon_render(patch_and_net, overlay):
    patch, net = patch_and_net
    assert render_svg(patch, net=net, overlay=overlay) == per_polygon_render(patch, net, overlay)


def test_custom_stroke_and_fills_with_format_characters(patch_and_net):
    patch, net = patch_and_net
    style = dict(stroke_width=0.125, kite_fill="rgb(10%,20%,30%)", dart_fill="url(#d) %s %d")
    svg = render_svg(patch, net=net, overlay="grid", **style)
    assert svg == per_polygon_render(patch, net, "grid", **style)
    assert svg.count('fill="rgb(10%,20%,30%)"') == np.count_nonzero(patch.kinds == HALF_KITE)


def test_exact_negative_zero_prints_as_zero():
    # this translation puts the leftmost vertex at x = 0.5, so lo[0] is exactly +0.0
    # and a net point at x = -0.0 gives -0.0 - 0.0 = -0.0 before formatting
    patch = Patch.single_tile(HALF_KITE, RIGHT, translation=CycloPoint(-1, -3, -3, 0))
    lo_x = patch.embedded()[:, :, 0].min() - 0.5
    assert lo_x == 0.0
    net = Net(np.array([[-0.0, -1.0], [1.0, -2.0]]), np.array([HALF_KITE, HALF_DART]),
              np.array([0, 0]), Square(0.0, -5.0, 2.0))
    assert math.copysign(1.0, net.xy[0, 0] - lo_x) < 0
    svg = render_svg(patch, net=net, overlay="net")
    assert svg == per_polygon_render(patch, net, "net")
    assert '<circle cx="0" ' in svg and "-0" not in svg.replace("e-0", "")


def test_format_blocks_cover_every_polygon(monkeypatch):
    # blocks smaller than the patch, with a ragged last block
    monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 4)
    patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
    net = extract_net(patch)
    assert len(patch) % 4 and len(net) % 4
    assert render_svg(patch, net=net, overlay="net") == per_polygon_render(patch, net, "net")


@pytest.mark.parametrize("overlay", ["none", "net", "grid"])
def test_coordinate_blocks_are_embedded_twice_not_kept(overlay, monkeypatch):
    # a patch of several coordinate blocks, the last one ragged: the bounds pass and the
    # polygons each walk every block once, in order, and no block is kept between them
    patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
    net = extract_net(patch)
    monkeypatch.setattr(tiling, "_COORD_BLOCK", 4)
    assert len(patch) > 8 and len(patch) % 4
    walks, coord_blocks = [], render._coord_blocks

    def spy(p):
        walks.append([])
        for lo, coords in coord_blocks(p):
            walks[-1].append(lo)
            yield lo, coords

    monkeypatch.setattr(render, "_coord_blocks", spy)
    assert render_svg(patch, net=net, overlay=overlay) == per_polygon_render(patch, net, overlay)
    starts = list(range(0, len(patch), 4))
    assert walks == [starts, starts]


@pytest.mark.parametrize("overlay", ["none", "net", "grid"])
def test_cli_file_equals_render_svg(overlay, tmp_path, capsys):
    # the CLI writes the document block by block; the file holds its bytes
    patch_file, svg_file = str(tmp_path / "p.txt"), str(tmp_path / "p.svg")
    save_patch(PATCHES["covering_64"](), patch_file)
    assert main(["render", "--patch", patch_file, "--overlay", overlay, "--out", svg_file]) == 0
    capsys.readouterr()
    loaded = load_patch(patch_file)
    net = None if overlay == "none" else extract_net(loaded)
    with open(svg_file, encoding="ascii", newline="") as fh:
        assert fh.read() == render_svg(loaded, net=net, overlay=overlay)


def test_cli_refuses_a_non_ascii_fill_before_writing(tmp_path, capsys):
    patch_file, svg_file = str(tmp_path / "p.txt"), tmp_path / "p.svg"
    save_patch(PATCHES["deflated_half_dart"](), patch_file)
    assert main(["render", "--patch", patch_file, "--kite-fill", "\u00e9", "--out", str(svg_file)]) == 2
    assert capsys.readouterr().err == "error: fill colours must be ASCII, got '\u00e9'\n"
    assert not svg_file.exists()



@pytest.mark.parametrize("flag", ["--kite-fill", "--dart-fill"])
def test_cli_refuses_a_non_ascii_fill_before_loading_the_patch(flag, tmp_path, capsys, monkeypatch):
    loaded = []
    monkeypatch.setattr(cli, "load_patch", loaded.append)
    svg_file = tmp_path / "p.svg"
    assert main(["render", "--patch", str(tmp_path / "p.txt"), flag, "r\u00f8d", "--out", str(svg_file)]) == 2
    assert capsys.readouterr().err == "error: fill colours must be ASCII, got 'r\u00f8d'\n"
    assert loaded == [] and not svg_file.exists()


def test_nul_in_a_fill_is_refused():
    patch = PATCHES["deflated_half_dart"]()
    with pytest.raises(ValueError, match="NUL"):
        render_svg(patch, kite_fill="#8e\0cae6")


@pytest.mark.parametrize("fill", ["red\0", "\0red", "re\0d", "\0"])
@pytest.mark.parametrize("key", ["kite_fill", "dart_fill"])
def test_nul_anywhere_in_a_fill_is_refused_when_called(fill, key):
    # a trailing NUL once vanished in a fixed-width numpy string array
    patch = full_tile(HALF_KITE if key == "kite_fill" else HALF_DART)
    with pytest.raises(ValueError, match="NUL"):
        render_svg(patch, **{key: fill})
    style = dict(kite_fill=KITE_FILL, dart_fill=DART_FILL)
    style[key] = fill
    with pytest.raises(ValueError, match="NUL"):
        _svg_blocks(patch, None, "none", 0.03, **style)  # no block is asked for


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_stroke_width_that_is_not_finite_or_is_negative_is_refused(width):
    patch = full_tile(HALF_KITE)
    with pytest.raises(ValueError, match="stroke width must be finite and non-negative"):
        render_svg(patch, stroke_width=width)
    with pytest.raises(ValueError, match="stroke width"):
        _svg_blocks(patch, None, "none", width, KITE_FILL, DART_FILL)  # no block is asked for


def test_zero_stroke_width_is_drawn():
    assert 'stroke-width="0"' in render_svg(full_tile(HALF_KITE), stroke_width=0.0)


@pytest.mark.parametrize("width", ["nan", "inf", "-1"])
def test_cli_refuses_a_stroke_width_before_writing(width, tmp_path, capsys):
    patch_file, svg_file = str(tmp_path / "p.txt"), tmp_path / "p.svg"
    save_patch(PATCHES["deflated_half_dart"](), patch_file)
    assert main(["render", "--patch", patch_file, "--stroke-width", width, "--out", str(svg_file)]) == 2
    assert capsys.readouterr().err.startswith("error: stroke width must be finite and non-negative")
    assert not svg_file.exists()


@pytest.mark.parametrize("style, error", [
    (["--stroke-width", "nan"], "stroke width must be finite and non-negative, got nan"),
    (["--stroke-width", "inf"], "stroke width must be finite and non-negative, got inf"),
    (["--stroke-width", "-1"], "stroke width must be finite and non-negative, got -1.0"),
    (["--dart-fill", "red\0"], "fill colours must not hold NUL, got 'red\\x00'"),
], ids=["nan", "inf", "-1", "nul_fill"])
def test_cli_refuses_a_style_before_loading_the_patch(style, error, tmp_path, capsys, monkeypatch):
    def load_patch(path):
        raise AssertionError("the patch was loaded")

    monkeypatch.setattr(cli, "load_patch", load_patch)
    svg_file = tmp_path / "p.svg"
    assert main(["render", "--patch", str(tmp_path / "p.txt"), *style, "--out", str(svg_file)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not svg_file.exists()


def test_cli_refuses_a_nul_fill_before_writing(tmp_path, capsys):
    patch_file, svg_file = str(tmp_path / "p.txt"), tmp_path / "p.svg"
    save_patch(PATCHES["deflated_half_dart"](), patch_file)
    assert main(["render", "--patch", patch_file, "--kite-fill", "#8e\0cae6", "--out", str(svg_file)]) == 2
    assert capsys.readouterr().err == "error: fill colours must not hold NUL, got '#8e\\x00cae6'\n"
    assert not svg_file.exists()
    assert main(["render", "--patch", patch_file, "--dart-fill", "red\0", "--out", str(svg_file)]) == 2
    assert capsys.readouterr().err == "error: fill colours must not hold NUL, got 'red\\x00'\n"
    assert not svg_file.exists()


def test_non_ascii_fills_match_per_polygon_render(patch_and_net):
    # the byte tables hold UTF-8, so multi-byte characters and lone surrogates survive
    patch, net = patch_and_net
    style = dict(kite_fill="caf\u00e9", dart_fill="\U0001f600 \udc80")
    assert render_svg(patch, net=net, overlay="grid", **style) == per_polygon_render(patch, net, "grid", **style)
