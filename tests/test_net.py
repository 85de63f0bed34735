"""Net extraction: pairing, reference points, Delone statistics, counting."""

import math
import pathlib
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from penrosenet import net as net_module, tiling
from penrosenet.cli import main
from penrosenet.discrepancy import _CountGrid
from penrosenet.golden import (
    INV_PHI,
    PHI,
    CycloPoint,
    GoldenNum,
    PHI_FLOAT,
    SIN36,
    cross_s72,
    dot,
    squared_length,
)
from penrosenet.net import (
    COVERING_RADIUS_BOUND,
    SEPARATION,
    Net,
    count_in_square,
    export_net,
    extract_net,
    load_net,
)
from penrosenet.tiling import (
    EMBED_MATRIX,
    HALF_DART,
    HALF_KITE,
    LEFT,
    RIGHT,
    Patch,
    Square,
    _MINV,
    _embed,
    census,
    deflate_patch,
    generate_patch_covering,
    load_patch,
    patch_outline,
    save_patch,
)
from test_tiling import embed, full_tile


def full_tile_incenter(kind: int, apex: CycloPoint, axis_end: CycloPoint) -> CycloPoint:
    """Exact incircle center of the full tile with this symmetry axis (scalar oracle)."""
    if kind == HALF_KITE:
        return apex + (axis_end - apex).times_inv_phi()
    return axis_end + (apex - axis_end).times_inv_phi()


class NetPoint(NamedTuple):
    x: float
    y: float
    origin: CycloPoint
    source_kind: int
    tile_id: int


def net_point(net: Net, i: int) -> NetPoint:
    """Point ``i`` of a net as scalars, with its exact ring point."""
    return NetPoint(float(net.xy[i, 0]), float(net.xy[i, 1]),
                    CycloPoint(*map(int, net.ring[i])), int(net.source_kinds[i]), int(net.tile_ids[i]))


def line_distance(pt, a, b):
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay
    return abs(ex * (pt[1] - ay) - ey * (pt[0] - ax)) / math.hypot(ex, ey)


def sampled_c2(xy, window, outline=None, h=0.02):
    """Grid-sampled covering radius of the points ``xy``: a lower estimate within h*sqrt(2).

    Samples the window on a grid of step h, keeping the samples inside the
    (3, 4) ring ``outline`` triangle when there is one.
    """
    x0, y0, side = window
    xs = np.arange(x0, x0 + side + h / 2, h)
    ys = np.arange(y0, y0 + side + h / 2, h)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if outline is not None:
        tri = _embed(outline)
        keep = np.ones(len(pts), dtype=bool)
        for i in range(3):
            a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            keep &= cross * np.sign(orient) >= -1e-9
        pts = pts[keep]
    d, _ = cKDTree(xy).query(pts, k=1)
    return float(d.max())


def assert_c2_matches_sampler(net, h=0.02):
    oracle = sampled_c2(net.xy, net.window, net.outline, h)
    assert oracle - 1e-9 <= net.c2 <= oracle + h * math.sqrt(2.0)


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def clip_convex(poly, clip):
    """Sutherland-Hodgman: ``poly`` cut to the counter-clockwise convex ``clip``."""
    out = list(poly)
    for a, b in zip(clip, np.roll(clip, -1, axis=0)):
        pts, out = out, []
        sides = [float(_cross(b - a, p - a)) for p in pts]
        for k in range(len(pts)):
            p, q, sp, sq = pts[k - 1], pts[k], sides[k - 1], sides[k]
            if (sp < 0) != (sq < 0):
                out.append(p + (q - p) * (sp / (sp - sq)))
            if sq >= 0:
                out.append(q)
    return np.array(out, dtype=np.float64).reshape(-1, 2)


def reference_largest_gap(pts, region):
    """The largest empty circle centred in the convex ``region``: every classical candidate (Toussaint 1983).

    Circumcenters of a Delaunay triangulation inside the region, crossings
    of every Delaunay edge's bisector with the region's sides, and the
    region's vertices, all measured in one k-d tree query.
    """
    from scipy.spatial import Delaunay, QhullError

    try:
        simplices = Delaunay(pts).simplices
    except QhullError:  # fewer than three points, or all on one line
        order = np.lexsort(pts.T[::-1])
        edges = np.column_stack([order[:-1], order[1:]])
        centers = np.empty((0, 2))
    else:
        pairs = np.sort(simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1).astype(np.int64)
        keys = np.unique(pairs[:, 0] * len(pts) + pairs[:, 1])
        edges = np.column_stack([keys // len(pts), keys % len(pts)])
        a = pts[simplices[:, 0]]
        b = pts[simplices[:, 1]] - a
        c = pts[simplices[:, 2]] - a
        w = (b * b).sum(axis=1)[:, None] * c - (c * c).sum(axis=1)[:, None] * b
        with np.errstate(divide="ignore", invalid="ignore"):
            centers = a + np.column_stack([w[:, 1], -w[:, 0]]) / (2.0 * _cross(b, c))[:, None]
        centers = centers[np.isfinite(centers).all(axis=1)]
    sides = np.roll(region, -1, axis=0) - region
    lengths = np.hypot(sides[:, 0], sides[:, 1])
    inside = (_cross(sides, centers[:, None, :] - region) >= -1e-10 * lengths).all(axis=1)
    p, q = pts[edges[:, 0]], pts[edges[:, 1]]
    d = q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (((p + q) / 2.0 * d).sum(axis=1)[:, None] - d @ region.T) / (d @ sides.T)
    e, k = np.nonzero((t >= 0.0) & (t <= 1.0))
    crossings = region[k] + t[e, k, None] * sides[k]
    candidates = np.concatenate([centers[inside], crossings, region])
    dist, _ = cKDTree(pts).query(candidates, k=1)
    return float(dist.max())


def reference_c2(xy, window, outline=None):
    """The covering radius of the points ``xy`` over the window clipped to the outline, by a float Delaunay pass.

    The points within a pad of the region's bounding box are searched; the
    pad doubles from 2 until the radius found is below it.
    """
    xy = np.asarray(xy, dtype=np.float64)
    x0, y0, side = window
    region = np.array([[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]])
    if outline is not None:
        tri = _embed(outline)
        if _cross(tri[1] - tri[0], tri[2] - tri[0]) < 0:
            tri = tri[::-1]
        region = clip_convex(region, tri)
    if len(region) == 0:
        return 0.0
    lo, hi = region.min(axis=0), region.max(axis=0)
    pad = 2.0
    while True:
        near = np.all((xy >= lo - pad) & (xy <= hi + pad), axis=1)
        if near.any():
            radius = reference_largest_gap(xy[near], region)
            if radius < pad or near.all():
                return radius
        pad *= 2.0


def brute_c1(pts):
    """Minimum pairwise distance, one point against all later ones."""
    pts = np.asarray(pts, dtype=np.float64)
    return min(float(np.linalg.norm(pts[i + 1:] - pts[i], axis=1).min()) for i in range(len(pts) - 1))


def near_window(net: Net, pad: float = 2.0, reach: float = 32.0) -> np.ndarray:
    """The net's points within ``pad`` of its window, or of its central square of side 2 * ``reach`` if smaller."""
    half = min(net.window.side / 2.0, reach) + pad
    return net.xy[(np.abs(net.xy - net.window.center) <= half).all(axis=1)]


def reference_c2_of(net: Net) -> float:
    """``reference_c2`` of a net's points, window and outline."""
    return reference_c2(net.xy, net.window, net.outline)


# offsets of c1, c2 and c3 that ring_points_in_cells tries
_CELL_SEARCH = np.stack(np.meshgrid(*[np.arange(-6, 7)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def ring_points_in_cells(xy) -> np.ndarray:
    """(M, 4) ring points, each in the unit cell of a point of ``xy`` and the nearest to it of a small search.

    c1 starts at y / sin 72 and c1..c3 move by up to 6 from there; c0 puts
    x nearest.  A float point set becomes a net this way, cell for cell.
    """
    rows = []
    for x, y in np.asarray(xy, dtype=np.float64).reshape(-1, 2).tolist():
        c = _CELL_SEARCH + [round(y / math.sin(math.radians(72.0))), 0, 0]
        rest = _embed(np.column_stack([np.zeros(len(c), dtype=np.int64), c]))
        c0 = np.round(x - rest[:, 0])
        pts = rest + np.column_stack([c0, np.zeros(len(c))])
        d = np.where((np.floor(pts) == np.floor([x, y])).all(axis=1), np.hypot(pts[:, 0] - x, pts[:, 1] - y), np.inf)
        k = int(np.argmin(d))
        assert np.isfinite(d[k])
        rows.append([int(c0[k]), *c[k].tolist()])
    ring = np.array(rows, dtype=np.int64).reshape(-1, 4)
    assert np.array_equal(np.floor(net_module._ring_xy(ring)), np.floor(np.reshape(xy, (-1, 2))))
    return ring


def small_net(xy, window, kinds=None):
    """A net of kites (or ``kinds``) at ring points in the unit cells of the float points ``xy``."""
    ring = ring_points_in_cells(xy)
    kinds = np.broadcast_to(HALF_KITE if kinds is None else kinds, len(ring))
    return Net(np.where(kinds == HALF_DART, 20, 0), ring, np.arange(len(ring)), window)


C1_REFUSED = "c1 needs a net extracted from a tiling"
C2_REFUSED = "c2 needs a net extracted from a tiling"


def assert_refused(net: Net, c1: bool = True, c2: bool = True) -> None:
    """``net.c1`` and ``net.c2``, where asked, are refused with a ValueError, twice."""
    for _ in range(2):
        for name, refused, match in (("c1", c1, C1_REFUSED), ("c2", c2, C2_REFUSED)):
            if refused:
                with pytest.raises(ValueError, match=match):
                    getattr(net, name)


def full_tile_outline(kind):
    """Vertices of the paired tile: wing, apex, mirrored wing, axis_end."""
    patch = full_tile(kind)
    right, left = patch.tile(0), patch.tile(1)
    return [embed(v) for v in (right.wing, right.apex, left.wing, right.axis_end)]


class Extracted(NamedTuple):
    """An oracle extractor's net: its arrays, named and typed as ``Net``'s."""

    xy: np.ndarray
    source_kinds: np.ndarray
    tile_ids: np.ndarray
    window: Square
    ring: np.ndarray
    outline: np.ndarray | None


def lexsort_extract_net(p: Patch, window=None) -> Extracted:
    """The 9-column (kind, apex, axis_end) lexsort extractor extract_net replaced."""
    n = len(p)
    keys = np.empty((n, 9), dtype=np.int64)
    keys[:, 0] = p.kinds
    keys[:, 1:5] = p.coords[:, 1]
    keys[:, 5:9] = p.coords[:, 2]
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (sk[1:] != sk[:-1]).any(axis=1)
    starts = np.flatnonzero(new_group)
    sizes = np.diff(np.append(starts, n))
    if sizes.max(initial=1) > 2:
        raise ValueError("more than two half-tiles share a symmetry axis; invalid patch")
    pair_chir = np.add.reduceat(p.chiralities[order].astype(np.int64), starts)
    if np.any(pair_chir[sizes == 2] != 0):
        raise ValueError("paired half-tiles must have opposite chirality")

    reps = order[starts]
    kinds = p.kinds[reps]
    apex = p.coords[reps, 1]
    axis_end = p.coords[reps, 2]
    ring = np.empty_like(apex)
    kite_rows = kinds == HALF_KITE
    ring[kite_rows] = apex[kite_rows] + (axis_end[kite_rows] - apex[kite_rows]) @ _MINV
    dart_rows = ~kite_rows
    ring[dart_rows] = axis_end[dart_rows] + (apex[dart_rows] - axis_end[dart_rows]) @ _MINV

    tile_ids = np.minimum.reduceat(order, starts)
    out = np.argsort(tile_ids, kind="stable")

    xy = ring[out].astype(np.float64) @ EMBED_MATRIX
    prov = p.provenance
    outline = np.asarray(prov["outline"], dtype=np.int64) if "outline" in prov else None
    if window is not None:
        window = Square(*window)
    elif "square" in prov:
        window = Square(*prov["square"])
    else:
        lo = xy.min(axis=0)
        extent = float((xy.max(axis=0) - lo).max())
        window = Square(float(lo[0]) - 1.0, float(lo[1]) - 1.0, extent + 2.0)
    return Extracted(xy, kinds[out], tile_ids[out], window, ring[out], outline)


def column_extract_net(p: Patch, window=None) -> Extracted:
    """The extract_net the blocked incenter pass replaced: whole-array (n, 4) column views."""
    if len(p) == 0:
        raise ValueError("empty net")
    if p.scale_exp != 0:
        raise ValueError(
            f"net extraction requires final-scale tiles (scale_exp 0), got {p.scale_exp}"
        )
    n = len(p)
    coords = p.coords
    limit = net_module._COORD_LIMIT
    if coords.max() >= limit or coords.min() <= -limit:
        raise ValueError(f"tile coordinates must lie within +-2**{limit.bit_length() - 1}")

    apex = coords[:, 1]
    ring = np.subtract(coords[:, 2], apex)
    step = ring @ _MINV
    ring -= step
    ring -= step
    ring *= p.kinds[:, None]
    ring += step
    ring += apex
    del step

    offset = [int(col.min()) for col in ring.T]
    widths = [(int(col.max()) - low).bit_length() for col, low in zip(ring.T, offset)]
    if 1 + sum(widths) > 63:
        raise ValueError(f"tile key needs {1 + sum(widths)} bits, more than 63")
    ring -= offset
    key = p.kinds.astype(np.int64)
    for col, width in zip(ring.T, widths):
        key <<= width
        key += col

    order = np.argsort(key)
    sk = key[order]
    del key
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sk[1:], sk[:-1], out=new_group[1:])
    del sk
    starts = np.flatnonzero(new_group)
    sizes = np.diff(starts, append=n)
    if sizes.max() > 2:
        raise ValueError("more than two half-tiles share one tile incenter; invalid patch")
    pairs = starts[sizes == 2]
    a, b = order[pairs], order[pairs + 1]
    if np.any(p.chiralities[a] == p.chiralities[b]):
        raise ValueError("paired half-tiles must have opposite chirality")
    if any(np.any(col[a] != col[b]) for col in apex.T):
        raise ValueError("paired half-tiles must share their apex; overlapping tiles")
    first = np.ones(n, dtype=bool)
    first[np.maximum(a, b)] = False
    tile_ids = np.flatnonzero(first)

    ring = ring.take(tile_ids, axis=0)
    ring += offset
    xy = _embed(ring)
    on_x = ring[:, 1] - ring[:, 2] == ring[:, 3]
    xy[on_x, 0] = (2 * ring[on_x, 0] - ring[on_x, 1]) / 2.0
    xy[(ring[:, 1] == 0) & (ring[:, 2] == ring[:, 3]), 1] = 0.0

    prov = p.provenance
    outline = patch_outline(p) if "outline" in prov else None
    if window is not None:
        window = Square(*window)
    elif "square" in prov:
        window = Square(*prov["square"])
    else:
        lo = xy.min(axis=0)
        extent = float((xy.max(axis=0) - lo).max())
        window = Square(float(lo[0]) - 1.0, float(lo[1]) - 1.0, extent + 2.0)
    return Extracted(xy, p.kinds[tile_ids], tile_ids, window, ring, outline)


def assert_matches_columns(patch: Patch, window=None) -> Net:
    """extract_net equals the column extractor bit for bit."""
    new, old = extract_net(patch, window), column_extract_net(patch, window)
    assert new.ring.dtype == np.int64 and new.ring.shape == (len(new), 4)
    for attr in ("xy", "ring", "tile_ids", "source_kinds"):
        x, y = getattr(new, attr), getattr(old, attr)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), attr
    assert tuple(new.window) == tuple(old.window)
    if old.outline is None:
        assert new.outline is None
    else:
        assert new.outline.tobytes() == old.outline.tobytes()
    return new


def exact_x(origin: CycloPoint) -> GoldenNum:
    return dot(origin, CycloPoint(1))


def exact_y_over_sin72(origin: CycloPoint) -> GoldenNum:
    return cross_s72(CycloPoint(1), origin)


SIN72_SQUARED = GoldenNum(Fraction(1, 2), Fraction(1, 4))  # (2 + phi) / 4


def exact_floor(value, at_most) -> int:
    """Largest integer k with at_most(k), searched from the float estimate."""
    k = math.floor(value)
    while not at_most(k):
        k -= 1
    while at_most(k + 1):
        k += 1
    return k


def exact_cell(origin: CycloPoint, x: float, y: float) -> tuple[int, int]:
    """(floor x, floor y) of a ring point, decided in exact golden arithmetic."""
    ex = exact_x(origin)
    h = exact_y_over_sin72(origin)  # y = sin72 h, so y**2 = (2 + phi)/4 h**2
    y2 = SIN72_SQUARED * h * h

    def y_at_least(k: int) -> bool:
        if h.sign() >= 0:
            return k <= 0 or GoldenNum(k * k) <= y2
        return k < 0 and GoldenNum(k * k) >= y2

    return (
        exact_floor(x, lambda k: GoldenNum(k) <= ex),
        exact_floor(y, y_at_least),
    )


def assert_matches_lexsort(patch: Patch, window=None) -> Net:
    """extract_net equals the lexsort extractor bit for bit, up to grid-line snapping.

    A coordinate may differ only where it is exactly an integer or
    half-integer x or y = 0: there the new value is the exact one and the
    old float was within 1e-9 of it.
    """
    new, old = extract_net(patch, window), lexsort_extract_net(patch, window)
    for attr in ("source_kinds", "tile_ids", "ring"):
        x, y = getattr(new, attr), getattr(old, attr)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), attr
    assert new.xy.dtype == old.xy.dtype and new.xy.shape == old.xy.shape
    if old.outline is None:
        assert new.outline is None
    else:
        assert new.outline.tobytes() == old.outline.tobytes()
    ring = new.ring
    grid_x = ring[:, 1] - ring[:, 2] == ring[:, 3]
    grid_y = (ring[:, 1] == 0) & (ring[:, 2] == ring[:, 3])
    assert np.array_equal(new.xy[grid_x, 0] * 2.0, (2 * ring[grid_x, 0] - ring[grid_x, 1]))
    assert np.all(new.xy[grid_y, 1] == 0.0)
    for col, snapped in ((0, grid_x), (1, grid_y)):
        same = new.xy[:, col].view(np.int64) == old.xy[:, col].view(np.int64)
        assert np.all(same | snapped)
        assert np.all(np.abs(new.xy[:, col] - old.xy[:, col]) <= 1e-9)
    if np.array_equal(new.xy, old.xy):
        assert tuple(new.window) == tuple(old.window)
    else:
        assert np.allclose(tuple(new.window), tuple(old.window), rtol=0, atol=1e-9)
    return new


class TestReferencePoints:
    def test_kite_point_is_incenter(self):
        tile = Patch.single_tile(HALF_KITE).tile(0)
        center = embed(full_tile_incenter(HALF_KITE, tile.apex, tile.axis_end))
        quad = full_tile_outline(HALF_KITE)
        dists = [
            line_distance(center, quad[i], quad[(i + 1) % 4]) for i in range(4)
        ]
        assert max(dists) - min(dists) < 1e-12
        assert abs(dists[0] - SIN36) < 1e-12

    def test_dart_point_is_incenter(self):
        tile = Patch.single_tile(HALF_DART).tile(0)
        center = embed(full_tile_incenter(HALF_DART, tile.apex, tile.axis_end))
        quad = full_tile_outline(HALF_DART)
        dists = [
            line_distance(center, quad[i], quad[(i + 1) % 4]) for i in range(4)
        ]
        assert max(dists) - min(dists) < 1e-12
        assert abs(dists[0] - SIN36 / PHI_FLOAT) < 1e-12

    def test_dart_wing_distance_attains_covering_bound(self):
        tile = Patch.single_tile(HALF_DART).tile(0)
        center = np.array(embed(full_tile_incenter(HALF_DART, tile.apex, tile.axis_end)))
        worst = max(
            float(np.linalg.norm(center - np.array(v))) for v in full_tile_outline(HALF_DART)
        )
        assert abs(worst - COVERING_RADIUS_BOUND) < 1e-12
        assert abs(COVERING_RADIUS_BOUND - math.sqrt(3.0 - PHI_FLOAT)) < 1e-15

    def test_kite_vertices_within_bound(self):
        tile = Patch.single_tile(HALF_KITE).tile(0)
        center = np.array(embed(full_tile_incenter(HALF_KITE, tile.apex, tile.axis_end)))
        worst = max(
            float(np.linalg.norm(center - np.array(v))) for v in full_tile_outline(HALF_KITE)
        )
        assert worst <= COVERING_RADIUS_BOUND + 1e-12


class TestExtraction:
    def test_lone_half_and_full_tile_agree(self):
        half = extract_net(Patch.single_tile(HALF_KITE))
        full = extract_net(full_tile(HALF_KITE))
        assert len(half) == 1
        assert len(full) == 1
        assert np.allclose(half.xy, full.xy, atol=1e-12)
        assert half.source_kinds[0] == full.source_kinds[0] == HALF_KITE

    def test_pair_counts_generation_two(self):
        patch = deflate_patch(full_tile(HALF_KITE, scale_exp=-2), 2)
        assert tuple(census(patch)) == (10, 6)
        net = extract_net(patch)
        kites = int(np.count_nonzero(net.source_kinds == HALF_KITE))
        darts = len(net) - kites
        assert (kites, darts) == (6, 5)

    def test_point_count_between_half_and_full_census(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5)
        counts = census(patch)
        net = extract_net(patch)
        assert math.ceil(counts.total() / 2) <= len(net) <= counts.total()

    def test_points_are_exact_ring_points(self):
        patch = deflate_patch(Patch.single_tile(HALF_DART, scale_exp=-4), 4)
        net = extract_net(patch)
        assert net.ring is not None
        for i in range(0, len(net), 5):
            p = net_point(net, i)
            x, y = embed(p.origin)
            assert abs(x - p.x) < 1e-12
            assert abs(y - p.y) < 1e-12

    def test_tile_ids_sorted_and_unique(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        net = extract_net(patch)
        ids = net.tile_ids
        assert np.all(np.diff(ids) > 0)

    def test_requires_final_scale(self):
        with pytest.raises(ValueError, match="scale_exp"):
            extract_net(Patch.single_tile(HALF_KITE, scale_exp=-1))

    def test_empty_patch_refused(self):
        with pytest.raises(ValueError, match="empty net"):
            extract_net(Patch.from_classes(np.empty(0, dtype=np.uint8), np.empty((4, 0), dtype=np.int32)))

    def test_window_override(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
        net = extract_net(patch, window=Square(-1.0, -1.0, 4.0))
        assert net.window == Square(-1.0, -1.0, 4.0)

    def test_transformed_covering_patch_gets_its_bounding_box(self):
        # the stale covering square (0, 0, 32) held 285 of the moved net's 3434 points
        moved = generate_patch_covering(Square(0.0, 0.0, 32.0)).transformed(tenth_turns=5)
        net = extract_net(moved)
        x, y, side = net.window
        assert x < 0 and y < 0
        inside = (net.xy >= (x, y)) & (net.xy < (x + side, y + side))
        assert len(net) == 3434 and inside.all()


def tiles(*patches: Patch) -> Patch:
    """The half-tiles of several final-scale patches as one patch."""
    return Patch(
        np.concatenate([p.kinds for p in patches]),
        np.concatenate([p.chiralities for p in patches]),
        np.concatenate([p.coords for p in patches]),
    )


def incenter_at_origin(kind: int, chirality: int) -> Patch:
    """One half-tile translated so that its full tile's incenter is the origin."""
    half = Patch.single_tile(kind, chirality)
    t = half.tile(0)
    return half.transformed(translation=-full_tile_incenter(kind, t.apex, t.axis_end))


class TestExtractionOracle:
    @pytest.mark.parametrize("square", [
        Square(0.0, 0.0, 16.0),
        Square(-3.0, 5.0, 16.0),
        Square(-20.0, 13.0, 64.0),
        Square(0.0, 0.0, 128.0),
        Square(5.0, -40.0, 256.0),
    ])
    def test_covering_patches(self, square):
        assert_matches_lexsort(generate_patch_covering(square))

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    def test_single_tile_and_deflated_tile(self, kind, chirality):
        assert_matches_lexsort(Patch.single_tile(kind, chirality))
        assert_matches_lexsort(deflate_patch(Patch.single_tile(kind, chirality, scale_exp=-7), 7))

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_full_tile(self, kind):
        assert_matches_lexsort(full_tile(kind))
        assert_matches_lexsort(deflate_patch(full_tile(kind, scale_exp=-5), 5))

    def test_rotated_and_translated_patch(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-6), 6)
        moved = patch.transformed(tenth_turns=3, translation=CycloPoint(10**6, -(10**6), 7, 2**40))
        assert_matches_lexsort(moved)

    def test_window_override(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 16.0))
        assert_matches_lexsort(patch, Square(2.0, 3.0, 8.0))

    def test_kite_and_dart_on_one_incenter_stay_apart(self):
        patch = tiles(incenter_at_origin(HALF_KITE, RIGHT), incenter_at_origin(HALF_DART, LEFT))
        net = assert_matches_lexsort(patch)
        assert net.source_kinds.tolist() == [HALF_KITE, HALF_DART]

    def test_loaded_patch(self, tmp_path):
        path = str(tmp_path / "patch.txt")
        save_patch(generate_patch_covering(Square(-3.0, 5.0, 16.0)), path)
        assert_matches_lexsort(load_patch(path))

    def test_permuted_rows(self):
        patch = generate_patch_covering(Square(-20.0, 13.0, 64.0))
        perm = np.random.default_rng(5).permutation(len(patch))
        shuffled = Patch(
            patch.kinds[perm], patch.chiralities[perm], patch.coords[perm],
            patch.generation, patch.scale_exp, patch.provenance,
        )
        net = assert_matches_lexsort(shuffled)
        # the same tiles, now numbered by their first half in the permuted order
        unshuffled = extract_net(patch)
        assert len(net) == len(unshuffled)
        assert sorted(map(tuple, net.ring.tolist())) == sorted(map(tuple, unshuffled.ring.tolist()))


def deflated(kind: int, chirality: int, rounds: int = 11) -> Patch:
    return deflate_patch(Patch.single_tile(kind, chirality, scale_exp=-rounds), rounds)


def rows_of(p: Patch, rows) -> Patch:
    """The half-tiles of ``p`` at ``rows``, repeats allowed, as one patch."""
    return Patch(p.kinds[rows], p.chiralities[rows], p.coords[rows])


def first_rows(p: Patch, n: int) -> Patch:
    return Patch(p.kinds[:n], p.chiralities[:n], p.coords[:n], p.generation, p.scale_exp, p.provenance)


FAR = CycloPoint(10**6, 0, 0, 0)  # a net point there has the largest first key field


class TestBlockedPass:
    """The blocked incenter pass against the column extractor it replaced."""

    B = net_module._EXTRACT_BLOCK

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    def test_block_boundaries(self, kind, chirality):
        patch = deflated(kind, chirality)
        assert len(patch) > 2 * self.B + 1
        for n in (self.B - 1, self.B, self.B + 1, 2 * self.B + 1, len(patch)):
            assert_matches_columns(first_rows(patch, n))

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    def test_transformed_and_loaded(self, kind, chirality, tmp_path):
        moved = deflated(kind, chirality).transformed(tenth_turns=3, translation=CycloPoint(10**6, -(10**6), 7, 2**40))
        assert_matches_columns(moved)
        path = str(tmp_path / "patch.txt")
        save_patch(moved, path)
        assert_matches_columns(load_patch(path))

    @pytest.mark.parametrize("square", [Square(-20.0, 13.0, 64.0), Square(5.0, -40.0, 256.0)])
    def test_covering_patches(self, square):
        patch = generate_patch_covering(square)
        assert_matches_columns(patch)
        assert_matches_columns(patch, Square(2.0, 3.0, 8.0))

    @pytest.fixture(scope="class")
    def base(self):
        """Three full blocks and a part, and more pairs than one block."""
        patch = deflated(HALF_DART, RIGHT)
        assert len(patch) > 3 * self.B and len(patch) - len(column_extract_net(patch).xy) > self.B
        return patch

    def assert_both_raise(self, patch, match):
        for extract in (extract_net, column_extract_net):
            with pytest.raises(ValueError, match=match):
                extract(patch)

    @pytest.mark.parametrize("vertex, coeff, value", [
        (1, 0, 2**56), (2, 3, -(2**56)), (0, 3, -(2**56)), (0, 1, 2**62),
    ])
    def test_coordinate_limit_in_the_last_row(self, base, vertex, coeff, value):
        # the last half-tile moved so that one coefficient of one of its
        # vertices reaches the value; vertex 0 is the wing, which no incenter reads
        last = rows_of(base, [len(base) - 1])
        shift = [0, 0, 0, 0]
        shift[coeff] = value - int(last.coords[0, vertex, coeff])
        moved = tiles(first_rows(base, len(base) - 1), last.transformed(translation=CycloPoint(*shift)))
        assert moved.coords[-1, vertex, coeff] == value
        self.assert_both_raise(moved, "coordinates must lie within")

    def test_key_wider_than_63_bits_at_the_end(self, base):
        far = Patch.single_tile(HALF_KITE, translation=CycloPoint(*([2**50] * 4)))
        self.assert_both_raise(tiles(base, far), "more than 63")

    def test_three_halves_at_the_end(self, base):
        third = tiles(full_tile(HALF_DART), Patch.single_tile(HALF_DART, RIGHT))
        self.assert_both_raise(tiles(base, third.transformed(translation=FAR)), "more than two")

    def test_same_chirality_pair_at_the_end(self, base):
        full = full_tile(HALF_DART)
        same = rows_of(full, [1, 1]).transformed(translation=FAR)  # the LEFT half twice
        self.assert_both_raise(tiles(base, same), "opposite chirality")

    def test_apex_mismatch_in_the_last_block_of_pairs(self, base):
        # a dart pair far out in +x has the largest key, so it is the last
        # pair in sort order
        right = incenter_at_origin(HALF_DART, RIGHT).transformed(translation=FAR)
        turned = incenter_at_origin(HALF_DART, LEFT).transformed(tenth_turns=2, translation=FAR)
        self.assert_both_raise(tiles(base, right, turned), "share their apex")


class TestApexWords:
    """Halves paired on (kind, incenter) share their apex exactly when their classes share a direction.

    The check once compared a packed word of the incenter minus the apex;
    now a pair far out along any coefficient is checked through its classes.
    """

    @pytest.mark.parametrize("coeff", range(4))
    def test_apex_mismatch_in_any_word(self, coeff):
        shift = [0, 0, 0, 0]
        shift[coeff] = 2**40
        right = incenter_at_origin(HALF_DART, RIGHT)
        turned = incenter_at_origin(HALF_DART, LEFT).transformed(tenth_turns=2)
        patch = tiles(deflated(HALF_KITE, RIGHT, rounds=6), tiles(right, turned).transformed(translation=CycloPoint(*shift)))
        for extract in (extract_net, column_extract_net):
            with pytest.raises(ValueError, match="share their apex"):
                extract(patch)


class TestSavedPatchNet:
    @pytest.mark.parametrize("square", [Square(-37.0, 21.0, 64.0), Square(5.0, -9.0, 32.0)])
    def test_loaded_patch_gives_the_same_net(self, square, tmp_path):
        patch = generate_patch_covering(square)
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        net, loaded = extract_net(patch), extract_net(load_patch(path))
        assert net.xy.tobytes() == loaded.xy.tobytes()
        assert net.tile_ids.tobytes() == loaded.tile_ids.tobytes()
        assert net.ring.tobytes() == loaded.ring.tobytes()
        assert net.source_kinds.tobytes() == loaded.source_kinds.tobytes()


def packed_words(n: int, key_bits: int) -> int:
    """1 where a key fits beside its index in one 63-bit word, so ``_sorted_keys`` makes one value sort; else 2."""
    return 1 if key_bits + max(n - 1, 0).bit_length() <= 63 else 2


def assert_sorted_keys(key: np.ndarray, key_bits: int) -> None:
    """``_sorted_keys`` gives a permutation under which the keys ascend, so equal keys are adjacent."""
    order, sorted_key = net_module._sorted_keys(key, key_bits)
    assert order.dtype == np.int64 and np.array_equal(np.sort(order), np.arange(len(key)))
    assert sorted_key.dtype == np.int64 and sorted_key.tobytes() == key[order].tobytes() == np.sort(key).tobytes()


def ties_reversed(sorted_keys):
    """``sorted_keys`` with the order of every run of equal keys reversed."""
    def reversed_ties(key, key_bits):
        order, sorted_key = sorted_keys(key, key_bits)
        flip = np.lexsort((-np.arange(len(order)), sorted_key))
        return order[flip], sorted_key[flip]
    return reversed_ties


class TestStableOrder:
    """``_sorted_keys``: the one packed value sort where a key fits beside its index, else ``np.argsort``.

    The order of equal keys is not fixed; ``_first_halves`` does not depend on it.
    """

    def test_one_digit(self):
        key = np.random.default_rng(3).integers(0, 2**30, size=5000)
        assert packed_words(len(key), 30) == 1
        assert_sorted_keys(key, 30)

    @pytest.mark.parametrize("key_bits", [53, 60, 63])
    def test_two_digits(self, key_bits):
        key = np.random.default_rng(key_bits).integers(0, 2**key_bits, size=2000)
        assert packed_words(len(key), key_bits) == 2
        assert_sorted_keys(key, key_bits)

    @pytest.mark.parametrize("key_bits", [20, 60])
    def test_many_duplicates(self, key_bits):
        # few distinct keys, which agree in the low bits and differ in the high ones
        rng = np.random.default_rng(8)
        pool = np.array([0, 1, 5, 2**(key_bits - 1), 2**(key_bits - 1) + 1, 2**key_bits - 1])
        key = pool[rng.integers(0, len(pool), size=3 * net_module._EXTRACT_BLOCK + 5)]
        assert packed_words(len(key), key_bits) == (1 if key_bits == 20 else 2)
        assert_sorted_keys(key, key_bits)

    @pytest.mark.parametrize("key", [[5], [0], [7, 7], [9, 3], [2**63 - 1, 2**63 - 1], [2**63 - 1, 0]])
    def test_one_and_two_keys(self, key):
        assert_sorted_keys(np.array(key, dtype=np.int64), 63)
        assert_sorted_keys(np.array(key, dtype=np.int64), max(key).bit_length())

    def test_keys_that_use_all_63_bits(self):
        top = 2**63 - 1
        key = np.array([top, 0, 2**62, top, 1, 2**62 + 1, 2**62, 0, top - 1] * 250, dtype=np.int64)
        assert packed_words(len(key), 63) == 2
        assert_sorted_keys(key, 63)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_keys(self, data):
        # keys drawn from a small pool, so most of them repeat
        bits = data.draw(st.integers(0, 63))
        pool = data.draw(st.lists(st.integers(0, 2**bits - 1), min_size=1, max_size=8))
        key = data.draw(st.lists(st.sampled_from(pool), max_size=300))
        assert_sorted_keys(np.array(key, dtype=np.int64), bits)

    def test_extraction_through_two_digits(self):
        base = deflated(HALF_DART, RIGHT)
        patch = tiles(base, base.transformed(translation=CycloPoint(2**30, 0, 0, 0)))
        _, widths = net_module._pairing_key(patch)
        assert packed_words(len(patch), 1 + sum(widths)) == 2
        assert_matches_columns(patch)

    @pytest.mark.parametrize("shift, words", [(0, 1), (2**30, 2)])
    def test_first_halves_ignore_the_order_of_ties(self, shift, words, monkeypatch):
        # each tile's two halves share a key; with every tie reversed the
        # other half of each pair comes first in the sorted order
        base = deflated(HALF_DART, RIGHT, rounds=9)
        patch = tiles(base, base.transformed(translation=CycloPoint(shift, 0, 0, 0))) if shift else base
        key, widths = net_module._pairing_key(patch)
        bits = 1 + sum(widths)
        assert packed_words(len(patch), bits) == words
        reverse = ties_reversed(net_module._sorted_keys)
        assert not np.array_equal(net_module._sorted_keys(key, bits)[0], reverse(key, bits)[0])
        want = net_module._first_halves(key, bits, patch.classes)
        monkeypatch.setattr(net_module, "_sorted_keys", reverse)
        assert net_module._first_halves(key, bits, patch.classes).tobytes() == want.tobytes()


class TestTileOrder:
    """The net of a patch does not depend on the order of its half-tiles."""

    @pytest.mark.parametrize("square", [Square(-37.0, 21.0, 64.0), Square(5.0, -40.0, 128.0)])
    def test_tile_shuffled_covering_patch(self, square):
        patch = generate_patch_covering(square)
        perm = np.random.default_rng(7).permutation(len(patch))
        shuffled = Patch(
            patch.kinds[perm], patch.chiralities[perm], patch.coords[perm],
            patch.generation, patch.scale_exp, patch.provenance,
        )
        net, moved = extract_net(patch), extract_net(shuffled)
        # a tile's halves share kind, apex and axis end; after the shuffle its
        # point is numbered by whichever half comes first
        halves = np.column_stack([patch.kinds, patch.coords[:, 1], patch.coords[:, 2]])
        _, tile = np.unique(halves, axis=0, return_inverse=True)
        tile = tile.ravel()
        assert len(net) == tile.max() + 1 == len(np.unique(tile[net.tile_ids]))
        new_index = np.empty_like(perm)
        new_index[perm] = np.arange(len(perm))
        first = np.full(len(net), len(patch))
        np.minimum.at(first, tile, new_index)
        ids = first[tile[net.tile_ids]]
        order = np.argsort(ids)
        assert moved.tile_ids.tobytes() == ids[order].tobytes()
        assert moved.xy.tobytes() == net.xy[order].tobytes()
        assert moved.ring.tobytes() == net.ring[order].tobytes()
        assert moved.source_kinds.tobytes() == net.source_kinds[order].tobytes()


# the three pairing faults, in the order extract_net reports them
MORE_THAN_TWO = "more than two half-tiles share one tile incenter; invalid patch"
SAME_CHIRALITY = "paired half-tiles must have opposite chirality"
APEX_MISMATCH = "paired half-tiles must share their apex; overlapping tiles"


class TestPairingErrorPrecedence:
    @staticmethod
    def faults(spread: int) -> dict:
        """Patches with one pairing fault each, ``spread`` apart along the first coefficient."""
        full = full_tile(HALF_DART)
        pieces = {
            MORE_THAN_TWO: tiles(full_tile(HALF_KITE), Patch.single_tile(HALF_KITE, RIGHT)),
            SAME_CHIRALITY: rows_of(full, [1, 1]),  # the LEFT half twice
            APEX_MISMATCH: tiles(incenter_at_origin(HALF_DART, RIGHT),
                                 incenter_at_origin(HALF_DART, LEFT).transformed(tenth_turns=2)),
        }
        return {msg: piece.transformed(translation=CycloPoint((k + 1) * spread, 0, 0, 0))
                for k, (msg, piece) in enumerate(pieces.items())}

    @pytest.mark.parametrize("spread, words", [(1000, 1), (2**40, 2)])
    def test_messages_and_precedence(self, spread, words):
        base = deflated(HALF_DART, RIGHT, rounds=6)
        faults = self.faults(spread)
        expected = list(faults)
        for k, msg in enumerate(expected):
            present = [faults[m] for m in expected[k:]]
            for patch in (tiles(base, *present), tiles(*present[::-1], base)):
                _, widths = net_module._pairing_key(patch)
                assert packed_words(len(patch), 1 + sum(widths)) == words
                with pytest.raises(ValueError) as raised:
                    extract_net(patch)
                assert str(raised.value) == msg


class TestExtractionErrors:
    def test_three_halves_on_one_tile(self):
        full = full_tile(HALF_KITE)
        with pytest.raises(ValueError, match="more than two"):
            extract_net(tiles(full, Patch.single_tile(HALF_KITE, RIGHT)))

    @pytest.mark.parametrize("halves", [3, 4])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_more_than_two_halves_anywhere_in_key_order(self, halves, where):
        # keys order as (kind, incenter coefficients): a kite far out in -x
        # sorts first, a dart far out in +x last, and a paired tile near the
        # median key of the base patch sits in the middle
        base = deflated(HALF_DART, RIGHT, rounds=6)
        if where == "middle":
            coords = base.coords
            axis = coords[:, 2] - coords[:, 1]
            step = axis @ _MINV
            # every half's full-tile incenter: apex + step for a kite, apex + axis - step for a dart
            ring = np.where((base.kinds == HALF_KITE)[:, None], coords[:, 1] + step, coords[:, 1] + axis - step).T
            order = np.lexsort((*ring[::-1], base.kinds))
            ranked = np.vstack([base.kinds, ring])[:, order]
            pairs = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).all(axis=0))
            j = int(pairs[np.argmin(np.abs(pairs - len(base) // 2))])
            assert 0 < j < len(base) - 2
            extra = rows_of(base, [int(order[j])] * (halves - 2))
        else:
            kind, shift = (HALF_KITE, -FAR) if where == "first" else (HALF_DART, FAR)
            extra = tiles(full_tile(kind), *[Patch.single_tile(kind, RIGHT)] * (halves - 2))
            extra = extra.transformed(translation=shift)
        for patch in (tiles(extra, base), tiles(base, extra)):
            with pytest.raises(ValueError, match="more than two"):
                extract_net(patch)

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_same_chirality_pair(self, kind):
        full = full_tile(kind)
        same = rows_of(full, [0, 0])  # the RIGHT half twice
        with pytest.raises(ValueError, match="opposite chirality"):
            extract_net(same)

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_pair_with_different_apexes(self, kind):
        right = incenter_at_origin(kind, RIGHT)
        turned = incenter_at_origin(kind, LEFT).transformed(tenth_turns=2)
        patch = tiles(right, turned)
        assert not np.array_equal(patch.coords[0, 1], patch.coords[1, 1])
        # the lexsort extractor kept them apart: two points at one place
        old = lexsort_extract_net(patch)
        assert len(old.xy) == 2 and np.array_equal(old.ring[0], old.ring[1])
        with pytest.raises(ValueError, match="share their apex"):
            extract_net(patch)

    @pytest.mark.parametrize("coeff", [2**62, -(2**62), 2**56, -(2**56)])
    def test_coordinates_that_could_wrap(self, coeff):
        patch = Patch.single_tile(HALF_DART, translation=CycloPoint(0, coeff, 0, 0))
        with pytest.raises(ValueError, match="coordinates must lie within"):
            extract_net(patch)

    def test_largest_accepted_coordinates(self):
        big = 2**56 - 64
        patch = Patch.single_tile(HALF_DART, translation=CycloPoint(big, -big, big, -big))
        assert_matches_lexsort(patch)

    def test_key_wider_than_63_bits(self):
        far = Patch.single_tile(HALF_KITE, translation=CycloPoint(*([2**50] * 4)))
        with pytest.raises(ValueError, match="more than 63"):
            extract_net(tiles(Patch.single_tile(HALF_KITE), far))

    def test_analyze_rejects_saved_patch_with_huge_coordinates(self, tmp_path, capsys):
        path = str(tmp_path / "patch.txt")
        save_patch(Patch.single_tile(HALF_KITE, translation=CycloPoint(2**62, 0, 0, 0)), path)
        code = main(["analyze", "--patch", path, "--window", "0", "0", "1",
                     "--i-min", "0", "--i-max", "0", "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "coordinates must lie within" in capsys.readouterr().err


class TestGridLines:
    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("moved", [False, True])
    def test_rational_coordinates_are_exact(self, kind, moved):
        patch = deflate_patch(Patch.single_tile(kind, scale_exp=-8), 8)
        if moved:
            patch = patch.transformed(tenth_turns=1, translation=CycloPoint(3, 1, -2, 5))
        on_x = on_y = 0
        net = extract_net(patch)
        for point in (net_point(net, i) for i in range(len(net))):
            x = exact_x(point.origin)
            if x.b == 0:
                on_x += 1
                assert point.x == float(x.a) and 2 * x.a == int(2 * x.a)
            if exact_y_over_sin72(point.origin) == 0:
                on_y += 1
                assert math.copysign(1.0, point.y) == 1.0 and point.y == 0.0
        assert on_x > 0 and (moved or on_y > 0)

    @pytest.mark.parametrize("window", [Square(-233.0, -51.0, 8.0), Square(-241.0, -51.0, 8.0)])
    def test_cell_counts_on_window_edge_through_integer_x(self, window):
        # points at exact x = -233 (and -232), whose float embedding is 3e-14 low
        patch = generate_patch_covering(Square(0.0, 0.0, 128.0))
        net = extract_net(patch, window=window)
        x0, y0, side = (int(v) for v in window)
        on_edge = np.flatnonzero(net.xy[:, 0] == -233.0)
        assert len(on_edge) >= 3
        assert np.any(lexsort_extract_net(patch).xy[on_edge, 0] < -233.0)

        expected = np.zeros((2, side, side), dtype=np.int64)
        near = np.flatnonzero(
            (net.xy[:, 0] > x0 - 1) & (net.xy[:, 0] < x0 + side + 1)
            & (net.xy[:, 1] > y0 - 1) & (net.xy[:, 1] < y0 + side + 1)
        )
        for i in near:
            point = net_point(net, int(i))
            cx, cy = exact_cell(point.origin, point.x, point.y)
            if x0 <= cx < x0 + side and y0 <= cy < y0 + side:
                expected[point.source_kind, cx - x0, cy - y0] += 1
        assert expected.sum() > 0

        kites, darts = _CountGrid(net).square_counts(1)
        assert np.array_equal(kites, expected[HALF_KITE])
        assert np.array_equal(darts, expected[HALF_DART])
        for cx in (0, side - 1):
            for cy in range(side):
                cell = Square(float(x0 + cx), float(y0 + cy), 1.0)
                assert count_in_square(net, cell) == (
                    expected[HALF_KITE, cx, cy], expected[HALF_DART, cx, cy])


_TWO = np.zeros((2, 4), dtype=np.int64)
# arrays a Net refuses with one line; from float_ring on, inputs a Net once
# took as they came (truncating, wrapping, or failing later)
MALFORMED_ARRAYS = {
    "three_columns": ([0, 0], np.zeros((2, 3), dtype=np.int64), [0, 1], r"ring must be \(M, 4\)"),
    "one_dimensional": ([0, 0], np.zeros(8, dtype=np.int64), [0, 1], r"ring must be \(M, 4\)"),
    "short_kinds": ([0], _TWO, [0, 1], "equal length"),
    "short_ids": ([0, 0], _TWO, [0], "equal length"),
    "class_40": ([0, 40], _TWO, [0, 1], r"classes must lie in 0\.\.39"),
    "float_ring": ([0, 0], np.array([[0.5, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]]), [0, 1], "integer ring coordinates"),
    "ring_3_by_3_for_2_points": ([0, 0], np.zeros((3, 3), dtype=np.int64), [0, 1], r"ring must be \(M, 4\)"),
    "class_256": ([256], [[0, 0, 0, 0]], [0], r"classes must lie in 0\.\.39"),
    "class_minus_1": ([-1], [[0, 0, 0, 0]], [0], r"classes must lie in 0\.\.39"),
    "float_class": ([20.0], [[0, 0, 0, 0]], [0], r"classes must lie in 0\.\.39"),
    "ring_past_2_56": ([20], [[2**56 + 1, 0, 0, 0]], [0], r"ring coefficients must lie within \+-2\*\*56"),
    "ring_below_2_56": ([20], [[0, 0, 0, -(2**56) - 1]], [0], r"ring coefficients must lie within \+-2\*\*56"),
    "uint64_ring_past_int64": ([20], np.array([[2**63, 0, 0, 0]], dtype=np.uint64), [0], "must lie within"),
}


class TestDeloneStatistics:
    def test_c1_matches_brute_force(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5)
        net = extract_net(patch)
        assert net.c1 == SEPARATION
        assert abs(brute_c1(net.xy) - net.c1) <= 1e-13

    def test_c1_value_twice_dart_inradius(self):
        # adjacent dart points sit one dart inradius off each side of a
        # shared edge, and that is the closest approach
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-6), 6)
        net = extract_net(patch)
        assert net.c1 == pytest.approx(2.0 * SIN36 / PHI_FLOAT, abs=1e-9)

    def test_c1_stable_across_generations(self):
        values = []
        for gen in (6, 7):
            patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-gen), gen)
            values.append(extract_net(patch).c1)
        assert abs(values[0] - values[1]) < 1e-9

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    @pytest.mark.parametrize("generation", [5, 6, 7, 8])
    def test_c1_of_single_tile_nets_against_brute_force(self, kind, chirality, generation):
        # the default window reaches past the outline; lemma (S) needs none
        net = extract_net(deflate_patch(Patch.single_tile(kind, chirality, scale_exp=-generation), generation))
        assert net.c1 == SEPARATION
        assert abs(brute_c1(net.xy) - SEPARATION) <= 1e-13

    def test_c2_within_covering_bound(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 16.0))
        net = extract_net(patch)
        assert net.c2 <= COVERING_RADIUS_BOUND + net.c2_error_bound
        assert net.c2 > 0.9  # kite apex corners keep it near 1

    def test_c2_exact_value_on_covering_patch(self):
        net = extract_net(generate_patch_covering(Square(3.0, -17.0, 32.0)))
        assert net.c2 == 1.0
        assert net.c2_error_bound == 1e-9

    def test_c2_warns_nothing_on_degenerate_triangles(self):
        # this net's Delaunay triangulation, which the oracle builds, has
        # collinear triangles, whose centers are not finite
        net = extract_net(generate_patch_covering(Square(-20.0, 13.0, 64.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert net.c2 == 1.0
            assert abs(reference_c2_of(net) - 1.0) <= 1e-9

    def test_c2_against_sampler_covering_patch(self):
        assert_c2_matches_sampler(extract_net(generate_patch_covering(Square(0.0, 0.0, 16.0))))

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_c2_against_sampler_window_clipped_to_outline(self, kind):
        # default window: padded bounding box, which reaches past the
        # triangle, so the net has no c2; the oracle clips to the outline
        net = extract_net(deflate_patch(Patch.single_tile(kind, scale_exp=-5), 5))
        assert net.outline is not None
        assert_refused(net, c1=False)
        oracle = sampled_c2(net.xy, net.window, net.outline)
        assert oracle - 1e-9 <= reference_c2_of(net) <= oracle + 0.02 * math.sqrt(2.0)

    def test_c2_against_sampler_loaded_net(self, tmp_path):
        path = str(tmp_path / "net.txt")
        export_net(extract_net(generate_patch_covering(Square(-5.0, 2.0, 16.0))), path)
        net = load_net(path)
        assert net.outline is not None
        assert_c2_matches_sampler(net)

    def test_c2_against_sampler_window_past_patch_edge(self, tmp_path):
        # a loaded patch has no outline, so the net has no c2; the oracle's
        # region is the whole window, whose far corners are more than the
        # first pad (2) from any point, so its pad has to double
        path = str(tmp_path / "patch.txt")
        save_patch(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5), path)
        net = extract_net(load_patch(path), window=Square(-2.0, -2.0, 12.0))
        assert net.outline is None
        assert_refused(net, c1=False)
        oracle, reference = sampled_c2(net.xy, net.window, net.outline), reference_c2_of(net)
        assert reference > 2.0
        assert oracle - 1e-9 <= reference <= oracle + 0.02 * math.sqrt(2.0)

    @pytest.mark.parametrize("xy", [
        [[0.3, 0.4]],
        [[0.3, 0.4], [1.5, 1.1]],
        [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, 2.0]],
    ])
    def test_c2_degenerate_nets(self, xy):
        # too few or collinear points for a triangulation: refused, and the
        # oracle still meets the sampler
        window = Square(0.0, 0.0, 2.0)
        assert_refused(small_net(xy, window))
        oracle = sampled_c2(xy, window)
        assert oracle - 1e-9 <= reference_c2(xy, window) <= oracle + 0.02 * math.sqrt(2.0)

    @pytest.mark.parametrize("xy, window, expected", [
        # the farthest location is where the bisector x = 1 crosses the top side
        ([[0.0, 0.0], [2.0, 0.0], [1.0, -5.0]], Square(0.0, 0.0, 2.0), math.sqrt(5.0)),
        # the right point lies beyond the first pad, yet it is the nearest
        # point of the window's right half
        ([[-1.5, 0.5], [3.2, 0.5]], Square(0.0, 0.0, 1.0), math.hypot(2.35, 0.5)),
        # the circumcenter (0, 0) of the four points lies 1e-4 below the
        # window, so its empty circle of radius 1 does not count
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], Square(-0.5, 1e-4, 1.0),
         math.hypot(1e-4, 1.0 - 1e-4)),
    ])
    def test_c2_exact_on_small_nets(self, xy, window, expected):
        # the oracle that checks the exact path, on sets whose answer is known;
        # a net of ring points in the same cells is refused
        assert abs(reference_c2(xy, window) - expected) <= 1e-12
        assert_refused(small_net(xy, window))

    def test_c2_on_net_past_int32_edge_keys(self):
        # the oracle's edge keys i * n + j over 51,304 points, more than the
        # 46,341 at which int32 indices wrap.  A jittered unit lattice has
        # a hole centred 0.5 above the top side, so the farthest location
        # of the window is a bisector crossing of that side between two
        # points of the top rows, which have the highest indices.
        gy, gx = np.mgrid[0:230, 0:230]
        jitter = np.random.default_rng(1).uniform(-0.1, 0.1, (230 * 230, 2))
        xy = np.column_stack([gx.ravel(), gy.ravel()]) + jitter
        xy = xy[np.hypot(xy[:, 0] - 115.0, xy[:, 1] - 224.5) > 1.8]
        # away from the hole every location is within 0.86 of a lattice
        # point, so the sampler need only cover the window's top centre
        oracle = sampled_c2(xy, Square(105.0, 204.0, 20.0))
        assert oracle - 1e-9 <= reference_c2(xy, Square(0.0, 0.0, 224.0)) <= oracle + 0.02 * math.sqrt(2.0)

    def test_c2_of_window_off_the_outline_is_zero(self):
        # the covering radius over an empty region is 0; the net refuses it
        net = extract_net(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3),
                          window=Square(100.0, 100.0, 4.0))
        assert reference_c2_of(net) == 0.0
        assert_refused(net, c1=False)

    def test_non_finite_points_rejected(self):
        # a net point is a ring point: a float (here a NaN) coordinate is refused
        with pytest.raises(ValueError, match=r"ring must be \(M, 4\) integer ring coordinates"):
            Net([0], np.array([[0.0, np.nan, 0.0, 0.0]]), [0], Square(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("case", list(MALFORMED_ARRAYS))
    def test_malformed_arrays_rejected(self, case):
        classes, ring, ids, match = MALFORMED_ARRAYS[case]
        with pytest.raises(ValueError, match=match) as raised:
            Net(classes, ring, ids, Square(0.0, 0.0, 1.0))
        assert "\n" not in str(raised.value)

    def test_xy_and_kinds_follow_from_the_tiles(self):
        ring = np.array([[0, 0, 0, 0], [2**56, -(2**56), 0, 0], [1, 2, 0, 2], [-3, 1, 4, -1]])
        net = Net([0, 20, 19, 39], ring, [4, 3, 2, 1], Square(0.0, 0.0, 1.0))
        assert net.xy.tobytes() == net_module._ring_xy(ring).tobytes()
        assert net.source_kinds.tolist() == [HALF_KITE, HALF_DART, HALF_KITE, HALF_DART]
        assert (net.classes.dtype, net.ring.dtype, net.tile_ids.dtype) == (np.uint8, np.int64, np.int64)
        for name in ("xy", "source_kinds", "classes", "ring", "tile_ids"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(net, name)[0] = 1

    @pytest.mark.parametrize("outline", [np.zeros((3, 2)), np.zeros(12, dtype=np.int64), np.full((3, 4), 0.5)])
    def test_outline_must_be_ring_coordinates(self, outline):
        with pytest.raises(ValueError, match=r"outline must be \(3, 4\) ring coordinates"):
            Net([0], [[0, 0, 0, 0]], [0], Square(0.0, 0.0, 1.0), outline=outline)

    @pytest.mark.parametrize("window", [
        Square(np.nan, 0.0, 8.0), Square(0.0, np.inf, 8.0), Square(0.0, 0.0, 0.0),
        Square(0.0, 0.0, -1.0),
    ])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            Net([0], [[0, 0, 0, 0]], [0], window)

    def test_single_point_c1_raises(self):
        net = extract_net(Patch.single_tile(HALF_KITE))
        with pytest.raises(ValueError, match=C1_REFUSED):
            net.c1


COVERING_NETS = [
    (Square(0.0, 0.0, 16.0), HALF_KITE, RIGHT),
    (Square(3.0, -17.0, 32.0), HALF_DART, LEFT),
    (Square(-20.0, 13.0, 64.0), HALF_KITE, LEFT),
    (Square(-5.5, 2.25, 8.0), HALF_DART, RIGHT),
    (Square(41.0, -7.0, 4.0), HALF_KITE, RIGHT),
]


class TestDelonePass:
    """c1 and c2 on the nets a float Delaunay pass once measured: exact from the tiling, or refused.

    Where the tiling gives them, the oracles agree: ``brute_c1`` within
    1e-13 and ``reference_c2`` within 1e-9.
    """

    @pytest.mark.parametrize("window, kind, chirality", COVERING_NETS)
    def test_covering_nets(self, window, kind, chirality):
        net = extract_net(generate_patch_covering(window, kind, chirality))
        assert (net.c1, net.c2) == (SEPARATION, 1.0)
        assert abs(brute_c1(near_window(net)) - SEPARATION) <= 1e-13
        assert abs(reference_c2_of(net) - 1.0) <= 1e-9

    def test_window_off_the_outline(self):
        # the window holds no point and lies off the outline: c1 is the
        # whole net's, and there is no c2
        net = extract_net(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3),
                          window=Square(100.0, 100.0, 4.0))
        assert net.c1 == SEPARATION
        assert abs(brute_c1(net.xy) - SEPARATION) <= 1e-13
        assert_refused(net, c1=False)

    @pytest.mark.parametrize("first", ["c1", "c2"])
    def test_one_point(self, first):
        net = small_net([[0.3, 0.4]], Square(0.0, 0.0, 2.0))
        with pytest.raises(ValueError, match=C1_REFUSED if first == "c1" else C2_REFUSED):
            getattr(net, first)
        assert_refused(net)
        assert reference_c2([[0.3, 0.4]], net.window).hex() == math.hypot(1.7, 1.6).hex()

    @pytest.mark.parametrize("xy, window", [
        ([[0.3, 0.4], [1.5, 1.1]], Square(0.0, 0.0, 2.0)),
        ([[0.5, 0.5], [50.0, 50.0]], Square(0.0, 0.0, 1.0)),
        ([[-1.5, 0.5], [3.2, 0.5]], Square(0.0, 0.0, 1.0)),
    ])
    def test_two_points(self, xy, window):
        assert_refused(small_net(xy, window))

    def test_three_points(self):
        assert_refused(small_net([[0.0, 0.0], [0.1, 5.0], [0.2, 0.0]], Square(0.0, 0.0, 2.0)))

    @pytest.mark.parametrize("xy", [
        [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, 2.0]],
        [[2.0, 1.0], [0.0, 1.0], [0.25, 1.0], [1.5, 1.0], [3.0, 1.0]],
        [[1.0, 3.0], [1.0, -1.0], [1.0, 0.7], [1.0, 1.9]],
    ])
    def test_collinear_points(self, xy):
        assert_refused(small_net(xy, Square(0.0, 0.0, 2.0)))

    def test_coincident_points(self):
        gy, gx = np.mgrid[0:4, 0:4]
        xy = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64)
        assert_refused(small_net(np.concatenate([xy, xy[[5, 5, 10]]]), Square(0.0, 0.0, 3.0)))

    def test_loaded_net_without_outline(self, tmp_path):
        # the net of a loaded patch has no outline, and its file none either
        path = str(tmp_path / "patch.txt")
        save_patch(generate_patch_covering(Square(-5.0, 2.0, 16.0), HALF_DART), path)
        export_net(extract_net(load_patch(path)), str(tmp_path / "net.txt"))
        net = load_net(str(tmp_path / "net.txt"))
        assert net.outline is None
        assert net.c1 == SEPARATION
        assert_refused(net, c1=False)

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_window_clipped_to_outline(self, kind):
        net = extract_net(deflate_patch(Patch.single_tile(kind, LEFT, scale_exp=-6), 6))
        assert net.c1 == SEPARATION
        assert abs(brute_c1(net.xy) - SEPARATION) <= 1e-13
        assert_refused(net, c1=False)


def ring_points(radii, turns):
    """Points at the given radii and multiples of 30 degrees about (5, 5)."""
    angles = np.array(turns) * (math.pi / 6)
    return 5.0 + np.array(radii)[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


class TestEveryCandidate:
    """``reference_c2`` measures every classical candidate: it meets the sampler, and the exact c2."""

    @pytest.mark.parametrize("xy, window", [
        # c2 sits where a hull edge's bisector crosses the window
        ([[0.9366246832732461, -2.244221802598948], [8.731414136312809, 7.843853273204616],
          [-0.020156352284021573, 7.682764020191643]], Square(-1.5, 3.25, 6.0)),
        # mirror-image pairs share bisectors
        (ring_points([1, 2, 3, 2, 1, 1, 2, 3, 3], [7, 1, 5, 5, 0, 8, 11, 11, 0]), Square(3.5, 4.0, 3.0)),
        # duplicates, 1e7 from the origin
        (np.array([[2, 3], [2, 0], [2, 0], [4, 0], [1, 2], [0, 5], [2, 0], [0, 0], [0, 1], [1, 3],
                   [5, 2], [3, 2], [5, 0], [4, 4], [2, 2], [2, 5], [0, 0], [1, 2], [2, 2], [4, 5],
                   [0, 4], [4, 3], [5, 0], [3, 4], [1, 5]]) + (1e7 + 0.1), Square(10000001.6, 10000000.1, 5.0)),
    ], ids=["hull_ray", "shared_bisector", "far_from_origin"])
    def test_c2_on_sets_that_need_every_rule(self, xy, window):
        oracle = sampled_c2(xy, window)
        assert oracle - 1e-9 <= reference_c2(xy, window) <= oracle + 0.02 * math.sqrt(2.0)
        assert_refused(small_net(xy, window))

    def test_side_64_covering_net_float_pass(self):
        net = extract_net(generate_patch_covering(Square(-20.0, 13.0, 64.0)))
        assert net.c2 == 1.0
        assert abs(reference_c2_of(net) - net.c2) <= 1e-9


def ring_point(row) -> CycloPoint:
    return CycloPoint(*map(int, row))


def class_corners(c: int) -> tuple[CycloPoint, CycloPoint, CycloPoint, CycloPoint]:
    """Wing, apex, axis end and full-tile incenter of class ``c``'s half-tile with its apex at 0."""
    wing, apex, end = (ring_point(v) for v in tiling._VERTEX_OFFSETS[c])
    return wing, apex, end, ring_point(tiling._INCENTER_OFFSETS[c])


def over_phi(p: CycloPoint, k: int) -> CycloPoint:
    for _ in range(k):
        p = p.times_inv_phi()
    return p


def line_distance_squared(a: CycloPoint, b: CycloPoint, p: CycloPoint) -> GoldenNum:
    """Exact squared distance from ``p`` to the line through ``a`` and ``b``; sin**2 72 = (2 + phi)/4."""
    return cross_s72(b - a, p - a) ** 2 * (2 + PHI) / 4 / squared_length(b - a)


KITE_CLASSES, DART_CLASSES = range(0, 20), range(20, 40)
WING, APEX, AXIS_END = 0, 1, 2
# a half-tile's corner at each vertex role, in tenths of a turn
CORNER_TENTHS = {(HALF_KITE, WING): 2, (HALF_KITE, APEX): 1, (HALF_KITE, AXIS_END): 2,
                 (HALF_DART, WING): 1, (HALF_DART, APEX): 3, (HALF_DART, AXIS_END): 1}


def vertex_stars(patch: Patch) -> dict[tuple, int]:
    """Canonical vertex stars of a patch's complete vertices, with how often each occurs.

    A star is the cyclic sequence of (kind, role, chirality) of the
    half-tile corners around the vertex, ordered by angle; its canonical
    form is the least over every rotation of it and of its mirror image
    (reversed, chiralities flipped).  A vertex is complete when its corners
    fill the turn.
    """
    coords, emb = patch.coords, patch.embedded()
    centroids = emb.mean(axis=1)
    corners: dict[tuple, list] = {}
    for i, (kind, chirality) in enumerate(zip(patch.kinds.tolist(), patch.chiralities.tolist())):
        for role in (WING, APEX, AXIS_END):
            toward = centroids[i] - emb[i, role]
            corners.setdefault(tuple(coords[i, role].tolist()), []).append(
                (math.atan2(toward[1], toward[0]), (kind, role, chirality)))
    stars: dict[tuple, int] = {}
    for around in corners.values():
        if sum(CORNER_TENTHS[label[:2]] for _, label in around) != 10:
            continue
        seq = [label for _, label in sorted(around)]
        mirror = [(kind, role, -chirality) for kind, role, chirality in reversed(seq)]
        canon = min(tuple(t[j:] + t[:j]) for t in (seq, mirror) for j in range(len(t)))
        stars[canon] = stars.get(canon, 0) + 1
    return stars


class TestTilingLemmas:
    """The exact facts behind a covering net's tiling constants (see ``Net``)."""

    @pytest.mark.parametrize("c", KITE_CLASSES)
    def test_k_a_half_kite_lies_within_one_of_its_incenter(self, c):
        # its vertices are at 1, 1 and 1/phi, and the closed unit disk is convex
        wing, apex, end, center = class_corners(c)
        assert [squared_length(v - center) for v in (wing, apex, end)] == [1, 1, INV_PHI * INV_PHI]

    @pytest.mark.parametrize("c", DART_CLASSES)
    def test_d_a_half_dart_reaches_past_one_only_near_its_wing(self, c):
        # with A the wing, B the apex (|AB| = 1) and C the axis end
        # (|AC| = phi): P = A + (B - A)/phi**3 and Q = A + (C - A)/phi**4 are
        # 1/phi**3 from A and, with B and C, in the closed unit disk about
        # the incenter.  The half-dart is the triangle (A, P, Q) and the
        # convex hull of P, B, C and Q, which the disk holds, so a point
        # farther than 1 from the incenter is within 1/phi**3 of the wing
        wing, apex, end, center = class_corners(c)
        p, q = wing + over_phi(apex - wing, 3), wing + over_phi(end - wing, 4)
        assert squared_length(p - wing) == squared_length(q - wing) == PHI ** -6
        for v in (p, q, apex, end):
            assert squared_length(v - center) <= 1
        assert squared_length(wing - center) == 3 - PHI > 1

    def test_w_every_axis_end_is_one_over_phi_from_its_incenter(self):
        for c in range(40):
            _, _, end, center = class_corners(c)
            assert squared_length(end - center) == INV_PHI * INV_PHI
        # so a point within 1/phi**3 of a dart wing is within 1 of the net
        assert PHI ** -3 + INV_PHI < 1

    @pytest.mark.parametrize("seed, chirality", [(HALF_KITE, RIGHT), (HALF_DART, LEFT)])
    def test_w_seven_vertex_stars_and_every_dart_wing_on_an_axis_end(self, seed, chirality):
        # the kite/dart vertex stars (Grunbaum & Shephard 10.3): sun, star,
        # ace, deuce, jack, queen and king, up to rotation and reflection
        stars = vertex_stars(generate_patch_covering(Square(0.0, 0.0, 16.0), seed, chirality))
        assert len(stars) == 7
        assert set(stars) == set(vertex_stars(generate_patch_covering(Square(40.0, -9.0, 16.0))))
        for star in stars:
            if (HALF_DART, WING) in {label[:2] for label in star}:
                assert AXIS_END in {role for _, role, _ in star}, star

    @pytest.mark.parametrize("c", KITE_CLASSES)
    def test_a_sun_covers_a_disk_wider_than_one(self, c):
        # five kites 72 degrees apart on one apex: their wings and axis ends
        # are the corners of a regular decagon of circumradius phi, 36
        # degrees apart; its inradius, the distance from the apex to the
        # side (wing, axis_end), is phi cos 18 > 1
        wing, apex, end, _ = class_corners(c)
        assert squared_length(wing - apex) == squared_length(end - apex) == PHI * PHI
        assert dot(wing - apex, end - apex) == PHI ** 3 / 2  # cos 36 = phi/2
        inradius_sq = line_distance_squared(wing, end, apex)
        assert inradius_sq == PHI * PHI * (2 + PHI) / 4 > 1
        assert abs(math.sqrt(float(inradius_sq)) - PHI_FLOAT * math.cos(math.radians(18.0))) < 1e-12

    @pytest.mark.parametrize("direction", range(10))
    def test_two_darts_on_one_axis_end_72_degrees_apart_are_at_the_separation(self, direction):
        ends = [tiling._class_of(HALF_DART, RIGHT, d % 10) for d in (direction, direction + 2)]
        a, b = (ring_point(-net_module._AXIS_END_OFFSETS[c]) for c in ends)  # incenters, axis ends at 0
        assert squared_length(a - b) == net_module._SEPARATION_SQUARED == GoldenNum(7, -4)
        assert abs(math.sqrt(float(net_module._SEPARATION_SQUARED)) - SEPARATION) < 1e-15

    def test_s_the_separation_is_twice_the_dart_inradius(self):
        # distinct tiles have disjoint incircles, so incenters are at least
        # the two inradii apart, and the dart's is the smaller
        sin36_sq = (3 - PHI) / 4
        for c in range(40):
            wing, apex, end, center = class_corners(c)
            inradius_sq = sin36_sq if c in KITE_CLASSES else sin36_sq / PHI ** 2
            for a, b in ((wing, apex), (wing, end)):  # the full tile's sides
                assert line_distance_squared(a, b, center) == inradius_sq
        assert 4 * sin36_sq / PHI ** 2 == net_module._SEPARATION_SQUARED
        assert sin36_sq > sin36_sq / PHI ** 2

    def test_the_witnesses_of_a_covering_net(self):
        net = extract_net(generate_patch_covering(Square(-20.0, 13.0, 64.0)))
        suns = tiling._embed(net_module._sun_vertices(net.classes, net.ring))
        assert len(suns) > 100
        # five incenters at 1, the next beyond the decagon's inradius
        dist = cKDTree(net.xy).query(suns, k=6)[0]
        assert np.abs(dist[:, :5] - 1.0).max() < 1e-12
        assert dist[:, 5].min() > PHI_FLOAT * math.cos(math.radians(18.0))
        assert net_module._has_separation_pair(net.classes, net.ring)


def moved_square(square: Square, turns: int, shift: CycloPoint) -> Square:
    """The square of ``square``'s side about the image of its center under ``transformed(turns, shift)``."""
    angle = math.radians(36.0 * turns)
    cx, cy = square.center
    sx, sy = tiling._embed(np.array(shift.coeffs, dtype=np.int64)).tolist()
    x = cx * math.cos(angle) - cy * math.sin(angle) + sx
    y = cx * math.sin(angle) + cy * math.cos(angle) + sy
    return Square(x - square.side / 2.0, y - square.side / 2.0, square.side)


def window_inside_edge(net: Net, side: float, margin: float) -> Square:
    """A window of ``side`` about the middle of the outline's first edge, its nearest corner ``margin`` inside."""
    a, b, c = _embed(net.outline)
    normal = np.array([a[1] - b[1], b[0] - a[0]]) / math.dist(a, b)
    if normal @ (c - a) < 0:
        normal = -normal
    center = (a + b) / 2.0 + normal * (margin + side / 2.0 * np.abs(normal).sum())
    return Square(float(center[0] - side / 2.0), float(center[1] - side / 2.0), side)


def min_outline_margin(net: Net) -> float:
    tri = _embed(net.outline)
    turn = np.sign(_cross(tri[1] - tri[0], tri[2] - tri[0]))
    return float(tiling._corner_margins(tri[None], turn[None], net.window).min())


def assert_tiling_constants(net: Net) -> None:
    """c1 and c2 exact from the tiling, and within reach of the oracles."""
    assert (net.c1, net.c2) == (SEPARATION, 1.0)
    assert abs(brute_c1(near_window(net)) - SEPARATION) <= 1e-13
    assert abs(reference_c2_of(net) - 1.0) <= 1e-9


COVER_64 = (Square(-20.0, 13.0, 64.0), HALF_KITE, LEFT)


def cover_64_net(window=None) -> Net:
    return extract_net(generate_patch_covering(*COVER_64), window=window)


def net_with_no_sun() -> Net:
    # the square holds a kite apex but no sun vertex, and a dart pair at
    # the separation lies within reach; its covering radius is about 0.79
    return extract_net(generate_patch_covering(Square(0.0, 0.0, 64.0)), window=Square(55.0, 50.0, 1.0))


def kite_only_net() -> Net:
    """The kites of the side-16 covering net, with its window and outline: 73 sun vertices, no dart pair."""
    net = extract_net(generate_patch_covering(Square(0.0, 0.0, 16.0)))
    kites = net.classes < 20
    kite_net = Net(net.classes[kites], net.ring[kites], net.tile_ids[kites], net.window, net.outline)
    assert len(net_module._sun_vertices(kite_net.classes, kite_net.ring)) == 73
    assert not net_module._has_separation_pair(kite_net.classes, kite_net.ring)
    return kite_net


def hand_built_cover_64_net() -> Net:
    """The covering net's classes and incenters in a ``Net`` built without its outline."""
    net = cover_64_net()
    return Net(net.classes, net.ring, net.tile_ids, net.window)


def loaded_cover_64_net(tmp_path) -> Net:
    path = str(tmp_path / "net.txt")
    export_net(cover_64_net(), path)
    return load_net(path)


class TestTilingConstants:
    """Nets extracted from a tiling take c1 and c2 from it; a net without a witness has no such constant."""

    # with COVERING_NETS (sides 4 to 64, both seeds and chiralities), which
    # TestDelonePass checks against the oracles too
    @pytest.mark.parametrize("window, kind, chirality", [
        (Square(0.0, 0.0, 16.0), HALF_KITE, LEFT),
        (Square(-700.5, 300.25, 16.0), HALF_DART, LEFT),
        (Square(-20.0, 13.0, 64.0), HALF_DART, RIGHT),
        (Square(57.0, 16.0, 256.0), HALF_KITE, RIGHT),
    ])
    def test_covering_nets(self, window, kind, chirality):
        assert_tiling_constants(extract_net(generate_patch_covering(window, kind, chirality)))

    @pytest.mark.parametrize("window", [Square(-10.5, 20.25, 16.0), Square(30.0, 60.0, 4.0)])
    def test_window_inside_a_covering_patch(self, window):
        assert_tiling_constants(cover_64_net(window))

    @pytest.mark.parametrize("turns, shift, kind, chirality", [
        (3, (40, -7, 2, 5), HALF_KITE, RIGHT),
        (7, (-12, 0, 9, -3), HALF_DART, LEFT),
    ])
    def test_transformed_patches(self, turns, shift, kind, chirality):
        square, shift = Square(10.0, -3.0, 16.0), CycloPoint(*shift)
        patch = generate_patch_covering(square, kind, chirality).transformed(turns, shift)
        assert_tiling_constants(extract_net(patch, window=moved_square(square, turns, shift)))

    def test_loaded_covering_net(self, tmp_path):
        assert_tiling_constants(loaded_cover_64_net(tmp_path))

    def test_the_margin_decides(self):
        # 0.3 inside the outline the tiling decides; the same window 0.2
        # inside, less than 1/phi**3, where a dart wing near the window could
        # lie outside the patch, has no c2
        outline_net = cover_64_net()
        for margin in (0.3, 0.2):
            assert abs(min_outline_margin(cover_64_net(window_inside_edge(outline_net, 16.0, margin))) - margin) < 1e-9
        assert_tiling_constants(cover_64_net(window_inside_edge(outline_net, 16.0, 0.3)))
        assert_refused(cover_64_net(window_inside_edge(outline_net, 16.0, 0.2)), c1=False)

    def test_a_window_with_no_sun_vertex(self):
        # a kite apex is no sun: every witness but the sun is here, and the
        # covering radius is well below 1
        net = net_with_no_sun()
        x, y, side = net.window
        kites = net.classes < 20
        apexes = tiling._embed(net.ring[kites] - tiling._INCENTER_OFFSETS[net.classes[kites]])
        assert ((apexes > (x, y)) & (apexes < (x + side, y + side))).all(axis=1).any()
        near = ((net.xy > (x - 1.5, y - 1.5)) & (net.xy < (x + side + 1.5, y + side + 1.5))).all(axis=1)
        assert net_module._has_separation_pair(net.classes[near], net.ring[near])
        assert_refused(net, c1=False)
        assert reference_c2_of(net) < 0.9
        assert net.c1 == SEPARATION

    @pytest.mark.parametrize("make, c1, c2", [
        (lambda: hand_built_cover_64_net(), SEPARATION, None),
        (lambda: extract_net(deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-6), 6)), SEPARATION, None),
        (lambda: extract_net(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3),
                             window=Square(100.0, 100.0, 4.0)), SEPARATION, None),
        (lambda: cover_64_net(window_inside_edge(cover_64_net(), 16.0, 0.2)), SEPARATION, None),
        (lambda: net_with_no_sun(), SEPARATION, None),
        (lambda: kite_only_net(), None, 1.0),
    ], ids=["hand_built", "window_crossing_the_outline", "window_off_the_outline",
            "margin_below_phi_cubed", "no_sun_vertex", "no_separation_pair"])
    def test_no_witness_no_constant(self, make, c1, c2):
        net = make()
        assert_refused(net, c1=c1 is None, c2=c2 is None)
        if c1 is not None:
            assert net.c1 == c1
        if c2 is not None:
            assert net.c2 == c2


class TestCounting:
    def synthetic(self):
        # (0, 0) kite, (1, 0) dart, (0, 0.7265) kite, (0.3090, 0.9511) dart,
        # (1, 0.7265) kite; no ring point has y = 1 (sin 72 is irrational
        # over Q(sqrt 5)), so the edges crossed are x = 1 and y = 0
        ring = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 2, 0, 2], [0, 1, 0, 0], [2, 2, 0, 2]])
        return Net([0, 20, 0, 20, 0], ring, np.arange(5), Square(0.0, -1.0, 2.0))

    def test_half_open_membership(self):
        net = self.synthetic()
        assert net.xy[[0, 1, 2, 4], 0].tolist() == [0.0, 1.0, 0.0, 1.0] and net.xy[[0, 1], 1].tolist() == [0.0, 0.0]
        assert count_in_square(net, Square(0.0, 0.0, 1.0)) == (2, 1)
        assert count_in_square(net, Square(1.0, 0.0, 1.0)) == (1, 1)
        assert count_in_square(net, Square(0.0, -1.0, 1.0)) == (0, 0)
        assert count_in_square(net, Square(1.0, -1.0, 1.0)) == (0, 0)
        assert count_in_square(net, Square(0.0, -1.0, 2.0)) == (3, 2)

    def test_unit_translates_partition_window(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 8.0))
        net = extract_net(patch)
        total = 0
        for a in range(8):
            for b in range(8):
                k, d = count_in_square(net, Square(float(a), float(b), 1.0))
                total += k + d
        k, d = count_in_square(net, Square(0.0, 0.0, 8.0))
        assert total == k + d

    def test_square_outside_window_rejected(self):
        net = self.synthetic()
        with pytest.raises(ValueError, match="window"):
            count_in_square(net, Square(1.5, 0.0, 1.0))

    def test_density_roughly_rho(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 32.0))
        net = extract_net(patch)
        k, d = count_in_square(net, Square(0.0, 0.0, 32.0))
        assert (k + d) / 1024.0 == pytest.approx(0.7608, abs=0.02)


def per_line_export_net(net: Net, path: str) -> None:
    """One f-string per point: the v2 file export_net writes through its row formatter."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# penrosenet net v2\n")
        fh.write(f"# points {len(net)}\n")
        fh.write(f"# window {net.window.x:.17g} {net.window.y:.17g} {net.window.side:.17g}\n")
        if net.outline is not None:
            fh.write("# outline " + " ".join(str(int(c)) for c in net.outline.ravel()) + "\n")
        fh.write("".join(
            f"{c} {r0} {r1} {r2} {r3} {tid}\n"
            for c, (r0, r1, r2, r3), tid in zip(net.classes.tolist(), net.ring.tolist(), net.tile_ids.tolist())
        ))


def per_line_load_net(path: str) -> Net:
    """A line-at-a-time reader of the v2 format."""
    headers, rows = {}, []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                parts = line[1:].split()
                if parts and parts[0] in ("penrosenet", "points", "window", "outline"):
                    headers[parts[0]] = parts[1:]
            elif line:
                fields = line.split()
                if len(fields) != 6:
                    raise ValueError(f"point line needs 6 fields: {line!r}")
                rows.append([int(f) for f in fields])
    if headers.get("penrosenet") != ["net", "v2"] or "window" not in headers:
        raise ValueError("net file needs its penrosenet net v2 and window headers")
    rows = np.array(rows, dtype=np.int64).reshape(-1, 6)
    classes, ring = rows[:, 0], np.ascontiguousarray(rows[:, 1:5])
    if not ((0 <= classes) & (classes < 40)).all() or (np.abs(ring) > 2**56).any():
        raise ValueError("class or ring coefficient out of range")
    outline = None
    if "outline" in headers:
        outline = np.array([int(c) for c in headers["outline"]], dtype=np.int64).reshape(3, 4)
    return Net(classes, ring, rows[:, 5], Square(*map(float, headers["window"])), outline)


def assert_nets_identical(a: Net, b: Net) -> None:
    """Equal arrays, dtype and bits, and an equal window."""
    for name in ("xy", "source_kinds", "tile_ids", "ring", "classes", "outline"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert tuple(a.window) == tuple(b.window)
    assert [math.copysign(1.0, v) for v in a.window] == [math.copysign(1.0, v) for v in b.window]


NET_LINES = "# penrosenet net v2\n# window -1.5 2 8\n3 1 0 -1 2 4\n25 0 2 1 -1 9\n"

MALFORMED_NETS = {
    "missing_window": NET_LINES.replace("# window -1.5 2 8\n", ""),
    "three_tokens": NET_LINES.replace(" 2 1 -1 9", ""),
    "five_tokens": NET_LINES.replace(" -1 9", " 9"),
    "unknown_kind": NET_LINES.replace("25 0", "40 0"),
    "short_kind": NET_LINES.replace("3 1 0", "kit 1 0"),
    "hash_in_kind": NET_LINES.replace("3 1 0", "3# 1 0"),
    "letter_in_coordinate": NET_LINES.replace(" 2 4\n", " 2x 4\n"),
    "float_tile_id": NET_LINES.replace(" 9\n", " 9.0\n"),
    "no_points": "# penrosenet net v2\n# window 0 0 8\n",
}

V1_FILE = ("# penrosenet net v1\n# points 2\n# c1 0.726542528005\n# c2 1 error_bound 1e-09\n"
           "# window -1.5 2 8\n0.25 -3.125 kite 4\n1e-05 7 dart 9\n")

# hostile files, each refused with one ValueError line
HOSTILE_NETS = {
    "v1_file": (V1_FILE, "header 'penrosenet' needs net v2, got 'penrosenet net v1'"),
    "no_version": (NET_LINES.replace("# penrosenet net v2\n", ""), "missing its penrosenet header"),
    "ring_past_2_56": (NET_LINES.replace("25 0 2", f"25 0 {2**56 + 1}"), "ring coefficients must lie within"),
    "ring_below_2_56": (NET_LINES.replace("25 0 2", f"25 0 {-2**56 - 1}"), "ring coefficients must lie within"),
    "ring_int64_min": (NET_LINES.replace("25 0 2", f"25 0 {-2**63}"), "ring coefficients must lie within"),
    "class_40": (NET_LINES.replace("25 0", "40 0"), r"classes must lie in 0\.\.39"),
    "class_minus_1": (NET_LINES.replace("25 0", "-1 0"), r"classes must lie in 0\.\.39"),
    "class_255": (NET_LINES.replace("25 0", "255 0"), r"classes must lie in 0\.\.39"),
    "outline_past_2_56": (NET_LINES.replace("# window", f"# outline {2**56 + 1}{' 0' * 11}\n# window"),
                          "outline coefficients must lie within"),
}


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        net = extract_net(patch)
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        assert_nets_identical(load_net(path), net)

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("window", [
        Square(-37.0, 21.0, 256.0), Square(3e9, 1e9, 64.0), Square(1 / 3, 2 / 7, 16.0),
    ])
    def test_covering_nets_read_back_exactly(self, window, kind, tmp_path):
        # the window at full precision (12 digits read Square(1/3, 2/7, 16)
        # back as Square(0.333333333333, 0.285714285714, 16)), the ring, the
        # classes and the outline as integers, xy rebuilt to the same bits
        net = extract_net(generate_patch_covering(window, kind))
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        back = load_net(path)
        assert_nets_identical(back, net)
        assert back.window == net.window == window
        assert (back.c1, back.c2) == (SEPARATION, 1.0)

    def test_the_largest_extracted_coordinates_read_back(self, tmp_path):
        # class 20's incenter is its apex plus 2 in the first coefficient,
        # so an apex at the largest coefficient extract_net accepts puts an
        # incenter at 2**56
        net = extract_net(Patch.single_tile(HALF_DART, LEFT, translation=CycloPoint(2**56 - 2, 0, 0, -(2**56 - 2))))
        assert net.classes.tolist() == [20] and net.ring[0, 0] == 2**56
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        assert_nets_identical(load_net(path), net)

    def test_header_reports_stats(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        net = extract_net(patch)
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        head = pathlib.Path(path).read_text().splitlines()[:4]
        assert head[0] == "# penrosenet net v2"
        assert head[1] == f"# points {len(net)}"
        assert head[2].startswith("# window ")
        assert head[3] == "# outline " + " ".join(map(str, patch_outline(patch).ravel().tolist()))

    def test_point_lines_match_per_line_writer(self, tmp_path):
        net = extract_net(generate_patch_covering(Square(-3.0, 5.0, 8.0)))
        path = str(tmp_path / "net.txt")
        export_net(net, path)
        expected = "".join(
            f"{int(net.classes[i])} {' '.join(map(str, net.ring[i].tolist()))} {int(net.tile_ids[i])}\n"
            for i in range(len(net))
        )
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert "".join(lines[4:]) == expected

    @pytest.mark.parametrize("make", [
        lambda: extract_net(generate_patch_covering(Square(-5.0, 2.0, 16.0))),
        lambda: extract_net(deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-5), 5)),
    ], ids=["covering_16", "deflated_half_dart"])
    def test_load_matches_per_line_reader(self, make, tmp_path):
        path = str(tmp_path / "net.txt")
        export_net(make(), path)
        assert_nets_identical(load_net(path), per_line_load_net(path))

    def test_full_precision_floats_match_per_line_reader(self, tmp_path):
        # windows spanning many magnitudes, written at repr precision
        rng = np.random.default_rng(5)
        for x, y, side in rng.normal(scale=10.0 ** rng.integers(-8, 8, size=(40, 1)), size=(40, 3)).tolist():
            path = tmp_path / "net.txt"
            path.write_text(NET_LINES.replace("# window -1.5 2 8", f"# window {x!r} {y!r} {abs(side)!r}"),
                            encoding="ascii")
            back = load_net(str(path))
            assert_nets_identical(back, per_line_load_net(str(path)))
            assert tuple(back.window) == (x, y, abs(side))

    def test_comments_blank_and_indented_lines_accepted(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(NET_LINES.replace("\n3 1", "\n\n   3 1").replace("\n25 0", "\n# note\n\t25 0"),
                        encoding="ascii")
        assert_nets_identical(load_net(str(path)), per_line_load_net(str(path)))

    @pytest.mark.parametrize("case", list(MALFORMED_NETS))
    def test_malformed_fails_as_before(self, case, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(MALFORMED_NETS[case], encoding="ascii")
        with pytest.raises((ValueError, KeyError)) as old:
            per_line_load_net(str(path))
        with pytest.raises((ValueError, KeyError)) as new:
            load_net(str(path))
        if case == "hash_in_kind":  # the per-line reader fails on the token 3#
            assert new.type is ValueError and "'#' inside a data line" in str(new.value)
        else:
            assert new.type is old.type

    @pytest.mark.parametrize("case", list(HOSTILE_NETS))
    def test_hostile_files_are_refused(self, case, tmp_path):
        text, match = HOSTILE_NETS[case]
        path = tmp_path / "net.txt"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=match) as raised:
            load_net(str(path))
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("byte", [b"\xe9", b"\xc3\xa9", b"\x80", b"\xff"])
    @pytest.mark.parametrize("edit", [
        lambda text, byte: text.replace(b"25 0 ", b"25" + byte + b" 0 "),  # a point line
        lambda text, byte: text.replace(b"# window", b"# note " + byte + b"\n# window"),  # a comment
    ], ids=["point_line", "comment"])
    def test_a_non_ascii_byte_is_refused(self, edit, byte, tmp_path):
        path = tmp_path / "net.txt"
        text = edit(NET_LINES.encode("ascii"), byte)
        assert byte in text
        path.write_bytes(text)
        with pytest.raises(ValueError):
            load_net(str(path))

    def test_a_file_replaced_between_the_reads_is_refused(self, tmp_path, monkeypatch):
        path, other = tmp_path / "net.txt", tmp_path / "other.txt"
        path.write_text(NET_LINES, encoding="ascii")
        other.write_text(NET_LINES.replace("25 0", "24 0"), encoding="ascii")
        loadtxt = np.loadtxt

        def replace_then_load(fname, **kw):
            other.replace(path)
            return loadtxt(fname, **kw)

        monkeypatch.setattr(np, "loadtxt", replace_then_load)
        with pytest.raises(ValueError, match="changed between the read of its headers and the read of its rows"):
            load_net(str(path))

    @pytest.mark.parametrize("tile_id", ["9.0", "2.7"])
    def test_float_tile_id_rejected_with_warnings_ignored(self, tile_id, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(NET_LINES.replace(" 9\n", f" {tile_id}\n"), encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="convert"):
                load_net(str(path))

    def test_nan_window_rejected(self, tmp_path):
        path = str(tmp_path / "broken.txt")
        with open(path, "w") as fh:
            fh.write("# penrosenet net v2\n# window nan 0 8\n0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="window"):
            load_net(path)

    @pytest.mark.parametrize("header", ["window 0 0", "window", "window 0 0 8 1"])
    def test_window_with_wrong_field_count(self, header, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text(NET_LINES.replace("# window -1.5 2 8", f"# {header}"), encoding="ascii")
        with pytest.raises(ValueError, match="header 'window'"):
            load_net(str(path))

    @pytest.mark.parametrize("header, match", [
        ("points 5", "points header 5 does not match 2 point lines"),
        ("points 1", "points header 1 does not match 2 point lines"),
        ("points 2.0", "header 'points'"),
        ("points", "header 'points'"),
        ("outline 1 2 3", "header 'outline'"),
        ("outline" + " 0" * 11, "header 'outline'"),
        ("outline" + " 0" * 13, "header 'outline'"),
        ("outline 0.5" + " 0" * 11, "header 'outline'"),
        ("penrosenet net", "header 'penrosenet'"),
        ("penrosenet net v3", "header 'penrosenet'"),
    ])
    def test_stats_header_checked(self, header, match, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text(NET_LINES.replace("# window", f"# {header}\n# window"), encoding="ascii")
        with pytest.raises(ValueError, match=match):
            load_net(str(path))

    def test_matching_stats_headers_load(self, tmp_path):
        path = tmp_path / "net.txt"
        stats = "# points 2\n# outline" + " 0" * 12 + "\n# window"
        path.write_text(NET_LINES.replace("# window", stats), encoding="ascii")
        assert_nets_identical(load_net(str(path)), per_line_load_net(str(path)))

    def test_a_net_without_c1_round_trips(self, tmp_path):
        # every net has classes and ring incenters, so every net is written,
        # one without c1 or c2 too
        net = small_net([[0.3, 0.4], [1.5, 1.1]], Square(0.0, 0.0, 2.0), kinds=[HALF_KITE, HALF_DART])
        assert_refused(net)
        export_net(net, str(tmp_path / "net.txt"))
        assert_nets_identical(load_net(str(tmp_path / "net.txt")), net)

    def test_missing_window_rejected(self, tmp_path):
        path = str(tmp_path / "broken.txt")
        with open(path, "w") as fh:
            fh.write("# penrosenet net v2\n0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="window"):
            load_net(path)


def loaded_covering_net(tmp_path):
    path = str(tmp_path / "loaded.txt")
    export_net(extract_net(generate_patch_covering(Square(-5.0, 2.0, 16.0), HALF_DART, LEFT)), path)
    return load_net(path)


def tiny_and_signed_zero_net(tmp_path):
    """A net with a signed-zero and tiny window, and ring coefficients of every digit-group shape."""
    ring = np.array([[0, 0, 0, 0], [-1, 2, -3, 4], [2**56, -(2**56), 7, 0], [999, -1000, 1001, -999],
                     [5, 0, 0, -5], [10**15, -(10**15) + 1, 0, 1], [0, 0, 0, -0]], dtype=np.int64)
    classes = np.array([0, 39, 20, 1, 19, 21, 2], dtype=np.uint8)
    return Net(classes, ring, np.array([0, 7, 2**40, 3, 4, 5, 6]), Square(-0.0, 1e-7, 2.5e-3))


class TestExportOracle:
    """export_net writes the bytes of the per-line writer."""

    @pytest.mark.parametrize("make", [
        lambda tmp: extract_net(generate_patch_covering(Square(0.0, 0.0, 16.0))),
        # 23k points: several blocks of the default _FORMAT_BLOCK
        lambda tmp: extract_net(generate_patch_covering(Square(-20.0, 13.0, 64.0), HALF_DART, LEFT)),
        lambda tmp: extract_net(deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-5), 5)),
        loaded_covering_net,
        tiny_and_signed_zero_net,
    ], ids=["covering_16", "covering_64", "deflated_half_dart", "loaded", "tiny_and_signed_zero"])
    def test_bytes_match_per_line_writer(self, make, tmp_path):
        net = make(tmp_path)
        export_net(net, str(tmp_path / "new.txt"))
        per_line_export_net(net, str(tmp_path / "old.txt"))
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    def test_signed_zero_and_tiny_lines(self, tmp_path):
        net = tiny_and_signed_zero_net(tmp_path)
        export_net(net, str(tmp_path / "net.txt"))
        lines = (tmp_path / "net.txt").read_text(encoding="ascii").splitlines()
        assert lines[:3] == ["# penrosenet net v2", "# points 7", "# window -0 9.9999999999999995e-08 0.0025000000000000001"]
        assert lines[3:] == [
            "0 0 0 0 0 0", "39 -1 2 -3 4 7", "20 72057594037927936 -72057594037927936 7 0 1099511627776",
            "1 999 -1000 1001 -999 3", "19 5 0 0 -5 4", "21 1000000000000000 -999999999999999 0 1 5", "2 0 0 0 0 6",
        ]
        back = load_net(str(tmp_path / "net.txt"))
        assert_nets_identical(back, net)

    @pytest.mark.parametrize("block", [1, 4, 5])
    def test_rows_span_several_format_blocks(self, block, tmp_path, monkeypatch):
        net = extract_net(generate_patch_covering(Square(-3.0, 5.0, 8.0)))
        per_line_export_net(net, str(tmp_path / "old.txt"))
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", block)
        export_net(net, str(tmp_path / "new.txt"))
        assert len(net) > 4 * block
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
