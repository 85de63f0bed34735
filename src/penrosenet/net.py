"""Separated nets: one reference point per tile of a final-scale patch.

Each full tile contributes the center of its inscribed circle.  Both
centers are exact ring points:

    kite:  apex + (axis_end - apex)/phi    (incircle radius sin 36)
    dart:  axis_end + (apex - axis_end)/phi (incircle radius sin 36 / phi)

and both are equidistant from all four side lines of their tile.  Each half
computes the center of its full tile, so mirror halves, which share apex
and axis_end, agree on it; halves pair on one int64 key packing the kind
and that center, and a pair must also share its apex.  Half-tiles
on the patch boundary whose mirror partner is missing contribute the same
full-tile point (it lies on the half's closed axis edge), which keeps every
net point an exact integer ring point; this affects only O(perimeter) points.

The farthest any location of a tile can be from its own reference point is
sqrt(3 - phi) ~= 1.17557 (the dart point to its wing vertices), which bounds
the covering radius of any net extracted here.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator

import numpy as np

from .golden import PHI_FLOAT, SIN36, CycloPoint, GoldenNum, squared_length
from .tiling import (
    _CLASS_KIND,
    _CLASSES,
    _DART_CLASSES,
    _INCENTER_OFFSETS,
    _VERTEX_OFFSETS,
    HALF_DART,
    HALF_KITE,
    Patch,
    Square,
    _corner_margins,
    _decode,
    _embed,
    _format_rows,
    _read_table,
    embedded_outline,
)

SOURCE_NAMES = {HALF_KITE: "kite", HALF_DART: "dart"}
_NET_ROW = np.dtype([("xy", np.float64, (2,)), ("kind", "U5"), ("tile_id", np.int64)])
# header key -> the fields export_net writes after it (see tiling._read_table)
_NET_HEADERS = {
    "points": ("N",), "c1": ("C1",), "c2": ("C2", "error_bound", "BOUND"), "window": ("X", "Y", "SIDE"),
}

# max distance from the in-point to a vertex, over both prototile shapes
COVERING_RADIUS_BOUND = math.sqrt(3.0 - PHI_FLOAT)

# c1 of an incenter net: adjacent dart points sit one dart inradius
# (sin 36 / phi) off each side of a shared edge, the closest approach
SEPARATION = 2.0 * SIN36 / PHI_FLOAT

# SEPARATION**2 = 4 sin**2 36 / phi**2 = (3 - phi)/phi**2, exactly
_SEPARATION_SQUARED = GoldenNum(7, -4)
# (D) and (W) reach a dart wing within 1/phi**3 of a point of R; a window
# farther than this inside the outline keeps every such wing inside the patch
_WITNESS_MARGIN = PHI_FLOAT ** -3
# half the side of the box about a window's center searched for witnesses
# before the whole window; every covering window tried held both in it
_WITNESS_REACH = 8.0
# a full tile's axis end minus its incenter, by the class of either half
_AXIS_END_OFFSETS = _VERTEX_OFFSETS[:, 2] - _INCENTER_OFFSETS

# |coordinate| < 2**56 keeps extract_net's incenters (an apex plus an
# _INCENTER_OFFSETS row within +-2) and its grid-line tests on them (at most
# 3 times a coefficient) far inside int64
_COORD_LIMIT = 1 << 56
_EXTRACT_BLOCK = 8192  # half-tiles per block of extract_net's key pass
# a pair closer than this times the largest |coordinate| is within reach of
# Qhull's rounding, which can leave it out of the triangulation
_QHULL_RESOLUTION = 1e-6
# the Delone pass's origin is the window's corner rounded to a multiple of
# this.  Far from the origin Qhull can return a triangulation that is not
# Delaunay; a small step keeps the pass's coordinates small (on a 2**16
# grid Qhull merged distinct points about 2.3e4 from the pass's origin)
_FRAME_STEP = 1024.0


class Net:
    """Point set with provenance, a window square, and Delone statistics.

    ``c1`` (minimum pairwise distance near the analysis region) and ``c2``
    (covering radius over it) come together, on first access to either, in
    one of two ways.

    Exact, from the tiling: a net that ``extract_net`` built from a patch
    with an ``outline`` (one deflated from a seed half-tile, possibly moved
    by ``Patch.transformed``) carries each point's tile class and exact
    ring incenter.  Premise: such a patch tiles its outline, as every seed
    deflation does; a caller who hands ``Patch.from_classes`` an outline
    the tiles do not fill breaks it.  When the window lies more than 1/phi**3
    inside the outline (so it is c2's region R; ``generate_patch_covering``
    keeps 0.25 of margin) and two witnesses are found in integer ring
    arithmetic, c1 is ``SEPARATION`` and c2 is 1.0, with no Delaunay pass:

    - a sun vertex inside R, the apex of five kites 72 degrees apart.  Their
      incenters are at distance exactly 1 and the five kites cover the disk
      of radius phi cos 18 about it, so no other incenter is nearer: c2 >= 1;
    - two dart incenters within 1.5 of R, so inside the pass's first box,
      at squared distance exactly 7 - 4 phi = (2 sin36/phi)**2 (two darts
      sharing their axis end, 72 degrees apart).  Distinct tiles have
      disjoint incircles (S), so no pair is nearer: c1 = 2 sin36/phi.

    c2 <= 1 holds on every such R by lemmas the tests prove exactly: every
    point of a half-kite is within 1 of its kite's incenter (K); a point of
    a half-dart farther than 1 from its incenter is within 1/phi**3 of the
    half's wing (D); every dart wing is the axis end of some tile, whose
    incenter is 1/phi from it (W), and that wing lies inside the patch by
    the margin.  So every point of R is within max(1, 1/phi**3 + 1/phi) = 1
    of the net.

    The float pass, for every other net (loaded from a file, built by hand,
    a window near or off the outline, or one with no witness): one
    window-pruned Delaunay pass (``_delone_pass``), which alone imports
    ``scipy.spatial``; the big counting pipelines never need it.  c1 is the
    pass's shortest Delaunay edge, c2 its largest empty circle, both exact
    up to float rounding.

    ``c2_error_bound`` is a fixed tolerance of 1e-9 for that rounding, the
    same for every net, exact or not; it is not derived from the pass.
    """

    def __init__(
        self,
        xy: np.ndarray,
        source_kinds: np.ndarray,
        tile_ids: np.ndarray,
        window: Square,
        ring: np.ndarray | None = None,
        outline: np.ndarray | None = None,
        classes: np.ndarray | None = None,
    ) -> None:
        self.xy = np.ascontiguousarray(xy, dtype=np.float64)
        self.source_kinds = np.ascontiguousarray(source_kinds, dtype=np.uint8)
        self.tile_ids = np.ascontiguousarray(tile_ids, dtype=np.int64)
        self.classes = None if classes is None else np.ascontiguousarray(classes, dtype=np.uint8)
        if self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError("xy must have shape (M, 2)")
        if len(self.source_kinds) != len(self.xy) or len(self.tile_ids) != len(self.xy):
            raise ValueError("parallel arrays must have equal length")
        if len(self.xy) == 0:
            raise ValueError("empty net")
        if self.classes is not None and (self.classes.shape != (len(self.xy),) or self.classes.max() >= _CLASSES):
            raise ValueError(f"classes must be one half-tile class below {_CLASSES} per point")
        if not np.isfinite(self.xy).all():
            raise ValueError("net coordinates must be finite")
        self.window = Square(*window)
        if not (np.isfinite(self.window).all() and self.window.side > 0):
            raise ValueError("net window must be finite with a positive side")
        self.ring = None if ring is None else np.ascontiguousarray(ring, dtype=np.int64)
        self.outline = None if outline is None else np.asarray(outline, dtype=np.float64)
        for arr in (self.xy, self.source_kinds, self.tile_ids, self.ring, self.classes):
            if arr is not None:
                arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.xy)

    def _c2_region(self, window: Square, origin: np.ndarray) -> np.ndarray:
        """Counter-clockwise vertices of ``window``, clipped to the outline moved by ``-origin``."""
        region = np.array(window.corners())
        if self.outline is None:
            return region
        tri = self.outline - origin
        if _cross(tri[1] - tri[0], tri[2] - tri[0]) < 0:
            tri = tri[::-1]
        return _clip_convex(region, tri)

    def _points_near(self, box: np.ndarray, origin: np.ndarray) -> Iterator[tuple[float, np.ndarray]]:
        """Yield (pad, the points within pad of ``box``'s bounding box) for pad 2, 4, 8, ...

        ``box`` and the points yielded lie in the frame whose origin is
        ``origin``.  The points are picked from ``xy`` against bounds a few
        ulps wider, then moved and picked again exactly, so only the points
        near the box are ever copied.
        """
        lo, hi = box.min(axis=0), box.max(axis=0)
        pad = 2.0
        while True:
            low, high = lo - pad, hi + pad
            slack = 4.0 * np.spacing(np.maximum(np.abs(low), np.abs(high)) + np.abs(origin))
            near = self.xy[_in_box(self.xy, low + origin - slack, high + origin + slack)]
            near -= origin
            keep = _in_box(near, low, high)
            yield pad, near if keep.all() else near[keep]
            pad *= 2.0

    def _witnessed(self) -> bool:
        """Whether the tiling gives c1 = ``SEPARATION`` and c2 = 1 exactly (see ``Net``).

        Needs the points' classes and ring incenters, an outline, and a
        window more than 1/phi**3 inside it.  The witnesses are looked for
        among the points within 1.5 of a box, first one of side
        ``2 * _WITNESS_REACH`` about the window's center, then the whole
        window: a sun vertex strictly inside the box, whose kites are within
        1 of it, and a dart pair, which is then inside the pass's first box
        (pad 2) whatever the rounding.  The float comparisons keep a margin
        of 1e-12 times the window's magnitude, over a thousand times the
        rounding of the embedded points and the outline.
        """
        if self.classes is None or self.ring is None or self.outline is None:
            return False
        x, y, side = self.window
        slack = 1e-12 * (1.0 + abs(x) + abs(y) + side)
        tri = self.outline
        turn = np.sign(_cross(tri[1] - tri[0], tri[2] - tri[0]))
        if (_corner_margins(tri[None], turn[None], self.window) <= _WITNESS_MARGIN + slack).any():
            return False
        boxes = [(np.array([x, y]), np.array([x + side, y + side]))]
        if side > 2.0 * _WITNESS_REACH:
            center = np.array(self.window.center)
            boxes.insert(0, (center - _WITNESS_REACH, center + _WITNESS_REACH))
        for lo, hi in boxes:
            near = np.flatnonzero(_in_box(self.xy, lo - 1.5, hi + 1.5))
            classes, ring = self.classes[near], self.ring[near]
            suns = _embed(_sun_vertices(classes, ring))
            if ((suns > lo + slack) & (suns < hi - slack)).all(axis=1).any() and _has_separation_pair(classes, ring):
                return True
        return False

    @cached_property
    def _delone(self) -> tuple[float | None, float]:
        """(c1, c2): (``SEPARATION``, 1.0) when ``_witnessed``, else ``_delone_pass``."""
        if self._witnessed():
            return SEPARATION, 1.0
        return self._delone_pass()

    def _delone_pass(self) -> tuple[float | None, float]:
        """(c1, c2) from one Delaunay pass; c1 is None for a one-point net.

        The pass runs in the window's own frame: its origin is the window's
        corner rounded to a multiple of ``_FRAME_STEP``, which is 0 for
        every window within 512 of the origin.  Near the window, moving a
        point by it is exact.
        """
        x, y, side = self.window
        origin = np.round(np.array([x, y], dtype=np.float64) / _FRAME_STEP) * _FRAME_STEP
        window = Square(x - origin[0], y - origin[1], side)
        region = self._c2_region(window, origin)
        near = self._points_near(region if len(region) else np.array(window.corners()), origin)
        pts, c2 = np.empty((0, 2)), 0.0
        if len(region):
            for pad, pts in near:
                if len(pts):
                    edges, merged, centers, radii = _delaunay(pts)
                    c2 = _largest_gap(pts, edges, centers, radii, region)
                    if c2 < pad or len(pts) == len(self):
                        break
        if len(pts) < 2 <= len(self):
            # c2's pass kept fewer than two points: widen it for c1
            pts = next(p for _, p in near if len(p) >= 2)
            edges, merged, centers, _ = _delaunay(pts)
        if len(pts) < 2:
            return None, c2
        pairs = np.concatenate([edges[:, :2], merged])
        lengths = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        c1 = float(lengths.min())
        if not len(centers) or lengths[len(edges):].any() or c1 < _QHULL_RESOLUTION * float(np.abs(pts).max()):
            # no triangle, a point Qhull merged into a vertex elsewhere, or a
            # pair within reach of Qhull's rounding: any of them can leave
            # the closest pair out, so pair every point with its nearest one
            from scipy.spatial import cKDTree

            partner = cKDTree(pts).query(pts, k=2)[1][:, 1]
            c1 = min(c1, float(np.linalg.norm(pts - pts[partner], axis=1).min()))
        return c1, c2

    @property
    def c1(self) -> float:
        """Minimum pairwise distance over the points of c2's pass.

        On a net with the tiling's witnesses (see ``Net``) this is
        ``SEPARATION`` exactly, from a witness pair and lemma (S), with no
        pass.  Otherwise the points are the net points within ``pad`` (2 or
        more) of the bounding box of c2's region R.  When R is empty, or the
        pass kept fewer than two points, the pad around R, or around the
        window if R is empty, doubles until it holds two.  c1 is the shortest edge of the pass's
        Delaunay triangulation: the closest pair has an empty diametral
        circle, so it is an edge of every Delaunay triangulation (Shamos &
        Hoey 1975).  When the pass has no triangle with a finite
        circumcenter (fewer than three points, or all on one line to Qhull),
        Qhull merged a point into a vertex at another position, or the
        shortest edge is below 1e-6 times the largest |coordinate| in the
        pass's frame, within reach of Qhull's rounding, any of which can
        leave the closest pair out, each point's nearest neighbour in a k-d
        tree decides instead.
        Pairs farther out are not looked at, so c1 is at least the
        separation of the whole net; on Penrose incenter nets both equal
        ``SEPARATION``.  The float pass is exact up to float rounding; a
        one-point net is a ValueError.
        """
        c1 = self._delone[0]
        if c1 is None:
            raise ValueError("c1 needs at least two points")
        return c1

    @property
    def c2(self) -> float:
        """Covering radius over the region R: max over x in R of d(x, net).

        R is the window, clipped to the patch outline triangle when the net
        has one, since locations outside the patch union are not covered.
        On a net with the tiling's witnesses (see ``Net``) R is the window
        and this is 1.0 exactly: a sun vertex in R and lemmas (K), (D) and
        (W), with no pass.  Otherwise the points within ``pad`` of R's
        bounding box are triangulated and the largest empty circle centred
        in R is found among its classical
        candidates (``_largest_gap``): circumcenters in R, crossings of
        Voronoi edges with R's boundary, and R's vertices.  Only those that
        can set the maximum are measured with the k-d tree.  A crossing of
        a Delaunay edge's bisector that is nearer a third point than the
        edge's ends lies off the Voronoi edge, so it is no candidate and
        cannot exceed the maximum; a circumcenter is no farther from the net
        than its radius, so one whose radius falls short of the largest
        distance found cannot set it.  The result is the maximum over every
        candidate.  If it is below ``pad``, every location of R has its
        nearest net point among them, so it is the covering radius of the
        whole net; otherwise ``pad`` doubles.
        Exact up to the float rounding of the candidate positions, for which
        ``c2_error_bound`` allows a fixed 1e-9.  An empty R gives 0.  c1 comes
        from the same triangulation.
        """
        return self._delone[1]

    @property
    def c2_error_bound(self) -> float:
        """The fixed tolerance 1e-9 allowed on |c2 - covering radius| for float rounding.

        A constant, the same for every net: it is not a bound derived from
        the candidates' rounding, and no proof shows the rounding stays
        below it.  Far from the origin it does not: the float pass's c2 on
        the covering net of ``Square(3e9, 1e9, 64)`` was measured 1e-7 off,
        a hundred times this tolerance, and a net loaded from a file still
        takes that pass.  An exact c2 from the tiling's witnesses (see
        ``Net``) has no rounding, and keeps the same 1e-9, so the CLI and net
        files print the same text for either path.
        """
        return 1e-9


def _in_box(xy: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Mask of the (M, 2) points ``xy`` in the closed box [low, high]; column tests beat ``np.all`` over rows."""
    x, y = xy[:, 0], xy[:, 1]
    return (x >= low[0]) & (x <= high[0]) & (y >= low[1]) & (y <= high[1])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _clip_convex(poly: np.ndarray, clip: np.ndarray) -> np.ndarray:
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


def _delaunay(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Delaunay edges of ``pts``, the points Qhull merged, the circumcenters and their radii.

    Each edge is one row (i, j, r, s): its two ends, then the vertex
    opposite it in each of its two triangles.  Where there is no such
    vertex, or it is not to be trusted, i stands in for it.  A hull edge
    has one triangle, so s is i.  Fewer than three points, or points all on
    one line, have no triangulation: consecutive points in lexicographic
    order stand in for its edges, as rows (i, j, i, i), and there are no
    circumcenters.  Qhull leaves out a point it finds coincident with a
    vertex; ``merged`` pairs each such point with that vertex.  Degenerate
    triangles' circumcenters, which are not finite, are dropped.  A radius
    is the distance from the float circumcenter to one of its vertices.
    Once Qhull has left out a point that is not at its vertex's position
    (it does so when the coordinates are large next to the spacing), the
    triangulation need not be Delaunay: every edge is then (i, j, i, i) and
    every radius inf, so ``_largest_gap`` measures every candidate.
    """
    from scipy.spatial import Delaunay, QhullError

    tri = None
    if len(pts) >= 3:
        try:
            tri = Delaunay(pts)
        except QhullError:  # all on one line
            pass
    if tri is None:
        order = np.lexsort(pts.T[::-1])
        no_pairs = np.empty((0, 2), dtype=np.intp)
        edges = np.column_stack([order[:-1], order[1:], order[:-1], order[:-1]])
        return edges, no_pairs, np.empty((0, 2)), np.empty(0)
    simplices, neighbors = tri.simplices, tri.neighbors
    # the side of simplex j opposite its vertex m, once: from the lower
    # numbered of its two simplices, or from its only one on the hull
    j, m = np.nonzero((neighbors < 0) | (neighbors > np.arange(len(simplices))[:, None]))
    far, i, k = np.take_along_axis(simplices[j], (m[:, None] + np.arange(3)) % 3, axis=1).T
    other = neighbors[j, m]
    far_too = np.where(other < 0, i, simplices[other].sum(axis=1) - i - k)
    edges = np.column_stack([i, k, far, far_too])
    a = pts[simplices[:, 0]]
    b = pts[simplices[:, 1]] - a
    c = pts[simplices[:, 2]] - a
    w = (b * b).sum(axis=1)[:, None] * c - (c * c).sum(axis=1)[:, None] * b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        centers = a + np.column_stack([w[:, 1], -w[:, 0]]) / (2.0 * _cross(b, c))[:, None]
    finite = np.isfinite(centers).all(axis=1)
    centers = centers[finite]
    offsets = centers - a[finite]
    radii = np.hypot(offsets[:, 0], offsets[:, 1])
    merged = tri.coplanar[:, [0, 2]]
    if (pts[merged[:, 0]] != pts[merged[:, 1]]).any():
        edges[:, 2:] = edges[:, :1]
        radii[:] = np.inf
    return edges, merged, centers, radii


def _largest_gap(pts: np.ndarray, edges: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                 region: np.ndarray) -> float:
    """max over x in the convex polygon ``region`` of the distance from x to ``pts``.

    ``edges``, ``centers`` and ``radii`` come from ``_delaunay(pts)``.  On
    each Voronoi cell clipped to the region the distance to the cell's site
    is convex, so the maximum sits at a vertex of some clipped cell: a
    Voronoi vertex inside the region, a crossing of a Voronoi edge with the
    region's boundary, or a region vertex (Toussaint 1983, largest empty
    circle with location constraints).  Voronoi vertices are the Delaunay
    circumcenters, and every Voronoi edge lies on the bisector of a
    Delaunay edge (p, q).  Only the candidates that can set the maximum get
    a k-d tree distance, in two rounds:

    - A bisector crossing x of a region side goes in the first round when
      neither vertex opposite (p, q) is nearer x than p, up to a relative
      1e-9 of the squared distances.  Every crossing of a Voronoi edge has
      p and q among its nearest points, so it passes whatever the
      triangulation.  One that fails is nearer a third point: it is no
      vertex of a clipped cell, and its exact distance is at most the
      maximum.  Its float distance can still round above that of a
      candidate at the same place (mirror-image pairs share a bisector), so
      the failed crossings within 1e-9 of a side's length of a first-round
      crossing or region vertex at the largest distance go in the second.
    - A circumcenter is no farther from ``pts`` than from its own vertices,
      its radius.  The ones inside the region within a relative 1e-9 of the
      largest radius go in the first round, the others in the second when
      their radius, plus a relative 1e-9, reaches the first round's maximum.

    The region's vertices go in the first round.  Every queried candidate
    gets its true distance, so a false crossing that passes is harmless,
    and the result is the maximum over all the classical candidates.
    """
    from scipy.spatial import cKDTree

    # signed distance to each side line is at least -1e-10
    sides = np.roll(region, -1, axis=0) - region
    lengths = np.hypot(sides[:, 0], sides[:, 1])
    inside = (_cross(sides, centers[:, None, :] - region) >= -1e-10 * lengths).all(axis=1)
    centers, radii = centers[inside], radii[inside]

    # where the bisector {x : (x - m).d = 0} of each edge crosses each side
    p, q = pts[edges[:, 0]], pts[edges[:, 1]]
    d = q - p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = (((p + q) / 2.0 * d).sum(axis=1)[:, None] - d @ region.T) / (d @ sides.T)
    e, k = np.nonzero((t >= 0.0) & (t <= 1.0))
    crossings = region[k] + t[e, k, None] * sides[k]
    nearest = _squared_distances(crossings, pts[edges[e, 0]])
    passed = np.ones(len(e), dtype=bool)
    for col in (2, 3):
        passed &= nearest <= _squared_distances(crossings, pts[edges[e, col]]) * (1.0 + 1e-9)

    tree = cKDTree(pts)
    top = radii >= radii.max(initial=0.0) * (1.0 - 1e-9)
    rim = tree.query(np.concatenate([region, crossings[passed]]), k=1)[0]
    gap = max(rim.max(), tree.query(centers[top], k=1)[0].max(initial=0.0))
    # positions along the boundary, where side k runs from k to k + 1
    place = k + t[e, k]
    rim_place = np.concatenate([np.arange(len(region)), place[passed]])
    hot = rim_place[rim >= gap - 1e-9 * (gap + lengths.max())]
    marks = np.sort(np.concatenate([hot - len(region), hot, hot + len(region), [-np.inf, np.inf]]))
    after = np.searchsorted(marks, place)
    twins = ~passed & (np.minimum(marks[after] - place, place - marks[after - 1]) <= 1e-9)
    rest = np.concatenate([centers[~top & (radii * (1.0 + 1e-9) >= gap)], crossings[twins]])
    if len(rest):
        gap = max(gap, tree.query(rest, k=1)[0].max())
    return float(gap)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a - b
    return (diff * diff).sum(axis=1)


def _sun_vertices(classes: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """(k, 4) ring points that are the apex of five of these kites, 72 degrees apart.

    ``classes`` and ``ring`` are points' tile classes and incenters.  A
    kite's apex is its incenter minus its class's offset, and its direction
    is ``class >> 1``: five kites on one apex whose directions step by 2
    (72 degrees) fill the turn around it.
    """
    kites = classes < _DART_CLASSES
    c = classes[kites]
    apexes, turns = ring[kites] - _INCENTER_OFFSETS[c], c >> 1
    order = np.lexsort((turns, *apexes.T[::-1]))
    apexes, turns = apexes[order], turns[order]
    step = (apexes[1:] == apexes[:-1]).all(axis=1) & (turns[1:] - turns[:-1] == 2)
    return apexes[:-4][step[:-3] & step[1:-2] & step[2:-1] & step[3:]]


def _has_separation_pair(classes: np.ndarray, ring: np.ndarray) -> bool:
    """Whether two of these darts share their axis end 72 degrees apart, at distance ``SEPARATION``.

    The pair is found by integer equality of axis ends and a direction
    step of 2 (or 8, around the turn); its squared distance is then checked
    to be 7 - 4 phi exactly in Q(phi).
    """
    darts = classes >= _DART_CLASSES
    c, centers = classes[darts], ring[darts]
    ends, turns = centers + _AXIS_END_OFFSETS[c], c >> 1
    order = np.lexsort((turns, *ends.T[::-1]))
    ends, turns, centers = ends[order], turns[order], centers[order]
    apart = turns[1:] - turns[:-1]
    pairs = np.flatnonzero((ends[1:] == ends[:-1]).all(axis=1) & ((apart == 2) | (apart == 8)))
    if not len(pairs):
        return False
    j = pairs[0]
    return squared_length(CycloPoint(*map(int, centers[j + 1] - centers[j]))) == _SEPARATION_SQUARED


def _pairing_key(p: Patch) -> tuple[np.ndarray, list[int]]:
    """(key, widths): each half's key packing its kind and its full tile's incenter.

    The incenter is the apex plus the class's ``_INCENTER_OFFSETS``; each
    coefficient k is packed as its offset from a lower bound, taken from
    the apexes' range and the table's, in ``widths[k]`` bits, in one pass a
    block at a time.  An apex coefficient within 1 of +-2**56 (a vertex may
    reach it), or a key wider than 63 bits, is a ValueError.
    """
    low, high = p.apexes.min(axis=1).astype(np.int64), p.apexes.max(axis=1).astype(np.int64)
    if high.max() >= _COORD_LIMIT - 1 or low.min() <= -(_COORD_LIMIT - 1):
        raise ValueError(f"tile coordinates must lie within +-2**{_COORD_LIMIT.bit_length() - 1}")
    offsets = low + _INCENTER_OFFSETS.min(axis=0)
    widths = [(int(t) - int(o)).bit_length() for t, o in zip(high + _INCENTER_OFFSETS.max(axis=0), offsets)]
    if 1 + sum(widths) > 63:
        raise ValueError(f"tile key needs {1 + sum(widths)} bits, more than 63")
    key = np.empty(len(p), dtype=np.int64)
    rows = np.empty((4, _EXTRACT_BLOCK), dtype=np.int64)
    for lo in range(0, len(p), _EXTRACT_BLOCK):
        classes = p.classes[lo:lo + _EXTRACT_BLOCK]
        block = rows[:, :len(classes)]
        np.take(_INCENTER_OFFSETS.T, classes, axis=1, out=block)
        block += p.apexes[:, lo:lo + _EXTRACT_BLOCK]
        block -= offsets[:, None]
        packed = key[lo:lo + len(classes)]
        packed[:] = classes >= _DART_CLASSES
        for row, width in zip(block, widths):
            packed <<= width
            packed += row
    return key, widths


def _stable_order(key: np.ndarray, key_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, key[order]) with order = ``np.argsort(key, kind="stable")``, for 0 <= key < 2**key_bits.

    Sorts values, not indices: each int64 word packs a digit of the key
    above ``idx_bits`` bits holding an index, so one value sort orders the
    digits and breaks their ties by index.  When the whole key fits beside
    the index, one sort does it, and the sorted keys are the words shifted
    back.  Otherwise the digits are sorted least significant first, each
    word carrying its position in the previous pass's order, so every pass
    is stable and their composition is the stable order.  All passes write
    one words buffer, the indices a block at a time.  The gathers use
    ``mode="clip"`` on indices that are in range by construction, since
    ``np.take`` buffers ``out`` in its default mode.
    """
    n = len(key)
    idx_bits = max(n - 1, 0).bit_length()
    digit_bits = 63 - idx_bits
    passes = range(0, max(key_bits, 1), digit_bits)
    words = np.empty(n, dtype=np.int64)
    order = None
    for shift in passes:
        source = key if order is None else np.take(key, order, out=words, mode="clip")
        for lo in range(0, n, _EXTRACT_BLOCK):
            block = words[lo:lo + _EXTRACT_BLOCK]
            np.right_shift(source[lo:lo + _EXTRACT_BLOCK], shift, out=block)
            block &= (1 << digit_bits) - 1  # so the shift below stays under 2**63
            block <<= idx_bits
            block |= np.arange(lo, lo + len(block))
        words.sort()
        if len(passes) == 1:
            sorted_key = words >> idx_bits
            words &= (1 << idx_bits) - 1
            return words, sorted_key
        words &= (1 << idx_bits) - 1
        order = words.copy() if order is None else np.take(order, words, mode="clip")
    return order, np.take(key, order, out=words, mode="clip")


def _first_halves(key: np.ndarray, key_bits: int, classes: np.ndarray) -> np.ndarray:
    """Sorted patch indices of the first half of every tile; halves pair on equal keys.

    The keys, below 2**key_bits, are ordered by ``_stable_order``.  Paired
    halves share kind and incenter, so they share their apex exactly when
    their classes share a direction (``class >> 1``).  A key shared by more
    than two halves, or a pair without opposite chirality and a shared
    apex, is a ValueError.
    """
    order, sk = _stable_order(key, key_bits)
    same = sk[1:] == sk[:-1]  # sorted positions j and j + 1 share a key
    del sk
    if np.any(same[1:] & same[:-1]):
        raise ValueError("more than two half-tiles share one tile incenter; invalid patch")
    pairs = np.flatnonzero(same)
    a, b = order[pairs], order[pairs + 1]
    del order, same, pairs
    ca, cb = classes[a], classes[b]
    if np.any((ca ^ cb) & 1 == 0):
        raise ValueError("paired half-tiles must have opposite chirality")
    if np.any(ca >> 1 != cb >> 1):
        raise ValueError("paired half-tiles must share their apex; overlapping tiles")
    first = np.ones(len(key), dtype=bool)
    first[np.maximum(a, b)] = False
    return np.flatnonzero(first)


def extract_net(p: Patch, window: Square | tuple | None = None) -> Net:
    """Pair mirror halves of a final-scale patch and emit tile incenters.

    Pre: ``p.scale_exp == 0`` (tile edge lengths 1 and phi).  A half's full
    tile has its exact incenter at the half's apex plus its class's offset,
    the same for mirror halves, and halves pair on one int64 key packing
    (kind, incenter), since distinct tiles have distinct incenters.  More
    than two halves on a key, a pair without opposite chirality and a
    shared apex, coordinates that could wrap int64 or a key wider than 63
    bits is a ValueError.  Points are ordered by the patch index of their
    first contributing half-tile.

    Net coordinates that lie on a grid line are exact: x is the integer or
    half-integer ``(2 c0 - c1) / 2`` when ``c1 - c2 - c3 == 0`` and y is 0
    when ``c1 == 0`` and ``c2 == c3``; every other coordinate is irrational.

    ``window`` overrides the net's counting window; by default it is the
    covering square recorded by the patch generator, or a padded bounding
    box when none was recorded.
    """
    if len(p) == 0:
        raise ValueError("empty net")
    if p.scale_exp != 0:
        raise ValueError(
            f"net extraction requires final-scale tiles (scale_exp 0), got {p.scale_exp}"
        )
    key, widths = _pairing_key(p)
    tile_ids = _first_halves(key, 1 + sum(widths), p.classes)
    del key
    # the chosen tiles' incenters: apex plus their class's incenter offset
    classes = p.classes[tile_ids]
    ring = np.take(_INCENTER_OFFSETS, classes, axis=0)
    ring += np.take(p.apexes, tile_ids, axis=1).T
    xy = _embed(ring)
    on_x = ring[:, 1] - ring[:, 2] == ring[:, 3]
    xy[on_x, 0] = (2 * ring[on_x, 0] - ring[on_x, 1]) / 2.0
    xy[(ring[:, 1] == 0) & (ring[:, 2] == ring[:, 3]), 1] = 0.0

    prov = p.provenance
    outline = embedded_outline(p) if "outline" in prov else None
    if window is not None:
        window = Square(*window)
    elif "square" in prov:
        window = Square(*prov["square"])
    else:
        lo = xy.min(axis=0)
        extent = float((xy.max(axis=0) - lo).max())
        window = Square(float(lo[0]) - 1.0, float(lo[1]) - 1.0, extent + 2.0)
    return Net(xy, _CLASS_KIND[classes], tile_ids, window, ring=ring, outline=outline, classes=classes)


def count_in_square(net: Net, square: Square | tuple) -> tuple[int, int]:
    """Half-open point counts [x, x+l) x [y, y+l), split by source kind."""
    square = Square(*square)
    wx, wy, wside = net.window
    eps = 1e-9
    if not (
        square.x >= wx - eps
        and square.y >= wy - eps
        and square.x + square.side <= wx + wside + eps
        and square.y + square.side <= wy + wside + eps
    ):
        raise ValueError("square extends outside the net window")
    x, y = net.xy[:, 0], net.xy[:, 1]
    mask = (x >= square.x) & (x < square.x + square.side) & (y >= square.y) & (y < square.y + square.side)
    kites = int(np.count_nonzero(mask & (net.source_kinds == HALF_KITE)))
    darts = int(np.count_nonzero(mask)) - kites
    return kites, darts


def export_net(net: Net, path: str) -> None:
    """Write one point per line (x, y, source_kind, tile_id) with a stats header.

    The header is built before ``path`` is opened, so a net whose c1 or c2
    raises (a one-point net has no c1) leaves no file and an existing one
    untouched.
    """
    names = (SOURCE_NAMES[HALF_KITE], SOURCE_NAMES[HALF_DART])  # HALF_KITE 0, HALF_DART 1
    header = (
        f"# penrosenet net v1\n# points {len(net)}\n# c1 {net.c1:.12g}\n"
        f"# c2 {net.c2:.12g} error_bound {net.c2_error_bound:.12g}\n"
        f"# window {net.window.x:.12g} {net.window.y:.12g} {net.window.side:.12g}\n"
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.writelines(_format_rows("%.12g %.12g %s %d\n", net.xy, (names, net.source_kinds), net.tile_ids))


def load_net(path: str) -> Net:
    """Read the export_net format (positions are the rounded floats).

    The ``window`` header is required.  A ``points``, ``c1``, ``c2`` or
    ``window`` header whose fields do not match what export_net writes (a
    number where it writes one) is a ValueError, and so is a ``points``
    count that differs from the number of point lines.  Headers may repeat;
    the last one counts.  The file is ASCII and is read as
    ``tiling._read_table`` says: the point lines by ``np.loadtxt`` from the
    path, so a file that is not one regular file, unchanged between that
    read and the header read, is a ValueError.
    """
    values, rows = _read_table(path, _NET_ROW, _NET_HEADERS)
    kinds = _decode(rows["kind"], {name: code for code, name in SOURCE_NAMES.items()})
    if "window" not in values:
        raise ValueError("net file missing window header")
    if "points" in values and values["points"][0] != len(rows):
        raise ValueError(f"points header {values['points'][0]} does not match {len(rows)} point lines")
    return Net(rows["xy"], kinds, rows["tile_id"], Square(*values["window"]))
