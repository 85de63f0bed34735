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

import numpy as np

from .golden import PHI_FLOAT, SIN36, CycloPoint, GoldenNum, squared_length
from .tiling import (
    _CLASS_KIND,
    _CLASSES,
    _DART_CLASSES,
    _INCENTER_OFFSETS,
    _VERTEX_OFFSETS,
    HALF_KITE,
    Patch,
    Square,
    _corner_margins,
    _embed,
    _format_rows,
    _read_table,
    patch_outline,
)

# one point line of a net file: its class, its ring incenter and its tile id
_NET_ROW = np.dtype([("class", np.int64), ("ring", np.int64, (4,)), ("tile_id", np.int64)])
# header key -> the fields export_net writes after it (see tiling._read_table)
_NET_HEADERS = {
    "penrosenet": ("net", "v2"), "points": ("N",), "window": ("X", "Y", "SIDE"), "outline": ("N",) * 12,
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
# before the whole window (c2) or net (c1); every covering window tried
# held both in it
_WITNESS_REACH = 8.0
# a full tile's axis end minus its incenter, by the class of either half
_AXIS_END_OFFSETS = _VERTEX_OFFSETS[:, 2] - _INCENTER_OFFSETS

# |coordinate| < 2**56 keeps extract_net's incenters (an apex plus an
# _INCENTER_OFFSETS row within +-2) and its grid-line tests on them (at most
# 3 times a coefficient) far inside int64
_COORD_LIMIT = 1 << 56
_EXTRACT_BLOCK = 8192  # half-tiles per block of extract_net's key pass


class Net:
    """Tile incenters with provenance, a window square, and Delone statistics.

    A net is its tiles: each point's half-tile class and exact ring
    incenter, from which ``xy`` (``_ring_xy``) and ``source_kinds`` are
    derived.  ``c1`` (minimum pairwise distance) and ``c2`` (covering radius
    over the window) come exactly from the tiling; ``c2`` also needs the
    ring ``outline`` of a patch deflated from a seed half-tile, possibly
    moved by ``Patch.transformed``.  Premise: the tiles do not overlap, and
    such a patch tiles its outline, as every seed deflation does; a caller
    who hands ``Patch.from_classes`` an outline the tiles do not fill, or
    ``Net`` classes and incenters that are not one patch's tiles, breaks
    it.  The witnesses are found in integer ring arithmetic:

    - two dart incenters at squared distance exactly 7 - 4 phi =
      (2 sin36/phi)**2 (two darts sharing their axis end, 72 degrees
      apart).  Distinct tiles have disjoint incircles (S), so no pair is
      nearer: c1 = 2 sin36/phi, whatever the window;
    - a sun vertex inside the window R, the apex of five kites 72 degrees
      apart, when R lies more than 1/phi**3 inside the outline
      (``generate_patch_covering`` keeps 0.25 of margin).  The five
      incenters are at distance exactly 1 and the five kites cover the disk
      of radius phi cos 18 about it, so no other incenter is nearer:
      c2 >= 1.

    c2 <= 1 holds on every such R by lemmas the tests prove exactly: every
    point of a half-kite is within 1 of its kite's incenter (K); a point of
    a half-dart farther than 1 from its incenter is within 1/phi**3 of the
    half's wing (D); every dart wing is the axis end of some tile, whose
    incenter is 1/phi from it (W), and that wing lies inside the patch by
    the margin.  So every point of R is within max(1, 1/phi**3 + 1/phi) = 1
    of the net.  Any other net has no c1 or c2: asking is a ValueError.
    """

    def __init__(
        self,
        classes: np.ndarray,
        ring: np.ndarray,
        tile_ids: np.ndarray,
        window: Square,
        outline: np.ndarray | None = None,
    ) -> None:
        """Each point's half-tile class and (M, 4) ring incenter; ``xy`` and ``source_kinds`` follow from them.

        ``outline`` is the seed triangle's (3, 4) ring coordinates at scale
        0, as ``patch_outline`` gives.  A ring coefficient beyond +-2**56
        (``_COORD_LIMIT``, past any incenter ``extract_net`` builds) is
        refused, so ``_ring_xy``'s integer arithmetic cannot wrap.
        """
        ring, classes = np.asarray(ring), np.asarray(classes)
        if ring.dtype.kind not in "iu" or ring.ndim != 2 or ring.shape[1] != 4:
            raise ValueError(f"ring must be (M, 4) integer ring coordinates, got {ring.dtype} {ring.shape}")
        if classes.shape != (len(ring),) or np.shape(tile_ids) != (len(ring),):
            raise ValueError("classes, ring and tile_ids must have equal length")
        if len(ring) == 0:
            raise ValueError("empty net")
        if classes.dtype.kind not in "iu" or classes.min() < 0 or classes.max() >= _CLASSES:
            raise ValueError(f"classes must lie in 0..{_CLASSES - 1}")
        if ring.max() > _COORD_LIMIT or ring.min() < -_COORD_LIMIT:
            raise ValueError(f"ring coefficients must lie within +-2**{_COORD_LIMIT.bit_length() - 1}")
        self.window = Square(*window)
        if not (np.isfinite(self.window).all() and self.window.side > 0):
            raise ValueError("net window must be finite with a positive side")
        self.outline = None if outline is None else np.asarray(outline)
        if self.outline is not None:
            if self.outline.shape != (3, 4) or self.outline.dtype.kind not in "iu":
                raise ValueError(f"outline must be (3, 4) ring coordinates, got {self.outline.dtype} "
                                 f"{self.outline.shape}")
            self.outline = self.outline.astype(np.int64)
        self.classes = np.ascontiguousarray(classes, dtype=np.uint8)
        self.ring = np.ascontiguousarray(ring, dtype=np.int64)
        self.tile_ids = np.ascontiguousarray(tile_ids, dtype=np.int64)
        self.xy = _ring_xy(self.ring)
        self.source_kinds = _CLASS_KIND[self.classes]
        for arr in (self.classes, self.ring, self.tile_ids, self.xy, self.source_kinds, self.outline):
            if arr is not None:
                arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.xy)

    def _boxes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The boxes searched for witnesses: side ``2 * _WITNESS_REACH`` about the window's center, then the window."""
        x, y, side = self.window
        boxes = [(np.array([x, y]), np.array([x + side, y + side]))]
        if side > 2.0 * _WITNESS_REACH:
            center = np.array(self.window.center)
            boxes.insert(0, (center - _WITNESS_REACH, center + _WITNESS_REACH))
        return boxes

    def _near(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Classes and ring incenters of the points within 1.5 of the box [lo, hi]."""
        near = np.flatnonzero(_in_box(self.xy, lo - 1.5, hi + 1.5))
        return self.classes[near], self.ring[near]

    @cached_property
    def c1(self) -> float:
        """Minimum pairwise distance: ``SEPARATION`` exactly, from a dart pair and lemma (S) (see ``Net``).

        The pair is looked for near the window's center (the first of
        ``_boxes``), then among all points.  A net with no such pair (a
        one-point net, say) is a ValueError.
        """
        if _has_separation_pair(*self._near(*self._boxes()[0])) or _has_separation_pair(self.classes, self.ring):
            return SEPARATION
        raise ValueError("c1 needs a net extracted from a tiling, with two darts on one axis end as its witness")

    @cached_property
    def c2(self) -> float:
        """Covering radius over the window R: max over x in R of d(x, net), 1.0 exactly (see ``Net``).

        Needs an outline, R more than 1/phi**3 inside it, and a sun vertex
        strictly inside one of ``_boxes``, found among the points within 1.5
        of the box (its kites are within 1 of it).  The float comparisons keep a margin of 1e-12
        times the window's magnitude, over a thousand times the rounding of
        the embedded points and the outline.  Any other net is a ValueError.
        """
        if self.outline is not None:
            x, y, side = self.window
            slack = 1e-12 * (1.0 + abs(x) + abs(y) + side)
            tri = _embed(self.outline)
            (ux, uy), (vx, vy) = tri[1] - tri[0], tri[2] - tri[0]
            turn = np.sign(ux * vy - uy * vx)
            if (_corner_margins(tri[None], turn[None], self.window) > _WITNESS_MARGIN + slack).all():
                for lo, hi in self._boxes():
                    suns = _embed(_sun_vertices(*self._near(lo, hi)))
                    if ((suns > lo + slack) & (suns < hi - slack)).all(axis=1).any():
                        return 1.0
        raise ValueError("c2 needs a net extracted from a tiling, its window more than 1/phi**3 inside the "
                         "outline and holding a sun vertex as its witness")

    @property
    def c2_error_bound(self) -> float:
        """The tolerance 1e-9 that ``verify`` prints beside c2.

        c2 is exact, so it meets this trivially; the constant stays so that
        the printed lines do not change.
        """
        return 1e-9


def _in_box(xy: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Mask of the (M, 2) points ``xy`` in the closed box [low, high]; column tests beat ``np.all`` over rows."""
    x, y = xy[:, 0], xy[:, 1]
    return (x >= low[0]) & (x <= high[0]) & (y >= low[1]) & (y <= high[1])


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


def _sorted_keys(key: np.ndarray, key_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, key[order]) with the keys, 0 <= key < 2**key_bits, ascending; ties come in any order.

    Where a key fits beside its index in 63 bits, one value sort of int64
    words packing the key above the index does it, about twice as fast as
    ``np.argsort``, and the sorted keys are the words shifted back.  The
    words are packed a block at a time.  Wider keys go to ``np.argsort``.
    """
    n = len(key)
    idx_bits = max(n - 1, 0).bit_length()
    if key_bits + idx_bits > 63:
        order = np.argsort(key)
        return order, key[order]
    words = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _EXTRACT_BLOCK):
        block = words[lo:lo + _EXTRACT_BLOCK]
        np.left_shift(key[lo:lo + _EXTRACT_BLOCK], idx_bits, out=block)
        block |= np.arange(lo, lo + len(block))
    words.sort()
    sorted_key = words >> idx_bits
    words &= (1 << idx_bits) - 1
    return words, sorted_key


def _first_halves(key: np.ndarray, key_bits: int, classes: np.ndarray) -> np.ndarray:
    """Sorted patch indices of the first half of every tile; halves pair on equal keys.

    The keys, below 2**key_bits, are ordered by ``_sorted_keys``; the
    checks below are symmetric in a pair's halves, and the later half of
    each pair is dropped, so the order of tied keys does not matter.  Paired
    halves share kind and incenter, so they share their apex exactly when
    their classes share a direction (``class >> 1``).  A key shared by more
    than two halves, or a pair without opposite chirality and a shared
    apex, is a ValueError.
    """
    order, sk = _sorted_keys(key, key_bits)
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


def _ring_xy(ring: np.ndarray) -> np.ndarray:
    """(M, 2) float points of (M, 4) ring incenters: ``_embed``, exact where a point lies on a grid line.

    x is the integer or half-integer ``(2 c0 - c1) / 2`` when ``c1 - c2 - c3
    == 0`` and y is 0 when ``c1 == 0`` and ``c2 == c3``; every other
    coordinate is irrational.
    """
    xy = _embed(ring)
    on_x = ring[:, 1] - ring[:, 2] == ring[:, 3]
    xy[on_x, 0] = (2 * ring[on_x, 0] - ring[on_x, 1]) / 2.0
    xy[(ring[:, 1] == 0) & (ring[:, 2] == ring[:, 3]), 1] = 0.0
    return xy


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

    Net coordinates come from ``_ring_xy`` (in ``Net``), exact on grid lines.

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

    prov = p.provenance
    outline = patch_outline(p) if "outline" in prov else None
    if window is None and "square" in prov:
        window = prov["square"]
    # with no window, a unit stand-in until Net has derived the points whose padded box replaces it
    net = Net(classes, ring, tile_ids, (0.0, 0.0, 1.0) if window is None else window, outline)
    if window is None:
        lo = net.xy.min(axis=0)
        extent = float((net.xy.max(axis=0) - lo).max())
        net.window = Square(float(lo[0]) - 1.0, float(lo[1]) - 1.0, extent + 2.0)
    return net


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
    """Write the v2 net file: one line per point, its class, four ring coefficients and tile id.

    The headers are the format version, ``points``, the ``window`` at full
    float precision (``%.17g``, so it reads back exactly) and, when the net
    has one, the ``outline`` as its 12 ring integers.
    """
    x, y, side = net.window
    header = f"# penrosenet net v2\n# points {len(net)}\n# window {x:.17g} {y:.17g} {side:.17g}\n"
    if net.outline is not None:
        header += f"# outline {' '.join(map(str, net.outline.ravel().tolist()))}\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.writelines(_format_rows("%d %d %d %d %d %d\n", net.classes, net.ring, net.tile_ids))


def load_net(path: str) -> Net:
    """Read the v2 format export_net writes; ``Net`` rebuilds ``xy`` from the ring.

    Premise: the file is ``export_net`` output of an extracted net, the
    trust ``Patch.from_classes`` takes; c1 and c2 rest on its tiles not
    overlapping.  What is checked: the ``penrosenet net v2`` and ``window``
    headers are required (a v1 file is refused); a ``points``, ``window``
    or ``outline`` header whose fields do not match what export_net writes
    is a ValueError, and so are a ``points`` count that differs from the
    number of point lines, a class outside 0..39, and a ring or outline
    coefficient beyond +-2**56, past any incenter extract_net builds.
    Headers may repeat; the last one counts.  The file is ASCII and is read
    as ``tiling._read_table`` says: the point lines by ``np.loadtxt`` from
    the path, so a file that is not one regular file, unchanged between
    that read and the header read, is a ValueError.
    """
    values, rows = _read_table(path, _NET_ROW, _NET_HEADERS)
    for key in ("penrosenet", "window"):
        if key not in values:
            raise ValueError(f"net file missing its {key} header")
    if "points" in values and values["points"][0] != len(rows):
        raise ValueError(f"points header {values['points'][0]} does not match {len(rows)} point lines")
    outline = values.get("outline")
    if outline is not None and max(map(abs, outline)) > _COORD_LIMIT:
        raise ValueError(f"net file outline coefficients must lie within +-2**{_COORD_LIMIT.bit_length() - 1}")
    # Net refuses a class outside 0..39 and a ring coefficient beyond +-2**56
    return Net(rows["class"], rows["ring"], rows["tile_id"], values["window"],
               None if outline is None else np.reshape(outline, (3, 4)))
