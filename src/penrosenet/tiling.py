"""Penrose kite/dart patches generated by exact half-tile deflation.

A patch is a flat array of Robinson half-triangles with integer coordinates
in Z[zeta].  Deflation splits every half-kite into two half-kites and one
half-dart and every half-dart into one of each, with split points at exact
1/phi fractions along edges.  Children are rescaled by phi each round (and
the patch-wide ``scale_exp`` incremented) so coordinates stay integers; the
master outline keeps a fixed physical size while tiles shrink.

Vertex role order is ``(wing, apex, axis_end)``.  The apex sits between the
two equal sides, and apex -> axis_end is half of the full tile's symmetry
axis, so mirror partners share (apex, axis_end) and differ only in the wing.
Writing a half-tile as (A, B, C) = (wing, apex, axis_end):

    half-kite: |BA| = |BC| = phi, |CA| = 1, apex angle 36 deg
    half-dart: |BA| = |BC| = 1, |CA| = phi, apex angle 108 deg

One deflation round uses split points at 1/phi fractions (all exact in the
ring since 1/phi = zeta + zeta**4):

          A                                A
         /  \\          Q = A + (B-A)/phi   (on edge B-A, |AQ| = 1)
        Q    \\         R = B + (C-B)/phi   (on the axis, |BR| = 1)
       /      \\
      B---R----C       half-kite (A,B,C) -> dart(R,Q,B), kite(Q,A,R),
                                            kite(C,A,R)
          A
         / \\           P = C + (A-C)/phi   (on edge C-A, |CP| = 1)
        P   \\
       /     \\         half-dart (A,B,C) -> dart(B,P,A), kite(P,C,B)
      B-------C

Child chirality follows the pattern (same, flipped, same) for the kite and
(same, flipped) for the dart; chirality +1 means the (wing, apex, axis_end)
loop is counterclockwise.  This is the standard Robinson decomposition in
one of its two mirror conventions.

Every half-tile of a patch is a unit triangle in ring units, so it is one
of 40 classes placed at its apex: class ``20 kind + 2 direction +
(chirality == RIGHT)`` is ``_SEED_COORDS[(kind, chirality)]`` turned
``direction`` tenths.  A patch stores uint8 ``classes`` and a C-contiguous
(4, N) ``apexes`` buffer, 17 bytes per half-tile (98 as (N, 3, 4) int64
vertices, kind and chirality), int32 while the int64 growth guard's bound
(|apex| + 1) fits int32 and int64 otherwise, through one kernel.  The
class tables come at import from the seeds and ``deflate_tile``: as
1/phi + 1 = phi, a child's apex is its parent's times phi plus a table row
of (parent class, slot).  ``Patch.coords`` is built on demand.
"""

from __future__ import annotations

import io
import math
import os
import re
import stat
import warnings
from dataclasses import dataclass
from operator import mul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .golden import (
    CycloPoint,
    EMBED_COS,
    EMBED_SIN,
    MUL_BY_INV_PHI,
    MUL_BY_OMEGA,
    MUL_BY_PHI,
    PHI_FLOAT,
)

HALF_KITE = 0
HALF_DART = 1
RIGHT = 1
LEFT = -1

KIND_NAMES = {HALF_KITE: "half-kite", HALF_DART: "half-dart"}
KIND_CODES = {"half-kite": HALF_KITE, "half-dart": HALF_DART}

DEFAULT_TILE_CAP = 50_000_000
COVER_SLACK = 2.0  # radius a covering seed's incircle adds beyond the square's circumcircle

_MPHI = np.array(MUL_BY_PHI, dtype=np.int64)
_MINV = np.array(MUL_BY_INV_PHI, dtype=np.int64)
_MOMEGA = np.array(MUL_BY_OMEGA, dtype=np.int64)
EMBED_MATRIX = np.array([EMBED_COS, EMBED_SIN], dtype=np.float64).T  # (4, 2)

# A deflation round makes each vertex coefficient x @ _MPHI or x @ _MINV + y,
# so it grows by at most the largest absolute column sum (plus one): 4.  A
# child's apex is such a vertex, and every partial sum _times_phi forms on the
# way to it stays within that bound too.
_GROWTH = max(int(np.abs(_MPHI).sum(axis=0).max()), int(np.abs(_MINV).sum(axis=0).max()) + 1)
_INT64_MAX = int(np.iinfo(np.int64).max)
_INT32_MAX = int(np.iinfo(np.int32).max)
_DEFLATE_BLOCK = 4096  # parent tiles per block of one deflation round
_COORD_BLOCK = 1 << 18  # half-tiles per block of vertex coordinates built for the SVG writer

_CLASSES, _DART_CLASSES = 40, 20  # 2 kinds x 2 chiralities x 10 directions; darts from class 20
_NO_CLASS = 255
_REACH = 1  # the largest |coefficient| of a vertex offset from its apex

# Unit seeds, apex at the origin, axis along +x; LEFT seeds are the complex
# conjugates of the RIGHT ones.  Rows are (wing, apex, axis_end).
_SEED_COORDS = {
    (HALF_KITE, RIGHT): ((1, 1, 0, 0), (0, 0, 0, 0), (0, 0, -1, -1)),
    (HALF_KITE, LEFT): ((0, -1, -1, -1), (0, 0, 0, 0), (0, 0, -1, -1)),
    (HALF_DART, RIGHT): ((1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 0)),
    (HALF_DART, LEFT): ((0, -1, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
}


class TileCapError(RuntimeError):
    """Raised when a deflation would exceed the configured tile cap."""


class Square(NamedTuple):
    """Axis-aligned square with corner (x, y) and side length ``side``."""

    x: float
    y: float
    side: float

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.side / 2.0, self.y + self.side / 2.0)

    @property
    def area(self) -> float:
        return self.side * self.side

    def corners(self) -> tuple[tuple[float, float], ...]:
        x, y, l = self.x, self.y, self.side
        return ((x, y), (x + l, y), (x + l, y + l), (x, y + l))


@dataclass(frozen=True)
class TileCensus:
    """Exact half-tile counts by kind."""

    kites: int
    darts: int

    def total(self) -> int:
        return self.kites + self.darts

    def __iter__(self):
        return iter((self.kites, self.darts))


@dataclass(frozen=True)
class HalfTile:
    """One Robinson half-triangle with exact ring vertices.

    ``kind`` is HALF_KITE or HALF_DART, ``chirality`` is RIGHT (+1) for a
    counterclockwise (wing, apex, axis_end) loop and LEFT (-1) for its
    mirror image.
    """

    kind: int
    chirality: int
    wing: CycloPoint
    apex: CycloPoint
    axis_end: CycloPoint
    generation: int = 0

    @property
    def vertices(self) -> tuple[CycloPoint, CycloPoint, CycloPoint]:
        return (self.wing, self.apex, self.axis_end)


def deflate_tile(t: HalfTile) -> list[HalfTile]:
    """Split one half-tile into its Robinson children, exactly.

    Children are returned in the parent's coordinate frame (edge lengths
    shrink by 1/phi); ``deflate_patch`` is the scale-managed counterpart.
    Order matches the vectorized engine: kite -> [dart, flipped kite, kite],
    dart -> [dart, flipped kite].
    """
    a, b, c = t.wing, t.apex, t.axis_end
    g = t.generation + 1
    if t.kind == HALF_KITE:
        q = a + (b - a).times_inv_phi()
        r = b + (c - b).times_inv_phi()
        return [
            HalfTile(HALF_DART, t.chirality, r, q, b, g),
            HalfTile(HALF_KITE, -t.chirality, q, a, r, g),
            HalfTile(HALF_KITE, t.chirality, c, a, r, g),
        ]
    p = c + (a - c).times_inv_phi()
    return [
        HalfTile(HALF_DART, t.chirality, b, p, a, g),
        HalfTile(HALF_KITE, -t.chirality, p, c, b, g),
    ]


class Patch:
    """Immutable array of half-tiles sharing one scale exponent.

    Half-tile i is ``classes[i]`` with its apex at ``apexes[:, i]``; the
    ``kinds``, ``chiralities`` and (N, 3, 4) int64 ``coords`` are derived on
    each access.  Physical positions are ``coords`` embedded times
    phi**(-scale_exp).  ``Patch(kinds, chiralities, coords)`` takes any
    layout and refuses (ValueError, naming the first) a triangle that is not
    a unit half-tile of its kind and chirality; ``from_classes`` stores.
    """

    __slots__ = ("classes", "apexes", "generation", "scale_exp", "provenance")

    def __init__(
        self,
        kinds: np.ndarray,
        chiralities: np.ndarray,
        coords: np.ndarray,
        generation: int = 0,
        scale_exp: int = 0,
        provenance: dict | None = None,
    ) -> None:
        kinds, chiralities, coords = np.asarray(kinds), np.asarray(chiralities), np.asarray(coords, dtype=np.int64)
        if kinds.ndim != 1 or chiralities.shape != kinds.shape or coords.shape != (len(kinds), 3, 4):
            raise ValueError(f"need kinds (N,), chiralities (N,) and coords (N, 3, 4), got {coords.shape} coords")
        if not (np.all((kinds == HALF_KITE) | (kinds == HALF_DART)) and np.all(np.abs(chiralities) == 1)):
            raise ValueError("kinds must be HALF_KITE (0) or HALF_DART (1), chiralities RIGHT (+1) or LEFT (-1)")
        classes, apexes = _classify(coords)
        bad, what = classes == _NO_CLASS, "is not a unit half-kite or half-dart"
        if not bad.any():
            bad, what = _CLASS_KIND[classes] != kinds, "has the other kind's shape"
        if not bad.any():
            bad, what = _CLASS_CHIR[classes] != chiralities, "has the vertex order of the other chirality"
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"half-tile {i} ({KIND_NAMES[int(kinds[i])]}, chirality {int(chiralities[i]):+d}) "
                             f"{what}: {coords[i].tolist()}")
        self._store(classes, _apex_rows(apexes), generation, scale_exp, provenance)

    @classmethod
    def from_classes(cls, classes: np.ndarray, apexes: np.ndarray, generation: int = 0, scale_exp: int = 0,
                     provenance: dict | None = None) -> "Patch":
        """(N,) classes and (4, N) int32 or int64 apexes, not copied when C-contiguous."""
        patch = cls.__new__(cls)
        patch._store(classes, apexes, generation, scale_exp, provenance)
        return patch

    def _store(self, classes, apexes, generation, scale_exp, provenance) -> None:
        classes, apexes = np.ascontiguousarray(classes, dtype=np.uint8), np.ascontiguousarray(apexes)
        if classes.ndim != 1 or apexes.shape != (4, len(classes)) or apexes.dtype not in (np.int32, np.int64):
            raise ValueError(f"need (N,) classes and (4, N) int32/int64 apexes, got {apexes.dtype} {apexes.shape}")
        if classes.size and classes.max() >= _CLASSES:
            raise ValueError(f"half-tile classes must lie below {_CLASSES}")
        classes.flags.writeable = apexes.flags.writeable = False
        self.classes, self.apexes = classes, apexes
        self.generation = int(generation)
        self.scale_exp = int(scale_exp)
        self.provenance = provenance or {}

    def __len__(self) -> int:
        return len(self.classes)

    kinds = property(lambda self: _CLASS_KIND[self.classes], doc="(N,) uint8 HALF_KITE or HALF_DART")
    chiralities = property(lambda self: _CLASS_CHIR[self.classes], doc="(N,) int8 RIGHT or LEFT")
    coords = property(lambda self: _vertex_coords(self.classes, self.apexes),
                      doc="(N, 3, 4) int64 ring coefficients of (wing, apex, axis_end), built on each access")

    @classmethod
    def single_tile(
        cls,
        kind: int,
        chirality: int = RIGHT,
        scale_exp: int = 0,
        translation: CycloPoint | None = None,
    ) -> "Patch":
        base = np.array(_SEED_COORDS[(kind, chirality)], dtype=np.int64)
        shift = np.array((translation or CycloPoint()).coeffs, dtype=np.int64)
        prov = {"seed_kind": KIND_NAMES[kind], "seed_chirality": chirality, "outline": base + shift}
        return cls.from_classes([_class_of(kind, chirality)], _apex_rows(shift[:, None]), 0, scale_exp, prov)

    def tile(self, i: int) -> HalfTile:
        c = int(self.classes[i])
        w, a, e = (CycloPoint(*map(int, row)) for row in _vertex_coords(np.array([c]), self.apexes[:, [i]])[0])
        return HalfTile(int(_CLASS_KIND[c]), int(_CLASS_CHIR[c]), w, a, e, self.generation)

    def embedded(self) -> np.ndarray:
        """Vertex coordinates in R**2, shape (N, 3, 2) float64."""
        return _embed(self.coords, self.scale_exp)

    def transformed(self, tenth_turns: int = 0, translation: CycloPoint | None = None) -> "Patch":
        """Rotate by multiples of 36 degrees about the origin, then translate.

        The outline moves with the tiles.  The covering placement recorded by
        ``generate_patch_covering`` (``square``, ``translation``) does not
        describe the moved patch, so it is dropped.
        """
        turns = tenth_turns % 10
        turn = np.linalg.matrix_power(_MOMEGA, turns)
        shift = np.array((translation or CycloPoint()).coeffs, dtype=np.int64)
        apexes = self.apexes.T.astype(np.int64) @ turn + shift
        direction = self.classes % _DART_CLASSES // 2
        classes = self.classes - 2 * direction + 2 * ((direction + turns) % 10)
        prov = {k: v for k, v in self.provenance.items() if k not in ("square", "translation")}
        if "outline" in prov:
            prov["outline"] = np.asarray(prov["outline"], dtype=np.int64) @ turn + shift
        return Patch.from_classes(classes, _apex_rows(apexes.T), self.generation, self.scale_exp, prov)


def census(p: Patch) -> TileCensus:
    """Exact half-tile counts of a patch."""
    kites = int(np.count_nonzero(p.classes < _DART_CLASSES))
    return TileCensus(kites, len(p) - kites)


@dataclass(frozen=True)
class SubstitutionRule:
    """Generic substitution: matrix[i][j] children of type i per parent of type j."""

    names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.names)
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise ValueError("matrix must be square and match the name count")
        if any(entry < 0 for row in self.matrix for entry in row):
            raise ValueError("matrix entries must be >= 0")

    def dominant_eigen(self) -> tuple[float, tuple[float, ...]]:
        """Dominant eigenvalue and its unit eigenvector, by LAPACK (``np.linalg.eig``).

        The matrix is non-negative, so its Perron root is real and no
        eigenvalue has a larger real part; the vector's sign makes its sum
        positive.  A rule whose eigenvalues are all 0 is a ValueError.
        """
        values, vectors = np.linalg.eig(np.array(self.matrix, dtype=np.float64))
        k = int(np.argmax(values.real))
        if values[k].real <= 0.0:
            raise ValueError("rule has no positive eigenvalue")
        v = vectors[:, k].real
        v = v / np.linalg.norm(v)
        if v.sum() < 0:
            v = -v
        return float(values[k].real), tuple(float(x) for x in v)


PENROSE_SUBSTITUTION = SubstitutionRule(("half-kite", "half-dart"), ((2, 1), (1, 1)))


def generic_substitution_counts(rule: SubstitutionRule, seed: Sequence[int], n: int) -> tuple[int, ...]:
    """Exact M**n . seed for any substitution rule."""
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = tuple(map(int, seed))
    if len(counts) != len(rule.names):
        raise ValueError("count vector length does not match rule")
    for _ in range(n):
        counts = tuple([sum(map(mul, row, counts)) for row in rule.matrix])
    return counts


def substitution_counts(seed: TileCensus, n: int) -> TileCensus:
    """Iterate the census recursion K' = 2K + D, D' = K + D, n times, exactly."""
    return TileCensus(*generic_substitution_counts(PENROSE_SUBSTITUTION, seed, n))


def _times_phi(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``x @ _MPHI`` into ``out``, row by row; both are (4, n) coefficient rows."""
    x0, x1, x2, x3 = x
    np.subtract(x1, x3, out=out[0])
    np.add(out[0], x2, out=out[1])
    np.subtract(x2, x0, out=out[3])
    np.add(out[3], x1, out=out[2])


def _parent_block(classes: np.ndarray, apexes: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes and (4, m) apexes of the increasing half-tiles ``idx``: views if they are consecutive."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return classes[idx[0]:idx[-1] + 1], apexes[:, idx[0]:idx[-1] + 1]
    return classes[idx], np.take(apexes, idx, axis=1)


def _deflate_once(classes: np.ndarray, apexes: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """One round on ``classes`` and (4, N) ``apexes``: the children's, apexes in ``dtype``.

    Children come by slot (dart, flipped kite, kite) over all kite parents,
    then by slot (dart, flipped kite) over all dart parents.  Parents are
    read ``_DEFLATE_BLOCK`` at a time, in place when consecutive.
    """
    kite_idx = np.flatnonzero(classes < _DART_CLASSES)
    dart_idx = np.flatnonzero(classes >= _DART_CLASSES)
    nk, nd = len(kite_idx), len(dart_idx)
    new_classes = np.empty(3 * nk + 2 * nd, dtype=np.uint8)
    new_apexes = np.empty((4, len(new_classes)), dtype=dtype)
    offsets = _CHILD_APEX_ROWS.astype(dtype)  # (3, classes, 4)
    phi = np.empty((4, _DEFLATE_BLOCK), dtype=dtype)
    for idx, start, slots in ((kite_idx, 0, 3), (dart_idx, 3 * nk, 2)):
        for lo in range(0, len(idx), _DEFLATE_BLOCK):
            cls, parents = _parent_block(classes, apexes, idx[lo:lo + _DEFLATE_BLOCK])
            cls, m = cls.astype(np.intp), len(cls)
            _times_phi(parents.astype(dtype, copy=False), phi[:, :m])
            for slot in range(slots):
                at = start + slot * len(idx) + lo
                np.take(_CHILD_CLASSES[slot], cls, out=new_classes[at:at + m])
                # whole (4,) rows of the class-major table, which a take along axis 0 copies at once
                np.add(phi[:, :m], np.take(offsets[slot], cls, axis=0).T, out=new_apexes[:, at:at + m])
    return new_classes, new_apexes


def _bounding_boxes(emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle (N, 2) lower and upper corners of (N, 3, 2) vertices."""
    v0, v1, v2 = emb[:, 0], emb[:, 1], emb[:, 2]
    return np.minimum(np.minimum(v0, v1), v2), np.maximum(np.maximum(v0, v1), v2)


def _embed(coords: np.ndarray, scale_exp: int = 0) -> np.ndarray:
    """(..., 4) ring coordinates at ``scale_exp`` as (..., 2) points of R**2.

    The one place where array ring coordinates become floats.  The
    coordinates are converted in one pass into a C-ordered float array, so
    the product, and its bits, do not depend on their memory layout.
    """
    flat = np.asarray(coords, dtype=np.float64, order="C").reshape(-1, 4) @ EMBED_MATRIX
    if scale_exp:
        flat = flat * PHI_FLOAT ** (-scale_exp)
    return flat.reshape(coords.shape[:-1] + (2,))


def _vertex_bound(apexes: np.ndarray) -> int:
    """The largest |vertex coefficient| half-tiles with these apexes can have: |apex| plus ``_REACH``."""
    return max(int(apexes.max(initial=0)), -int(apexes.min(initial=0))) + _REACH


def _apex_rows(apexes: np.ndarray) -> np.ndarray:
    """(4, N) apex coefficients as a new C-contiguous buffer, int32 if every vertex coefficient fits it."""
    apexes = np.asarray(apexes, dtype=np.int64)
    return apexes.astype(np.int32 if _vertex_bound(apexes) <= _INT32_MAX else np.int64, order="C")


def _vertex_coords(classes: np.ndarray, apexes: np.ndarray) -> np.ndarray:
    """(N, 3, 4) int64 vertex coordinates of the half-tiles ``classes`` with (4, N) ``apexes``."""
    coords = np.take(_VERTEX_OFFSETS, classes, axis=0)
    coords += apexes.T[:, None, :]
    return coords


def _coord_blocks(p: Patch) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, ``p.coords[lo:lo + _COORD_BLOCK]``) for consecutive blocks, each built when it is reached."""
    for lo in range(0, len(p), _COORD_BLOCK):
        yield lo, _vertex_coords(p.classes[lo:lo + _COORD_BLOCK], p.apexes[:, lo:lo + _COORD_BLOCK])


def _class_of(kind: int, chirality: int, direction: int = 0) -> int:
    return _DART_CLASSES * kind + 2 * direction + (chirality == RIGHT)


def _classify(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes (``_NO_CLASS`` where none fits) and (4, N) int64 apexes of (N, 3, 4) coordinates.

    Each wing and axis end coefficient minus the apex's, plus 1, is a base-3
    digit of the triangle's ``_SHAPE_CLASS`` code, and must be 0, 1 or 2.
    """
    rows = np.ascontiguousarray(coords.reshape(len(coords), 12).T)  # one row per coefficient
    apexes, code, unit = rows[4:8], np.zeros(len(coords), dtype=np.int64), np.ones(len(coords), dtype=bool)
    for k in (0, 1, 2, 3, 8, 9, 10, 11):
        digit = rows[k] - apexes[k % 4] + 1
        unit &= digit.view(np.uint64) <= 2
        code = 3 * code + digit
    if _vertex_bound(apexes) > _INT64_MAX:  # an apex at an end of int64: its offsets of +-1 could wrap
        unit &= ((apexes < _INT64_MAX) & (apexes > -_INT64_MAX)).all(axis=0)
    return np.where(unit, _SHAPE_CLASS[np.where(unit, code, 0)], _NO_CLASS), apexes


def _child_tables() -> tuple[np.ndarray, np.ndarray]:
    """Child classes (3, 40) and apexes (3, 40, 4) by slot: ``deflate_tile`` at the origin, times phi."""
    child_classes, child_apexes = np.zeros((3, _CLASSES), np.uint8), np.zeros((3, _CLASSES, 4), np.int64)
    for c in range(_CLASSES):
        parent = HalfTile(int(_CLASS_KIND[c]), int(_CLASS_CHIR[c]),
                          *(CycloPoint(*map(int, v)) for v in _VERTEX_OFFSETS[c]))
        for slot, child in enumerate(deflate_tile(parent)):
            v = np.array([w.coeffs for w in child.vertices], dtype=np.int64) @ _MPHI
            child_classes[slot, c], child_apexes[slot, c] = _classify(v[None])[0][0], v[1]
    return child_classes, child_apexes


_CLASS_KIND = (np.arange(_CLASSES) >= _DART_CLASSES).astype(np.uint8)
_CLASS_CHIR = np.where(np.arange(_CLASSES) & 1, RIGHT, LEFT).astype(np.int8)
# each class's vertices minus its apex, the seed turned ``direction`` tenths; coefficients in {-1, 0, 1}
_VERTEX_OFFSETS = np.array([np.array(_SEED_COORDS[(int(_CLASS_KIND[c]), int(_CLASS_CHIR[c]))], dtype=np.int64)
                            @ np.linalg.matrix_power(_MOMEGA, c % _DART_CLASSES // 2) for c in range(_CLASSES)])
_SHAPE_CLASS = np.full(3 ** 8, _NO_CLASS, dtype=np.uint8)  # see _classify
_SHAPE_CLASS[(_VERTEX_OFFSETS[:, ::2].reshape(_CLASSES, 8) + 1) @ 3 ** np.arange(7, -1, -1)] = np.arange(_CLASSES)
_CHILD_CLASSES, _CHILD_APEX_ROWS = _child_tables()
# a full tile's incenter minus its apex: kite apex + axis/phi, dart apex + axis - axis/phi
_INCENTER_OFFSETS = np.where(_CLASS_KIND[:, None] == HALF_KITE, _VERTEX_OFFSETS[:, 2] @ _MINV,
                             _VERTEX_OFFSETS[:, 2] - _VERTEX_OFFSETS[:, 2] @ _MINV)
_CLASS_BOXES = _bounding_boxes(_embed(_VERTEX_OFFSETS))  # (40, 2) lower and upper corners at scale 0


def _deflate_rounds(p: Patch, rounds: int, near: tuple[np.ndarray, np.ndarray] | None = None):
    """Classes and (4, N) apexes of ``p`` after ``rounds`` rounds.

    A round writes int32 while the carried bound on a vertex coefficient,
    grown by one round, fits int32 (rescanned when it stops fitting the
    current width), int64 otherwise; one that could overflow int64 is a
    ValueError.  With ``near = (lo, hi)``, every round drops the tiles whose
    box (embedded apex plus class box) misses [lo, hi], as their descendants do.
    """
    classes, apexes = p.classes, p.apexes
    bound = _INT64_MAX  # unknown until the first round scans the apexes
    for done in range(1, rounds + 1):
        if _GROWTH * bound > (_INT32_MAX if apexes.dtype == np.int32 else _INT64_MAX):
            bound = _vertex_bound(apexes)
            if _GROWTH * bound > _INT64_MAX:
                raise ValueError(f"deflation would overflow int64: a coefficient reaches {bound} "
                                 f"and one round can grow it {_GROWTH}-fold")
        bound *= _GROWTH
        classes, apexes = _deflate_once(classes, apexes, np.int32 if bound <= _INT32_MAX else np.int64)
        if near is not None:
            at, scale = _embed(apexes.T, p.scale_exp + done), PHI_FLOAT ** -(p.scale_exp + done)
            box_lo, box_hi = (box[classes] * scale + at for box in _CLASS_BOXES)
            keep = ((box_lo <= near[1]) & (box_hi >= near[0])).all(axis=1)
            classes, apexes = classes[keep], apexes[:, keep]
    return classes, apexes


def _check_cap(start: TileCensus, rounds: int, cap: int) -> None:
    """TileCapError when ``rounds`` rounds of ``start`` make more than ``cap`` half-tiles."""
    projected = substitution_counts(start, rounds)
    if projected.total() > cap:
        raise TileCapError(
            f"deflation would produce {projected.total()} half-tiles, cap is {cap}"
        )


def deflate_patch(p: Patch, rounds: int, cap: int = DEFAULT_TILE_CAP) -> Patch:
    """Deflate every tile ``rounds`` times, rescaling by phi each round.

    The projected census is computed first through the exact recursion and
    checked against ``cap`` before any geometry is built.  Child block order
    per round: kite children by slot (dart, flipped kite, kite) over all kite
    parents, then dart children by slot (dart, flipped kite) over all dart
    parents.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    _check_cap(census(p), rounds, cap)
    classes, apexes = _deflate_rounds(p, rounds)
    prov = dict(p.provenance)
    if "outline" in prov and rounds:
        # outline ring coordinates live at the patch scale, so they pick up
        # the same phi factor as the tiles
        prov["outline"] = np.asarray(prov["outline"], dtype=np.int64) @ np.linalg.matrix_power(_MPHI, rounds)
    return Patch.from_classes(classes, apexes, p.generation + rounds, p.scale_exp + rounds, prov)


def _triangle_geometry(kind: int) -> tuple[tuple[float, float], float, float]:
    """Incenter, inradius and area of the embedded unit RIGHT seed triangle."""
    base = _embed(np.array(_SEED_COORDS[(kind, RIGHT)], dtype=np.int64))
    a = np.linalg.norm(base[2] - base[1])  # side opposite the wing
    b = np.linalg.norm(base[0] - base[2])  # opposite the apex
    c = np.linalg.norm(base[1] - base[0])  # opposite the axis end
    weights = np.array([a, b, c])
    incenter = (weights[:, None] * base).sum(axis=0) / weights.sum()
    s = weights.sum() / 2.0
    u, v = base[1] - base[0], base[2] - base[0]
    area = abs(float(u[0] * v[1] - u[1] * v[0])) / 2.0
    return (float(incenter[0]), float(incenter[1])), float(area / s), area


_SEED_GEOMETRY = {k: _triangle_geometry(k) for k in (HALF_KITE, HALF_DART)}


def _corner_margins(tris: np.ndarray, chir: np.ndarray, square: Square) -> np.ndarray:
    """Signed distances (N, 3, 4) of the square's corners from each triangle edge.

    ``tris`` is (N, 3, 2) and ``chir`` (N,).  Chirality +1 means a
    counterclockwise vertex loop, so the inside of each edge is on the side
    of sign chirality; a distance is positive inside.
    """
    edges = np.roll(tris, -1, axis=1) - tris
    rel = np.array(square.corners())[None, None] - tris[:, :, None]
    cross = edges[:, :, None, 0] * rel[..., 1] - edges[:, :, None, 1] * rel[..., 0]
    inward = chir[:, None] / np.hypot(edges[..., 0], edges[..., 1])
    return cross * inward[..., None]


def patch_outline(p: Patch) -> np.ndarray:
    """Ring coordinates (3, 4) of the seed triangle at the patch's scale."""
    outline = p.provenance.get("outline")
    if outline is None:
        raise KeyError("patch has no recorded outline (not built from a single seed)")
    return np.asarray(outline, dtype=np.int64)


def embedded_outline(p: Patch) -> np.ndarray:
    """The seed triangle (3, 2) in R**2 at the patch's scale."""
    return _embed(patch_outline(p), p.scale_exp)


def covering_seed(p: Patch) -> Patch:
    """The seed half-tile that ``generate_patch_covering`` deflated into ``p``.

    Rebuilt from the recorded seed kind, chirality, rounds and translation;
    a patch without them (not built by ``generate_patch_covering``, or
    moved since) is a ValueError.
    """
    prov = p.provenance
    if any(key not in prov for key in ("seed_kind", "seed_chirality", "rounds", "translation")):
        raise ValueError("patch lacks covering provenance (use generate_patch_covering)")
    return Patch.single_tile(
        KIND_CODES[prov["seed_kind"]],
        prov["seed_chirality"],
        scale_exp=-int(prov["rounds"]),
        translation=CycloPoint(*(int(c) for c in prov["translation"])),
    )


def generate_patch_covering(
    square: Square | tuple,
    seed_kind: int = HALF_KITE,
    seed_chirality: int = RIGHT,
    cap: int = DEFAULT_TILE_CAP,
) -> Patch:
    """Deterministic patch whose union contains the given square.

    Scales a single seed half-tile by phi**n with n minimal such that the
    seed's inscribed circle covers the square's circumscribed circle plus
    COVER_SLACK, centers it on the square through an exact ring translation
    (rounding error < 1 tile edge, absorbed by the slack), and deflates n
    rounds, so final tiles have edge lengths 1 and phi (scale_exp == 0).
    The projected census is checked against ``cap`` before the seed is
    built, and a translation that does not fit int64 is a ValueError.
    """
    square = Square(*square)
    if square.side <= 0:
        raise ValueError("square side must be positive")
    incenter, inradius, _ = _SEED_GEOMETRY[seed_kind]
    if seed_chirality == LEFT:
        incenter = (incenter[0], -incenter[1])
    need = square.side * math.sqrt(2.0) / 2.0 + COVER_SLACK
    n = 0
    while inradius * PHI_FLOAT**n < need:
        n += 1
    _check_cap(TileCensus(int(seed_kind == HALF_KITE), int(seed_kind == HALF_DART)), n, cap)

    cx, cy = square.center
    dx = cx - incenter[0] * PHI_FLOAT**n
    dy = cy - incenter[1] * PHI_FLOAT**n
    v = round(dy / EMBED_SIN[1])
    u = round(dx - v * EMBED_COS[1])
    t = CycloPoint(int(u), int(v), 0, 0)
    for _ in range(n):
        t = t.times_inv_phi()
    # the seed's own coefficients are 0 or +-1
    if max(map(abs, t.coeffs)) >= _INT64_MAX:
        raise ValueError(f"square at ({square.x:g}, {square.y:g}) is too far from the origin: "
                         f"its seed translation needs coefficients beyond int64's {_INT64_MAX}")

    seed = Patch.single_tile(seed_kind, seed_chirality, scale_exp=-n, translation=t)
    patch = deflate_patch(seed, n, cap=cap)
    patch.provenance.update(rounds=n, translation=t.coeffs, square=tuple(square))  # a dict of its own
    if (_corner_margins(embedded_outline(patch)[None], seed.chiralities, square) < 0.25).any():
        raise RuntimeError(f"seed placement failed to cover the square with {COVER_SLACK} units of slack")
    return patch


# one half-tile line of a patch file: its class and its apex's four ring coefficients
_PATCH_ROW = np.dtype([("class", np.int64), ("apex", np.int64, (4,))])
# header key -> the fields save_patch writes after it (see _read_table)
_PATCH_HEADERS = {"penrosenet": ("patch", "v2"), "scale_exp": ("N",), "generation": ("N",), "census": ("N", "N")}
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")  # np.loadtxt decompresses a path with one
_FORMAT_BLOCK = 8192  # rows per block of _format_rows; its temporaries grow with it
_FORMAT_SEEN = 1 << 16  # most distinct keys a column keeps formatted for the rest of one _format_rows call
# one printf conversion: flags, width, precision and a type that never
# turns a number into NUL (no %c)
_CONVERSION = re.compile(r"(%[-+ #0]*\d*(?:\.\d+)?[diouxXeEfFgGrsa])")
_DATA_LINE = re.compile(r"^[^\S\n]*[^\s#]", re.M)  # a line that is neither blank nor a comment
# "%d" of an integer in base-1000 groups: its leading group signed (-999..999 at
# _LEAD + g), each lower group zero-padded (000..999 at _LOWER + g), and
# _ABOVE, the empty entry, in every place above the leading group
_LEAD, _LOWER, _ABOVE = 999, 1999, 2999
_DIGIT_GROUPS = np.array([b"%d" % g for g in range(-999, 1000)] + [b"%03d" % g for g in range(1000)] + [b""],
                         dtype="S4")


def _digit_groups(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%d" % v`` for every integer v of ``values``, NUL-padded: shape (*values.shape, 4 g).

    g is the number of base-1000 groups of the widest value; each value is
    its ``_DIGIT_GROUPS`` entries, most significant place first.
    """
    if values.dtype.kind == "u":
        rest, sign = values.astype(np.uint64), 1
    else:
        signed = values.astype(np.int64)
        # |int64 min| wraps to itself, whose unsigned view is its magnitude 2^63
        rest, sign = np.abs(signed).view(np.uint64), np.where(signed < 0, -1, 1)
    places = (len(str(int(rest.max()))) + 2) // 3
    index = np.empty((*values.shape, places), dtype=np.int64)
    for k in range(places - 1, -1, -1):  # least significant place first; rest is the value's groups from k up
        higher = rest // np.uint64(1000)
        group = (rest - higher * np.uint64(1000)).astype(np.int64)
        lead = _LEAD + sign * group
        if k < places - 1:  # only the last place writes a 0 lead
            lead[rest == 0] = _ABOVE
        index[..., k] = np.where(higher > 0, _LOWER + group, lead)
        rest = higher
    return _DIGIT_GROUPS[index].view(np.uint8).reshape(*values.shape, -1)


def _format_table(conv: str, values: list) -> np.ndarray:
    """``conv % value`` of each value in UTF-8, one NUL-padded byte row each.

    One ``%`` call formats them all, NUL-separated, so a NUL inside a value
    shows as one value too many and is refused (ValueError).
    """
    text = ("\0".join([conv] * len(values)) % tuple(values)).encode("utf-8", "surrogatepass").split(b"\0")
    if len(text) != len(values):
        bad = next(conv % v for v in values if "\0" in conv % v)
        raise ValueError(f"a formatted value holds NUL: {bad!r}")
    return np.array(text).view(np.uint8).reshape(len(text), -1)


def _prefixed(table: np.ndarray, prefixes: list[bytes]) -> list[np.ndarray]:
    """For each of ``prefixes``, ``table``'s byte rows behind that prefix, one fixed-width item a row.

    A prefix that repeats shares one array.
    """
    made = {}
    for s in prefixes:
        if s not in made:
            joined = np.empty((len(table), len(s) + table.shape[1]), dtype=np.uint8)
            joined[:, :len(s)] = np.frombuffer(s, dtype=np.uint8)
            joined[:, len(s):] = table
            made[s] = joined.view(f"V{joined.shape[1]}").ravel()
    return [made[s] for s in prefixes]


def _known_rows(seen: list, conv: str, distinct: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The NUL-padded byte rows of ``conv % v`` for the sorted keys ``distinct`` of a column of ``dtype``.

    ``seen`` is the column's [sorted keys, their byte rows] for one call:
    only keys it lacks are formatted, and they join it while it then holds
    at most ``_FORMAT_SEEN`` keys.
    """
    keys, text = seen
    at = np.searchsorted(keys, distinct)
    old = at < len(keys)
    old[old] = keys[at[old]] == distinct[old]
    new = ~old
    if not new.any():
        return text[at]
    fresh = _format_table(conv, distinct[new].view(dtype).tolist())
    rows = np.zeros((len(distinct), max(text.shape[1], fresh.shape[1])), dtype=np.uint8)
    rows[old, :text.shape[1]] = text[at[old]]
    rows[new, :fresh.shape[1]] = fresh
    if len(keys) + len(fresh) <= _FORMAT_SEEN:
        if text.shape[1] < rows.shape[1]:
            text = np.pad(text, ((0, 0), (0, rows.shape[1] - text.shape[1])))
        seen[:] = np.insert(keys, at[new], distinct[new]), np.insert(text, at[new], rows[new], axis=0)
    return rows


def _format_rows(template: str, *columns: np.ndarray | tuple[Sequence, np.ndarray]) -> Iterator[str]:
    """Yield ``template % row`` for every row, joined into one string per block.

    Each column is an (N,) or (N, m) array, or a category column
    ``(labels, codes)`` whose row i holds ``labels[codes[i]]`` for integer
    codes of shape (N,) or (N, m).  A row is the columns' values side by
    side, so ``template`` holds one conversion per value; the values of one
    column share one conversion.  Values are passed as arguments, never
    spliced into the template.  Columns of unequal length, and codes
    outside ``range(len(labels))``, are refused (ValueError).

    The rows are built a block of ``_FORMAT_BLOCK`` rows at a time, each
    column by the first of four rules that takes it:

    - a category's labels are formatted once per call, a row taking its
      entry at ``code``;
    - an integer array that spans fewer integers than it holds values (a
      tiling's coordinate columns) has every integer of its span formatted
      once per call, a row taking its entry at ``value - least``;
    - any other integer array under a plain ``%d`` (a net's tile ids) is
      spelled from ``_DIGIT_GROUPS``, one fixed table of base-1000 groups,
      with no value formatted at all;
    - any other array has its block's ``np.unique`` keys, floats told apart
      by their bits (-0.0 is not 0.0, NaN payloads differ), looked up in a
      sorted table of the keys the call has formatted, and only the keys
      the table lacks are formatted.  The table keeps at most
      ``_FORMAT_SEEN`` keys per column, so past that, new keys are
      formatted once per block.

    A formatted value is a NUL-padded byte entry with the literal before
    it, so a column whose values follow one literal takes a block's entries
    in one ``np.take``; a row is its entries and the last literal, less the
    padding.  So NUL is refused (ValueError): in the template or a label
    before anything is yielded, in a formatted value before its block is.
    """
    parts = _CONVERSION.split(template)
    convs = parts[1::2]
    literals = [s.encode("utf-8", "surrogatepass") for s in parts[0::2]]
    if any(b"\0" in s or b"%" in s for s in literals):
        raise ValueError(f"template holds NUL or an unsupported conversion: {template!r}")
    labels = [c[0] if isinstance(c, tuple) else None for c in columns]
    cols = [c[1] if isinstance(c, tuple) else c for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    starts = np.cumsum([0] + [c.shape[1] for c in cols]).tolist()
    col_convs = [set(convs[a:b]) for a, b in zip(starts, starts[1:])]
    if starts[-1] != len(convs) or any(len(s) != 1 for s in col_convs):
        raise ValueError(f"{template!r} needs one conversion per value, the same within a column")
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError(f"columns of unequal length: {[len(c) for c in cols]}")
    for names, c in zip(labels, cols):
        if names is not None and c.size and (c.min() < 0 or c.max() >= len(names)):
            raise ValueError(f"category codes outside range({len(names)}): {c.min()}..{c.max()}")
    if not n:
        return
    prefixes = [literals[a:b] for a, b in zip(starts, starts[1:])]  # the literal before each value
    tail = np.frombuffer(literals[-1], dtype=np.uint8)
    # per column, one of: its tables for the whole call (and a dense array's
    # least value), its literals as NUL-padded rows before its digit groups,
    # or its table of formatted keys
    tables, bases, literal_rows, seens = [], [], [], []
    for names, c, (conv,), pre in zip(labels, cols, col_convs, prefixes):
        base = before = seen = None
        if names is None and c.dtype.kind in "iu":
            least = c.min()
            span = int(c.max()) - int(least) + 1
            if span < c.size:  # dense: fewer integers in its span than it holds values
                base, names = least, range(int(least), int(least) + span)
            elif conv == "%d":
                before = np.array(pre).view(np.uint8).reshape(len(pre), -1)  # bytes, NUL-padded
        if names is None and before is None:
            key = np.dtype(f"u{c.itemsize}") if c.dtype.kind == "f" else c.dtype
            seen = [np.empty(0, dtype=key), np.empty((0, 0), dtype=np.uint8)]
        tables.append(None if names is None else _prefixed(_format_table(conv, list(names)), pre))
        bases.append(base)
        literal_rows.append(before)
        seens.append(seen)
    for lo in range(0, n, _FORMAT_BLOCK):
        hi = min(lo + _FORMAT_BLOCK, n)
        fields = []
        for c, (conv,), tabs, base, before, seen, pre in zip(
                cols, col_convs, tables, bases, literal_rows, seens, prefixes):
            codes = c[lo:hi]
            if before is not None:  # a sparse %d array: each value's literal, then its digit groups
                fields.append(np.concatenate(
                    [np.broadcast_to(before, (hi - lo, *before.shape)), _digit_groups(codes)], axis=2))
                continue
            if base is not None:  # a dense array: its values index the whole-call tables
                # value - least, taken modulo the key width: exact, because the span fits
                codes = (codes - base).view(f"u{codes.itemsize}")
            elif seen is not None:  # any other array: its codes index the block's own distinct values
                distinct, inverse = np.unique(codes.view(seen[0].dtype), return_inverse=True)
                tabs = _prefixed(_known_rows(seen, conv, distinct, codes.dtype), pre)
                codes = inverse.reshape(codes.shape)  # numpy versions differ in its shape
            if all(t is tabs[0] for t in tabs):  # one table: all of the column's values in one take
                fields.append(np.take(tabs[0], codes).view(np.uint8))
            else:
                fields += [np.take(t, j).view(np.uint8) for t, j in zip(tabs, codes.T)]
        fields = [f.reshape(hi - lo, -1) for f in fields] + [np.broadcast_to(tail, (hi - lo, len(tail)))]
        yield np.concatenate(fields, axis=1).tobytes().translate(None, b"\0").decode("utf-8", "surrogatepass")


def _read_table(
    path: str, row: np.dtype, forms: dict[str, tuple[str, ...]],
) -> tuple[dict[str, list], np.ndarray]:
    """Read a whitespace-separated ASCII text file: its headers and its rows.

    A ``#`` starts a comment only as a line's first non-blank character, and
    blank lines are skipped; a ``#`` anywhere else is a ValueError.  A
    comment whose first word is a key of ``forms`` is a header and must hold
    the fields its form names: ``N`` an integer, any other upper-case name a
    float, and a lower-case name that literal text (ValueError otherwise).
    Headers may repeat and sit anywhere; the last one of a key counts, and
    the returned dict maps it to its numbers.  Every other line must hold
    exactly the fields of ``row`` (ValueError otherwise), and an integer
    field must be written as an integer.  A byte outside ASCII is a
    ValueError.

    The headers come from one read of the whole text; the rows from
    ``np.loadtxt`` given the path, which its C parser reads in chunks (a
    handle it reads line by line in Python), or from the text already read
    when the path ends in a suffix np.loadtxt would decompress.  A file
    opened twice must be a regular file, the same device, inode, size and
    modification time at both reads: a pipe, or a file replaced or
    rewritten in between, is a ValueError.
    """
    with open(path, "r", encoding="ascii") as fh:
        scanned = os.fstat(fh.fileno())
        text = fh.read()
    values = {}
    pos = text.find("#")
    while pos >= 0:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        if text[start:pos].strip():
            raise ValueError(f"'#' inside a data line: {text[start:end]!r}")
        parts = text[pos + 1:end].split()
        form = forms.get(parts[0]) if parts else None
        if form is not None:
            fields = parts[1:]
            try:
                if len(fields) != len(form) or any(f != n for f, n in zip(fields, form) if n.islower()):
                    raise ValueError
                values[parts[0]] = [int(f) if n == "N" else float(f)
                                    for f, n in zip(fields, form) if not n.islower()]
            except ValueError:
                raise ValueError(f"header {parts[0]!r} needs {' '.join(form)}, "
                                 f"got {' '.join(parts)!r}") from None
        pos = text.find("#", end)
    if not _DATA_LINE.search(text):
        return values, np.empty(0, dtype=row)
    if os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:  # np.loadtxt would decompress such a path
        return values, _parse_rows(io.StringIO(text), row)
    del text
    if not stat.S_ISREG(scanned.st_mode):  # a second open of a FIFO could wait for a writer forever
        raise ValueError(f"{path!r} is not a regular file, and its rows need a second read")
    rows = _parse_rows(path, row)
    parsed = os.stat(path)
    if any(getattr(scanned, k) != getattr(parsed, k) for k in ("st_dev", "st_ino", "st_size", "st_mtime_ns")):
        raise ValueError(f"{path!r} changed between the read of its headers and the read of its rows")
    return values, rows


def _parse_rows(source: str | io.StringIO, row: np.dtype) -> np.ndarray:
    """The rows of a path or a text stream that has some, as ``_read_table`` describes."""
    with warnings.catch_warnings():
        # older NumPy reads "2.7" into an integer field through a float,
        # truncating it, and only warns; as an error it becomes ValueError
        warnings.filterwarnings("error", message=".*integer via a float", category=DeprecationWarning)
        return np.loadtxt(source, dtype=row, comments="#", ndmin=1, encoding="ascii")


def save_patch(p: Patch, path: str) -> None:
    """Write the v2 patch file: one line per half-tile, its class and its apex's four ring coefficients.

    The headers are the format version, ``scale_exp``, ``generation`` and
    ``census K D``.  A line is the half-tile's class (0..39: ``20 kind + 2
    direction + (chirality == RIGHT)``) and its apex (1, zeta, zeta**2,
    zeta**3) coefficients, the patch's own arrays, formatted with no vertex
    built.
    """
    c = census(p)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# penrosenet patch v2\n# scale_exp {p.scale_exp}\n# generation {p.generation}\n"
                 f"# census {c.kites} {c.darts}\n")
        fh.writelines(_format_rows("%d %d %d %d %d\n", p.classes, p.apexes.T))


def load_patch(path: str) -> Patch:
    """Read the v2 format save_patch writes into classes and apexes, with no vertex built.

    The ``penrosenet patch v2``, ``scale_exp`` and ``generation`` headers
    are required (a v1 file is refused); a header whose fields do not match
    what save_patch writes is a ValueError, and so are a ``census`` that
    differs from the lines, no half-tile line, a class outside 0..39 and an
    apex whose vertices could wrap int64 (the bound deflation guards).
    Headers may repeat and sit anywhere; the last one counts.  The file is
    ASCII and is read as ``_read_table`` says: the lines by ``np.loadtxt``
    from the path, so a file that is not one regular file, unchanged between
    that read and the header read, is a ValueError.  Premise: the file is
    save_patch output, the trust ``Patch.from_classes`` takes; the loader
    does not check that the tiles fit together without overlap.
    """
    values, rows = _read_table(path, _PATCH_ROW, _PATCH_HEADERS)
    for key in ("penrosenet", "scale_exp", "generation"):
        if key not in values:
            raise ValueError(f"patch file missing its {key} header")
    if not len(rows):
        raise ValueError("patch file contains no tiles")
    classes, apexes = rows["class"], _apex_rows(rows["apex"].T)
    if classes.min() < 0 or classes.max() >= _CLASSES:
        raise ValueError(f"half-tile classes must lie in 0..{_CLASSES - 1}")
    if apexes.dtype == np.int64 and _vertex_bound(apexes) > _INT64_MAX:
        raise ValueError(f"apex coefficients must lie within +-{_INT64_MAX - _REACH}, so that no vertex wraps int64")
    if "census" in values:
        kites = int(np.count_nonzero(classes < _DART_CLASSES))
        actual = (kites, len(classes) - kites)
        if actual != tuple(values["census"]):
            raise ValueError(f"census header {tuple(values['census'])} does not match tile lines {actual}")
    return Patch.from_classes(classes, apexes, values["generation"][0], values["scale_exp"][0], {"source": path})
