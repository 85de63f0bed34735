"""Half-tile geometry, deflation, patches, and serialization."""

import math
import os
import pathlib
import re
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penrosenet import tiling
from penrosenet.cli import main as cli_main
from penrosenet.net import extract_net
from penrosenet.golden import _PHI_RING, PHI, CycloPoint, GoldenNum, PHI_FLOAT, orientation, squared_length
from penrosenet.tiling import (
    DEFAULT_TILE_CAP,
    HALF_DART,
    HALF_KITE,
    LEFT,
    PENROSE_SUBSTITUTION,
    RIGHT,
    HalfTile,
    Patch,
    Square,
    SubstitutionRule,
    TileCapError,
    TileCensus,
    census,
    covering_seed,
    deflate_patch,
    deflate_tile,
    embedded_outline,
    generate_patch_covering,
    generic_substitution_counts,
    load_patch,
    save_patch,
    substitution_counts,
)

UNIT_PSI = math.sin(math.radians(72.0))


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def embed(p: CycloPoint, scale_exp: int = 0) -> tuple[float, float]:
    """One ring point in R**2, through the package's one embedding."""
    x, y = tiling._embed(np.array(p.coeffs, dtype=np.int64), scale_exp).tolist()
    return x, y


def times_phi(p: CycloPoint) -> CycloPoint:
    """``p`` scaled by phi = -zeta**2 - zeta**3, staying in the ring."""
    return p * _PHI_RING


def full_tile(kind: int, scale_exp: int = 0) -> Patch:
    """Both mirror halves of one tile, sharing apex and axis_end."""
    right = np.array(tiling._SEED_COORDS[(kind, RIGHT)], dtype=np.int64)
    left = np.array(tiling._SEED_COORDS[(kind, LEFT)], dtype=np.int64)
    return Patch(
        np.array([kind, kind]),
        np.array([RIGHT, LEFT]),
        np.stack([right, left]),
        generation=0,
        scale_exp=scale_exp,
        provenance={"seed_kind": tiling.KIND_NAMES[kind], "seed_chirality": 0},
    )


def is_well_formed(tile: HalfTile) -> bool:
    """Exact shape check: equal legs, golden base ratio, orientation."""
    leg1 = squared_length(tile.wing - tile.apex)
    leg2 = squared_length(tile.axis_end - tile.apex)
    base = squared_length(tile.wing - tile.axis_end)
    if leg1 != leg2:
        return False
    if tile.kind == HALF_KITE:
        if leg1 != PHI * PHI * base:
            return False
    elif base != PHI * PHI * leg1:
        return False
    return orientation(tile.wing, tile.apex, tile.axis_end) == tile.chirality


def triangle_area(tri: np.ndarray) -> float:
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    return abs(float(u[0] * v[1] - u[1] * v[0])) / 2.0


def point_in_triangle(point, tri: np.ndarray, eps: float = 1e-9) -> bool:
    """Float half-plane test; tri is a (3, 2) array in either orientation."""
    px, py = float(point[0]), float(point[1])
    sign = 0.0
    for i in range(3):
        ax, ay = tri[i]
        bx, by = tri[(i + 1) % 3]
        ex, ey = bx - ax, by - ay
        cross = ex * (py - ay) - ey * (px - ax)
        norm = math.hypot(ex, ey)
        d = cross / norm if norm else 0.0
        if abs(d) <= eps:
            continue
        if sign == 0.0:
            sign = math.copysign(1.0, d)
        elif math.copysign(1.0, d) != sign:
            return False
    return True


class TestHalfTile:
    def test_seeds_well_formed(self):
        for kind in (HALF_KITE, HALF_DART):
            for chir in (RIGHT, LEFT):
                tile = Patch.single_tile(kind, chir).tile(0)
                assert is_well_formed(tile)
                assert tile.kind == kind
                assert tile.chirality == chir

    def test_seed_edge_lengths(self):
        kite = Patch.single_tile(HALF_KITE).tile(0)
        assert squared_length(kite.apex - kite.wing) == GoldenNum(1, 1)
        assert squared_length(kite.apex - kite.axis_end) == GoldenNum(1, 1)
        assert squared_length(kite.axis_end - kite.wing) == GoldenNum(1)
        dart = Patch.single_tile(HALF_DART).tile(0)
        assert squared_length(dart.apex - dart.wing) == GoldenNum(1)
        assert squared_length(dart.apex - dart.axis_end) == GoldenNum(1)
        assert squared_length(dart.axis_end - dart.wing) == GoldenNum(1, 1)

    def test_scrambled_vertices_rejected(self):
        kite = Patch.single_tile(HALF_KITE).tile(0)
        bad = HalfTile(kite.kind, kite.chirality, kite.apex, kite.wing, kite.axis_end)
        assert not is_well_formed(bad)

    def test_apex_angles(self):
        for kind, degrees in ((HALF_KITE, 36.0), (HALF_DART, 108.0)):
            tile = Patch.single_tile(kind).tile(0)
            a = np.array(embed(tile.wing)) - np.array(embed(tile.apex))
            b = np.array(embed(tile.axis_end)) - np.array(embed(tile.apex))
            cosang = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(math.degrees(math.acos(cosang)) - degrees) < 1e-9


class TestDeflateTile:
    def test_child_counts_and_kinds(self):
        kite_kids = deflate_tile(Patch.single_tile(HALF_KITE).tile(0))
        assert Counter(c.kind for c in kite_kids) == {HALF_KITE: 2, HALF_DART: 1}
        dart_kids = deflate_tile(Patch.single_tile(HALF_DART).tile(0))
        assert Counter(c.kind for c in dart_kids) == {HALF_KITE: 1, HALF_DART: 1}

    def test_children_well_formed_with_scaled_edges(self):
        for kind in (HALF_KITE, HALF_DART):
            for chir in (RIGHT, LEFT):
                parent = Patch.single_tile(kind, chir).tile(0)
                for child in deflate_tile(parent):
                    # child edges are parent-frame ring points shrunk by phi,
                    # so squared lengths are 1/phi^2 = 2 - phi and phi^2/phi^2
                    sq = squared_length(child.apex - child.wing)
                    assert sq in (GoldenNum(2, -1), GoldenNum(1))

    def test_area_conservation_and_containment_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            kind = int(rng.integers(0, 2))
            chir = RIGHT if rng.integers(0, 2) else LEFT
            shift = CycloPoint(*(int(v) for v in rng.integers(-20, 21, size=4)))
            turns = int(rng.integers(0, 10))
            patch = Patch.single_tile(kind, chir).transformed(turns, shift)
            parent = patch.tile(0)
            tri = np.array([embed(v) for v in parent.vertices])
            kids = deflate_tile(parent)
            total = sum(
                triangle_area(np.array([embed(v) for v in c.vertices])) for c in kids
            )
            assert abs(total - triangle_area(tri)) <= 1e-9 * triangle_area(tri)
            for child in kids:
                for v in child.vertices:
                    assert point_in_triangle(embed(v), tri, eps=1e-9)

    def test_chirality_flip_pattern(self):
        parent = Patch.single_tile(HALF_KITE, RIGHT).tile(0)
        kids = deflate_tile(parent)
        flips = [c.chirality for c in kids]
        assert flips.count(RIGHT) + flips.count(LEFT) == 3
        assert len({(c.kind, c.chirality) for c in kids}) == 3


class TestSubstitutionCounts:
    def test_recursion_step(self):
        assert substitution_counts(TileCensus(1, 0), 1) == TileCensus(2, 1)
        assert substitution_counts(TileCensus(0, 1), 1) == TileCensus(1, 1)
        assert substitution_counts(TileCensus(1, 1), 1) == TileCensus(3, 2)

    def test_half_kite_yields_fibonacci(self):
        for n in range(0, 26):
            counts = substitution_counts(TileCensus(1, 0), n)
            assert counts == TileCensus(fib(2 * n + 1), fib(2 * n))

    def test_four_round_example(self):
        assert substitution_counts(TileCensus(1, 0), 4) == TileCensus(34, 21)

    def test_zero_rounds_identity(self):
        assert substitution_counts(TileCensus(9, 4), 0) == TileCensus(9, 4)

    def test_matches_geometric_deflation(self):
        for kind, base in ((HALF_KITE, (1, 0)), (HALF_DART, (0, 1))):
            patch = deflate_patch(Patch.single_tile(kind, scale_exp=-6), 6)
            assert census(patch) == substitution_counts(TileCensus(*base), 6)

    def test_generic_rule(self):
        fib_rule = SubstitutionRule(("a", "b"), ((1, 1), (1, 0)))
        assert generic_substitution_counts(fib_rule, (1, 0), 10) == (89, 55)
        value, vector = PENROSE_SUBSTITUTION.dominant_eigen()
        assert abs(value - PHI_FLOAT**2) <= 1e-10
        assert abs(vector[0] / vector[1] - PHI_FLOAT) <= 1e-10

    @pytest.mark.parametrize("rule, value, vector", [
        (PENROSE_SUBSTITUTION, PHI_FLOAT**2, (PHI_FLOAT, 1.0)),
        # a circulant: eigenvalues 2 and 1 + exp(+-2 pi i / 3), of modulus 1
        (SubstitutionRule(("a", "b", "c"), ((1, 1, 0), (0, 1, 1), (1, 0, 1))), 2.0, (1.0, 1.0, 1.0)),
        # eigenvalues 1 and -1, of equal modulus: the positive one dominates
        (SubstitutionRule(("a", "b"), ((0, 1), (1, 0))), 1.0, (1.0, 1.0)),
    ], ids=["penrose", "three_letters", "periodic"])
    def test_dominant_eigen(self, rule, value, vector):
        got_value, got_vector = rule.dominant_eigen()
        unit = np.array(vector) / np.linalg.norm(vector)
        assert abs(got_value - value) <= 1e-14
        assert np.abs(np.array(got_vector) - unit).max() <= 1e-14

    @pytest.mark.parametrize("matrix", [((0, 1), (0, 0)), ((0, 0), (0, 0)), ((0, 1, 0), (0, 0, 1), (0, 0, 0))])
    def test_dominant_eigen_of_a_nilpotent_rule_is_refused(self, matrix):
        rule = SubstitutionRule(tuple("abc"[:len(matrix)]), matrix)
        with pytest.raises(ValueError, match="no positive eigenvalue"):
            rule.dominant_eigen()

    def test_generic_rule_checks_the_seed_and_rounds(self):
        for seed, n in (((1, 2, 3), 0), ((1,), 4)):
            with pytest.raises(ValueError, match="does not match rule"):
                generic_substitution_counts(PENROSE_SUBSTITUTION, seed, n)
        with pytest.raises(ValueError, match="n must be >= 0"):
            substitution_counts(TileCensus(1, 0), -1)


def exact_deflation(seed: Patch, rounds: int) -> np.ndarray:
    """(N, 3, 4) coordinates after ``rounds`` reference rounds in Python integers (dtype=object), which cannot wrap."""
    kinds, chir, coords = seed.kinds, seed.chiralities, seed.coords.astype(object)
    for _ in range(rounds):
        kinds, chir, coords = matmul_deflate_once(kinds, chir, coords)
    return coords


def int64_deflation(seed: Patch, rounds: int) -> np.ndarray:
    """The same rounds in int64 without deflate_patch's overflow guard."""
    classes, apexes = seed.classes, seed.apexes
    for _ in range(rounds):
        classes, apexes = tiling._deflate_once(classes, apexes, np.int64)
    return tiling._vertex_coords(classes, apexes)


def matmul_deflate_once(kinds: np.ndarray, chir: np.ndarray, coords: np.ndarray):
    """The integer-matrix round, stacked and concatenated: the reference for _deflate_once."""
    kite_rows = kinds == HALF_KITE
    kc = coords[kite_rows]
    dc = coords[~kite_rows]
    kx = chir[kite_rows]
    dx = chir[~kite_rows]
    nk, nd = len(kc), len(dc)

    scaled_k = kc @ tiling._MPHI
    q = kc[:, 0] @ tiling._MINV + kc[:, 1]
    r = kc[:, 1] @ tiling._MINV + kc[:, 2]
    scaled_d = dc @ tiling._MPHI
    p = dc[:, 2] @ tiling._MINV + dc[:, 0]

    new_coords = np.concatenate([
        np.stack([r, q, scaled_k[:, 1]], axis=1),
        np.stack([q, scaled_k[:, 0], r], axis=1),
        np.stack([scaled_k[:, 2], scaled_k[:, 0], r], axis=1),
        np.stack([scaled_d[:, 1], p, scaled_d[:, 0]], axis=1),
        np.stack([p, scaled_d[:, 2], scaled_d[:, 1]], axis=1),
    ])
    new_kinds = np.concatenate([
        np.full(nk, HALF_DART, dtype=np.uint8),
        np.full(2 * nk, HALF_KITE, dtype=np.uint8),
        np.full(nd, HALF_DART, dtype=np.uint8),
        np.full(nd, HALF_KITE, dtype=np.uint8),
    ])
    new_chir = np.concatenate([kx, -kx, kx, dx, -dx])
    return new_kinds, new_chir, new_coords


INT32_MAX = int(np.iinfo(np.int32).max)


def assert_kernel_matches_reference(kinds, chir, coords, rounds=1, widths=(np.int64, np.int32)):
    """Each of ``rounds`` rounds gives bitwise-equal kinds, chiralities and coordinates to the reference.

    The kernel runs on the classes and (4, N) apexes of
    ``Patch.from_coords`` and returns a C-contiguous apex buffer of each of
    ``widths`` that holds the children's coordinates; their (N, 3, 4)
    vertices are compared with the reference's coordinates.
    """
    for _ in range(rounds):
        want = matmul_deflate_once(kinds, chir, coords)
        p = Patch(kinds, chir, coords)
        fits = np.abs(want[2]).max(initial=0) <= INT32_MAX
        for dtype in [w for w in widths if fits or w == np.int64]:
            classes, apexes = tiling._deflate_once(p.classes, p.apexes, dtype)
            assert classes.dtype == np.uint8 and apexes.dtype == dtype and apexes.flags.c_contiguous
            got = tiling._CLASS_KIND[classes], tiling._CLASS_CHIR[classes], tiling._vertex_coords(classes, apexes)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        kinds, chir, coords = want


# the guard's per-round growth bound, the largest coefficient a round may start from
GUARD_LIMIT = tiling._INT64_MAX // tiling._GROWTH


class TestDeflationKernel:
    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    def test_seeds(self, kind, chirality):
        seed = Patch.single_tile(kind, chirality)
        assert_kernel_matches_reference(seed.kinds, seed.chiralities, seed.coords, rounds=7)

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_full_tile(self, kind):
        full = full_tile(kind)
        assert_kernel_matches_reference(full.kinds, full.chiralities, full.coords, rounds=6)

    def test_translated_seeds(self):
        for kind, chirality, t in ((HALF_KITE, LEFT, (7, -3, 12, 5)), (HALF_DART, RIGHT, (-40, 2, 0, 9))):
            seed = Patch.single_tile(kind, chirality, translation=CycloPoint(*t))
            assert_kernel_matches_reference(seed.kinds, seed.chiralities, seed.coords, rounds=5)

    def test_row_permuted_mixed_patch(self):
        # more rows than one block, in an order no deflation produces
        patch = deflate_patch(full_tile(HALF_KITE, scale_exp=-9), 9)
        assert len(patch) > 2 * tiling._DEFLATE_BLOCK
        order = np.random.default_rng(5).permutation(len(patch))
        assert_kernel_matches_reference(patch.kinds[order], patch.chiralities[order], patch.coords[order], rounds=2)

    @staticmethod
    def blocks_read(monkeypatch, kinds, chir, coords) -> list[bool]:
        """Run the kernel check for one round; whether each parent block was a view of the rows."""
        views, parent_block = [], tiling._parent_block

        def spy(classes, apexes, idx):
            block = parent_block(classes, apexes, idx)
            views.append(np.shares_memory(block[1], apexes))
            return block

        monkeypatch.setattr(tiling, "_parent_block", spy)
        assert_kernel_matches_reference(kinds, chir, coords, widths=(np.int32,))
        return views

    @pytest.fixture(scope="class")
    def big(self):
        patch = deflate_patch(full_tile(HALF_KITE, scale_exp=-9), 9)
        assert len(patch) > 2 * tiling._DEFLATE_BLOCK
        return patch

    def test_alternating_kinds_gather_every_block(self, big, monkeypatch):
        kites, darts = np.flatnonzero(big.kinds == HALF_KITE), np.flatnonzero(big.kinds == HALF_DART)
        n = min(len(kites), len(darts))
        order = np.column_stack([kites[:n], darts[:n]]).ravel()
        views = self.blocks_read(monkeypatch, big.kinds[order], big.chiralities[order], big.coords[order])
        assert len(views) > 2 and not any(views)

    def test_kind_sorted_deflation_output_is_read_in_place(self, big, monkeypatch):
        order = np.argsort(big.kinds, kind="stable")
        views = self.blocks_read(monkeypatch, big.kinds[order], big.chiralities[order], big.coords[order])
        assert len(views) > 2 and all(views)

    def test_deflation_output(self, big, monkeypatch):
        # kites at [nk, 3 nk) and after 3 nk + nd: only the blocks across a change of kind gather
        views = self.blocks_read(monkeypatch, big.kinds, big.chiralities, big.coords)
        assert views.count(False) <= 2 and views.count(True) > 2

    def test_one_block_straddles_a_change_of_kind(self, big, monkeypatch):
        order = np.argsort(big.kinds, kind="stable")
        nk = int(np.count_nonzero(big.kinds == HALF_KITE))
        cut = tiling._DEFLATE_BLOCK + 100  # darts inserted inside the second kite block
        order = np.concatenate([order[:cut], order[nk:], order[cut:nk]])
        views = self.blocks_read(monkeypatch, big.kinds[order], big.chiralities[order], big.coords[order])
        assert views.count(False) == 1 and not views[1] and len(views) > 3

    def test_object_coordinates(self):
        # Python-integer coordinates within int64 build the int64 patch and
        # deflate as the exact reference does; past int64, which only Python
        # integers can hold, they are refused rather than wrapped
        seed = Patch.single_tile(HALF_KITE, RIGHT, translation=CycloPoint(2**40, -(2**36), 3, 1))
        coords = seed.coords.astype(object)
        p = Patch(seed.kinds, seed.chiralities, coords)
        assert p.apexes.dtype == np.int64 and p.apexes.tobytes() == seed.apexes.tobytes()
        assert np.array_equal(deflate_patch(p, 4).coords, exact_deflation(p, 4))
        with pytest.raises(OverflowError):
            Patch(seed.kinds, seed.chiralities, coords + np.array([2**70, -(2**66), 3, 1], dtype=object))

    def test_coefficients_just_under_the_guard_limit(self):
        big = GUARD_LIMIT - 1  # the seed's own coefficients add at most 1
        for t in ((big, -big, big, -big), (-big, big, -big, big), (big, big, -big, -big)):
            for kind in (HALF_KITE, HALF_DART):
                seed = Patch.single_tile(kind, LEFT, translation=CycloPoint(*t))
                assert np.abs(seed.coords).max() <= GUARD_LIMIT
                assert_kernel_matches_reference(seed.kinds, seed.chiralities, seed.coords)
                assert np.array_equal(deflate_patch(seed, 1).coords, exact_deflation(seed, 1))

    @pytest.mark.parametrize("helper, matrix", [(tiling._times_phi, tiling._MPHI)])
    def test_column_helpers_are_the_ring_matrices(self, helper, matrix):
        rng = np.random.default_rng(11)
        x = rng.integers(-(2**40), 2**40, size=(1000, 4), dtype=np.int64)
        out = np.empty((3, 4, 1500), dtype=np.int64)  # a block of one vertex's rows, as in a round
        helper(np.ascontiguousarray(x.T), out[1, :, 200:1200])
        got = out[1, :, 200:1200].T
        assert got.dtype == np.int64 and got.tobytes() == (x @ matrix).tobytes()

    @pytest.mark.parametrize("helper, matrix", [(tiling._times_phi, tiling._MPHI)])
    def test_column_helpers_stay_within_the_growth_bound(self, helper, matrix):
        # every sign pattern at the guard's limit: no partial sum wraps, and a
        # split point's added vertex keeps the total within _GROWTH times the limit
        signs = np.array([[(m >> j & 1) * 2 - 1 for j in range(4)] for m in range(16)])
        x = signs * GUARD_LIMIT
        out = np.empty((4, 16), dtype=np.int64)
        helper(np.ascontiguousarray(x.T), out)
        exact = x.astype(object) @ matrix.astype(object)
        assert np.array_equal(out.T, exact)
        for y in (GUARD_LIMIT, -GUARD_LIMIT):
            assert np.abs(exact + y).max() <= tiling._GROWTH * GUARD_LIMIT <= tiling._INT64_MAX


class TestEmbed:
    """``_embed`` against the inline expressions it replaced, bit for bit."""

    @staticmethod
    def inline(coords, scale_exp=0):
        out = np.asarray(coords).astype(np.float64) @ tiling.EMBED_MATRIX
        if scale_exp:
            out = out * PHI_FLOAT ** (-scale_exp)
        return out

    @pytest.mark.parametrize("scale_exp", [0, -9, 4])
    def test_tiles_points_and_one_triangle(self, scale_exp):
        rng = np.random.default_rng(5)
        tiles = rng.integers(-2**40, 2**40, size=(50, 3, 4))
        points = rng.integers(-10**6, 10**6, size=(70, 4))
        cases = [
            (tiles, self.inline(tiles.reshape(-1, 4), scale_exp).reshape(50, 3, 2)),  # Patch.embedded
            (points, self.inline(points, scale_exp)),  # extract_net's points
            (tiles[7], self.inline(tiles[7], scale_exp)),  # embedded_outline
            (tiles[:0], np.empty((0, 3, 2))),
        ]
        for coords, expected in cases:
            got = tiling._embed(coords, scale_exp)
            assert got.dtype == np.float64 and got.shape == coords.shape[:-1] + (2,)
            assert got.tobytes() == expected.tobytes()
        if not scale_exp:
            assert tiling._embed(points).tobytes() == self.inline(points).tobytes()

    def test_outline_and_seed_triangles(self):
        patch = generate_patch_covering(Square(3.0, -5.0, 40.0), HALF_DART, LEFT)
        assert embedded_outline(patch).tobytes() == self.inline(tiling.patch_outline(patch)).tobytes()
        seed = tiling.covering_seed(patch)
        assert embedded_outline(seed).tobytes() == self.inline(tiling.patch_outline(seed), seed.scale_exp).tobytes()
        for kind in (HALF_KITE, HALF_DART):
            unit = np.array(tiling._SEED_COORDS[(kind, RIGHT)], dtype=np.int64)
            expected = np.array(unit, dtype=np.float64) @ tiling.EMBED_MATRIX
            assert tiling._embed(unit).tobytes() == expected.tobytes()

    def test_embed_matrix_has_one_use(self):
        # every ring-to-float conversion in the package goes through _embed
        src = pathlib.Path(tiling.__file__).parent
        uses = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines() if "EMBED_MATRIX" in line]
        assert [name for name, _ in uses] == ["tiling.py", "tiling.py"]
        assert uses[1][1].endswith("@ EMBED_MATRIX")
        defs = [(path.name, line) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines() if re.match(r"\s*def \w*embed\b", line)]
        assert defs == [("tiling.py", "def _embed(coords: np.ndarray, scale_exp: int = 0) -> np.ndarray:")]


class TestDeflatePatch:
    def test_cross_route_equality(self):
        # per-tile exact deflation (parent frame, vertices shrunk by 1/phi)
        # scaled back by phi must reproduce the vectorized column kernel
        # exactly
        patch = Patch.single_tile(HALF_KITE, LEFT, scale_exp=-2)
        one = deflate_patch(patch, 1)
        kids_by_engine = [one.tile(i) for i in range(len(one))]
        scaled = [
            HalfTile(c.kind, c.chirality, times_phi(c.wing), times_phi(c.apex),
                     times_phi(c.axis_end))
            for c in deflate_tile(patch.tile(0))
        ]
        engine_key = {(t.kind, t.chirality, t.wing, t.apex, t.axis_end)
                      for t in kids_by_engine}
        manual_key = {(t.kind, t.chirality, t.wing, t.apex, t.axis_end)
                      for t in scaled}
        assert engine_key == manual_key
        fast = deflate_patch(patch, 2)
        assert census(fast) == substitution_counts(TileCensus(1, 0), 2)

    def test_edge_matching_generation_five(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-5), 5)
        edge_counts = Counter()
        for i in range(len(patch)):
            coords = patch.coords[i]
            pts = [tuple(int(x) for x in row) for row in coords]
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = tuple(sorted((pts[a], pts[b])))
                edge_counts[key] += 1
        assert set(edge_counts.values()) <= {1, 2}
        # the count-1 edges form the seed boundary
        outline = embedded_outline(patch)
        for (p, q), count in edge_counts.items():
            if count == 1:
                for pt in (p, q):
                    x, y = embed(CycloPoint(*pt), patch.scale_exp)
                    on_edge = False
                    for k in range(3):
                        a, b = outline[k], outline[(k + 1) % 3]
                        e = b - a
                        val = e[0] * (y - a[1]) - e[1] * (x - a[0])
                        if abs(val) <= 1e-6 * float(np.linalg.norm(e)):
                            on_edge = True
                    assert on_edge, (p, q)

    def test_interiors_disjoint_spot_check(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        emb = patch.embedded()
        centers = emb.mean(axis=1)
        for i in range(min(len(patch), 60)):
            hits = sum(
                1 for j in range(len(patch)) if point_in_triangle(centers[i], emb[j], eps=-1e-9)
            )
            assert hits == 1

    def test_scale_exp_bookkeeping(self):
        seed = Patch.single_tile(HALF_DART, scale_exp=-3)
        assert seed.scale_exp == -3
        done = deflate_patch(seed, 3)
        assert done.scale_exp == 0
        assert done.generation == 3
        part = deflate_patch(seed, 1)
        assert part.scale_exp == -2

    def test_final_scale_edge_spectrum(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-4), 4)
        expect = {GoldenNum(1), GoldenNum(1, 1)}
        seen = set()
        for i in range(0, len(patch), 7):
            t = patch.tile(i)
            seen.add(squared_length(t.apex - t.wing))
            seen.add(squared_length(t.apex - t.axis_end))
            seen.add(squared_length(t.axis_end - t.wing))
        assert seen == expect

    def test_cap_enforced_before_geometry(self):
        with pytest.raises(TileCapError):
            deflate_patch(Patch.single_tile(HALF_KITE), 40, cap=1000)

    def test_int64_wrap_raises_before_the_round(self):
        seed = Patch.single_tile(HALF_KITE, translation=CycloPoint(2**61, 0, 0, 0))
        # unguarded int64 rounds wrap: every tile differs from exact integers
        exact, wrapped = exact_deflation(seed, 6), int64_deflation(seed, 6)
        assert len(wrapped) == 377
        assert np.all((wrapped != exact).any(axis=(1, 2)))
        with pytest.raises(ValueError, match="overflow int64"):
            deflate_patch(seed, 6)

    def test_int64_wrap_raises_on_the_pruned_path(self):
        seed = Patch.single_tile(HALF_KITE, translation=CycloPoint(2**61, 0, 0, 0))
        everywhere = (np.full(2, -np.inf), np.full(2, np.inf))
        with pytest.raises(ValueError, match="overflow int64"):
            tiling._deflate_rounds(seed, 6, near=everywhere)

    @pytest.mark.parametrize("coeff", [2**40, -(2**55)])
    def test_large_safe_coordinates_match_exact_deflation(self, coeff):
        seed = Patch.single_tile(HALF_DART, LEFT, translation=CycloPoint(coeff, 3, -coeff, 1))
        out = deflate_patch(seed, 6)
        assert np.array_equal(out.coords, exact_deflation(seed, 6))

    def test_far_covering_patch_still_builds(self):
        patch = generate_patch_covering(Square(1e15, 0.0, 16.0))
        assert np.abs(patch.coords).max() > 2**49
        seed = Patch.single_tile(HALF_KITE, scale_exp=-patch.provenance["rounds"],
                                 translation=CycloPoint(*patch.provenance["translation"]))
        assert np.array_equal(patch.coords, exact_deflation(seed, patch.provenance["rounds"]))

    def test_zero_rounds_is_identity(self):
        seed = Patch.single_tile(HALF_KITE, scale_exp=-1)
        out = deflate_patch(seed, 0)
        assert len(out) == 1
        assert np.array_equal(out.coords, seed.coords)
        assert out.scale_exp == seed.scale_exp

    def test_full_tile_pairing_structure(self):
        full = full_tile(HALF_KITE, scale_exp=-1)
        kids = deflate_patch(full, 1)
        pair_keys = Counter()
        for i in range(len(kids)):
            coords = kids.coords[i]
            pair_keys[
                (int(kids.kinds[i]),) + tuple(int(x) for row in coords[1:] for x in row)
            ] += 1
        sizes = Counter(pair_keys.values())
        # full kite deflates to 2 paired kites and 2 unpaired half-darts
        assert sizes == {2: 2, 1: 2}


class TestCovering:
    def test_covering_contains_square(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 16.0))
        emb = patch.embedded()
        tri = embedded_outline(patch)
        for corner in Square(0.0, 0.0, 16.0).corners():
            assert point_in_triangle(corner, tri, eps=1e-9)
        # each corner lies in at least one tile
        for corner in Square(0.0, 0.0, 16.0).corners():
            inside = sum(
                1 for j in range(len(patch)) if point_in_triangle(corner, emb[j], eps=1e-9)
            )
            assert inside >= 1

    def test_covering_final_scale_and_provenance(self):
        patch = generate_patch_covering(Square(2.0, -3.0, 8.0))
        assert patch.scale_exp == 0
        prov = patch.provenance
        for key in ("seed_kind", "seed_chirality", "rounds", "translation", "square"):
            assert key in prov
        assert prov["square"] == (2.0, -3.0, 8.0)

    def test_covering_deterministic(self):
        a = generate_patch_covering(Square(0.0, 0.0, 8.0))
        b = generate_patch_covering(Square(0.0, 0.0, 8.0))
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.kinds, b.kinds)

    def test_transformed_drops_the_covering_placement(self):
        patch = generate_patch_covering(Square(0.0, 0.0, 32.0))
        moved = patch.transformed(tenth_turns=5)
        assert "square" not in moved.provenance and "translation" not in moved.provenance
        assert moved.provenance["rounds"] == patch.provenance["rounds"]
        # the outline still turns with the tiles: a half turn negates it
        assert np.allclose(embedded_outline(moved), -embedded_outline(patch), atol=1e-9)
        assert "square" in patch.provenance

    def test_rejects_degenerate_square(self):
        with pytest.raises(ValueError):
            generate_patch_covering(Square(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_cap_checked_before_the_seed_is_built(self, kind, monkeypatch):
        total = len(generate_patch_covering(Square(0.0, 0.0, 8.0), kind))
        assert len(generate_patch_covering(Square(0.0, 0.0, 8.0), kind, cap=total)) == total

        def no_seed(*args, **kwargs):
            raise AssertionError("seed built before the cap check")

        monkeypatch.setattr(Patch, "single_tile", no_seed)
        with pytest.raises(TileCapError, match=f"would produce {total} half-tiles, cap is {total - 1}"):
            generate_patch_covering(Square(0.0, 0.0, 8.0), kind, cap=total - 1)
        # a square this large once overflowed int64 building the seed
        with pytest.raises(TileCapError, match="cap is"):
            generate_patch_covering(Square(0.0, 0.0, 2.0**41), kind)

    @pytest.mark.parametrize("square", [
        Square(1e19, 0.0, 8.0), Square(-1e19, 0.0, 8.0), Square(0.0, 9.3e18, 8.0), Square(4e18, -4e18, 8.0),
    ])
    def test_translation_past_int64_rejected(self, square):
        with pytest.raises(ValueError, match=f"beyond int64's {2**63 - 1}"):
            generate_patch_covering(square)

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    def test_covering_seed_deflates_into_the_patch(self, kind, chirality):
        patch = generate_patch_covering(Square(-7.0, 3.0, 24.0), kind, chirality)
        seed = covering_seed(patch)
        assert (len(seed), int(seed.kinds[0]), int(seed.chiralities[0])) == (1, kind, chirality)
        rebuilt = deflate_patch(seed, patch.provenance["rounds"])
        assert rebuilt.scale_exp == patch.scale_exp == 0
        for name in ("kinds", "chiralities", "coords"):
            a, b = getattr(rebuilt, name), getattr(patch, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(tiling.patch_outline(rebuilt), tiling.patch_outline(patch))

    def test_covering_seed_needs_the_covering_provenance(self, tmp_path):
        patch = generate_patch_covering(Square(0.0, 0.0, 8.0))
        path = str(tmp_path / "p.txt")
        save_patch(patch, path)
        for other in (patch.transformed(tenth_turns=2), load_patch(path),
                      deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3),
                      full_tile(HALF_DART)):
            with pytest.raises(ValueError, match="covering provenance"):
                covering_seed(other)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-3), 3)
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        back = load_patch(path)
        assert_same_tiles(back, patch)
        assert np.array_equal(back.coords, patch.coords)

    def test_census_header_checked(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2)
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        text = pathlib.Path(path).read_text().replace("census 5 3", "census 5 2")
        broken = str(tmp_path / "broken.txt")
        pathlib.Path(broken).write_text(text)
        with pytest.raises(ValueError):
            load_patch(broken)

    @pytest.mark.parametrize("header", [
        "census 5", "census 5 3 0", "census", "scale_exp", "scale_exp 0 0", "generation",
        "generation 2 2",
        # the right count of fields that are not integers
        "scale_exp 1.5", "scale_exp -0.0", "generation two", "census 5 3.0", "census 5e0 3",
        # another version, or no version
        "penrosenet patch", "penrosenet patch v3", "penrosenet net v2",
    ])
    def test_known_header_with_wrong_field_count(self, header, tmp_path, capsys):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2)
        path = tmp_path / "patch.txt"
        save_patch(patch, str(path))
        key = header.split()[0]
        lines = [f"# {header}\n" if line.startswith(f"# {key} ") else line
                 for line in path.read_text().splitlines(keepends=True)]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"header '{key}'"):
            load_patch(str(path))
        for argv in _cli_commands(path, tmp_path):
            assert cli_main(argv) == 2
            assert f"header '{key}'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("# penrosenet patch v2\n# scale_exp 0\n# generation 0\n")
            fh.write("# census 1 0\n")
            fh.write("1 0 0\n")
        with pytest.raises(ValueError):
            load_patch(path)

    @pytest.mark.parametrize("token", ["2.7", "9.0", "1e3"])
    def test_float_coordinate_rejected_with_warnings_ignored(self, token, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2)
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        lines = pathlib.Path(path).read_text().splitlines(keepends=True)
        lines[5] = _set_token(lines[5], 2, token)
        pathlib.Path(path).write_text("".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="convert"):
                load_patch(path)

    def test_integer_via_float_warning_is_an_error(self, tmp_path, monkeypatch):
        # older NumPy parses "2.7" into an integer field through a float,
        # truncating it, and only warns; the reader must not return that
        path = str(tmp_path / "patch.txt")
        save_patch(Patch.single_tile(HALF_KITE), path)
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DeprecationWarning):
                load_patch(path)


_KIND_LETTER = {HALF_KITE: "K", HALF_DART: "D"}
_LETTER_KIND = {"K": HALF_KITE, "D": HALF_DART}
_CHIR_LETTER = {RIGHT: "R", LEFT: "L"}
_LETTER_CHIR = {"R": RIGHT, "L": LEFT}


def per_line_save(p: Patch) -> str:
    """The one-tile-per-iteration writer of the v1 format, which spelled out every vertex; returns the text."""
    c = census(p)
    out = [
        "# penrosenet patch v1\n",
        f"# scale_exp {p.scale_exp}\n",
        f"# generation {p.generation}\n",
        f"# census {c.kites} {c.darts}\n",
    ]
    kinds, chiralities, all_coords = p.kinds, p.chiralities, p.coords  # each built once, not per tile
    for i in range(len(p)):
        coords = " ".join(str(int(x)) for x in all_coords[i].ravel())
        out.append(
            f"{_KIND_LETTER[int(kinds[i])]} {_CHIR_LETTER[int(chiralities[i])]} "
            f"{p.generation} {coords}\n"
        )
    return "".join(out)


def per_line_load(path: str) -> Patch:
    """The one-line-per-iteration reader of the v1 format: letters and vertices, classified by ``Patch``."""
    scale_exp = None
    generation = None
    header_census = None
    kinds, chirs, coords = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) >= 2 and parts[0] == "scale_exp":
                    scale_exp = int(parts[1])
                elif len(parts) >= 2 and parts[0] == "generation":
                    generation = int(parts[1])
                elif len(parts) >= 3 and parts[0] == "census":
                    header_census = (int(parts[1]), int(parts[2]))
                continue
            parts = line.split()
            if len(parts) != 15:
                raise ValueError(f"malformed patch line: {line!r}")
            kinds.append(_LETTER_KIND[parts[0]])
            chirs.append(_LETTER_CHIR[parts[1]])
            gen = int(parts[2])
            if generation is None:
                generation = gen
            elif gen != generation:
                raise ValueError("mixed generations in patch file")
            coords.append([int(x) for x in parts[3:]])
    if scale_exp is None:
        raise ValueError("patch file missing scale_exp header")
    if not kinds:
        raise ValueError("patch file contains no tiles")
    if header_census is not None:
        actual = (kinds.count(HALF_KITE), kinds.count(HALF_DART))
        if actual != header_census:
            raise ValueError(f"census header {header_census} does not match tile lines {actual}")
    arr = np.array(coords, dtype=np.int64).reshape(len(kinds), 3, 4)
    return Patch(np.array(kinds), np.array(chirs), arr,
                 generation=generation or 0, scale_exp=scale_exp, provenance={"source": path})


def per_line_save_v2(p: Patch) -> str:
    """A one-tile-per-iteration writer of the v2 format; returns the file text."""
    c = census(p)
    out = [f"# penrosenet patch v2\n# scale_exp {p.scale_exp}\n# generation {p.generation}\n"
           f"# census {c.kites} {c.darts}\n"]
    for cls, apex in zip(p.classes.tolist(), p.apexes.T.tolist()):
        out.append(f"{cls} {apex[0]} {apex[1]} {apex[2]} {apex[3]}\n")
    return "".join(out)


def per_line_load_v2(path: str) -> Patch:
    """A one-line-per-iteration reader of the v2 format."""
    headers, rows = {}, []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                parts = line[1:].split()
                if parts and parts[0] in ("penrosenet", "scale_exp", "generation", "census"):
                    headers[parts[0]] = parts[1:]
            elif line:
                fields = line.split()
                if len(fields) != 5:
                    raise ValueError(f"half-tile line needs 5 fields: {line!r}")
                rows.append([int(f) for f in fields])
    if headers.get("penrosenet") != ["patch", "v2"] or "scale_exp" not in headers or "generation" not in headers:
        raise ValueError("patch file needs its penrosenet patch v2, scale_exp and generation headers")
    if not rows:
        raise ValueError("patch file contains no tiles")
    classes = [r[0] for r in rows]
    if not all(0 <= c < 40 for c in classes):
        raise ValueError("class out of range")
    if "census" in headers:
        kites = sum(c < 20 for c in classes)
        if (kites, len(rows) - kites) != tuple(int(f) for f in headers["census"]):
            raise ValueError("census mismatch")
    reach = max(abs(x) for r in rows for x in r[1:]) + 1  # a vertex is its apex plus offsets in {-1, 0, 1}
    if reach > 2**63 - 1:
        raise ValueError("apex out of range")
    apexes = np.array([r[1:] for r in rows], dtype=np.int64).T.astype(np.int32 if reach <= 2**31 - 1 else np.int64)
    return Patch.from_classes(classes, apexes, int(headers["generation"][0]), int(headers["scale_exp"][0]),
                              {"source": path})


def assert_same_tiles(a: Patch, b: Patch) -> None:
    """Equal classes and apexes, bit for bit and in dtype, generation and scale."""
    for x, y in ((a.classes, b.classes), (a.apexes, b.apexes)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert (a.generation, a.scale_exp) == (b.generation, b.scale_exp)


def assert_patches_identical(a: Patch, b: Patch) -> None:
    assert_same_tiles(a, b)
    assert a.provenance == b.provenance


SERIAL_CASES = {
    "full_tile": lambda: full_tile(HALF_KITE),
    "deflated_half_dart": lambda: deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-3), 3),
    "covering_64": lambda: generate_patch_covering(Square(-20.0, 13.0, 64.0)),
}


@pytest.fixture(scope="module", params=list(SERIAL_CASES))
def serial_patch(request):
    return SERIAL_CASES[request.param]()


class TestSerializationOracle:
    def test_save_bytes_match_per_line_writer(self, serial_patch, tmp_path):
        path = tmp_path / "patch.txt"
        save_patch(serial_patch, str(path))
        assert path.read_bytes() == per_line_save_v2(serial_patch).encode("ascii")

    def test_load_matches_per_line_reader(self, serial_patch, tmp_path):
        path = str(tmp_path / "patch.txt")
        save_patch(serial_patch, path)
        back = load_patch(path)
        assert_patches_identical(back, per_line_load_v2(path))
        assert_same_tiles(back, serial_patch)

    def test_v2_round_trip_equals_the_v1_reader(self, serial_patch, tmp_path):
        # the v1 file spelled out vertices and letters, which Patch classified
        # back into the classes and apexes the v2 file carries
        v1, v2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        v1.write_text(per_line_save(serial_patch), encoding="ascii")
        save_patch(serial_patch, str(v2))
        assert_same_tiles(load_patch(str(v2)), per_line_load(str(v1)))

    def test_format_blocks_cover_every_row(self, tmp_path, monkeypatch):
        # blocks smaller than the patch, with a ragged last block
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 4)
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
        path = tmp_path / "patch.txt"
        save_patch(patch, str(path))
        assert len(patch) % 4
        assert path.read_bytes() == per_line_save_v2(patch).encode("ascii")

    def test_coordinate_blocks_cover_every_row(self, monkeypatch):
        # the SVG writer's vertex blocks: several, the last one ragged, each once and in order
        monkeypatch.setattr(tiling, "_COORD_BLOCK", 5)
        patch = deflate_patch(Patch.single_tile(HALF_DART, RIGHT, scale_exp=-3), 3)
        blocks = list(tiling._coord_blocks(patch))
        assert len(patch) > 10 and len(patch) % 5
        assert [lo for lo, _ in blocks] == list(range(0, len(patch), 5))
        assert np.array_equal(np.concatenate([coords for _, coords in blocks]), patch.coords)


ROUND_TRIP_CASES = {
    "transformed": lambda: deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-6), 6).transformed(
        tenth_turns=3, translation=CycloPoint(5, -2, 7, 1)),
    # apexes beyond int32, so the buffer is int64 in memory and on load
    "far_translated": lambda: deflate_patch(
        Patch.single_tile(HALF_DART, LEFT, scale_exp=-4, translation=CycloPoint(2**40, -3, 2**35, -(2**41))), 4),
    # the widest apex whose vertices still fit int64
    "apex_at_the_int64_edge": lambda: Patch.single_tile(
        HALF_KITE, translation=CycloPoint(2**63 - 2, -(2**63 - 2), 0, 0)),
}


class TestRoundTripProperty:
    """load_patch(save_patch(p)) has p's classes, apexes and apex dtype, bit for bit."""

    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    def test_both_seeds_and_chiralities_at_rounds_0_to_12(self, kind, chirality, tmp_path):
        path = str(tmp_path / "patch.txt")
        for rounds in range(13):
            patch = deflate_patch(Patch.single_tile(kind, chirality, scale_exp=-rounds), rounds)
            save_patch(patch, path)
            assert_same_tiles(load_patch(path), patch)

    @pytest.mark.parametrize("case", list(ROUND_TRIP_CASES))
    def test_moved_patches(self, case, tmp_path):
        patch = ROUND_TRIP_CASES[case]()
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        back = load_patch(path)
        assert_same_tiles(back, patch)
        assert back.apexes.dtype == (np.int32 if case == "transformed" else np.int64)


def per_row_format(template: str, *columns: np.ndarray) -> str:
    """``template % row`` row by row, the per-line oracle of _format_rows."""
    return "".join(template % tuple(v for c in columns for v in np.ravel(c[i]).tolist())
                   for i in range(len(columns[0])))


def formatted_tables(monkeypatch) -> list:
    """Every (conv, values) that tiling._format_table is handed from now on."""
    calls, format_table = [], tiling._format_table
    monkeypatch.setattr(tiling, "_format_table", lambda conv, values: calls.append(
        (conv, values)) or format_table(conv, values))
    return calls


class TestFormatRows:
    """_format_rows formats each distinct value once and gives the per-line bytes."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_block_equal_to_and_larger_than_the_row_count(self, extra, tmp_path, monkeypatch):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", len(patch) + extra)
        path = tmp_path / "patch.txt"
        save_patch(patch, str(path))
        assert path.read_bytes() == per_line_save_v2(patch).encode("ascii")

    def test_zero_rows_yield_nothing(self):
        empty = np.empty((0, 3), dtype=np.float64)
        assert list(tiling._format_rows("%.6g %.6g %.6g %s\n", empty, np.empty(0, dtype="U2"))) == []

    def test_a_column_with_one_distinct_value(self, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 3)
        same = np.full((7, 2), 2.5)
        ids = np.arange(7) - 3
        template = "<%.6g|%.6g> %d\n"
        assert "".join(tiling._format_rows(template, same, ids)) == per_row_format(template, same, ids)

    @pytest.mark.parametrize("block", [2, 16384])
    def test_nan_inf_and_signed_zeros_match_the_per_line_oracle(self, block, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", block)
        nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
        values = np.concatenate([nan_bits.view(np.float64),
                                 [np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 0.1 + 0.2, np.inf, -0.0]])
        xy = np.column_stack([values, values[::-1]])
        for template in ("%.12g %.12g\n", "%.6g,%.6g\n"):
            text = "".join(tiling._format_rows(template, xy))
            assert text == per_row_format(template, xy)
        assert "-0,0\n" in text and "0,-0\n" in text and "-inf" in text and "nan" in text

    @pytest.mark.parametrize("template, column", [
        ("%d\0\n", np.arange(3)),  # NUL
        ("%c\n", np.arange(3)),  # a conversion it does not take
        ("%d%%\n", np.arange(3)),
        ("%d %d\n", np.arange(3)),  # more conversions than values
        ("%d %s\n", np.ones((3, 2), dtype=int)),  # two conversions in one column
    ])
    def test_a_template_it_cannot_format_is_refused_before_any_row(self, template, column):
        rows = tiling._format_rows(template, column)
        with pytest.raises(ValueError):
            next(rows)

    def test_nul_in_a_value_is_refused_before_its_block(self, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 2)
        names = np.array(["a", "b", "c\0d"])
        rows = tiling._format_rows("%s\n", names)
        assert next(rows) == "a\nb\n"
        with pytest.raises(ValueError, match="NUL"):
            next(rows)

    @pytest.mark.parametrize("block", [3, 16384])
    @pytest.mark.parametrize("dtype", ["i1", "i4", "i8", "u1", "u8"])
    def test_sparse_d_columns_are_spelled_from_digit_groups(self, dtype, block, monkeypatch):
        info = np.iinfo(dtype)
        edges = [0, 1, 999, 1000, 1001] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
        edges += [-v for v in edges] + [int(info.min), int(info.max), int(np.iinfo(np.int64).min),
                                        int(np.iinfo(np.int64).max), int(np.iinfo(np.uint64).max)]
        values = np.array(sorted({v for v in edges if info.min <= v <= info.max}), dtype=dtype)
        column = np.column_stack([values, values[::-1]])  # small and wide values share blocks
        tables = formatted_tables(monkeypatch)
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", block)
        template = "<%d|%d>\n"
        assert "".join(tiling._format_rows(template, column)) == per_row_format(template, column)
        assert tables == []

    def test_a_sparse_d_column_is_never_formatted(self, monkeypatch):
        tables = formatted_tables(monkeypatch)
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 4)
        sparse = np.arange(20) * 1000
        assert "".join(tiling._format_rows("%d\n", sparse)) == per_row_format("%d\n", sparse)
        assert tables == []

    def test_floats_repeated_across_blocks_are_formatted_once_per_call(self, monkeypatch):
        tables = formatted_tables(monkeypatch)
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 3)
        bits = np.array([0x0000000000000000, 0x8000000000000000,  # 0.0 and -0.0
                         0x7FF8000000000000, 0x7FF8000000000001,  # two NaN payloads
                         0x3FF8000000000000], dtype=np.uint64)  # 1.5
        values = bits[np.random.default_rng(3).integers(0, len(bits), size=(40, 2))].view(np.float64)
        template = "%.12g,%.12g\n"
        for _ in range(2):  # the table lives for one call
            tables.clear()
            assert "".join(tiling._format_rows(template, values)) == per_row_format(template, values)
            assert sum(len(v) for _, v in tables) == len(np.unique(values.view(np.uint64))) == len(bits)

    def test_the_table_of_formatted_keys_holds_at_most_the_cap(self, monkeypatch):
        sizes, known_rows = [], tiling._known_rows

        def spy(seen, *args):
            rows = known_rows(seen, *args)
            sizes.append(len(seen[0]))
            return rows

        monkeypatch.setattr(tiling, "_known_rows", spy)
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 3)
        monkeypatch.setattr(tiling, "_FORMAT_SEEN", 5)
        values = np.random.default_rng(4).normal(size=(20, 2))  # all distinct, 7 blocks
        template = "%.12g %.12g\n"
        assert "".join(tiling._format_rows(template, values)) == per_row_format(template, values)
        assert len(sizes) == 7 and 0 < max(sizes) <= 5



_FLOAT_BITS = np.array([
    0x0000000000000000, 0x0000000000000001,  # 0.0 and the least subnormal
    0x8000000000000000, 0x8000000000000001,  # -0.0 and its negative
    0x7FF0000000000000, 0x7FF0000000000001, 0x7FF0000000000002,  # +inf and NaN payloads
    0xFFF0000000000000, 0xFFF0000000000001, 0xFFFFFFFFFFFFFFFF,  # -inf and NaN payloads
], dtype=np.uint64)


@st.composite
def integer_columns(draw, n: int, block: int) -> np.ndarray:
    """An (n,) or (n, m) integer column: extremes, broadcast or strided, dense as a whole or per block."""
    dtype = np.dtype(draw(st.sampled_from(["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8"])))
    info = np.iinfo(dtype)
    widest = int(info.max) - int(info.min)  # the largest offset the dtype holds
    m = draw(st.integers(1, 3))
    rows = np.arange(n)[:, None]
    pattern = draw(st.sampled_from(["uniform", "cycle", "steps"]))
    if pattern == "uniform":  # spans on both sides of the dense rule
        width = draw(st.integers(0, min(2 * n * m, widest)))
        offsets = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, width, (n, m), endpoint=True)
    elif pattern == "cycle":  # with a period at most a block's size: dense as a whole, in no block
        period = draw(st.integers(1, min(max(1, block * m), widest + 1)))
        offsets = (rows * m + np.arange(m)) % period
    else:  # few values per block, far apart across blocks: dense per block, not as a whole
        stride = draw(st.integers(1, 4 * n * m))
        stride = min(stride, (widest - 1) // max(1, (n - 1) // block))
        offsets = (rows // block) * stride + np.arange(m) % 2
    span = int(offsets.max())
    low = draw(st.sampled_from([int(info.min), int(info.max) - span])
               | st.integers(int(info.min), int(info.max) - span))
    column = np.array((low + offsets.astype(object)).tolist(), dtype=dtype)
    layout = draw(st.sampled_from(["contiguous", "broadcast", "strided", "flat"]))
    if layout == "broadcast":  # stride 0 down the rows
        return np.broadcast_to(column[0], column.shape)
    if layout == "strided":  # a non-contiguous view, columns reversed
        wide = np.zeros((2 * n, m + 1), dtype=dtype)
        wide[::2, 1:] = column[:, ::-1]
        return wide[::2, :0:-1]
    return column[:, 0] if layout == "flat" else column


class TestDenseColumns:
    """A dense integer column is formatted once per call; any column gives the per-line bytes."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_format_rows_equals_the_per_line_oracle(self, data):
        n = data.draw(st.integers(1, 30) | st.integers(100, 300))  # 100+ rows: 8-bit offsets past 127
        block = data.draw(st.sampled_from([1, 2, 3, n + 1]))
        columns = data.draw(st.lists(integer_columns(n, block), min_size=1, max_size=2))
        template = ""
        for c in columns:  # the literals before a column's values: all one, or the first another
            literals = [data.draw(st.sampled_from(["", " ", "|"]))] * (1 if c.ndim == 1 else c.shape[1])
            if data.draw(st.booleans()):
                literals[0] = "<"
            conv = data.draw(st.sampled_from(["%d", "%+d", "%05d", "%x"]))
            template += "".join(literal + conv for literal in literals)
        template += data.draw(st.sampled_from(["\n", "", ">\n"]))
        original = tiling._FORMAT_BLOCK
        tiling._FORMAT_BLOCK = block
        try:
            got = "".join(tiling._format_rows(template, *columns))
        finally:
            tiling._FORMAT_BLOCK = original
        assert got == per_row_format(template, *columns)

    def test_a_dense_column_is_formatted_once_per_call(self, monkeypatch):
        tables, format_table = [], tiling._format_table
        monkeypatch.setattr(tiling, "_format_table", lambda conv, values: tables.append(
            (conv, len(values))) or format_table(conv, values))
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 4)
        dense = (np.arange(40) % 7 - 3).reshape(20, 2)  # 40 values spanning 7, each block 8 spanning 7
        sparse = np.arange(20) * 1000  # 20 values spanning 19,001
        text = "".join(tiling._format_rows("%d %d %x\n", dense, sparse))
        assert text == per_row_format("%d %d %x\n", dense, sparse)
        assert tables == [("%d", 7)] + [("%x", 4)] * 5  # the dense table once, the sparse one per block

    @pytest.mark.parametrize("block", [2, 3, 16384])
    def test_dense_float_columns_match_the_per_line_oracle(self, block, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", block)
        values = np.tile(_FLOAT_BITS, 3).view(np.float64)
        xy = np.column_stack([values, values[::-1]])
        for template in ("%.12g %.12g\n", "%.6g,%.6g\n"):
            assert "".join(tiling._format_rows(template, xy)) == per_row_format(template, xy)

    @pytest.mark.parametrize("block", [2, 3, 16384])
    def test_dense_integer_columns_match_the_per_line_oracle(self, block, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", block)
        rng = np.random.default_rng(5)
        coords = rng.integers(-40, 40, size=(50, 12))
        extremes = np.iinfo(np.int64).max - rng.integers(0, 3, size=50)
        gen = np.broadcast_to(np.int64(-2), 50)
        template = "%d" + " %d" * 11 + " %x %d\n"
        text = "".join(tiling._format_rows(template, coords, extremes, gen))
        assert text == per_row_format(template, coords, extremes, gen)


def _label_column(labels, codes) -> np.ndarray:
    return np.array(list(labels), dtype=object)[codes.astype(np.int64)]


class TestCategoryColumns:
    """A (labels, codes) column writes labels[code], its labels formatted once."""

    LABELS = ("K", "caf\u00e9", "\U0001f600 \udc80", "unused", "url(#d) %s %d", "")

    @pytest.mark.parametrize("block", [2, 3, 16384])
    def test_match_the_per_line_oracle(self, block, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", block)
        rng = np.random.default_rng(11)
        codes = rng.choice([0, 1, 2, 4, 5], size=37).astype(np.uint8)  # label 3 unused
        flags = rng.integers(0, 2, size=37).astype(np.uint8)
        xy = rng.normal(size=(37, 2))
        ids = np.arange(37) - 5
        template = "%.6g %.6g [%s] %s|%d %4s\n"
        got = "".join(tiling._format_rows(
            template, xy, (self.LABELS, codes), (("L", "R"), flags), ids, (self.LABELS, codes)))
        want = per_row_format(template, xy, _label_column(self.LABELS, codes),
                              _label_column(("L", "R"), flags), ids, _label_column(self.LABELS, codes))
        assert got == want

    def test_codes_with_several_values_per_row(self, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 3)
        codes = np.array([[0, 1], [1, 1], [2, 0], [0, 0], [1, 2]])
        text = "".join(tiling._format_rows("%s-%s\n", (("a", "bb", "ccc"), codes)))
        assert text == "a-bb\nbb-bb\nccc-a\na-a\nbb-ccc\n"

    def test_labels_are_formatted_once_not_per_row(self, monkeypatch):
        # no per-row string array: formatting a label costs one call for all rows
        calls = []

        class Label:
            def __str__(self):
                calls.append(1)
                return "lbl"

        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 2)
        text = "".join(tiling._format_rows("%s\n", ((Label(),), np.zeros(7, dtype=np.int64))))
        assert text == "lbl\n" * 7 and len(calls) == 1

    def test_zero_rows_yield_nothing(self):
        assert list(tiling._format_rows("%s %d\n", ((), np.empty(0, dtype=np.int64)), np.empty(0))) == []

    @pytest.mark.parametrize("labels", [("a", "b\0"), ("\0",), ("ok", "\0x")])
    def test_a_nul_in_any_label_is_refused_before_any_row(self, labels):
        rows = tiling._format_rows("%s\n", (labels, np.zeros(4, dtype=np.int64)))
        with pytest.raises(ValueError, match="NUL"):
            next(rows)

    @pytest.mark.parametrize("codes", [np.array([0, 2]), np.array([-1, 0]), np.array([0, 1, 7], dtype=np.uint8)])
    def test_codes_outside_the_labels_are_a_value_error(self, codes):
        rows = tiling._format_rows("%s\n", (("a", "b"), codes))
        with pytest.raises(ValueError, match="outside range"):
            next(rows)


class TestColumnLengths:
    @pytest.mark.parametrize("columns", [
        (np.arange(3), np.arange(5)),
        (np.arange(5), np.arange(3)),
        (np.arange(5), (("a", "b"), np.zeros(3, dtype=np.int64))),
        ((("a", "b"), np.zeros(3, dtype=np.int64)), np.arange(5)),
        (np.empty(0), np.arange(1)),
    ])
    def test_unequal_columns_are_refused_before_any_row(self, columns, monkeypatch):
        monkeypatch.setattr(tiling, "_FORMAT_BLOCK", 2)
        rows = tiling._format_rows("%d %s\n" if isinstance(columns[1], tuple) else
                                   "%s %d\n" if isinstance(columns[0], tuple) else "%d %d\n", *columns)
        with pytest.raises(ValueError, match="unequal length"):
            next(rows)

    def test_save_patch_passes_the_generation_without_a_full_column(self, tmp_path, monkeypatch):
        seen = []
        format_rows = tiling._format_rows

        def spy(template, *columns):
            seen.append(columns)
            return format_rows(template, *columns)

        monkeypatch.setattr(tiling, "_format_rows", spy)
        patch = deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-3), 3)
        path = tmp_path / "patch.txt"
        save_patch(patch, str(path))
        assert path.read_bytes() == per_line_save_v2(patch).encode("ascii")
        # the generation is a header; the columns are the patch's own buffers
        (columns,) = seen
        assert f"# generation {patch.generation}\n" in path.read_text()
        assert len(columns) == 2 and columns[0] is patch.classes and columns[1].base is patch.apexes


def _tile_lines(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines(keepends=True)
    return lines[:4], lines[4:]


def _drop_token(line: str) -> str:
    return line.rsplit(" ", 1)[0] + "\n"


def _extra_token(line: str) -> str:
    return line[:-1] + " 7\n"


def _set_token(line: str, index: int, value: str) -> str:
    parts = line.split()
    parts[index] = value
    return " ".join(parts) + "\n"


def _edit(head, tiles, edits=None, head_edit=None):
    tiles = list(tiles)
    for i, fn in (edits or {}).items():
        tiles[i] = fn(tiles[i])
    head = head_edit(head) if head_edit else head
    return "".join(head + tiles)


def _without(key: str):
    """A head edit that drops the ``key`` header."""
    return lambda hd: [l for l in hd if not l.startswith(f"# {key} ")]


def _v1_width(tokens: int):
    """A line edit that pads a line's five fields with 7s to ``tokens`` fields (a v1 line had 15)."""
    return lambda line: " ".join(line.split() + ["7"] * (tokens - 5)) + "\n"


MALFORMED = {
    "14_tokens": lambda h, t: _edit(h, t, {2: _v1_width(14)}),
    "16_tokens": lambda h, t: _edit(h, t, {2: _v1_width(16)}),
    "short_then_long": lambda h, t: _edit(h, t, {1: _drop_token, 2: _extra_token}),
    "every_line_14_tokens": lambda h, t: _edit(h, t, {i: _v1_width(14) for i in range(len(t))}),
    "every_line_16_tokens": lambda h, t: _edit(h, t, {i: _v1_width(16) for i in range(len(t))}),
    "letter_in_coordinate": lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 2, "x")}),
    "float_coordinate": lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 2, "1.0")}),
    # a v1 kind letter where the class belongs
    "unknown_kind": lambda h, t: _edit(h, t, {0: lambda l: _set_token(l, 0, "X")}),
    "two_letter_kind": lambda h, t: _edit(h, t, {0: lambda l: _set_token(l, 0, "KK")}),
    "hash_in_kind": lambda h, t: _edit(h, t, {4: lambda l: _set_token(l, 0, "K#")}),
    "trailing_comment": lambda h, t: _edit(h, t, {4: lambda l: l[:-1] + " # note\n"}),
    "census_mismatch": lambda h, t: _edit(h, t, head_edit=lambda hd: [
        "# census 5 2\n" if l.startswith("# census") else l for l in hd]),
    "missing_scale_exp": lambda h, t: _edit(h, t, head_edit=_without("scale_exp")),
    "no_tile_lines": lambda h, t: "".join(h),
    "empty_file": lambda h, t: "",
}

# files only the v2 reader meets: the one-line message each raises, and the edit
HOSTILE = {
    "class_40": (r"classes must lie in 0\.\.39", lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 0, "40")})),
    "class_minus_1": (r"classes must lie in 0\.\.39",
                      lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 0, "-1")})),
    "float_class": ("could not convert string '3.0'", lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 0, "3.0")})),
    # |apex| + 1 past int64: the apex's vertex offsets of +-1 could wrap
    "apex_at_int64_max": ("apex coefficients must lie within",
                          lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 1, str(2**63 - 1))})),
    "apex_at_int64_min": ("apex coefficients must lie within",
                          lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 4, str(-2**63))})),
    "apex_past_int64": ("could not convert string",
                        lambda h, t: _edit(h, t, {3: lambda l: _set_token(l, 2, str(2**63))})),
    "4_tokens": ("requires 5 columns but 4 were found", lambda h, t: _edit(h, t, {2: _drop_token})),
    "6_tokens": ("requires 5 columns but 6 were found", lambda h, t: _edit(h, t, {2: _extra_token})),
    "missing_generation": ("missing its generation header", lambda h, t: _edit(h, t, head_edit=_without("generation"))),
    "missing_version": ("missing its penrosenet header", lambda h, t: _edit(h, t, head_edit=_without("penrosenet"))),
    "v1_file": ("header 'penrosenet' needs patch v2, got 'penrosenet patch v1'",
                lambda h, t: per_line_save(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2))),
}

ACCEPTED = {
    "blank_lines": lambda h, t: "".join(h + t[:3] + ["\n", "   \n"] + t[3:] + ["\n"]),
    "indented_lines": lambda h, t: "".join(h + ["  " + l for l in t[:4]] + ["\t" + l for l in t[4:]]),
    "comment_lines_between_tiles": lambda h, t: "".join(
        h[:2] + t[:2] + ["# note\n", "   # indented note\n", "#\n"] + h[2:] + t[2:]),
    "tab_separated": lambda h, t: "".join(h + [l.replace(" ", "\t") for l in t]),
    "crlf_line_ends": lambda h, t: "".join(h + t).replace("\n", "\r\n"),
    "no_final_newline": lambda h, t: "".join(h + t)[:-1],
}


def _cli_commands(path, tmp_path) -> list[list[str]]:
    return [
        ["render", "--patch", str(path), "--out", str(tmp_path / "x.svg")],
        ["analyze", "--patch", str(path), "--window", "0", "0", "1",
         "--i-min", "0", "--i-max", "0", "--out", str(tmp_path / "rep")],
    ]


class TestPatchFileMatrix:
    @pytest.fixture(scope="class")
    def source(self):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2)
        return patch, _tile_lines(per_line_save_v2(patch))

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_fails_as_before(self, case, source, tmp_path, capsys):
        _, (head, tiles) = source
        path = tmp_path / "bad.txt"
        path.write_bytes(MALFORMED[case](head, tiles).encode("ascii"))
        with pytest.raises((ValueError, KeyError)) as old:
            per_line_load_v2(str(path))
        with pytest.raises((ValueError, KeyError)) as new:
            load_patch(str(path))
        if case == "hash_in_kind":  # the per-line reader fails on the token K#
            assert new.type is ValueError and "'#' inside a data line" in str(new.value)
        else:
            assert new.type is old.type
        for argv in _cli_commands(path, tmp_path):
            assert cli_main(argv) == 2
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(HOSTILE))
    def test_hostile_files_are_refused_in_one_line(self, case, source, tmp_path, capsys):
        _, (head, tiles) = source
        match, edit = HOSTILE[case]
        path = tmp_path / "bad.txt"
        path.write_text(edit(head, tiles), encoding="ascii")
        with pytest.raises(ValueError):
            per_line_load_v2(str(path))
        with pytest.raises(ValueError, match=match) as raised:
            load_patch(str(path))
        assert "\n" not in str(raised.value)
        for argv in _cli_commands(path, tmp_path):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == f"error: {raised.value}\n"

    def test_cli_commands_pass_on_the_unedited_file(self, source, tmp_path, capsys):
        _, (head, tiles) = source
        path = tmp_path / "ok.txt"
        path.write_text("".join(head + tiles), encoding="ascii")
        for argv in _cli_commands(path, tmp_path):
            assert cli_main(argv) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(ACCEPTED))
    def test_accepted_as_before(self, case, source, tmp_path):
        patch, (head, tiles) = source
        path = tmp_path / "ok.txt"
        path.write_bytes(ACCEPTED[case](head, tiles).encode("ascii"))
        back = load_patch(str(path))
        assert_patches_identical(back, per_line_load_v2(str(path)))
        assert_same_tiles(back, patch)

    @pytest.mark.parametrize("byte", [b"\xe9", b"\xc3\xa9", b"\x80", b"\xff"])
    @pytest.mark.parametrize("where", ["tile_line", "comment"])
    def test_a_non_ascii_byte_is_refused(self, where, byte, source, tmp_path, capsys):
        _, (head, tiles) = source
        lines = [line.encode("ascii") for line in head + tiles]
        if where == "tile_line":
            lines[len(head) + 2] = lines[len(head) + 2].replace(b" ", b" " + byte, 1)
        else:
            lines.insert(len(head) + 1, b"# note " + byte + b"\n")
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError):
            load_patch(str(path))
        for argv in _cli_commands(path, tmp_path):
            assert cli_main(argv) == 2
            assert "error" in capsys.readouterr().err


class TestTwoReads:
    """A patch file's headers and rows come from two reads of one regular file."""

    @pytest.fixture
    def files(self, tmp_path):
        path, other = tmp_path / "p.txt", tmp_path / "other.txt"
        save_patch(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3), str(path))
        save_patch(deflate_patch(Patch.single_tile(HALF_DART, scale_exp=-3), 3), str(other))
        return path, other

    def test_rows_are_parsed_from_the_path(self, files, monkeypatch):
        path, _ = files
        seen, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda fname, **kw: seen.append(fname) or loadtxt(fname, **kw))
        assert_patches_identical(load_patch(str(path)), per_line_load_v2(str(path)))
        assert seen == [str(path)]

    @pytest.mark.parametrize("change", ["replaced", "rewritten"])
    def test_a_file_changed_between_the_reads_is_refused(self, change, files, monkeypatch):
        path, other = files
        loadtxt = np.loadtxt

        def change_then_load(fname, **kw):
            if change == "replaced":  # a new inode
                other.replace(path)
            else:  # the same inode, another size
                path.write_bytes(path.read_bytes() + other.read_bytes())
            return loadtxt(fname, **kw)

        monkeypatch.setattr(np, "loadtxt", change_then_load)
        with pytest.raises(ValueError, match="changed between the read of its headers and the read of its rows"):
            load_patch(str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_refused_before_a_second_open(self, files, tmp_path):
        path, _ = files
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            with pytest.raises(ValueError, match="not a regular file"):
                load_patch(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_text_file_named_like_a_compressed_one_loads(self, suffix, files, tmp_path):
        # np.loadtxt would decompress such a path
        path, _ = files
        named = tmp_path / f"p.txt{suffix}"
        named.write_bytes(path.read_bytes())
        assert_patches_identical(load_patch(str(named)), per_line_load_v2(str(named)))


class TestTransformAndTypes:
    def test_rotation_ten_is_identity(self):
        p = Patch.single_tile(HALF_KITE, LEFT)
        assert np.array_equal(p.transformed(10).coords, p.coords)

    def test_rotation_preserves_lengths(self):
        p = Patch.single_tile(HALF_DART)
        q = p.transformed(3)
        t0, t1 = p.tile(0), q.tile(0)
        assert squared_length(t0.apex - t0.wing) == squared_length(t1.apex - t1.wing)

    def test_translation_moves_embedding(self):
        p = Patch.single_tile(HALF_KITE)
        q = p.transformed(0, CycloPoint(3, 0, 0, 0))
        a = p.embedded()
        b = q.embedded()
        assert np.allclose(b - a, [3.0, 0.0], atol=1e-12)

    def test_census_helpers(self):
        c = TileCensus(5, 3)
        assert c.total() == 8
        assert tuple(c) == (5, 3)
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2)
        assert census(patch) == TileCensus(5, 3)

    def test_square_helpers(self):
        s = Square(1.0, 2.0, 3.0)
        assert s.center == (2.5, 3.5)
        assert s.area == 9.0
        assert len(s.corners()) == 4

    def test_default_cap_is_large(self):
        assert DEFAULT_TILE_CAP >= 10_000_000


def assert_row_layout(p: Patch, dtype=np.int32) -> None:
    """``classes`` is read-only uint8 (N,); ``apexes`` one read-only C-contiguous (4, N) buffer of ``dtype``."""
    assert p.classes.shape == (len(p),) and p.classes.dtype == np.uint8 and p.classes.flags.c_contiguous
    assert p.apexes.shape == (4, len(p)) and p.apexes.dtype == dtype and p.apexes.flags.c_contiguous
    for arr in (p.classes, p.apexes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[..., :1] = 1
    assert p.coords.shape == (len(p), 3, 4) and p.coords.dtype == np.int64 and p.coords.flags.c_contiguous


class TestRowLayout:
    """Every way to build a patch stores classes and (4, N) apex rows, int32 where they fit."""

    def test_every_constructor(self, tmp_path):
        from penrosenet.discrepancy import _supertiles_near

        seed = Patch.single_tile(HALF_KITE, LEFT, scale_exp=-6, translation=CycloPoint(3, -1, 4, 1))
        covering = generate_patch_covering(Square(-5.0, 7.0, 16.0))
        path = str(tmp_path / "patch.txt")
        save_patch(covering, path)
        patches = {
            "single_tile": seed,
            "full_tile": full_tile(HALF_DART),
            "deflate_patch": deflate_patch(seed, 6),
            "generate_patch_covering": covering,
            "load_patch": load_patch(path),
            "transformed": covering.transformed(3, CycloPoint(1, 2, 3, 4)),
            "region_analysis": _supertiles_near(covering, 1, Square(-3.0, 9.0, 4.0)),
            "empty": Patch(np.empty(0), np.empty(0), np.empty((0, 3, 4))),
        }
        for p in patches.values():
            assert_row_layout(p)
        assert len(patches["region_analysis"]) > 0
        far = generate_patch_covering(Square(3e9, 1e9, 16.0))
        for p in (far, far.transformed(7, CycloPoint(1, 2, 3, 4)), Patch(far.kinds, far.chiralities, far.coords)):
            assert_row_layout(p, np.int64)

    def test_deflation_output_is_not_copied(self):
        classes, apexes = tiling._deflate_rounds(Patch.single_tile(HALF_DART, scale_exp=-5), 5)
        p = Patch.from_classes(classes, apexes)
        assert np.shares_memory(p.classes, classes) and np.shares_memory(p.apexes, apexes)

    @pytest.mark.parametrize("layout", ["fortran", "negative_stride", "sliced", "object", "rows"])
    def test_any_input_layout_gives_the_same_patch(self, layout):
        base = deflate_patch(Patch.single_tile(HALF_KITE, RIGHT, scale_exp=-7), 7)
        c = np.ascontiguousarray(base.coords)
        n = len(base)
        kinds, chir = base.kinds, base.chiralities
        if layout == "fortran":
            coords = np.asfortranarray(c)
        elif layout == "negative_stride":
            coords = np.flip(np.flip(c, axis=0).copy(), axis=0)  # the same values, read backwards
            assert coords.strides[0] < 0
        elif layout == "sliced":
            wide = np.zeros((2 * n, 3, 5), dtype=np.int64)
            wide[::2, :, 1:] = c
            coords = wide[::2, :, 1:]
        elif layout == "object":
            coords = c.astype(object)
        else:
            coords = np.ascontiguousarray(c.transpose(1, 2, 0)).transpose(2, 0, 1)
        p = Patch(kinds, chir, coords, base.generation, base.scale_exp)
        assert_row_layout(p)
        assert p.classes.tobytes() == base.classes.tobytes() and p.apexes.tobytes() == base.apexes.tobytes()
        assert p.coords.tobytes() == base.coords.tobytes() == c.tobytes()
        assert np.array_equal(p.kinds, base.kinds) and np.array_equal(p.chiralities, base.chiralities)
        assert deflate_patch(p, 2).coords.tobytes() == deflate_patch(base, 2).coords.tobytes()
        assert p.embedded().tobytes() == base.embedded().tobytes()

    def test_embed_of_the_view_matches_c_order(self):
        p = generate_patch_covering(Square(2.0, -3.0, 24.0))
        c = np.ascontiguousarray(p.coords)
        for scale_exp in (0, -4):
            want = c.reshape(-1, 4).astype(np.float64) @ tiling.EMBED_MATRIX
            if scale_exp:
                want = want * PHI_FLOAT ** (-scale_exp)
            assert tiling._embed(p.coords, scale_exp).tobytes() == want.tobytes()


class TestHalfTileClasses:
    """The 40 half-tile classes, their tables, and the int32/int64 apex rows."""

    @staticmethod
    def class_tile(c: int, apex=(0, 0, 0, 0)) -> HalfTile:
        vertices = tiling._VERTEX_OFFSETS[c] + np.array(apex, dtype=np.int64)
        return HalfTile(int(tiling._CLASS_KIND[c]), int(tiling._CLASS_CHIR[c]),
                        *(CycloPoint(*map(int, v)) for v in vertices))

    def test_forty_distinct_unit_half_tiles(self):
        offsets = tiling._VERTEX_OFFSETS
        assert offsets.shape == (40, 3, 4) and len({o.tobytes() for o in offsets}) == 40
        assert np.abs(offsets).max() == tiling._REACH == 1  # the base-3 shape codes rely on it
        assert not offsets[:, 1].any()  # offsets from the apex
        for c in range(40):
            t = self.class_tile(c)
            assert is_well_formed(t)
            short = t.wing - t.axis_end if t.kind == HALF_KITE else t.wing - t.apex
            assert squared_length(short) == GoldenNum(1)
            assert tiling._class_of(t.kind, t.chirality, c % 20 // 2) == c
        # mirror partners share their axis end, so their full tile's incenter
        assert np.array_equal(offsets[0::2, 2], offsets[1::2, 2])
        assert np.array_equal(tiling._INCENTER_OFFSETS[0::2], tiling._INCENTER_OFFSETS[1::2])

    def test_child_tables_are_deflate_tile_scaled_by_phi(self):
        apex = (7, -3, 12, 5)
        for c in range(40):
            children = deflate_tile(self.class_tile(c, apex))
            scaled_apex = np.array(apex, dtype=np.int64) @ tiling._MPHI
            for slot, child in enumerate(children):
                k = int(tiling._CHILD_CLASSES[slot, c])
                table = self.class_tile(k, scaled_apex + tiling._CHILD_APEX_ROWS[slot, c])
                want = [times_phi(v) for v in child.vertices]
                assert (table.kind, table.chirality, list(table.vertices)) == (child.kind, child.chirality, want)

    def test_every_class_occurs(self):
        patches = [generate_patch_covering(Square(-20.0, 13.0, 64.0)),
                   deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-9), 9)]
        patches.append(patches[1].transformed(3, CycloPoint(5, -7, 2, 3)))
        turn = np.linalg.matrix_power(tiling._MOMEGA, 3)
        assert np.array_equal(patches[2].coords, patches[1].coords @ turn + np.array([5, -7, 2, 3]))
        for p in patches:
            assert np.array_equal(np.unique(p.classes), np.arange(40))
            assert Patch(p.kinds, p.chiralities, p.coords).classes.tobytes() == p.classes.tobytes()

    def test_rounds_switch_to_int64_when_the_bound_leaves_int32(self):
        # a round writes int32 while 4 (|apex| + 1) of its parents fits int32:
        # the apexes reach 2**29 + 5 in three rounds (int32) and 805306375 in four
        seed = Patch.single_tile(HALF_KITE, LEFT, translation=CycloPoint(2**28, 0, 0, 0))
        patches = [deflate_patch(seed, n) for n in range(6)]
        assert [p.apexes.dtype for p in patches] == [np.int32] * 4 + [np.int64] * 2
        bounds = [4 * (int(np.abs(p.apexes).max()) + 1) for p in patches]
        assert bounds[2] <= INT32_MAX < bounds[3]
        for n, p in enumerate(patches):
            assert np.array_equal(p.coords, exact_deflation(seed, n))

    def test_window_past_int32_coefficients(self):
        patch = generate_patch_covering(Square(3e9, 1e9, 64.0), HALF_DART, LEFT)
        assert patch.apexes.dtype == np.int64 and np.abs(patch.coords).max() > 2**31
        seed = covering_seed(patch)
        assert np.array_equal(patch.coords, exact_deflation(seed, -seed.scale_exp))
        near = generate_patch_covering(Square(-3.0, 5.0, 64.0))
        assert near.apexes.dtype == np.int32
        for p in (patch, near):
            wide = Patch.from_classes(p.classes, p.apexes.astype(np.int64), p.generation, p.scale_exp, p.provenance)
            assert deflate_patch(wide, 1).coords.tobytes() == deflate_patch(p, 1).coords.tobytes()
            assert extract_net(wide).ring.tobytes() == extract_net(p).ring.tobytes()

    def test_generate_peaks_below_40_bytes_per_half_tile(self):
        # the covering patch holds 17 bytes per half-tile; the last round's
        # parents and index arrays come on top (98 and about 139 bytes with
        # (N, 3, 4) int64 vertices)
        generate_patch_covering(Square(0.0, 0.0, 16.0))
        tracemalloc.start()
        try:
            patch = generate_patch_covering(Square(57.0, 16.0, 256.0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(patch) == 317811
        assert held < 18 * len(patch) and peak < 40 * len(patch)


TRIANGLE_FAULTS = {
    # (what is done to the half-kite seed's vertices and letters, the message)
    "non_unit_triangle": ("is not a unit half-kite or half-dart",
                          lambda k, c, v: (k, c, v + np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))),
    "scaled_by_phi": ("is not a unit half-kite or half-dart", lambda k, c, v: (k, c, v @ tiling._MPHI)),
    "chirality_against_the_geometry": ("has the vertex order of the other chirality", lambda k, c, v: (k, -c, v)),
    "kite_letter_on_a_dart": ("has the other kind's shape",
                              lambda k, c, v: (k, c, np.array(tiling._SEED_COORDS[(HALF_DART, c)]) + v[1])),
}


class TestTriangleCheck:
    @pytest.mark.parametrize("fault", list(TRIANGLE_FAULTS))
    def test_a_malformed_triangle_is_refused(self, fault):
        message, edit = TRIANGLE_FAULTS[fault]
        base = deflate_patch(Patch.single_tile(HALF_KITE, RIGHT, scale_exp=-3), 3)
        kinds, chir, coords = base.kinds.copy(), base.chiralities.copy(), base.coords
        i = int(np.flatnonzero(kinds == HALF_KITE)[2])
        kinds[i], chir[i], coords[i] = edit(int(kinds[i]), int(chir[i]), coords[i])
        with pytest.raises(ValueError, match=f"^half-tile {i} .* {re.escape(message)}: "):
            Patch(kinds, chir, coords)

    @pytest.mark.parametrize("kind, chirality, coeff, end", [
        (HALF_KITE, RIGHT, 0, np.iinfo(np.int64).max), (HALF_DART, LEFT, 1, np.iinfo(np.int64).min),
    ])
    def test_an_apex_at_the_ends_of_int64_is_refused(self, kind, chirality, coeff, end):
        # the apex's unit offsets wrap around int64, and so do their differences, back to the class's own
        seed = np.array(tiling._SEED_COORDS[(kind, chirality)], dtype=np.int64)
        apex = np.zeros(4, dtype=np.int64)
        apex[coeff] = end
        coords = seed + apex
        assert np.array_equal(coords - coords[1], seed) and (coords[0, coeff] > 0) != (end > 0)
        with pytest.raises(ValueError, match="is not a unit"):
            Patch([kind], [chirality], coords[None])


SEED_COORDS = np.array(tiling._SEED_COORDS[(HALF_KITE, RIGHT)], dtype=np.int64)
REFUSALS = {
    # (the exception, its message, the call)
    "coords_of_two_vertices": (ValueError, "coords (N, 3, 4)",
                               lambda: Patch([HALF_KITE], [RIGHT], SEED_COORDS[None, :2])),
    "kind_2": (ValueError, "kinds must be", lambda: Patch([2], [RIGHT], SEED_COORDS[None])),
    "apexes_3_by_1": (ValueError, "(4, N) int32/int64 apexes",
                      lambda: Patch.from_classes(np.zeros(1, dtype=np.uint8), np.zeros((3, 1), dtype=np.int64))),
    "class_40": (ValueError, "below 40",
                 lambda: Patch.from_classes(np.array([40], dtype=np.uint8), np.zeros((4, 1), dtype=np.int64))),
    "ragged_matrix": (ValueError, "must be square", lambda: SubstitutionRule(("a", "b"), ((1, 1), (1,)))),
    "negative_matrix": (ValueError, ">= 0", lambda: SubstitutionRule(("a", "b"), ((1, -1), (1, 0)))),
    "negative_rounds": (ValueError, "rounds must be >= 0", lambda: deflate_patch(Patch.single_tile(HALF_KITE), -1)),
}


class TestRefusals:
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_malformed_arguments_are_refused(self, case):
        error, message, call = REFUSALS[case]
        with pytest.raises(error, match=re.escape(message)):
            call()

    def test_a_loaded_patch_has_no_outline(self, tmp_path):
        path = str(tmp_path / "patch.txt")
        save_patch(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2), path)
        with pytest.raises(KeyError, match="no recorded outline"):
            tiling.patch_outline(load_patch(path))
