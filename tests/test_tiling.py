"""Half-tile geometry, deflation, patches, and serialization."""

import math
from collections import Counter

import numpy as np
import pytest

from penrosenet.golden import CycloPoint, GoldenNum, PHI_FLOAT, embed, squared_length
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
                assert tile.is_well_formed()
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
        assert not bad.is_well_formed()

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


class TestDeflatePatch:
    def test_cross_route_equality(self):
        # per-tile exact deflation (parent frame, vertices shrunk by 1/phi)
        # scaled back by phi must reproduce the vectorized integer-matrix
        # route exactly
        patch = Patch.single_tile(HALF_KITE, LEFT, scale_exp=-2)
        one = deflate_patch(patch, 1)
        kids_by_engine = [one.tile(i) for i in range(len(one))]
        scaled = [
            HalfTile(c.kind, c.chirality, c.wing.times_phi(), c.apex.times_phi(),
                     c.axis_end.times_phi())
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

    def test_zero_rounds_is_identity(self):
        seed = Patch.single_tile(HALF_KITE, scale_exp=-1)
        out = deflate_patch(seed, 0)
        assert len(out) == 1
        assert np.array_equal(out.coords, seed.coords)
        assert out.scale_exp == seed.scale_exp

    def test_full_tile_pairing_structure(self):
        full = Patch.full_tile(HALF_KITE, scale_exp=-1)
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

    def test_rejects_degenerate_square(self):
        with pytest.raises(ValueError):
            generate_patch_covering(Square(0.0, 0.0, 0.0))


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_DART, LEFT, scale_exp=-3), 3)
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        back = load_patch(path)
        assert np.array_equal(back.coords, patch.coords)
        assert np.array_equal(back.kinds, patch.kinds)
        assert np.array_equal(back.chiralities, patch.chiralities)
        assert back.scale_exp == patch.scale_exp
        assert back.generation == patch.generation

    def test_census_header_checked(self, tmp_path):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-2), 2)
        path = str(tmp_path / "patch.txt")
        save_patch(patch, path)
        text = open(path).read().replace("census 5 3", "census 5 2")
        broken = str(tmp_path / "broken.txt")
        open(broken, "w").write(text)
        with pytest.raises(ValueError):
            load_patch(broken)

    def test_malformed_line_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("# penrosenet patch v1\n# scale_exp 0\n# generation 0\n")
            fh.write("# census 1 0\n")
            fh.write("K R 0 1 2 3\n")
        with pytest.raises(ValueError):
            load_patch(path)


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
