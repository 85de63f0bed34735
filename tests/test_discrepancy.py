"""Ratio bounds, density discrepancy, region analysis, and reports."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penrosenet import discrepancy, tiling
from penrosenet.discrepancy import (
    DensityModel,
    build_report,
    check_prop21,
    compute_rho,
    dart_area,
    decay_bound,
    default_density,
    e_rho,
    iterate_ratio_map,
    kite_area,
    ratio_bound,
    ratio_map,
    region_analysis,
    report_to_csv,
    report_to_json,
)
from penrosenet.golden import GoldenNum, PHI, PHI_FLOAT
from penrosenet.net import Net, count_in_square, extract_net
from penrosenet.tiling import (
    HALF_DART,
    HALF_KITE,
    LEFT,
    RIGHT,
    Patch,
    Square,
    TileCensus,
    _bounding_boxes,
    covering_seed,
    deflate_patch,
    embedded_outline,
    generate_patch_covering,
    substitution_counts,
)
from test_net import small_net
from test_tiling import point_in_triangle

# regression anchors measured on this 64-sided window by the enumeration
# pipeline itself (46368 half-tiles, 23321 net points, 11 rounds)
WINDOW64_E = {
    2: 1.5216904260722461,
    3: 1.1593831817693303,
    4: 1.0627572286002014,
    5: 1.0268185783576826,
}
WINDOW64_PRODUCT = 1.9252232142857144
WINDOW64_LOG_SUM = 0.7706494147994605


@pytest.fixture(scope="module")
def net64():
    patch = generate_patch_covering(Square(0.0, 0.0, 64.0))
    return patch, extract_net(patch)


class TestRatioMap:
    def test_fixed_point_exact(self):
        assert ratio_map(PHI) == PHI

    def test_simple_values(self):
        assert ratio_map(Fraction(1)) == Fraction(3, 2)
        assert ratio_map(0) == Fraction(1)
        for x in (0, 1, 10, 1000):
            y = ratio_map(Fraction(x))
            assert 1 <= y <= 2

    def test_float_dispatch(self):
        assert ratio_map(1.0) == pytest.approx(1.5)

    def test_floats_become_their_exact_binary_fractions(self):
        y = ratio_map(0.1)
        assert type(y) is Fraction
        assert y == ratio_map(Fraction(0.1)) != ratio_map(Fraction(1, 10))
        assert Fraction(0.1).denominator == 2**55
        assert iterate_ratio_map(1.5, 2) == [Fraction(3, 2), Fraction(8, 5), Fraction(21, 13)]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises((ValueError, OverflowError)):
                ratio_map(bad)
            with pytest.raises((ValueError, OverflowError)):
                iterate_ratio_map(bad, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.integers(min_value=0, max_value=10**30),
        st.floats(min_value=0.0, allow_infinity=False),
        st.fractions(min_value=0, max_denominator=10**40),
    ))
    def test_matches_the_fraction_formula(self, x):
        y = ratio_map(x)
        expected = (2 * Fraction(x) + 1) / (Fraction(x) + 1)
        assert type(y) is Fraction
        assert (y.numerator, y.denominator) == (expected.numerator, expected.denominator)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ratio_map(Fraction(-1, 2))
        for bad in (-1, -1e-300, Fraction(-1, 10**40)):
            with pytest.raises(ValueError, match="x >= 0"):
                ratio_map(bad)
        with pytest.raises(ValueError):
            ratio_map(PHI - 10)

    def test_contraction_thousand_exact_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x = 1 + Fraction(int(rng.integers(0, 10**6)), 10**6)
            y = 1 + Fraction(int(rng.integers(0, 10**6)), 10**6)
            assert abs(ratio_map(x) - ratio_map(y)) * 4 <= abs(x - y)

    def test_iterates_match_fibonacci_ladder(self):
        seq = iterate_ratio_map(Fraction(1), 5)
        assert seq == [
            Fraction(1), Fraction(3, 2), Fraction(8, 5),
            Fraction(21, 13), Fraction(55, 34), Fraction(144, 89),
        ]

    def test_iterate_gap_bound_from_three_starts(self):
        for x0 in (Fraction(1), Fraction(3, 2), Fraction(2)):
            seq = iterate_ratio_map(x0, 15)
            for k, value in enumerate(seq):
                if k == 0:
                    continue
                gap = abs(GoldenNum(value) - PHI)
                assert gap <= GoldenNum(Fraction(1, 4**k))

    def test_iterate_trivial_cases(self):
        assert iterate_ratio_map(Fraction(1), 0) == [Fraction(1)]
        assert iterate_ratio_map(Fraction(1), 1) == [Fraction(1), Fraction(3, 2)]

    def test_iterate_domain_enforced(self):
        with pytest.raises(ValueError):
            iterate_ratio_map(Fraction(5, 2), 3)
        with pytest.raises(ValueError):
            iterate_ratio_map(Fraction(1), -1)


class TestProp21:
    def test_first_checked_row(self):
        trace = check_prop21(TileCensus(1, 1), 3)
        entry = trace.entries[0]
        assert entry.n == 3
        assert (entry.kites, entry.darts) == (8, 5)
        assert entry.ratio == Fraction(8, 5)
        assert entry.holds

    def test_all_four_seeds_hold_to_25(self):
        for seed in ((1, 1), (2, 1), (1, 2), (5, 3)):
            trace = check_prop21(TileCensus(*seed), 25)
            assert len(trace.entries) == 23
            assert trace.all_hold
            for entry in trace.entries:
                assert TileCensus(entry.kites, entry.darts) == substitution_counts(TileCensus(*seed), entry.n - 1)

    def test_gap_is_exact_golden_number(self):
        trace = check_prop21(TileCensus(1, 1), 4)
        gap = trace.entries[-1].gap
        assert isinstance(gap, GoldenNum)
        # |21/13 - phi| in exact arithmetic
        assert gap == abs(GoldenNum(Fraction(21, 13)) - PHI)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_prop21(TileCensus(0, 1), 10)
        with pytest.raises(ValueError):
            check_prop21(TileCensus(1, 0), 10)
        with pytest.raises(ValueError):
            check_prop21(TileCensus(1, 1), 2)


class TestDensity:
    def test_unit_psi(self):
        assert compute_rho(1.0) == pytest.approx(0.723606797749979, abs=1e-15)

    def test_identity(self):
        phi_sq = PHI_FLOAT**2
        for psi in (0.3, 1.0, 2.5):
            rho = compute_rho(psi)
            assert abs(rho * psi * (1 + phi_sq) - phi_sq) <= 1e-12

    def test_measured_tile_areas(self):
        assert dart_area() == pytest.approx(math.sin(math.radians(72)), abs=1e-14)
        assert kite_area() / dart_area() == pytest.approx(PHI_FLOAT, abs=1e-9)

    def test_tile_area_bits_are_pinned(self):
        # psi, rho and every report rest on these bits
        assert dart_area().hex() == "0x1.e6f0e134454fdp-1"
        assert kite_area().hex() == "0x1.89f188bdcd7aep+0"

    def test_measured_rho(self):
        model = default_density()
        assert model.rho == pytest.approx(0.7608452130361228, abs=1e-13)

    def test_invalid_model_rejected(self):
        good = default_density()
        with pytest.raises(ValueError):
            DensityModel(good.psi, good.rho * 1.001)

    def test_nonpositive_psi_rejected(self):
        with pytest.raises(ValueError):
            compute_rho(0.0)
        with pytest.raises(ValueError):
            compute_rho(-1.0)


class TestERho:
    def test_balanced_and_doubled(self):
        rho = default_density().rho
        assert e_rho(100, 100 / rho, rho) == pytest.approx(1.0, abs=1e-12)
        assert e_rho(200, 100 / rho, rho) == pytest.approx(2.0, abs=1e-12)

    def test_worked_example(self):
        value = e_rho(37, 49.0, 0.7608)
        assert value == pytest.approx(0.7608 * 49 / 37, abs=1e-12)
        assert value == pytest.approx(1.0075459459459459, abs=1e-12)

    def test_swap_symmetry(self):
        rho = 0.7
        a = e_rho(30, 100.0, rho)
        # swapping count with rho*area inverts both ratios, same max
        b = e_rho(70, 30 / rho, rho)
        assert a == pytest.approx(b, rel=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            count = int(rng.integers(1, 500))
            area = float(rng.uniform(0.5, 400.0))
            assert e_rho(count, area, 0.76) >= 1.0

    def test_empty_square_rejected(self):
        with pytest.raises(ValueError, match="empty square"):
            e_rho(0, 10.0, 0.76)

    @pytest.mark.parametrize("count, area, rho", [(1, -1.0, 1.0), (1, 0.0, 1.0), (1, 1.0, -1.0), (-1, 1.0, 1.0)])
    def test_negative_count_or_non_positive_area_or_rho_rejected(self, count, area, rho):
        with pytest.raises(ValueError, match="area, rho positive"):
            e_rho(count, area, rho)


class TestEstimateERho:
    def test_single_square_window_equals_direct(self, net64):
        patch, net = net64
        k, d = count_in_square(net, Square(0.0, 0.0, 64.0))
        direct = e_rho(k + d, 64.0 * 64.0, default_density().rho)
        assert build_report(net, 6, 6).rows[0].E_rho == direct

    def test_regression_values(self, net64):
        _, net = net64
        for i, expected in WINDOW64_E.items():
            assert build_report(net, i, i).rows[0].E_rho == pytest.approx(expected, rel=1e-12)

    def test_at_least_one(self, net64):
        _, net = net64
        row = build_report(net, 3, 3).rows[0]
        assert row.E_rho >= row.e_mean >= row.e_min >= 1.0

    def test_dominates_subsamples(self, net64):
        _, net = net64
        rho = default_density().rho
        E = build_report(net, 3, 3).rows[0].E_rho
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = (int(v) for v in rng.integers(0, 64 - 8 + 1, size=2))
            k, d = count_in_square(net, Square(float(a), float(b), 8.0))
            assert e_rho(k + d, 64.0, rho) <= E + 1e-15

    def test_window_too_small(self, net64):
        _, net = net64
        with pytest.raises(ValueError, match="side"):
            build_report(net, 7, 7)

    def test_empty_square_detected(self):
        lone = small_net([[0.25, 0.25]], Square(0.0, 0.0, 4.0))
        with pytest.raises(ValueError, match="empty square"):
            build_report(lone, 0, 0)

    def test_empty_square_found_by_the_scan(self):
        # one point in each corner cell: four points for the four squares of
        # side 2, and no margin, get past the refusal before the scan, which
        # finds [1, 3)**2 empty
        corners = small_net([[0.5, 0.5], [3.5, 0.5], [0.5, 3.5], [3.5, 3.5]], Square(0.0, 0.0, 4.0))
        grid = discrepancy._CountGrid(corners)
        assert grid.points == (grid.side // 2) ** 2 and grid.margin == 0
        with pytest.raises(ValueError, match=r"^empty square at i=1$"):
            build_report(corners, 1, 2)

    def test_non_integer_window_rejected(self):
        skew = small_net([[0.5, 0.5]], Square(0.25, 0.0, 4.0))
        with pytest.raises(ValueError, match="integer"):
            build_report(skew, 1, 1)


class TestProp22:
    def test_bound_values(self):
        assert ratio_bound(4) == pytest.approx(PHI_FLOAT ** (-4 / 3), abs=1e-15)
        assert ratio_bound(4) == pytest.approx(0.526, abs=5e-4)
        assert ratio_bound(9) == pytest.approx(0.2360679774997897, abs=1e-12)

    def test_check_on_window(self, net64):
        _, net = net64
        row = build_report(net, 4, 4).rows[0]
        assert row.ratio_bound == pytest.approx(PHI_FLOAT ** (-4 / 3), abs=1e-15)
        assert row.ratio_gap_max == pytest.approx(0.4626111725404276, rel=1e-12)
        assert row.ratio_holds
        assert row.squares_total == (64 - 16 + 1) ** 2
        assert row.squares_dart_free == 0
        worst = Square(float(row.E_argmax_x), float(row.E_argmax_y), float(row.side))
        k, d = count_in_square(net, worst)
        assert (k, d) == (row.E_argmax_kites, row.E_argmax_darts)

    def test_small_side_violates(self, net64):
        _, net = net64
        assert not build_report(net, 2, 2).rows[0].ratio_holds  # desk-scale: bound is asymptotic

    def test_fibonacci_square_gap(self):
        assert abs(13 / 8 - PHI_FLOAT) == pytest.approx(0.006966011250105, abs=1e-12)

    def test_dart_free_squares_skipped(self):
        xy = np.array([[0.5, 0.5], [2.5, 0.5], [2.6, 0.6], [1.5, 1.5]])
        kinds = np.array([HALF_DART, HALF_KITE, HALF_KITE, HALF_KITE])
        net = small_net(xy, Square(0.0, 0.0, 3.0), kinds)
        row = build_report(net, 1, 1).rows[0]
        assert row.squares_total == 4
        assert row.squares_dart_free == 3
        # only [0, 2)^2 holds a dart: one kite, one dart
        assert row.ratio_gap_max == pytest.approx(PHI_FLOAT - 1.0, abs=1e-15)

    def test_all_dart_free_gap_is_nan(self):
        xy = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        net = small_net(xy, Square(0.0, 0.0, 2.0))
        row = build_report(net, 0, 0).rows[0]
        assert row.squares_dart_free == row.squares_total == 4
        assert math.isnan(row.ratio_gap_max)
        assert row.ratio_holds is False


class TestProp23:
    def test_boundary_cases(self, net64):
        assert decay_bound(100) > 0.0
        assert 0.5 <= decay_bound(9)
        assert 0.5 > decay_bound(51)
        _, net = net64
        for row in build_report(net, 4, 5).rows:
            assert row.decay_bound == decay_bound(row.i)
            assert row.decay_holds

    def test_bound_formula(self):
        assert decay_bound(9) == pytest.approx(10 * PHI_FLOAT**-3, abs=1e-12)
        assert decay_bound(9) == pytest.approx(2.3606797749978967, abs=1e-12)


ORACLE_WINDOW = Square(-37.0, 21.0, 256.0)


@pytest.fixture(scope="module")
def patch256():
    return generate_patch_covering(ORACLE_WINDOW)


def supertiles(patch, half):
    """The supertile layer region_analysis rebuilds, half rounds above the tiles."""
    seed = covering_seed(patch)
    return deflate_patch(seed, -seed.scale_exp - half)


def square_in_triangle(square, tri, margin=0.0):
    """Whether the closed square sits inside the triangle with a safety margin.

    The scalar reference for ``tiling._corner_margins``: orientation comes
    from a float cross product and each corner is tested against each edge.
    """
    ax = np.asarray(tri, dtype=np.float64)
    ccw = (ax[1, 0] - ax[0, 0]) * (ax[2, 1] - ax[0, 1]) - (ax[1, 1] - ax[0, 1]) * (ax[2, 0] - ax[0, 0])
    order = ax if ccw >= 0 else ax[::-1]
    for corner in square.corners():
        for i in range(3):
            a = order[i]
            b = order[(i + 1) % 3]
            e = b - a
            d = (e[0] * (corner[1] - a[1]) - e[1] * (corner[0] - a[0])) / math.hypot(e[0], e[1])
            if d < margin:
                return False
    return True


def full_layer_region_analysis(monkeypatch, patch, square, layer=None, layer_emb=None):
    """region_analysis on the whole supertile layer: the reference for the pruned one.

    ``layer_emb``, when given, is ``layer.embedded()``, built once by the
    caller: region_analysis gets it in place of building and embedding the
    layer's vertices again.
    """
    with monkeypatch.context() as m:
        m.setattr(discrepancy, "_supertiles_near",
                  lambda patch, half, square: supertiles(patch, half) if layer is None else layer)
        if layer_emb is not None:
            build, embed = discrepancy._vertex_coords, discrepancy._embed
            m.setattr(discrepancy, "_vertex_coords",
                      lambda classes, apexes: layer if classes is layer.classes else build(classes, apexes))
            m.setattr(discrepancy, "_embed",
                      lambda coords, scale_exp=0: layer_emb if coords is layer else embed(coords, scale_exp))
        return region_analysis(patch, square)


def _segment_intersect(p1, p2, q1, q2, eps=1e-9):
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > eps:
            return 1
        if v < -eps:
            return -1
        return 0

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and on_seg(p1, p2, q1))
        or (o2 == 0 and on_seg(p1, p2, q2))
        or (o3 == 0 and on_seg(q1, q2, p1))
        or (o4 == 0 and on_seg(q1, q2, p2))
    )


def embedded_layer(tiles):
    """(vertices, bounding-box lower corners, upper corners) of a layer, embedded, for ``scalar_censuses``."""
    emb = tiles.embedded()
    return emb, emb.min(axis=1), emb.max(axis=1)


def scalar_censuses(tiles, square, eps=1e-9, layer=None):
    """Contained and intersecting censuses by per-tile scalar geometry.

    A tile meets the square when a vertex lies in it, a square corner lies
    in the tile, or two edges cross, each test closed with tolerance eps.
    ``layer`` is ``embedded_layer(tiles)``, built here when not given.
    """
    emb, bb_lo, bb_hi = embedded_layer(tiles) if layer is None else layer
    x1, y1, l = square
    x2, y2 = x1 + l, y1 + l
    inside = (
        (emb[:, :, 0] >= x1 - eps) & (emb[:, :, 0] <= x2 + eps)
        & (emb[:, :, 1] >= y1 - eps) & (emb[:, :, 1] <= y2 + eps)
    )
    contained = inside.all(axis=1)
    candidate = (
        (bb_lo[:, 0] <= x2 + eps) & (bb_hi[:, 0] >= x1 - eps)
        & (bb_lo[:, 1] <= y2 + eps) & (bb_hi[:, 1] >= y1 - eps)
    )
    corners = square.corners()
    sq_edges = [(corners[k], corners[(k + 1) % 4]) for k in range(4)]
    meets = contained.copy()
    for idx in np.flatnonzero(candidate & ~contained):
        tri = emb[idx]
        tri_edges = [(tri[k], tri[(k + 1) % 3]) for k in range(3)]
        meets[idx] = (
            inside[idx].any()
            or any(point_in_triangle(c, tri, eps) for c in corners)
            or any(_segment_intersect(*e1, *e2) for e1 in tri_edges for e2 in sq_edges)
        )

    def mask_census(mask):
        kites = int(np.count_nonzero(mask & (tiles.kinds == HALF_KITE)))
        return TileCensus(kites, int(np.count_nonzero(mask)) - kites)

    return mask_census(contained), mask_census(meets)


class TestRegionAnalysis:
    def test_side_sixteen_frame(self, net64):
        patch, _ = net64
        result = region_analysis(patch, Square(8.0, 8.0, 16.0))
        assert result.m == 5
        assert result.supertile_rounds == 2
        assert result.frame_a == pytest.approx(PHI_FLOAT**3, abs=1e-12)
        assert result.checks["contained_le_intersecting"]
        assert result.checks["v_le_square_le_w"]
        assert result.checks["frame_area"]
        assert result.checks["ratio_gap_in_bound"]

    def test_area_bracketing(self, net64):
        patch, _ = net64
        for l, x in ((8.0, 20.0), (16.0, 12.0), (32.0, 4.0)):
            result = region_analysis(patch, Square(x, x, l))
            assert result.contained_area <= l * l + 1e-6
            assert result.intersecting_area >= l * l - 1e-6
            assert result.intersecting_area - result.contained_area <= 8 * result.frame_a * l

    def test_refined_census_consistency(self, net64):
        patch, _ = net64
        result = region_analysis(patch, Square(8.0, 8.0, 16.0))
        # refined counts come from the exact recursion on the contained census
        assert result.refined == substitution_counts(
            result.contained, result.supertile_rounds
        )

    def test_transformed_covering_patch_is_refused(self):
        # the moved patch no longer matches its recorded seed placement, which
        # used to give empty censuses and failed checks without an error
        moved = generate_patch_covering(Square(0.0, 0.0, 32.0)).transformed(tenth_turns=5)
        with pytest.raises(ValueError, match="covering provenance"):
            region_analysis(moved, Square(-20.0, -20.0, 8.0))

    def test_requires_covering_provenance(self):
        plain = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-3), 3)
        with pytest.raises(ValueError, match="provenance"):
            region_analysis(plain, Square(0.0, 0.0, 1.0))

    def test_square_outside_rejected(self, net64):
        patch, _ = net64
        with pytest.raises(ValueError, match="exceeds"):
            region_analysis(patch, Square(1000.0, 1000.0, 8.0))

    PHI_POWERS = {k: PHI**k for k in range(1, 40)}

    @classmethod
    def quadratic_phi_log_floor(cls, l: Fraction) -> int:
        """The loop region_analysis used, which recomputed PHI ** (m + 1) on every step.

        The powers come from a table here, so the test stays quick; the
        comparisons are the same.
        """
        m = 0
        while (cls.PHI_POWERS[m + 1] - GoldenNum(l)).sign() <= 0:
            m += 1
        return m

    def test_phi_log_floor_matches_the_quadratic_loop(self):
        for l in range(1, 4097):
            assert discrepancy._phi_log_floor(Fraction(l)) == self.quadratic_phi_log_floor(Fraction(l)), l
        # rationals just below and just above phi**k: sqrt 5 lies in
        # [r, r + 10**-30] for r = isqrt(5 * 10**60) / 10**30
        r = Fraction(math.isqrt(5 * 10**60), 10**30)
        for k in range(1, 21):
            power = PHI**k  # a + b phi with b = F(k) > 0, and phi = (1 + sqrt 5) / 2
            a, b = power.a, power.b
            below = a + b * (1 + r) / 2
            above = a + b * (1 + r + Fraction(1, 10**30)) / 2
            assert (GoldenNum(below) - power).sign() < 0 < (GoldenNum(above) - power).sign()
            for l, m in ((below, k - 1), (above, k)):
                assert discrepancy._phi_log_floor(l) == self.quadratic_phi_log_floor(l) == m, (k, l)

    def test_tiny_side_rejected(self, net64):
        patch, _ = net64
        with pytest.raises(ValueError, match="side"):
            region_analysis(patch, Square(8.0, 8.0, 0.5))

    @pytest.mark.parametrize("half", [1, 2, 3, 4, 5])
    def test_chirality_is_embedded_orientation(self, patch256, half):
        # the separating-axis test takes each edge's inside from the chirality
        tiles = supertiles(patch256, half)
        emb = tiles.embedded()
        u, v = emb[:, 1] - emb[:, 0], emb[:, 2] - emb[:, 0]
        assert np.array_equal(np.sign(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]), tiles.chiralities)

    @pytest.mark.parametrize("half", [1, 2, 3, 4, 5])
    def test_censuses_match_scalar_oracle(self, patch256, half, monkeypatch):
        wx, wy, w = ORACLE_WINDOW
        sides = [l for l in range(1, int(w) + 1) if PHI_FLOAT ** (2 * half) <= l < PHI_FLOAT ** (2 * half + 2)]
        rng = np.random.default_rng(100 + half)
        squares = []
        for _ in range(40):
            l = int(rng.choice(sides))
            x, y = (int(v) for v in rng.integers(0, int(w) - l + 1, size=2))
            squares.append(Square(wx + x, wy + y, float(l)))
        # squares whose edges lie on the window's edges
        l = float(sides[-1])
        for x, y in ((0, 0), (w - l, 0), (0, w - l), (w - l, w - l)):
            squares.append(Square(wx + x, wy + y, l))
        # squares with a corner on a supertile vertex or edge, or 1e-7
        # beyond it, where the 1e-9 tolerance decides.  The layer's vertices
        # are embedded once, for the picks and for both oracles
        tiles = supertiles(patch256, half)
        layer = embedded_layer(tiles)
        emb = layer[0]
        inside = np.flatnonzero(((emb > (wx, wy)) & (emb < (wx + w, wy + w))).all(axis=(1, 2)))
        t = rng.choice(inside, 4, replace=False)
        k = rng.integers(0, 3, 4)
        points = np.concatenate([emb[t[:2], k[:2]], (emb[t[2:], k[2:]] + emb[t[2:], (k[2:] + 1) % 3]) / 2])
        l = float(sides[0])
        n_plain = len(squares)
        for vx, vy in points:
            for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                for shift in (0.0, 1e-7):
                    x = vx + sx * shift - (l if sx < 0 else 0.0)
                    y = vy + sy * shift - (l if sy < 0 else 0.0)
                    if wx <= x <= wx + w - l and wy <= y <= wy + w - l:
                        squares.append(Square(float(x), float(y), l))
        # l <= w/2, so every point fits at least one orientation
        assert len(squares) - n_plain >= 8
        for square in squares:
            result = region_analysis(patch256, square)
            assert result.supertile_rounds == half
            assert (result.contained, result.intersecting) == scalar_censuses(tiles, square, layer=layer), square
            assert result == full_layer_region_analysis(monkeypatch, patch256, square, tiles, emb), square

    @pytest.mark.parametrize("half", [0, 2, 4])
    def test_pruned_layer_is_the_full_layer_near_the_square(self, patch256, half):
        # exactly the supertiles whose bounding box meets the square grown by
        # 1 unit survive: none is lost and no other is kept
        square = Square(ORACLE_WINDOW.x + 61.0, ORACLE_WINDOW.y + 38.0, 47.0)
        near = discrepancy._supertiles_near(patch256, half, square)
        full = supertiles(patch256, half)
        bb_lo, bb_hi = _bounding_boxes(full.embedded())
        lo = np.array([square.x, square.y]) - 1.0
        hi = lo + square.side + 2.0
        meets = ((bb_lo <= hi) & (bb_hi >= lo)).all(axis=1)

        def rows(tiles, mask=slice(None)):
            return sorted(zip(tiles.kinds[mask].tolist(), tiles.chiralities[mask].tolist(),
                              tiles.coords[mask].reshape(-1, 12).tolist()))

        assert near.scale_exp == full.scale_exp == -half
        assert rows(near) == rows(full, meets)
        assert len(near) < len(full) / 4

    def test_half_dart_left_cover(self, monkeypatch):
        window = Square(5.0, -11.0, 64.0)
        patch = generate_patch_covering(window, HALF_DART, LEFT)
        assert (patch.provenance["seed_kind"], patch.provenance["seed_chirality"]) == ("half-dart", LEFT)
        rng = np.random.default_rng(17)
        squares = [window, Square(5.0, -11.0, 1.0), Square(68.0, 52.0, 1.0)]
        for l in (2, 5, 13, 32):
            x, y = (int(v) for v in rng.integers(0, int(window.side) - l + 1, size=2))
            squares.append(Square(window.x + x, window.y + y, float(l)))
        for square in squares:
            result = region_analysis(patch, square)
            assert result == full_layer_region_analysis(monkeypatch, patch, square), square
            tiles = supertiles(patch, result.supertile_rounds)
            assert (result.contained, result.intersecting) == scalar_censuses(tiles, square), square

    @pytest.mark.parametrize("kind, chirality", [(HALF_KITE, RIGHT), (HALF_DART, LEFT)])
    def test_square_flush_with_the_outline(self, monkeypatch, kind, chirality):
        # each square is pushed through one outline edge until a corner sits
        # 0.5e-9 outside it, which region_analysis's 1e-9 margin still accepts
        patch = generate_patch_covering(Square(0.0, 0.0, 64.0), kind, chirality)
        tri = embedded_outline(patch)
        if (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) < (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0]):
            tri = tri[::-1]
        l = 8.0
        start = tri.mean(axis=0) - l / 2
        flush = 0
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            e = (b - a) / np.hypot(*(b - a))
            outward = np.array([e[1], -e[0]])
            corners = start + np.array([(0, 0), (l, 0), (l, l), (0, l)])
            inside = ((corners - a) @ -outward).min()
            x, y = start + (inside + 0.5e-9) * outward
            square = Square(float(x), float(y), l)
            if not square_in_triangle(square, tri, margin=-1e-9):
                continue  # the push left the square through another edge
            assert not square_in_triangle(square, tri, margin=0.0)
            flush += 1
            result = region_analysis(patch, square)
            assert result == full_layer_region_analysis(monkeypatch, patch, square), square
            tiles = supertiles(patch, result.supertile_rounds)
            assert (result.contained, result.intersecting) == scalar_censuses(tiles, square), square
        assert flush >= 2


class TestCornerMargins:
    """``tiling._corner_margins`` decides as the scalar ``square_in_triangle`` does."""

    @staticmethod
    def probe_squares(tri, rng):
        """Squares through each edge, at each vertex, and at random, for outline ``tri``."""
        ccw = tri if (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) > (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0]) else tri[::-1]
        l = 4.0
        start = ccw.mean(axis=0) - l / 2
        offsets = np.array([(0, 0), (l, 0), (l, l), (0, l)])
        squares = []
        for k in range(3):
            a, b = ccw[k], ccw[(k + 1) % 3]
            e = (b - a) / np.hypot(*(b - a))
            outward = np.array([e[1], -e[0]])
            inside = ((start + offsets - a) @ -outward).min()
            # the deepest corner ends at distance d inside the edge (negative: outside)
            for d in (0.5, 0.25 + 1e-6, 0.25 - 1e-6, 1e-7, -1e-7, -0.5e-9, -1.5e-9, -0.5):
                x, y = start + (inside - d) * outward
                squares.append(Square(float(x), float(y), l))
        for vx, vy in ccw:
            for sx in (1, -1):
                for sy in (1, -1):
                    for shift in (0.0, 1e-7, -1e-7):
                        x = vx + sx * shift - (l if sx < 0 else 0.0)
                        y = vy + sy * shift - (l if sy < 0 else 0.0)
                        squares.append(Square(float(x), float(y), l))
        lo, hi = tri.min(axis=0), tri.max(axis=0)
        for _ in range(40):
            side = float(rng.uniform(0.5, 8.0))
            x, y = rng.uniform(lo, hi - side)
            squares.append(Square(float(x), float(y), side))
        return squares

    @pytest.mark.parametrize("kind", [HALF_KITE, HALF_DART])
    @pytest.mark.parametrize("chirality", [RIGHT, LEFT])
    def test_decisions_match_the_scalar_oracle(self, kind, chirality):
        patch = generate_patch_covering(Square(-3.0, 5.0, 16.0), kind, chirality)
        tri = embedded_outline(patch)
        chir = covering_seed(patch).chiralities
        squares = self.probe_squares(tri, np.random.default_rng(kind * 2 + (chirality > 0)))
        for margin in (0.25, 0.0, -1e-9):
            decisions = []
            for square in squares:
                margins = tiling._corner_margins(tri[None], chir, square)
                assert margins.shape == (1, 3, 4)
                inside = bool((margins >= margin).all())
                assert inside == square_in_triangle(square, tri, margin), (margin, square)
                decisions.append(inside)
            assert 0 < sum(decisions) < len(decisions)

    def test_distances_are_signed_by_chirality(self):
        # a counterclockwise unit right triangle and its mirror image
        ccw = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cw = ccw[::-1].copy()
        square = Square(0.25, 0.25, 0.25)
        margins = tiling._corner_margins(np.stack([ccw, cw]), np.array([RIGHT, LEFT]), square)
        corners = np.array(square.corners())
        to_hypotenuse = (1.0 - corners.sum(axis=1)) / math.sqrt(2.0)
        assert np.allclose(margins[0], [corners[:, 1], to_hypotenuse, corners[:, 0]], atol=1e-15)
        assert np.allclose(margins[1], [to_hypotenuse, corners[:, 1], corners[:, 0]], atol=1e-15)


class TestPartialProduct:
    def test_first_row_is_its_own_product(self, net64):
        _, net = net64
        row = build_report(net, 4, 5).rows[0]
        assert row.partial_product == row.E_rho
        assert row.partial_log_sum == row.E_rho - 1.0

    def test_worked_example(self, net64):
        _, net = net64
        report = build_report(net, 2, 5)
        assert report.product == pytest.approx(math.prod(r.E_rho for r in report.rows), rel=1e-15)
        assert report.log_sum == pytest.approx(sum(r.E_rho - 1.0 for r in report.rows), rel=1e-15)
        assert math.log(report.product) <= report.log_sum


class TestReport:
    def test_row_values_frozen(self, net64):
        _, net = net64
        report = build_report(net, 2, 5)
        assert report.i_min == 2 and report.i_max == 5
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.E_rho == pytest.approx(WINDOW64_E[row.i], rel=1e-12)
            assert row.decay_holds == (row.E_rho - 1 <= decay_bound(row.i))
            assert row.ratio_holds == (row.ratio_gap_max <= ratio_bound(row.i))
        assert report.product == pytest.approx(WINDOW64_PRODUCT, rel=1e-12)
        assert report.log_sum == pytest.approx(WINDOW64_LOG_SUM, rel=1e-12)

    @pytest.mark.parametrize("i_min, i_max", [(-1, 1), (-3, -1), (-1, 0)])
    def test_negative_i_min_rejected_before_any_grid(self, net64, monkeypatch, i_min, i_max):
        _, net = net64

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for a negative i_min")

        monkeypatch.setattr(discrepancy, "_CountGrid", no_grid)
        with pytest.raises(ValueError, match=f"i_min must be >= 0, got {i_min}"):
            build_report(net, i_min, i_max)

    def test_log_sum_is_prefix_sum(self, net64):
        _, net = net64
        report = build_report(net, 2, 5)
        running = 0.0
        for row in report.rows:
            running += row.E_rho - 1.0
            assert row.partial_log_sum == pytest.approx(running, rel=1e-12)

    def test_metadata(self, net64):
        _, net = net64
        report = build_report(net, 2, 3)
        assert report.net_points == len(net)
        assert report.kite_points + report.dart_points == len(net)
        assert report.rho == pytest.approx(default_density().rho, rel=1e-15)

    def test_csv_shape_and_determinism(self, net64, tmp_path):
        _, net = net64
        report = build_report(net, 2, 4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report_to_csv(report, str(p1))
        report_to_csv(build_report(net, 2, 4), str(p2))
        text = p1.read_text()
        assert text == p2.read_text()
        lines = text.splitlines()
        assert lines[0] == "i,statistic,value"
        assert len(lines) == 1 + 3 * 17
        assert lines[1].startswith("2,E_rho,")

    def test_json_document(self, net64, tmp_path):
        _, net = net64
        report = build_report(net, 2, 4)
        path = tmp_path / "r.json"
        report_to_json(report, str(path))
        doc = json.loads(path.read_text())
        assert doc["i_min"] == 2 and doc["i_max"] == 4
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["E_rho"] == pytest.approx(WINDOW64_E[2], rel=1e-11)
        assert doc["net_points"] == len(net)
        assert doc["rows"][0]["ratio_holds"] is False
        assert doc["rows"][2]["ratio_holds"] is True

    def test_invalid_range_rejected(self, net64):
        _, net = net64
        with pytest.raises(ValueError):
            build_report(net, 5, 2)
        with pytest.raises(ValueError, match="too small"):
            build_report(net, 4, 8)

    @staticmethod
    def moved(net, window):
        return Net(net.classes, net.ring, net.tile_ids, window)

    def test_windows_far_past_the_net_fail_in_order(self, net64):
        # no side**2 array is built: at side 1e10 it would need 1e20 cells
        _, net = net64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integer-cornered"):
                build_report(self.moved(net, Square(0.5, 0.0, 1e10)), 1, 2)
            with pytest.raises(ValueError, match="too small for squares of side 2199023255552"):
                build_report(self.moved(net, Square(0.0, 0.0, 1e10)), 1, 41)
            for window in (Square(0.0, 0.0, 1e10), Square(1e300, 0.0, 16.0), Square(0.0, -1e300, 1e300)):
                with pytest.raises(ValueError, match=r"^empty square at i=1$"):
                    build_report(self.moved(net, window), 1, 2)

    @pytest.mark.parametrize("window", [Square(-36.9999999999, 0.0, 64.0), Square(16.0, 16.0000000001, 32.0),
                                        Square(16.0, 16.0, 31.9999999999)])
    def test_window_a_hair_off_the_integers_is_refused(self, net64, window):
        # such a window was once counted from the nearest integers while the
        # report still named the window as given
        _, net = net64
        with pytest.raises(ValueError, match="integer-cornered"):
            build_report(self.moved(net, window), 1, 2)

    def test_point_count_refusal_is_the_scans_own(self, net64):
        # a window with fewer points than disjoint squares of side 2**i_min
        # is refused only where the scan itself finds an empty square
        _, net = net64
        rng = np.random.default_rng(23)
        refused = 0
        for _ in range(60):
            side = int(rng.integers(2, 65))
            x, y = (int(v) for v in rng.integers(-40, 80, size=2))
            i_min = int(rng.integers(0, side.bit_length()))
            window_net = self.moved(net, Square(float(x), float(y), float(side)))
            grid = discrepancy._CountGrid(window_net)
            assert grid.points == sum(count_in_square(window_net, window_net.window))
            if grid.points < (side // 2**i_min) ** 2:
                refused += 1
                kites, darts = grid.square_counts(2**i_min)
                assert (kites + darts).min() == 0
                with pytest.raises(ValueError, match=f"^empty square at i={i_min}$"):
                    build_report(window_net, i_min, i_min)
        assert 10 <= refused <= 50

    def test_margin_refusal_is_the_scans_own(self, net64):
        # a window with 2**i_min or more cells between one edge and the
        # points' cells is refused only where the scan itself finds an empty
        # square; most of these windows hold enough points not to be refused
        # by their point count
        _, net = net64
        rng = np.random.default_rng(29)
        refused = by_margin_only = 0
        for _ in range(60):
            side = int(rng.integers(2, 129))
            x, y = (int(v) for v in rng.integers(-60, 60, size=2))
            i_min = int(rng.integers(0, side.bit_length()))
            window_net = self.moved(net, Square(float(x), float(y), float(side)))
            grid = discrepancy._CountGrid(window_net)
            kites, darts = grid.square_counts(1)
            filled = np.argwhere(kites + darts)
            if len(filled):
                assert grid.margin == max(*filled.min(axis=0), *(side - 1 - filled.max(axis=0)))
            else:
                assert grid.margin == side
            if grid.margin >= 2**i_min:
                refused += 1
                by_margin_only += grid.points >= (side // 2**i_min) ** 2
                kites, darts = grid.square_counts(2**i_min)
                assert (kites + darts).min() == 0
                with pytest.raises(ValueError, match=f"^empty square at i={i_min}$"):
                    build_report(window_net, i_min, i_min)
        assert refused >= 10 and by_margin_only >= 3

    def test_huge_window_refused_before_the_cell_grid(self, monkeypatch):
        # the 8-round patch's 1324 points fill more than the 9 disjoint
        # squares of side 2**15 in this window, but leave most of it empty;
        # its cell grid would need 10**10 cells per kind
        net = extract_net(deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-8), 8),
                          Square(0.0, 0.0, 100000.0))
        monkeypatch.setattr(discrepancy._CountGrid, "_cums",
                            property(lambda grid: pytest.fail("cell grid built")))
        assert discrepancy._CountGrid(net).points >= 9
        with pytest.raises(ValueError, match=r"^empty square at i=15$"):
            build_report(net, 15, 16)


def test_certify_path_never_builds_the_patch_coordinates(monkeypatch):
    """generate, extract, report and region analysis work on classes and apexes alone.

    ``Patch.coords`` raises, and the vertex builder is only ever asked for
    the supertiles near one square, never for the patch's half-tiles.
    """
    patch = generate_patch_covering(Square(-3.0, 5.0, 64.0))
    asked, build = [], tiling._vertex_coords

    def few_only(classes, apexes):
        asked.append(len(classes))
        assert len(classes) < len(patch) // 20, "vertex coordinates built for the patch"
        return build(classes, apexes)

    monkeypatch.setattr(tiling.Patch, "coords", property(lambda self: pytest.fail("Patch.coords was built")))
    for module in (tiling, discrepancy):
        monkeypatch.setattr(module, "_vertex_coords", few_only)
    patch = generate_patch_covering(Square(-3.0, 5.0, 64.0))
    report = build_report(extract_net(patch), 2, 5)
    regions = [region_analysis(patch, Square(row.E_argmax_x, row.E_argmax_y, row.side)) for row in report.rows]
    assert len(regions) == 4 and len(asked) == 4 and all(region.intersecting.total() for region in regions)
