"""Exact arithmetic in the golden field and the cyclotomic ring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penrosenet.golden import (
    MUL_BY_INV_PHI,
    MUL_BY_OMEGA,
    MUL_BY_PHI,
    CycloPoint,
    GoldenNum,
    INV_PHI,
    PHI,
    PHI_FLOAT,
    SIN36,
    SIN72,
    cross_s72,
    dot,
    orientation,
    squared_length,
)
from test_tiling import embed, times_phi

small = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
goldens = st.builds(GoldenNum, small, small)
coeff = st.integers(-10**6, 10**6)
ring_points = st.builds(CycloPoint, coeff, coeff, coeff, coeff)


def lag_sums(p: CycloPoint, q: CycloPoint) -> list[int]:
    """s[t + 3] = sum of u_j * v_k over k - j = t, for t = -3..3."""
    s = [0] * 7
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            s[k - j + 3] += a * b
    return s


def lag_sum_dot(p: CycloPoint, q: CycloPoint) -> GoldenNum:
    """The dot product expanded over cos(72 deg * lag), as first written."""
    s = lag_sums(p, q)
    cos72, cos144 = GoldenNum(-Fraction(1, 2), Fraction(1, 2)), GoldenNum(0, -Fraction(1, 2))
    return GoldenNum(s[3]) + cos72 * (s[2] + s[4]) + cos144 * (s[0] + s[1] + s[5] + s[6])


def lag_sum_cross(p: CycloPoint, q: CycloPoint) -> GoldenNum:
    """The cross product over sin(72 deg), expanded over sin(72 deg * lag)."""
    s = lag_sums(p, q)
    return GoldenNum(s[4] - s[2]) + INV_PHI * (s[5] - s[1]) - INV_PHI * (s[6] - s[0])


# the multiplication tables as first typed by hand: row i is the image of zeta**i
TYPED_MUL_BY_PHI = ((0, 0, -1, -1), (1, 1, 1, 0), (0, 1, 1, 1), (-1, -1, 0, 0))
TYPED_MUL_BY_INV_PHI = ((-1, 0, -1, -1), (1, 0, 1, 0), (0, 1, 0, 1), (-1, -1, 0, -1))
TYPED_MUL_BY_OMEGA = ((0, 0, 0, -1), (1, 1, 1, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


class TestGoldenField:
    def test_phi_squared_is_phi_plus_one(self):
        assert PHI * PHI == PHI + 1

    def test_inverse_phi(self):
        assert INV_PHI == GoldenNum(-1, 1)
        assert INV_PHI * PHI == GoldenNum(1)

    def test_worked_square(self):
        assert (1 + PHI) * (1 + PHI) == GoldenNum(2, 3)

    def test_integer_on_the_left(self):
        assert 2 / PHI == 2 * INV_PHI
        assert 3 * CycloPoint(1, 0, 0, 0) == CycloPoint(3, 0, 0, 0)

    @pytest.mark.parametrize("operate", [
        lambda x: x + 1.5, lambda x: 1.5 + x, lambda x: x * 1.5, lambda x: 1.5 * x, lambda x: x < 1.5,
    ], ids=["add", "radd", "mul", "rmul", "lt"])
    @pytest.mark.parametrize("x", [PHI, CycloPoint(1, 0, 0, 0)], ids=["golden", "cyclo"])
    def test_a_float_operand_is_refused(self, operate, x):
        with pytest.raises(TypeError):
            operate(x)

    def test_pow_negative(self):
        assert PHI**-1 == INV_PHI
        assert PHI**-3 * PHI**3 == GoldenNum(1)
        assert PHI**0 == GoldenNum(1)

    def test_norm_and_conjugate(self):
        x = GoldenNum(Fraction(3, 2), Fraction(-5, 7))
        assert x * x.conjugate() == GoldenNum(x.norm())
        assert PHI.conjugate() == GoldenNum(1) - PHI

    def test_sign_without_floats(self):
        assert GoldenNum(-8, 5).sign() == 1  # 5*phi = 8.09 > 8
        assert GoldenNum(8, -5).sign() == -1
        assert GoldenNum(13, -8).sign() == 1  # 8*phi = 12.94 < 13
        assert GoldenNum(-13, 8).sign() == -1
        assert GoldenNum(0).sign() == 0
        assert (PHI - PHI).sign() == 0

    def test_compare_tight_rationals(self):
        # consecutive Fibonacci ratios straddle phi: F(30)/F(29) below,
        # F(31)/F(30) above, both within 4e-12 of it
        assert PHI > GoldenNum(Fraction(832040, 514229))
        assert PHI < GoldenNum(Fraction(1346269, 832040))

    def test_float_embedding(self):
        assert abs(float(PHI) - PHI_FLOAT) < 1e-15
        assert abs(PHI_FLOAT - (1 + math.sqrt(5)) / 2) < 1e-15

    @given(goldens, goldens, goldens)
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    @given(goldens, goldens)
    @settings(max_examples=150, deadline=None)
    def test_order_consistent_with_floats(self, a, b):
        cmp = (a > b) - (a < b)
        assert (cmp == 0) == (a == b)
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9:
            assert cmp == (1 if fa > fb else -1)

    @given(goldens)
    @settings(max_examples=100, deadline=None)
    def test_multiplicative_inverse(self, a):
        if a.sign() != 0:
            assert a * a.inverse() == GoldenNum(1)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            GoldenNum(0).inverse()

    @given(goldens, goldens, small, st.integers(-5, 5).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_equal_values_share_one_normalised_triple_and_hash(self, x, y, r, k):
        a, b, d = x._a, x._b, x._d
        assert d > 0 and math.gcd(a, b, d) == 1
        ways = [
            GoldenNum(x.a, x.b), GoldenNum(x.a) + GoldenNum(x.b) * PHI, GoldenNum._of(a * k, b * k, d * k),
            x + y - y, (x - y) + y, x + r - r, -(-x), x.conjugate().conjugate(), x * 1, x / 1,
        ]
        if y.sign():
            ways += [x * y / y, (x / y) * y, y * x * y.inverse()]
        for z in ways:
            assert (z._a, z._b, z._d) == (a, b, d)
            assert z == x and hash(z) == hash(x)

    def test_rational_values_hash_as_the_rational(self):
        assert len({GoldenNum(3), 3}) == 1
        assert len({GoldenNum(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert {3: "x"}[GoldenNum(3)] == "x"
        assert {Fraction(-7, 3): "y"}[GoldenNum(Fraction(-14, 6))] == "y"
        assert len({GoldenNum(0), 0, GoldenNum(0, 0), Fraction(0)}) == 1
        assert len({PHI, PHI + 0, GoldenNum(1, 1) - 1, 1}) == 2

    @given(small)
    @settings(max_examples=100, deadline=None)
    def test_rational_hash_agrees_with_fraction(self, r):
        assert hash(GoldenNum(r)) == hash(r)
        assert {r: 1}[GoldenNum(r)] == 1

    def test_public_surface_is_rational(self):
        x = GoldenNum(Fraction(6, 4), -3)
        assert (x.a, x.b, x.norm()) == (Fraction(3, 2), Fraction(-3), Fraction(9, 4) - Fraction(9, 2) - 9)
        assert all(type(v) is Fraction for v in (x.a, x.b, x.norm(), PHI.a, PHI.norm()))
        assert repr(x) == "GoldenNum(Fraction(3, 2), Fraction(-3, 1))"
        assert str(x) == "3/2 + -3*phi"
        assert x == GoldenNum(Fraction(3, 2), Fraction(-3)) and GoldenNum(2) == 2 == GoldenNum(Fraction(4, 2))
        assert GoldenNum(Fraction(1, 2)) == Fraction(1, 2) and Fraction(1, 2) == GoldenNum(Fraction(1, 2))

    def test_sign_of_fibonacci_ratios_against_an_integer_oracle(self):
        # p/q - phi = (2p - q - q sqrt 5) / 2q, so its sign is that of 2p - q
        # against q sqrt 5, decided in integers
        q, p = 1, 1  # F(n), F(n + 1) for n = 1
        for n in range(1, 301):
            u = 2 * p - q
            oracle = -1 if u <= 0 else (1 if u * u > 5 * q * q else -1)
            ratio = GoldenNum(Fraction(p, q))
            assert (ratio - PHI).sign() == (ratio > PHI) - (ratio < PHI) == oracle == (-1) ** n, n
            q, p = p, p + q


class TestCycloPoint:
    def test_zeta_five_is_one(self):
        z = CycloPoint.zeta(1)
        p = CycloPoint(1, 0, 0, 0)
        for _ in range(5):
            p = p * z
        assert p == CycloPoint(1, 0, 0, 0)

    def test_tenth_root_order(self):
        w = CycloPoint.tenth_root(1)
        p = CycloPoint(1, 0, 0, 0)
        seen = []
        for _ in range(10):
            p = p * w
            seen.append(p)
        assert seen[-1] == CycloPoint(1, 0, 0, 0)
        assert len(set(seen)) == 10

    def test_rotation_is_multiplication(self):
        p = CycloPoint(3, -2, 5, 7)
        z = CycloPoint.zeta(1)
        q = p
        for k in range(1, 6):
            q = q * z
            assert q == p * CycloPoint.zeta(k)

    def test_powers_against_repeated_products(self):
        # negative k too: (-1) ** k would be a float there
        p = CycloPoint(3, -2, 5, 7)
        for k in range(-25, 26):
            # |k|-fold products of zeta and of omega, or of their inverses
            # (a root of unity's inverse is its conjugate)
            z, w = CycloPoint.zeta(1), CycloPoint.tenth_root(1)
            if k < 0:
                z, w = z.conj(), w.conj()
            zk, wk = CycloPoint(1), CycloPoint(1)
            for _ in range(abs(k)):
                zk, wk = zk * z, wk * w
            assert CycloPoint.tenth_root(k) == wk, k
            assert p * CycloPoint.zeta(k) == p * zk, k
            assert all(type(c) is int for c in CycloPoint.tenth_root(k).coeffs + CycloPoint.zeta(k).coeffs)

    def test_multiplication_tables_against_the_typed_ones(self):
        assert MUL_BY_PHI == TYPED_MUL_BY_PHI
        assert MUL_BY_INV_PHI == TYPED_MUL_BY_INV_PHI
        assert MUL_BY_OMEGA == TYPED_MUL_BY_OMEGA
        assert all(type(c) is int for table in (MUL_BY_PHI, MUL_BY_INV_PHI, MUL_BY_OMEGA)
                   for row in table for c in row)

    @given(ring_points)
    @settings(max_examples=100, deadline=None)
    def test_multiplication_tables_act_as_ring_products(self, p):
        for table, m in ((TYPED_MUL_BY_PHI, times_phi(p)), (TYPED_MUL_BY_INV_PHI, p.times_inv_phi()),
                         (TYPED_MUL_BY_OMEGA, p * CycloPoint.tenth_root(1))):
            image = tuple(sum(c * row[j] for c, row in zip(p.coeffs, table)) for j in range(4))
            assert image == m.coeffs

    def test_tenth_root_rotates_embedding(self):
        p = CycloPoint(3, -2, 5, 7)
        x, y = embed(p)
        c, s = math.cos(math.pi / 5), math.sin(math.pi / 5)
        rx, ry = embed(p * CycloPoint.tenth_root(1))
        assert abs(rx - (c * x - s * y)) < 1e-12
        assert abs(ry - (s * x + c * y)) < 1e-12

    def test_rotation_preserves_length(self):
        p = CycloPoint(2, -1, 3, 0)
        l0 = squared_length(p)
        for k in range(10):
            assert squared_length(p * CycloPoint.zeta(k)) == l0

    def test_phi_scaling(self):
        p = CycloPoint(4, -3, 2, 1)
        assert times_phi(p).times_inv_phi() == p
        # multiplying by phi = zeta + zeta^4 + 1? no: check against embedding
        x0, y0 = embed(p)
        x1, y1 = embed(times_phi(p))
        assert abs(x1 - PHI_FLOAT * x0) < 1e-12
        assert abs(y1 - PHI_FLOAT * y0) < 1e-12

    def test_embed_unit_vectors(self):
        x, y = embed(CycloPoint.zeta(1))
        assert abs(x - math.cos(2 * math.pi / 5)) < 1e-12
        assert abs(y - math.sin(2 * math.pi / 5)) < 1e-12
        x, y = embed(CycloPoint.tenth_root(1))
        assert abs(x - math.cos(math.pi / 5)) < 1e-12
        assert abs(y - math.sin(math.pi / 5)) < 1e-12

    def test_embed_scale_exp(self):
        p = CycloPoint(1, 1, 0, -2)
        x0, y0 = embed(p)
        x2, y2 = embed(p, scale_exp=2)
        assert abs(x2 - x0 / PHI_FLOAT**2) < 1e-12
        assert abs(y2 - y0 / PHI_FLOAT**2) < 1e-12

    def test_conj_mirrors_embedding(self):
        p = CycloPoint(3, 1, -4, 2)
        x, y = embed(p)
        cx, cy = embed(p.conj())
        assert abs(cx - x) < 1e-12
        assert abs(cy + y) < 1e-12

    def test_repr(self):
        assert repr(CycloPoint(1, 2, 3, 4)) == "CycloPoint(1, 2, 3, 4)"

    def test_integer_coeffs_required(self):
        with pytest.raises(TypeError):
            CycloPoint(1.5, 0, 0, 0)


class TestPredicates:
    def test_dot_matches_floats(self):
        import itertools

        pts = [CycloPoint(a, b, c, d)
               for a, b, c, d in itertools.product((-2, 0, 1, 3), repeat=4)]
        for p in pts[:40]:
            for q in pts[40:80]:
                exact = float(dot(p, q))
                px, py = embed(p)
                qx, qy = embed(q)
                assert abs(exact - (px * qx + py * qy)) < 1e-9

    def test_cross_matches_floats(self):
        rngpts = [CycloPoint(1, 2, -1, 0), CycloPoint(0, -3, 2, 5),
                  CycloPoint(-4, 1, 1, 1), CycloPoint(2, 0, 0, -3)]
        for p in rngpts:
            for q in rngpts:
                px, py = embed(p)
                qx, qy = embed(q)
                want = px * qy - py * qx
                got = float(cross_s72(p, q)) * SIN72
                assert abs(want - got) < 1e-9

    @given(ring_points, ring_points)
    @settings(max_examples=200, deadline=None)
    def test_dot_and_cross_against_the_lag_sums(self, p, q):
        assert dot(p, q) == lag_sum_dot(p, q)
        assert cross_s72(p, q) == lag_sum_cross(p, q)
        assert squared_length(p) == lag_sum_dot(p, p)

    def test_orientation_sign(self):
        a = CycloPoint(1, 0, 0, 0)
        b = CycloPoint.zeta(1)
        assert orientation(CycloPoint(0, 0, 0, 0), a, b) == 1
        assert orientation(CycloPoint(0, 0, 0, 0), b, a) == -1
        assert orientation(CycloPoint(0, 0, 0, 0), a, a + a) == 0

    def test_squared_length_golden(self):
        w = CycloPoint.tenth_root(1)
        one = CycloPoint(1, 0, 0, 0)
        diag = one + w  # length 2cos(18)... check via floats
        x, y = embed(diag)
        assert abs(float(squared_length(diag)) - (x * x + y * y)) < 1e-9

    def test_frozen_constants(self):
        assert abs(SIN72 - math.sin(math.radians(72))) < 1e-15
        assert abs(SIN36 - math.sin(math.radians(36))) < 1e-15
