"""Exact arithmetic in the golden field Q(phi) and the cyclotomic ring Z[zeta].

`GoldenNum` is a number a + b*phi with rational a, b, reduced by the identity
phi**2 = phi + 1.  `CycloPoint` is a planar point written as an integer
combination of fifth roots of unity, c0 + c1*zeta + c2*zeta**2 + c3*zeta**3
with zeta = exp(2*pi*i/5); the basis is closed under the tile operations
because zeta**4 = -(1 + zeta + zeta**2 + zeta**3).

All predicates (comparison, orientation, lengths) are decided exactly.
The float constants at the bottom feed ``tiling._embed``, the one map from
ring points to R**2 for rendering and statistics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

Rational = int | Fraction

_HALF = Fraction(1, 2)


@total_ordering
class GoldenNum:
    """Element a + b*phi of Q(phi).

    Stored as integers (a + b*phi)/d, normalised so that d > 0 and
    gcd(a, b, d) = 1; equal values therefore have equal triples.  Every
    operation builds its result through ``_of``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)  # of lowest terms, so already normalised
        self._a, self._b, self._d = a.numerator * d // a.denominator, b.numerator * d // b.denominator, d

    @classmethod
    def _of(cls, a: int, b: int, d: int) -> "GoldenNum":
        """(a + b*phi)/d for integers with d != 0, normalised."""
        g = gcd(a, b, d) if d > 0 else -gcd(a, b, d)
        x = object.__new__(cls)
        x._a, x._b, x._d = a // g, b // g, d // g
        return x

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(x: object) -> "GoldenNum | None":
        if isinstance(x, GoldenNum):
            return x
        if isinstance(x, (int, Fraction)):
            return GoldenNum._of(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other: object) -> "GoldenNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNum._of(self._a * o._d + o._a * self._d, self._b * o._d + o._b * self._d, self._d * o._d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GoldenNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNum._of(self._a * o._d - o._a * self._d, self._b * o._d - o._b * self._d, self._d * o._d)

    def __rsub__(self, other: object) -> "GoldenNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GoldenNum":
        return GoldenNum._of(-self._a, -self._b, self._d)

    def __mul__(self, other: object) -> "GoldenNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 phi)(a2 + b2 phi) with phi**2 = phi + 1
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return GoldenNum._of(a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2, self._d * o._d)

    __rmul__ = __mul__

    def conjugate(self) -> "GoldenNum":
        """Galois conjugate, phi -> 1 - phi (the other root of x**2 = x + 1)."""
        return GoldenNum._of(self._a + self._b, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm self * self.conjugate(), a rational number."""
        a, b = self._a, self._b
        return Fraction(a * a + a * b - b * b, self._d * self._d)

    def inverse(self) -> "GoldenNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(phi)")
        return self.conjugate() * (1 / n)

    def __truediv__(self, other: object) -> "GoldenNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "GoldenNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "GoldenNum":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        result = GoldenNum(1)
        for _ in range(abs(k)):
            result = result * base
        return result

    def sign(self) -> int:
        """Exact sign of a + b*phi, computed without floating point.

        Writes the value as (u + v*sqrt(5))/(2d) with u = 2a + b, v = b and
        compares u**2 against 5*v**2 when the two terms disagree in sign.
        """
        u = 2 * self._a + self._b
        v = self._b
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        if u > 0:  # v < 0
            return 1 if u * u > 5 * v * v else -1
        return 1 if 5 * v * v > u * u else -1  # u < 0 < v

    def __abs__(self) -> "GoldenNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        # a rational value hashes as the int or Fraction it equals
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __float__(self) -> float:
        return self._a / self._d + self._b / self._d * PHI_FLOAT

    def __repr__(self) -> str:
        return f"GoldenNum({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*phi"


PHI = GoldenNum(0, 1)
INV_PHI = GoldenNum(-1, 1)  # 1/phi = phi - 1

# cos(72 deg) = (phi - 1)/2 and cos(144 deg) = -phi/2; the sine analogue is
# sin(144 deg) = sin(72 deg)/phi.  These drive the exact dot/cross products.
_COS72 = GoldenNum(-_HALF, _HALF)
_COS144 = GoldenNum(0, -_HALF)


class CycloPoint:
    """Planar point with integer coordinates over {1, zeta, zeta**2, zeta**3}."""

    __slots__ = ("_c",)

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0, c3: int = 0) -> None:
        for c in (c0, c1, c2, c3):
            if not isinstance(c, int):
                raise TypeError(f"CycloPoint coefficients must be ints, got {c!r}")
        self._c = (c0, c1, c2, c3)

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return self._c

    @classmethod
    def zeta(cls, k: int = 1) -> "CycloPoint":
        """The fifth root of unity zeta**k."""
        k %= 5
        if k < 4:
            coeffs = [0, 0, 0, 0]
            coeffs[k] = 1
            return cls(*coeffs)
        return cls(-1, -1, -1, -1)  # zeta**4

    @classmethod
    def tenth_root(cls, k: int = 1) -> "CycloPoint":
        """The tenth root of unity exp(i*k*36 deg) = (-zeta**3)**k."""
        return cls.zeta(3 * k) * (-1) ** (k % 2)

    def __add__(self, other: "CycloPoint") -> "CycloPoint":
        if not isinstance(other, CycloPoint):
            return NotImplemented
        a, b = self._c, other._c
        return CycloPoint(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, other: "CycloPoint") -> "CycloPoint":
        if not isinstance(other, CycloPoint):
            return NotImplemented
        a, b = self._c, other._c
        return CycloPoint(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __neg__(self) -> "CycloPoint":
        return CycloPoint(*(-c for c in self._c))

    def __mul__(self, other: "CycloPoint | int") -> "CycloPoint":
        if isinstance(other, int):
            return CycloPoint(*(c * other for c in self._c))
        if not isinstance(other, CycloPoint):
            return NotImplemented
        raw = [0] * 7
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    raw[i + j] += a * b
        # fold zeta**5 = 1, then substitute zeta**4 = -(1+zeta+zeta**2+zeta**3)
        k4 = raw[4]
        return CycloPoint(
            raw[0] + raw[5] - k4,
            raw[1] + raw[6] - k4,
            raw[2] - k4,
            raw[3] - k4,
        )

    def __rmul__(self, other: int) -> "CycloPoint":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def times_inv_phi(self) -> "CycloPoint":
        """Scale by 1/phi = zeta + zeta**4, staying in the ring."""
        return self * _INV_PHI_RING

    def conj(self) -> "CycloPoint":
        """Complex conjugate (mirror across the real axis)."""
        c = self._c
        return CycloPoint(c[0] - c[1], -c[1], c[3] - c[1], c[2] - c[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloPoint):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return self._c != (0, 0, 0, 0)

    def __repr__(self) -> str:
        return f"CycloPoint{self._c}"


_PHI_RING = CycloPoint(0, 0, -1, -1)
_INV_PHI_RING = CycloPoint(-1, 0, -1, -1)


def _mul_table(m: CycloPoint) -> tuple[tuple[int, int, int, int], ...]:
    """Coefficient matrix of multiplication by ``m`` on coefficient row
    vectors: row i is the image of basis element zeta**i."""
    return tuple((CycloPoint.zeta(i) * m).coeffs for i in range(4))


# Multiplication by phi, 1/phi and the 36-degree rotation -zeta**3; the
# vectorized tiling code lifts these to numpy.
MUL_BY_PHI = _mul_table(_PHI_RING)
MUL_BY_INV_PHI = _mul_table(_INV_PHI_RING)
MUL_BY_OMEGA = _mul_table(CycloPoint.tenth_root(1))


def dot(p: CycloPoint, q: CycloPoint) -> GoldenNum:
    """Exact Euclidean dot product of two ring points, an element of Q(phi).

    It is the real part of p * conj(q); the real parts of 1, zeta, zeta**2
    and zeta**3 are 1, (phi-1)/2, -phi/2 and -phi/2.
    """
    c0, c1, c2, c3 = (p * q.conj()).coeffs
    return c0 + _COS72 * c1 + _COS144 * (c2 + c3)


def cross_s72(p: CycloPoint, q: CycloPoint) -> GoldenNum:
    """Exact cross product p x q divided by sin(72 deg).

    It is the imaginary part of conj(p) * q over sin(72 deg); for 1, zeta,
    zeta**2 and zeta**3 that is 0, 1, 1/phi and -1/phi.  The quotient lies in
    Q(phi) and has the sign of the cross product.
    """
    _, c1, c2, c3 = (p.conj() * q).coeffs
    return c1 + INV_PHI * (c2 - c3)


def squared_length(p: CycloPoint) -> GoldenNum:
    """Exact squared Euclidean length of a ring point."""
    return dot(p, p)


def orientation(a: CycloPoint, b: CycloPoint, c: CycloPoint) -> int:
    """Exact orientation of the triangle (a, b, c): +1 ccw, -1 cw, 0 degenerate."""
    return cross_s72(b - a, c - a).sign()


# Embedding constants, frozen from a 50-digit evaluation of cos/sin(72k deg).
PHI_FLOAT = float("1.6180339887498948482045868343656381177")
SIN72 = float("0.95105651629515357211643933337938214341")
SIN36 = float("0.5877852522924731291687059546390727686")
EMBED_COS = (
    1.0,
    float("0.30901699437494742410229341718281905886"),
    float("-0.80901699437494742410229341718281905886"),
    float("-0.80901699437494742410229341718281905886"),
)
EMBED_SIN = (
    0.0,
    SIN72,
    SIN36,
    float("-0.5877852522924731291687059546390727686"),
)

