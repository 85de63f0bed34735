"""Density and ratio statistics of net points in aligned squares.

The kite/dart count ratio of a deflated patch obeys the exact recursion
K' = 2K + D, D' = K + D, whose normalized form is the contraction
f(x) = (2x+1)/(x+1) with fixed point phi.  For a net of density rho, the
discrepancy of a square U is e_rho(U) = max(rho|U|/count, count/(rho|U|)),
and E_rho(2^i) is the sup of e_rho over integer-corner squares of side 2^i.
This module computes exact ratio traces and analyses the supertile frame
areas behind the phi^(-i/3) ratio and 10*phi^(-i/3) decay bounds.

``build_report`` is the single square-count engine: one prefix-sum pass
enumerates every integer-corner square inside a net's window (an explicit
lower bound for the true sup) and gives, per side 2^i, E_rho, the worst
kite/dart ratio gap, both bound checks, and the running partial products
whose convergence is the biLipschitz criterion for the net.
``region_analysis`` deflates only the supertiles near a square, dropping
after every round the tiles whose bounding box misses it by more than one
unit, and decides which survivors meet the square by a float
separating-axis test with a 1e-9 tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .golden import GoldenNum, PHI, PHI_FLOAT
from .net import Net
from .tiling import (
    HALF_DART,
    HALF_KITE,
    Patch,
    Square,
    TileCensus,
    _SEED_GEOMETRY,
    _bounding_boxes,
    _corner_margins,
    _deflate_rounds,
    _embed,
    _vertex_coords,
    covering_seed,
    embedded_outline,
    substitution_counts,
)

__all__ = [
    "DensityModel",
    "DiscrepancyReport",
    "RatioEntry",
    "RatioTrace",
    "RegionCounts",
    "ReportRow",
    "build_report",
    "check_prop21",
    "compute_rho",
    "dart_area",
    "decay_bound",
    "default_density",
    "e_rho",
    "iterate_ratio_map",
    "kite_area",
    "ratio_bound",
    "ratio_map",
    "region_analysis",
    "report_to_csv",
    "report_to_json",
]


def ratio_map(x):
    """The contraction f(x) = (2x+1)/(x+1), exact.

    A GoldenNum stays a GoldenNum; any other real becomes the Fraction it
    equals exactly (a float's binary value), and NaN or inf raise.
    """
    if isinstance(x, GoldenNum):
        if x < 0:
            raise ValueError("ratio_map requires x >= 0")
        return (2 * x + 1) / (x + 1)
    p, q = Fraction(x).as_integer_ratio()
    if p < 0:
        raise ValueError("ratio_map requires x >= 0")
    # f(p/q) = (2p + q)/(p + q): one Fraction in place of four Fraction operations
    return Fraction(2 * p + q, p + q)


def iterate_ratio_map(x0, n: int) -> list:
    """Exact iterates [x0, f(x0), ..., f^n(x0)] with gap certificates.

    Requires 1 <= x0 <= 2; verifies |f^k(x0) - phi| <= 4^(-k) exactly at
    every step (the contraction constant is 1/4 and |x0 - phi| <= 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = x0 if isinstance(x0, GoldenNum) else Fraction(x0)
    if x < 1 or x > 2:
        raise ValueError("x0 must lie in [1, 2]")
    values = [x]
    for k in range(1, n + 1):
        x = ratio_map(x)
        values.append(x)
        if abs(PHI - x) > Fraction(1, 4**k):
            raise ArithmeticError(f"contraction bound violated at step {k}")
    return values


class RatioEntry(NamedTuple):
    n: int
    kites: int
    darts: int
    ratio: Fraction
    gap: GoldenNum
    bound: Fraction
    holds: bool


@dataclass(frozen=True)
class RatioTrace:
    """Exact |K_n/D_n - phi| <= 1/2^(n-1) certificates for a census seed."""

    seed: TileCensus
    entries: tuple[RatioEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)


def check_prop21(seed: TileCensus, n_max: int = 25) -> RatioTrace:
    """Exact ratio-gap check for 3 <= n <= n_max from a generation-1 census.

    The seed census is the n = 1 row; row n uses n - 1 recursion steps.
    Requires at least one tile of each kind so every ratio is defined.
    """
    if seed.kites < 1 or seed.darts < 1:
        raise ValueError("seed census must have at least one half-kite and one half-dart")
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    entries = []
    counts = substitution_counts(seed, 1)
    for n in range(3, n_max + 1):
        counts = substitution_counts(counts, 1)
        ratio = Fraction(counts.kites, counts.darts)
        gap = abs(GoldenNum(ratio) - PHI)
        bound = Fraction(1, 2 ** (n - 1))
        holds = gap <= bound
        entries.append(RatioEntry(n, counts.kites, counts.darts, ratio, gap, bound, holds))
    return RatioTrace(seed, tuple(entries))


def dart_area() -> float:
    """Area of the full dart: twice that of the embedded unit seed half."""
    return 2.0 * _SEED_GEOMETRY[HALF_DART][2]


def kite_area() -> float:
    """Area of the full kite: twice that of the embedded unit seed half."""
    return 2.0 * _SEED_GEOMETRY[HALF_KITE][2]


def compute_rho(psi: float) -> float:
    """Net point density phi**2 / ((1 + phi**2) * psi) for dart area psi."""
    if psi <= 0:
        raise ValueError("psi must be positive")
    phi_sq = PHI_FLOAT * PHI_FLOAT
    return phi_sq / ((1.0 + phi_sq) * psi)


@dataclass(frozen=True)
class DensityModel:
    """Dart area psi and the implied point density rho."""

    psi: float
    rho: float

    def __post_init__(self) -> None:
        phi_sq = PHI_FLOAT * PHI_FLOAT
        if abs(self.rho * self.psi * (1.0 + phi_sq) - phi_sq) > 1e-12 * phi_sq:
            raise ValueError("rho, psi violate rho*psi*(1+phi^2) = phi^2")


def default_density() -> DensityModel:
    """The density model measured from the exact unit dart."""
    psi = dart_area()
    return DensityModel(psi, compute_rho(psi))


def e_rho(count: int, area: float, rho: float) -> float:
    """Discrepancy max(rho*area/count, count/(rho*area)) of one square."""
    if count == 0:
        raise ValueError("empty square")
    if count < 0 or area <= 0 or rho <= 0:
        raise ValueError("count must be >= 1 and area, rho positive")
    expected = rho * area
    return max(expected / count, count / expected)


def ratio_bound(i: int) -> float:
    """phi**(-i/3), the ratio-gap bound scale."""
    return PHI_FLOAT ** (-i / 3.0)


def decay_bound(i: int) -> float:
    """10 * phi**(-i/3), the E_rho - 1 decay bound."""
    return 10.0 * PHI_FLOAT ** (-i / 3.0)


class _CountGrid:
    """Per-unit-cell prefix sums of net points over an integer window.

    Point binning is half-open per cell, so counts over integer-corner
    squares from these prefix sums agree exactly with count_in_square.
    Construction keeps the ``points`` that fall in the window; the side**2
    prefix sums are built on the first ``square_counts``.
    """

    def __init__(self, net: Net) -> None:
        if not all(float(v).is_integer() for v in net.window):
            raise ValueError("square enumeration needs an integer-cornered window")
        self.x0, self.y0, self.side = (int(v) for v in net.window)
        # drop the points off the window while their cells are floats, so
        # no far point meets the int64 cast
        fx = np.floor(net.xy[:, 0] - float(self.x0))
        fy = np.floor(net.xy[:, 1] - float(self.y0))
        keep = (fx >= 0) & (fx < float(self.side)) & (fy >= 0) & (fy < float(self.side))
        self._cells = fx[keep], fy[keep], net.source_kinds[keep]
        self.points = len(self._cells[2])
        # cells between the window's edge and the kept points' cell bounding
        # box, on the side where there are most
        self.margin = self.side
        if self.points:
            fx, fy, _ = self._cells
            last = float(self.side - 1)
            self.margin = int(max(fx.min(), fy.min(), last - fx.max(), last - fy.max()))

    @cached_property
    def _cums(self) -> tuple[np.ndarray, np.ndarray]:
        """Prefix sums of the kite and the dart points per cell, (side+1)**2 each."""
        fx, fy, kinds = self._cells
        flat = fx.astype(np.int64) * self.side + fy.astype(np.int64)
        ncell = self.side * self.side
        kite_cells = np.bincount(flat[kinds == HALF_KITE], minlength=ncell)
        dart_cells = np.bincount(flat[kinds == HALF_DART], minlength=ncell)
        return (self._cumulate(kite_cells.reshape(self.side, self.side)),
                self._cumulate(dart_cells.reshape(self.side, self.side)))

    @staticmethod
    def _cumulate(cells: np.ndarray) -> np.ndarray:
        side = cells.shape[0]
        cum = np.zeros((side + 1, side + 1), dtype=np.int64)
        cum[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
        return cum

    def square_counts(self, side: int) -> tuple[np.ndarray, np.ndarray]:
        """Counts over every [a, a+side) x [b, b+side) square; arrays indexed by offset."""
        if side < 1 or side > self.side:
            raise ValueError(f"window of side {self.side} cannot host squares of side {side}")
        out = []
        for cum in self._cums:
            out.append(
                cum[side:, side:] - cum[:-side, side:] - cum[side:, :-side] + cum[:-side, :-side]
            )
        return out[0], out[1]


@dataclass(frozen=True)
class RegionCounts:
    """Supertile census and area bookkeeping behind the ratio bound.

    For a square of side l with phi**m <= l < phi**(m+1), supertiles are the
    deflation ancestors floor(m/2) generations up (edge scale phi**floor(m/2),
    diameter bound a = phi**(floor(m/2)+1)).  ``contained``/``intersecting``
    count supertiles wholly inside / meeting the square; ``refined`` is the
    exact census of final tiles inside the contained region, obtained by the
    count recursion.  ``checks`` records the frame inequalities.
    """

    square: Square
    m: int
    supertile_rounds: int
    frame_a: float
    contained: TileCensus
    intersecting: TileCensus
    contained_area: float
    intersecting_area: float
    refined: TileCensus
    ratio_gap: float | None
    ratio_gap_bound: float
    checks: dict


def _supertiles_near(patch: Patch, half: int, square: Square) -> Patch:
    """The supertiles ``half`` rounds above a covering patch's tiles near ``square``.

    Deflates the patch's recorded seed, dropping after every round the tiles
    whose bounding box misses the square grown by 1 unit.  Every supertile
    that meets the square survives, since it lies inside all its ancestors.
    """
    seed = covering_seed(patch)
    rounds = -seed.scale_exp
    lo = np.array([square.x, square.y])
    grow = 1.0  # far above the float error of the boxes, so the prune is conservative
    classes, apexes = _deflate_rounds(seed, rounds - half, near=(lo - grow, lo + square.side + grow))
    return Patch.from_classes(classes, apexes, generation=rounds - half, scale_exp=-half)


def _phi_log_floor(l: Fraction) -> int:
    """The largest m >= 0 with phi**m <= l, decided exactly in Q(phi)."""
    m, power, bound = 0, PHI, GoldenNum(l)
    while power <= bound:
        m += 1
        power = power * PHI
    return m


def region_analysis(patch: Patch, square: Square | tuple) -> RegionCounts:
    """Frame-area analysis of a square against the patch's supertile levels.

    Requires a patch built by generate_patch_covering: the supertiles near
    the square are rebuilt deterministically from its recorded seed, by a
    deflation that drops every tile too far from the square to meet it, so
    the cost follows the square, not the patch.  The square must lie inside
    the patch union and have side >= 1.
    """
    square = Square(*square)
    seed = covering_seed(patch)
    if (_corner_margins(embedded_outline(patch)[None], seed.chiralities, square) < -1e-9).any():
        raise ValueError("square exceeds the patch")
    l = square.side
    l_frac = Fraction(l)
    if l_frac < 1:
        raise ValueError("square side must be >= 1")
    m = _phi_log_floor(l_frac)
    half = m // 2
    if half > -seed.scale_exp:
        raise ValueError("square too large for the patch's deflation depth")
    a = PHI_FLOAT ** (half + 1)

    tau2 = _supertiles_near(patch, half, square)
    emb = _embed(_vertex_coords(tau2.classes, tau2.apexes), tau2.scale_exp)  # the supertiles', not the patch's

    # Separating-axis test of each closed supertile against the closed
    # square, both grown by eps.  The square's own axes are the bounding-box
    # tests; a triangle edge separates when all four corners lie more than
    # eps outside it.
    eps = 1e-9
    lo = np.array([square.x, square.y])
    hi = lo + l
    bb_lo, bb_hi = _bounding_boxes(emb)
    contained_mask = ((bb_lo >= lo - eps) & (bb_hi <= hi + eps)).all(axis=1)
    candidate = np.flatnonzero(((bb_lo <= hi + eps) & (bb_hi >= lo - eps)).all(axis=1))
    margins = _corner_margins(emb[candidate], tau2.chiralities[candidate], square)
    separated = (margins < -eps).all(axis=2).any(axis=1)
    intersect_mask = contained_mask.copy()
    intersect_mask[candidate[~separated]] = True

    def mask_census(mask: np.ndarray) -> TileCensus:
        kites = int(np.count_nonzero(mask & (tau2.kinds == HALF_KITE)))
        return TileCensus(kites, int(np.count_nonzero(mask)) - kites)

    contained = mask_census(contained_mask)
    intersecting = mask_census(intersect_mask)

    psi = dart_area()
    scale_area = PHI_FLOAT ** (2 * half)
    half_kite_area = PHI_FLOAT * psi / 2.0 * scale_area
    half_dart_area = psi / 2.0 * scale_area
    v_area = contained.kites * half_kite_area + contained.darts * half_dart_area
    w_area = intersecting.kites * half_kite_area + intersecting.darts * half_dart_area

    refined = substitution_counts(contained, half)
    if refined.darts > 0:
        gap = abs(refined.kites / refined.darts - PHI_FLOAT)
    else:
        gap = None
    gap_bound = 2.0 ** (-half)

    frame = w_area - v_area
    slack = 1e-9 * max(1.0, l * l)
    checks = {
        "contained_le_intersecting": contained.kites <= intersecting.kites
        and contained.darts <= intersecting.darts,
        "v_le_square_le_w": v_area <= l * l + slack and l * l <= w_area + slack,
        "v_lower_applicable": l > 4 * a,
        "v_lower": (not l > 4 * a) or v_area >= l * l - 4 * a * l - slack,
        "frame_area": frame <= 8 * a * l + slack,
        "dart_fit": math.floor(frame / psi) <= 8 * a * l / psi + slack,
        "kite_fit": math.floor(frame / (psi * PHI_FLOAT)) <= 8 * a * l / (psi * PHI_FLOAT) + slack,
        "ratio_gap_in_bound": gap is not None and gap <= gap_bound,
        "d1_lower": refined.darts >= l * l / 5.0,
    }
    return RegionCounts(
        square=square,
        m=m,
        supertile_rounds=half,
        frame_a=a,
        contained=contained,
        intersecting=intersecting,
        contained_area=v_area,
        intersecting_area=w_area,
        refined=refined,
        ratio_gap=gap,
        ratio_gap_bound=gap_bound,
        checks=checks,
    )


@dataclass(frozen=True)
class ReportRow:
    i: int
    side: int
    E_rho: float
    e_min: float
    e_mean: float
    ratio_gap_max: float
    ratio_bound: float
    ratio_holds: bool
    decay_bound: float
    decay_holds: bool
    squares_total: int
    squares_dart_free: int
    E_argmax_x: int
    E_argmax_y: int
    E_argmax_kites: int
    E_argmax_darts: int
    partial_product: float
    partial_log_sum: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Per-i discrepancy statistics plus the running product certificates."""

    i_min: int
    i_max: int
    rho: float
    psi: float
    window: Square
    net_points: int
    kite_points: int
    dart_points: int
    rows: tuple[ReportRow, ...]

    @property
    def product(self) -> float:
        return self.rows[-1].partial_product if self.rows else 1.0

    @property
    def log_sum(self) -> float:
        return self.rows[-1].partial_log_sum if self.rows else 0.0


def build_report(net: Net, i_min: int, i_max: int) -> DiscrepancyReport:
    """Enumerate all integer-corner squares of sides 2**i_min .. 2**i_max.

    Squares with no dart point are skipped by the ratio gap; when every
    square of a side is dart-free its ``ratio_gap_max`` is NaN and
    ``ratio_holds`` is False.
    """
    if i_min < 0:
        raise ValueError(f"i_min must be >= 0, got {i_min}: a square of side 2**{i_min} = "
                         f"{2.0 ** i_min:g} cannot have integer corners")
    if i_min > i_max:
        raise ValueError("i_min must be <= i_max")
    model = default_density()
    grid = _CountGrid(net)
    if 2**i_max > grid.side:
        raise ValueError(
            f"window side {grid.side} too small for squares of side {2**i_max}"
        )
    # refuse before building the side**2 prefix sums when a square of side
    # 2**i_min is surely empty: the window holds (side // 2**i_min)**2
    # disjoint ones, so with fewer points one is empty, and one that fits in
    # the margin between the window's edge and the points' cells is too
    if grid.points < (grid.side // 2**i_min) ** 2 or grid.margin >= 2**i_min:
        raise ValueError(f"empty square at i={i_min}")
    rows = []
    running_product = 1.0
    running_sum = 0.0
    for i in range(i_min, i_max + 1):
        side = 2**i
        kites, darts = grid.square_counts(side)
        total = kites + darts
        if int(total.min()) == 0:
            raise ValueError(f"empty square at i={i}")
        expected = model.rho * float(side) * float(side)
        e = np.maximum(expected / total, total / expected)
        flat_arg = int(np.argmax(e))
        ax, by = divmod(flat_arg, e.shape[1])
        E = float(e[ax, by])
        ok = darts > 0
        gaps = np.abs(kites[ok] / darts[ok] - PHI_FLOAT)
        gap_max = float(gaps.max()) if gaps.size else float("nan")
        running_product *= E
        running_sum += E - 1.0
        if math.log(running_product) > running_sum + 1e-12:
            raise ArithmeticError("ln(product) exceeded sum of (E - 1)")
        rows.append(
            ReportRow(
                i=i,
                side=side,
                E_rho=E,
                e_min=float(e.min()),
                e_mean=float(e.mean()),
                ratio_gap_max=gap_max,
                ratio_bound=ratio_bound(i),
                ratio_holds=bool(gap_max <= ratio_bound(i)),
                decay_bound=decay_bound(i),
                decay_holds=bool(E - 1.0 <= decay_bound(i)),
                squares_total=int(e.size),
                squares_dart_free=int(darts.size - ok.sum()),
                E_argmax_x=grid.x0 + int(ax),
                E_argmax_y=grid.y0 + int(by),
                E_argmax_kites=int(kites[ax, by]),
                E_argmax_darts=int(darts[ax, by]),
                partial_product=running_product,
                partial_log_sum=running_sum,
            )
        )
    kite_points = int(np.count_nonzero(net.source_kinds == HALF_KITE))
    return DiscrepancyReport(
        i_min=i_min,
        i_max=i_max,
        rho=model.rho,
        psi=model.psi,
        window=net.window,
        net_points=len(net),
        kite_points=kite_points,
        dart_points=len(net) - kite_points,
        rows=tuple(rows),
    )


_CSV_STATS = (
    "E_rho",
    "E_minus_1",
    "e_min",
    "e_mean",
    "ratio_gap_max",
    "ratio_bound",
    "ratio_holds",
    "decay_bound",
    "decay_holds",
    "squares_total",
    "squares_dart_free",
    "E_argmax_x",
    "E_argmax_y",
    "E_argmax_kites",
    "E_argmax_darts",
    "partial_product",
    "partial_log_sum",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _row_stat(row: ReportRow, stat: str):
    if stat == "E_minus_1":
        return row.E_rho - 1.0
    return getattr(row, stat)


def report_to_csv(report: DiscrepancyReport, path: str) -> None:
    """Long-format CSV: header ``i,statistic,value``, one row per (i, statistic)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("i,statistic,value\n")
        for row in report.rows:
            for stat in _CSV_STATS:
                fh.write(f"{row.i},{stat},{_fmt(_row_stat(row, stat))}\n")


def _round12(value):
    if isinstance(value, bool) or not isinstance(value, (float, np.floating)):
        return value
    return float(f"{float(value):.12g}")


def report_to_json(report: DiscrepancyReport, path: str) -> None:
    """JSON document with run metadata and the full per-i table."""
    doc = {
        "format": "penrosenet discrepancy report v1",
        "i_min": report.i_min,
        "i_max": report.i_max,
        "rho": _round12(report.rho),
        "psi": _round12(report.psi),
        "window": [_round12(report.window.x), _round12(report.window.y), _round12(report.window.side)],
        "net_points": report.net_points,
        "kite_points": report.kite_points,
        "dart_points": report.dart_points,
        "product": _round12(report.product),
        "log_sum": _round12(report.log_sum),
        "rows": [
            {
                "i": row.i,
                "side": row.side,
                **{stat: (_round12(_row_stat(row, stat))) for stat in _CSV_STATS},
            }
            for row in report.rows
        ],
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
