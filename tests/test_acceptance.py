"""Acceptance gate: ten checks with frozen tolerances.

Each test prints one ``criterion N ...: PASS`` line (visible with -s or -rA;
under plain -v the test name itself carries the verdict).  Criteria 6 and 7
share one module-scoped build of the 1024-sided window so the whole gate
stays well inside its runtime budgets.
"""

import math
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from penrosenet.cli import main as cli_main
from penrosenet.discrepancy import (
    build_report,
    check_prop21,
    decay_bound,
    default_density,
    iterate_ratio_map,
    ratio_bound,
    ratio_map,
)
from penrosenet.golden import CycloPoint, GoldenNum, INV_PHI, PHI, PHI_FLOAT
from penrosenet.net import COVERING_RADIUS_BOUND, extract_net
from penrosenet.tiling import (
    HALF_DART,
    HALF_KITE,
    LEFT,
    PENROSE_SUBSTITUTION,
    RIGHT,
    Patch,
    Square,
    TileCensus,
    census,
    deflate_patch,
    deflate_tile,
    generate_patch_covering,
    load_patch,
    substitution_counts,
)
from test_tiling import embed, times_phi

BIG_WINDOW_SIDE = 1024.0  # 2**10
BIG_I_RANGE = (4, 9)
BIG_RUNTIME_BUDGET = 120.0  # seconds, criteria 6-7 combined build
RECURSION_RUNTIME_BUDGET = 30.0  # seconds, criterion 1


@pytest.fixture(scope="module")
def big_run():
    """Patch covering the 2**10 window, its net, report, and elapsed time."""
    start = time.perf_counter()
    patch = generate_patch_covering(Square(0.0, 0.0, BIG_WINDOW_SIDE))
    net = extract_net(patch)
    report = build_report(net, *BIG_I_RANGE)
    elapsed = time.perf_counter() - start
    return {"patch": patch, "net": net, "report": report, "elapsed": elapsed}


def triangle_area(tri):
    u = (tri[1][0] - tri[0][0], tri[1][1] - tri[0][1])
    v = (tri[2][0] - tri[0][0], tri[2][1] - tri[0][1])
    return abs(u[0] * v[1] - u[1] * v[0]) / 2.0


def test_criterion_01_deflation_census_equals_recursion():
    start = time.perf_counter()
    for kind, base in ((HALF_KITE, TileCensus(1, 0)), (HALF_DART, TileCensus(0, 1))):
        patch = Patch.single_tile(kind, scale_exp=-10)
        for n in range(0, 11):
            stepped = deflate_patch(patch, n)
            assert census(stepped) == substitution_counts(base, n), (kind, n)
    elapsed = time.perf_counter() - start
    assert elapsed < RECURSION_RUNTIME_BUDGET
    print(f"criterion 1 (deflation census == recursion, n<=10, "
          f"{elapsed:.2f}s < {RECURSION_RUNTIME_BUDGET:.0f}s): PASS")


def test_criterion_02_ratio_gap_bound_exact():
    for seed in ((1, 1), (2, 1), (1, 2), (5, 3)):
        trace = check_prop21(TileCensus(*seed), 25)
        assert trace.all_hold, seed
        assert [e.n for e in trace.entries] == list(range(3, 26))
    print("criterion 2 (|K_n/D_n - phi| <= 1/2^(n-1), four seeds, n<=25, exact): PASS")


def test_criterion_03_contraction_exact():
    rng = np.random.default_rng(1618)
    for _ in range(1000):
        x = 1 + Fraction(int(rng.integers(0, 10**9)), 10**9)
        y = 1 + Fraction(int(rng.integers(0, 10**9)), 10**9)
        assert abs(ratio_map(x) - ratio_map(y)) * 4 <= abs(x - y)
    for x0 in (Fraction(1), Fraction(3, 2), Fraction(2)):
        values = iterate_ratio_map(x0, 15)  # asserts the 4**-n gap internally
        gap = abs(GoldenNum(values[-1]) - PHI)
        assert gap <= GoldenNum(Fraction(1, 4**15))
    print("criterion 3 (contraction 1/4 on 1000 exact pairs; iterate gap <= 4^-n, "
          "x0 in {1, 3/2, 2}, n<=15, exact): PASS")


def test_criterion_04_geometry_exactness():
    assert PHI * PHI == PHI + 1
    assert INV_PHI * PHI == GoldenNum(1)
    p = CycloPoint(2, -1, 3, 5)
    assert times_phi(p).times_inv_phi() == p

    rng = np.random.default_rng(4)
    for _ in range(100):
        kind = int(rng.integers(0, 2))
        chir = RIGHT if rng.integers(0, 2) else LEFT
        shift = CycloPoint(*(int(v) for v in rng.integers(-30, 31, size=4)))
        turns = int(rng.integers(0, 10))
        parent = Patch.single_tile(kind, chir).transformed(turns, shift).tile(0)
        tri = [embed(v) for v in parent.vertices]
        kids_total = sum(
            triangle_area([embed(v) for v in c.vertices]) for c in deflate_tile(parent)
        )
        assert abs(kids_total - triangle_area(tri)) <= 1e-9 * triangle_area(tri)

    from penrosenet.discrepancy import dart_area, kite_area

    assert abs(kite_area() / dart_area() - PHI_FLOAT) <= 1e-9
    print("criterion 4 (phi identities exact; area conserved 1e-9 on 100 parents; "
          "kite/dart area ratio phi within 1e-9): PASS")


def test_criterion_05_density_identity():
    model = default_density()
    phi_sq = PHI_FLOAT * PHI_FLOAT
    gap = abs(model.rho * model.psi * (1 + phi_sq) - phi_sq)
    assert gap <= 1e-12
    print(f"criterion 5 (rho*psi*(1+phi^2) = phi^2, gap {gap:.2e} <= 1e-12): PASS")


def test_criterion_06_ratio_bound_on_big_window(big_run):
    report = big_run["report"]
    for row in report.rows:
        assert row.ratio_gap_max <= ratio_bound(row.i), (row.i, row.ratio_gap_max)
    assert big_run["elapsed"] < BIG_RUNTIME_BUDGET
    worst = max(row.ratio_gap_max / row.ratio_bound for row in report.rows)
    print(f"criterion 6 (2^10 window: |K/D - phi| <= phi^(-i/3) for i=4..9, "
          f"worst margin {worst:.3f} of bound, {big_run['elapsed']:.1f}s "
          f"< {BIG_RUNTIME_BUDGET:.0f}s): PASS")


def test_criterion_07_discrepancy_decay_and_partial_product(big_run):
    report = big_run["report"]
    for row in report.rows:
        assert row.E_rho - 1.0 <= decay_bound(row.i), (row.i, row.E_rho)
    assert report.log_sum < 1.0
    assert math.log(report.product) <= report.log_sum + 1e-12
    # observed refinement: estimates shrink monotonically past i=5
    values = [row.E_rho for row in report.rows]
    for a, b in zip(values[1:], values[2:]):
        assert b <= a
    print(f"criterion 7 (E-1 <= 10*phi^(-i/3) for i=4..9; sum(E-1) = "
          f"{report.log_sum:.4f} < 1; ln(prod) <= sum within 1e-12): PASS")


def test_criterion_08_net_separation_and_covering():
    c1_values = []
    for gen in (6, 7, 8):
        patch = deflate_patch(Patch.single_tile(HALF_KITE, scale_exp=-gen), gen)
        net = extract_net(patch)
        c1_values.append(net.c1)
    assert min(c1_values) > 0
    assert max(c1_values) - min(c1_values) <= 1e-9

    cover = extract_net(generate_patch_covering(Square(0.0, 0.0, 16.0)))
    assert cover.c2 <= COVERING_RADIUS_BOUND + 0.08
    print(f"criterion 8 (c1 = {c1_values[0]:.9f} > 0, spread "
          f"{max(c1_values) - min(c1_values):.2e} <= 1e-9 over generations 6-8; "
          f"c2 = {cover.c2:.4f} <= {COVERING_RADIUS_BOUND:.4f} + 0.08): PASS")


def test_criterion_09_substitution_eigendata():
    value, vector = PENROSE_SUBSTITUTION.dominant_eigen()
    assert abs(value - PHI_FLOAT**2) <= 1e-10
    assert abs(vector[0] / vector[1] - PHI_FLOAT) <= 1e-10
    print(f"criterion 9 (eigenvalue {value:.12f} = phi^2 within 1e-10; "
          f"component ratio phi within 1e-10): PASS")


def test_criterion_10_cli_determinism_and_svg(tmp_path, capsys):
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli_main(["analyze", "--i-min", "2", "--i-max", "3", "--out", d1]) == 0
    assert cli_main(["analyze", "--i-min", "2", "--i-max", "3", "--out", d2]) == 0
    csv_same = (tmp_path / "r1" / "report.csv").read_bytes() == (tmp_path / "r2" / "report.csv").read_bytes()
    json_same = (tmp_path / "r1" / "report.json").read_bytes() == (tmp_path / "r2" / "report.json").read_bytes()
    assert csv_same and json_same

    patch_file = str(tmp_path / "p.txt")
    svg_file = str(tmp_path / "p.svg")
    assert cli_main(["generate", "--rounds", "4", "--out", patch_file]) == 0
    assert cli_main(["render", "--patch", patch_file, "--out", svg_file]) == 0
    capsys.readouterr()
    tree = ET.parse(svg_file)  # well-formed XML or this raises
    polygons = [e for e in tree.iter() if e.tag.endswith("polygon")]
    assert len(polygons) == len(load_patch(patch_file))
    print("criterion 10 (analyze reruns byte-identical; SVG parses as XML with "
          "one polygon per half-tile): PASS")
