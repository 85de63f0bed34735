"""Command-line front-end.

Subcommands:

``generate``
    Deflate a single seed half-tile to a final-scale patch and save it.
``analyze``
    Extract the net, enumerate integer-corner squares for i_min..i_max,
    run the exact ratio suite and the empirical bound checks, and write
    the CSV and JSON reports.
``render``
    Draw a saved patch (optionally with net or grid overlay) as SVG.
``verify``
    Run the exact self-checks plus a small empirical smoke run.

Exit codes: 0 success; 1 a hard exact assertion failed (the ratio-bound
suite or an arithmetic contract); 2 operational errors (bad paths, tile
cap, malformed input).  Empirical bound violations at desk scale are
reported in the output but do not affect the exit code.  The environment
variable ``PENROSENET_OUT`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from .discrepancy import (
    build_report,
    check_prop21,
    default_density,
    ratio_map,
    report_to_csv,
    report_to_json,
)
from .golden import PHI, PHI_FLOAT
from .net import COVERING_RADIUS_BOUND, extract_net
from .render import render_svg
from .tiling import (
    DEFAULT_TILE_CAP,
    HALF_DART,
    HALF_KITE,
    KIND_CODES,
    PENROSE_SUBSTITUTION,
    Patch,
    Square,
    TileCapError,
    TileCensus,
    census,
    deflate_patch,
    generate_patch_covering,
    load_patch,
    save_patch,
    substitution_counts,
)

__all__ = ["main"]


def _out_dir(explicit: str | None) -> str:
    return explicit or os.environ.get("PENROSENET_OUT") or "."


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="penrosenet",
        description="Penrose kite/dart patches, separated nets, and square-count discrepancy reports.",
        epilog="PENROSENET_OUT sets the default output directory.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=int, default=DEFAULT_TILE_CAP,
                       help="maximum half-tile count (default %(default)s)")

    g = sub.add_parser("generate", help="deflate a seed half-tile and save the patch")
    g.add_argument("--seed", choices=("half-kite", "half-dart"), default="half-kite")
    g.add_argument("--rounds", type=int, required=True, help="deflation rounds")
    g.add_argument("--out", help="output file (default <outdir>/patch.txt)")
    add_common(g)

    a = sub.add_parser("analyze", help="net extraction + square-count report")
    a.add_argument("--patch", help="saved patch file; omit to generate a covering patch")
    a.add_argument("--window", nargs=3, type=float, metavar=("X", "Y", "SIDE"),
                   help="integer-corner counting window (required with --patch)")
    a.add_argument("--seed", choices=("half-kite", "half-dart"), default="half-kite",
                   help="seed for the generated covering patch")
    a.add_argument("--i-min", type=int, default=4)
    a.add_argument("--i-max", type=int, default=6)
    a.add_argument("--format", choices=("csv", "json"),
                   help="write only this report format (default: both)")
    a.add_argument("--out", help="output directory (default PENROSENET_OUT or .)")
    add_common(a)

    r = sub.add_parser("render", help="draw a saved patch as SVG")
    r.add_argument("--patch", required=True, help="saved patch file")
    r.add_argument("--overlay", choices=("net", "grid", "none"), default="none")
    r.add_argument("--stroke-width", type=float, default=0.03)
    r.add_argument("--kite-fill", default="#8ecae6")
    r.add_argument("--dart-fill", default="#ffb703")
    r.add_argument("--out", help="output file (default <outdir>/patch.svg)")

    v = sub.add_parser("verify", help="exact self-checks plus an empirical smoke run")
    v.add_argument("--i-min", type=int, default=4)
    v.add_argument("--i-max", type=int, default=6)
    add_common(v)

    return top


def cmd_generate(args) -> int:
    kind = KIND_CODES[args.seed]
    seed = Patch.single_tile(kind, scale_exp=-args.rounds)
    patch = deflate_patch(seed, args.rounds, cap=args.cap)
    counts = census(patch)
    expected = substitution_counts(TileCensus(*(1, 0) if kind == HALF_KITE else (0, 1)), args.rounds)
    if counts != expected:
        print(f"FAILED: census {counts.kites} half-kites + {counts.darts} half-darts does not "
              f"equal the recursion's {expected.kites} + {expected.darts}")
        return 1
    path = args.out or os.path.join(_out_dir(None), "patch.txt")
    save_patch(patch, path)
    print(f"seed: {args.seed}  rounds: {args.rounds}  generation: {patch.generation}")
    print(f"census: {counts.kites} half-kites + {counts.darts} half-darts = {counts.total()} tiles")
    print(f"wrote {path}")
    return 0


def _hard_exact_suite() -> list[tuple[str, bool, str]]:
    """The exact assertions behind the exit code: name, passed, detail."""
    results = []

    ok = ratio_map(PHI) == PHI
    results.append(("ratio fixed point f(phi) = phi", ok, "exact"))

    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(200):
        x = 1 + Fraction(int(rng.integers(0, 1000)), 1000)
        y = 1 + Fraction(int(rng.integers(0, 1000)), 1000)
        if abs(ratio_map(x) - ratio_map(y)) * 4 > abs(x - y):
            ok = False
            break
    results.append(("contraction |f(x)-f(y)| <= |x-y|/4 on [1,2]", ok, "200 exact pairs"))

    all_hold = True
    for seed in (TileCensus(1, 1), TileCensus(2, 1), TileCensus(1, 2), TileCensus(5, 3)):
        if not check_prop21(seed, 25).all_hold:
            all_hold = False
    results.append(
        ("ratio gap |K_n/D_n - phi| <= 1/2^(n-1), n <= 25", all_hold, "4 seed censuses, exact")
    )

    ok = True
    for kind, base in ((HALF_KITE, TileCensus(1, 0)), (HALF_DART, TileCensus(0, 1))):
        patch = Patch.single_tile(kind, scale_exp=-6)
        patch = deflate_patch(patch, 6)
        if census(patch) != substitution_counts(base, 6):
            ok = False
    results.append(("deflation census equals count recursion (n=6)", ok, "both seeds"))

    model = default_density()
    phi_sq = PHI_FLOAT * PHI_FLOAT
    gap = abs(model.rho * model.psi * (1 + phi_sq) - phi_sq)
    results.append(("density identity rho*psi*(1+phi^2) = phi^2", gap <= 1e-12, f"gap {gap:.3g}"))

    value, vector = PENROSE_SUBSTITUTION.dominant_eigen()
    ok = abs(value - phi_sq) <= 1e-10 and abs(vector[0] / vector[1] - PHI_FLOAT) <= 1e-10
    results.append(("substitution eigenvalue phi^2, eigenvector ratio phi", ok, "1e-10"))

    return results


def cmd_analyze(args) -> int:
    if args.patch:
        if args.window is None:
            raise ValueError("--window X Y SIDE is required with --patch")
        patch = load_patch(args.patch)
        window = Square(*args.window)
    else:
        side = float(2 ** (args.i_max + 1))
        window = Square(0.0, 0.0, side)
        patch = generate_patch_covering(window, seed_kind=KIND_CODES[args.seed], cap=args.cap)
    counts = census(patch)
    print(f"patch: {counts.total()} half-tiles ({counts.kites} kites, {counts.darts} darts), "
          f"generation {patch.generation}")

    hard = _hard_exact_suite()
    for name, ok, detail in hard:
        print(f"exact: {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    net = extract_net(patch, window=window)
    print(f"net: {len(net)} points in window "
          f"[{window.x:g}, {window.x + window.side:g}) x [{window.y:g}, {window.y + window.side:g})")

    report = build_report(net, args.i_min, args.i_max)
    for row in report.rows:
        print(f"i={row.i} side={row.side}: E_rho={row.E_rho:.12g} "
              f"(E-1<=10*phi^(-i/3): {'yes' if row.decay_holds else 'NO (empirical)'}), "
              f"max|K/D-phi|={row.ratio_gap_max:.12g} "
              f"(<=phi^(-i/3): {'yes' if row.ratio_holds else 'NO (empirical)'}), "
              f"{row.squares_total} squares, {row.squares_dart_free} dart-free")
    print(f"partial product: {report.product:.12g}  sum(E-1): {report.log_sum:.12g}"
          f"  (sum < 1: {'yes' if report.log_sum < 1 else 'NO (empirical)'})")

    out_dir = _out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if args.format in (None, "csv"):
        path = os.path.join(out_dir, "report.csv")
        report_to_csv(report, path)
        written.append(path)
    if args.format in (None, "json"):
        path = os.path.join(out_dir, "report.json")
        report_to_json(report, path)
        written.append(path)
    print("wrote " + "  ".join(written))

    return 0 if all(ok for _, ok, _ in hard) else 1


def cmd_render(args) -> int:
    patch = load_patch(args.patch)
    net = None
    if args.overlay in ("net", "grid") and patch.scale_exp == 0:
        net = extract_net(patch)
    elif args.overlay == "net":
        raise ValueError("net overlay requires a final-scale patch (scale_exp 0)")
    svg = render_svg(patch, net=net, overlay=args.overlay,
                     stroke_width=args.stroke_width,
                     kite_fill=args.kite_fill, dart_fill=args.dart_fill)
    path = args.out or os.path.join(_out_dir(None), "patch.svg")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(svg)
    extra = f" + {len(net)} net markers" if net is not None and args.overlay != "none" else ""
    print(f"wrote {path}: {len(patch)} polygons{extra}")
    return 0


def cmd_verify(args) -> int:
    hard = _hard_exact_suite()
    for name, ok, detail in hard:
        print(f"exact: {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    side = float(2 ** (args.i_max + 1))
    patch = generate_patch_covering(Square(0.0, 0.0, side), cap=args.cap)
    net = extract_net(patch)
    c1 = net.c1
    print(f"net: {len(net)} points, c1 = {c1:.9f} "
          f"({'PASS' if c1 > 0 else 'FAIL'}: separation positive)")
    c2 = net.c2
    bound = COVERING_RADIUS_BOUND + net.c2_error_bound
    print(f"net: covering radius {c2:.9f} (exact within {net.c2_error_bound:.0e}) <= {bound:.9f}: "
          f"{'PASS' if c2 <= bound else 'FAIL'}")
    hard.append(("net separation", c1 > 0, ""))
    hard.append(("net covering radius", c2 <= bound, ""))

    report = build_report(net, args.i_min, args.i_max)
    for row in report.rows:
        print(f"empirical: i={row.i}: E-1={row.E_rho - 1:.6g} "
              f"(bound {row.decay_bound:.6g}: {'holds' if row.decay_holds else 'violates'}), "
              f"ratio gap {row.ratio_gap_max:.6g} "
              f"(bound {row.ratio_bound:.6g}: {'holds' if row.ratio_holds else 'violates'})")
    print(f"empirical: partial product {report.product:.6g}, sum(E-1) {report.log_sum:.6g}")

    failed = [name for name, ok, _ in hard if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all exact checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "i_min", 0) > getattr(args, "i_max", 0):
            raise ValueError("--i-min must be <= --i-max")
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "render":
            return cmd_render(args)
        return cmd_verify(args)
    except (ValueError, KeyError, OSError, TileCapError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
