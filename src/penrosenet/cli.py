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
    Run ``analyze``'s certify path on the default covering patch, then
    check the Delone constants: c1 equals 2 sin36/phi within 1e-9 and c2 is
    at most the dart circumradius; writes no files.  The covering net's
    constants come exactly from the tiling (c1 = 2 sin36/phi and c2 = 1,
    from a sun vertex and a dart pair as witnesses and the lemmas in
    ``Net``); a net without them is refused (exit 2).

Exit codes: 0 success; 1 a hard exact assertion failed (the ratio-bound
suite or an arithmetic contract); 2 operational errors (bad paths, tile
cap, malformed input, out of memory).  Empirical bound violations at desk
scale are reported in the output but do not affect the exit code.  The
environment variable ``PENROSENET_OUT`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from .discrepancy import (
    DiscrepancyReport,
    build_report,
    check_prop21,
    default_density,
    ratio_map,
    report_to_csv,
    report_to_json,
)
from .golden import PHI, PHI_FLOAT, GoldenNum
from .net import COVERING_RADIUS_BOUND, SEPARATION, Net, extract_net
from .render import _check_style, _svg_blocks
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


Check = tuple[str, str, bool, str]  # label ("exact" or "float"), name, passed, detail


def _hard_exact_suite() -> list[Check]:
    """The assertions behind the exit code."""
    pairs = [(1 + Fraction(x, 1000), 1 + Fraction(y, 1000))
             for x, y in np.random.default_rng(2718).integers(0, 1000, size=(200, 2)).tolist()]
    contracts = all(abs(ratio_map(x) - ratio_map(y)) * 4 <= abs(x - y) for x, y in pairs)
    seeds = (TileCensus(1, 1), TileCensus(2, 1), TileCensus(1, 2), TileCensus(5, 3))
    gap_holds = all(check_prop21(seed, 25).all_hold for seed in seeds)
    census_holds = all(
        census(deflate_patch(Patch.single_tile(kind, scale_exp=-6), 6)) == substitution_counts(base, 6)
        for kind, base in ((HALF_KITE, TileCensus(1, 0)), (HALF_DART, TileCensus(0, 1)))
    )
    model = default_density()
    gap = abs(model.rho * model.psi * (1 + PHI_FLOAT * PHI_FLOAT) - PHI_FLOAT * PHI_FLOAT)
    # M (phi, 1) = phi^2 (phi, 1) in Q(phi); det M = 1 makes the other eigenvalue phi^-2
    (a, b), (c, d) = PENROSE_SUBSTITUTION.matrix
    phi_sq = PHI * PHI
    eigen = (a * PHI + b == phi_sq * PHI and c * PHI + d == phi_sq
             and abs(GoldenNum(a * d - b * c) / phi_sq) < phi_sq)
    return [
        ("exact", "ratio fixed point f(phi) = phi", ratio_map(PHI) == PHI, "exact"),
        ("exact", "contraction |f(x)-f(y)| <= |x-y|/4 on [1,2]", contracts, "200 exact pairs"),
        ("exact", "ratio gap |K_n/D_n - phi| <= 1/2^(n-1), n <= 25", gap_holds,
         "4 seed censuses, exact"),
        ("exact", "deflation census equals count recursion (n=6)", census_holds, "both seeds"),
        ("float", "density identity rho*psi*(1+phi^2) = phi^2", gap <= 1e-12,
         f"gap {gap:.3g}, tolerance 1e-12"),
        ("exact", "substitution eigenvalue phi^2, eigenvector ratio phi", eigen, "exact in Q(phi)"),
    ]


def _covering(i_max: int, seed: str, cap: int) -> tuple[Patch, Square]:
    """The default patch: a ``seed`` cover of the window [0, 2^(i_max+1))^2."""
    window = Square(0.0, 0.0, float(2 ** (i_max + 1)))
    return generate_patch_covering(window, seed_kind=KIND_CODES[seed], cap=cap), window


def _certify(patch: Patch, window: Square, i_min: int,
             i_max: int) -> tuple[Net, DiscrepancyReport, list[Check]]:
    """Print the census, the exact suite, the net and the report rows.

    Returns the net, the report and the suite results; shared by
    ``analyze`` and ``verify``.
    """
    counts = census(patch)
    print(f"patch: {counts.total()} half-tiles ({counts.kites} kites, {counts.darts} darts), "
          f"generation {patch.generation}")
    suite = _hard_exact_suite()
    for label, name, ok, detail in suite:
        print(f"{label}: {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    net = extract_net(patch, window=window)
    print(f"net: {len(net)} points, window "
          f"[{window.x:g}, {window.x + window.side:g}) x [{window.y:g}, {window.y + window.side:g})")

    report = build_report(net, i_min, i_max)
    for row in report.rows:
        print(f"empirical: i={row.i} side={row.side}: E_rho={row.E_rho:.12g} "
              f"(E-1<=10*phi^(-i/3): {'yes' if row.decay_holds else 'NO'}), "
              f"max|K/D-phi|={row.ratio_gap_max:.12g} "
              f"(<=phi^(-i/3): {'yes' if row.ratio_holds else 'NO'}), "
              f"{row.squares_total} squares, {row.squares_dart_free} dart-free")
    print(f"empirical: partial product: {report.product:.12g}  sum(E-1): {report.log_sum:.12g}"
          f"  (sum < 1: {'yes' if report.log_sum < 1 else 'NO'})")
    return net, report, suite


def cmd_analyze(args) -> int:
    if args.patch:
        if args.window is None:
            raise ValueError("--window X Y SIDE is required with --patch")
        patch, window = load_patch(args.patch), Square(*args.window)
    else:
        patch, window = _covering(args.i_max, args.seed, args.cap)
    _, report, suite = _certify(patch, window, args.i_min, args.i_max)

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

    return 0 if all(ok for _, _, ok, _ in suite) else 1


def cmd_render(args) -> int:
    # the file is ASCII, so check before loading the patch or opening the file
    for fill in (args.kite_fill, args.dart_fill):
        if not fill.isascii():
            raise ValueError(f"fill colours must be ASCII, got {fill!r}")
    _check_style(args.stroke_width, args.kite_fill, args.dart_fill)
    patch = load_patch(args.patch)
    net = None
    if args.overlay in ("net", "grid") and patch.scale_exp == 0:
        net = extract_net(patch)
    elif args.overlay == "net":
        raise ValueError("net overlay requires a final-scale patch (scale_exp 0)")
    blocks = _svg_blocks(patch, net, args.overlay, args.stroke_width, args.kite_fill, args.dart_fill)
    path = args.out or os.path.join(_out_dir(None), "patch.svg")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(blocks)
    extra = f" + {len(net)} net markers" if net is not None and args.overlay != "none" else ""
    print(f"wrote {path}: {len(patch)} polygons{extra}")
    return 0


def cmd_verify(args) -> int:
    net, _, suite = _certify(*_covering(args.i_max, "half-kite", args.cap), args.i_min, args.i_max)
    c1 = net.c1
    c1_ok = abs(c1 - SEPARATION) <= 1e-9
    print(f"net: c1 = {c1:.9f} ({'PASS' if c1_ok else 'FAIL'}: equals 2 sin36/phi within 1e-9)")
    c2 = net.c2
    bound = COVERING_RADIUS_BOUND + net.c2_error_bound
    print(f"net: covering radius {c2:.9f} (exact within {net.c2_error_bound:.0e}) <= {bound:.9f}: "
          f"{'PASS' if c2 <= bound else 'FAIL'}")

    checks = [(name, ok) for _, name, ok, _ in suite]
    checks += [("net separation", c1_ok), ("net covering radius", c2 <= bound)]
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all exact checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "i_min", 0) < 0:
            raise ValueError("--i-min must be >= 0: squares of side 2**i need integer corners")
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
    except MemoryError as err:  # numpy's message names the shape and dtype it could not allocate
        print(f"error: out of memory{': ' + str(err) if str(err) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
