"""One benchmark workload, run in its own process by ``run.py``.

Usage (``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload certify-256 --seed 1 --seconds 35 \
        --trace 0 --out-dir .perfbench/run

The workload name is ``<pipeline>-<window side>``; the side is a power of two
and the report covers i = min(4, i_max) .. i_max with 2**(i_max + 1) = side.
``run.py`` accepts only the sides listed in ``BENCHMARK.json``; ``selftest.py``
runs the same pipelines at small sides.

The process imports penrosenet, warms it up on a 16-wide window, prints
``READY``, runs the reference kernel of ``hostspeed.py`` twice and prints
``HOST`` with the second time over ``REFERENCE_S``.  With ``--setup-only`` it
exits there.  Otherwise it runs the pipeline in a closed loop (one caller,
the next pipeline only after the previous one finished) until ``--seconds``
would be exceeded, at least once.  With ``--trace 1`` each loop step is an
untraced pipeline followed by a traced one.  Correctness checks run after
each pipeline, outside the timed region.  The reference kernel runs again
after each step, so every untraced pipeline also has a wall time scaled to
the reference host speed.  The last stdout line is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy

from penrosenet import (
    COVERING_RADIUS_BOUND,
    DiscrepancyReport,
    HALF_DART,
    HALF_KITE,
    Net,
    PENROSE_SUBSTITUTION,
    PHI,
    PHI_FLOAT,
    Patch,
    Square,
    TileCensus,
    build_report,
    census,
    check_prop21,
    count_in_square,
    deflate_patch,
    default_density,
    export_net,
    extract_net,
    generate_patch_covering,
    iterate_ratio_map,
    load_net,
    load_patch,
    ratio_map,
    region_analysis,
    render_svg,
    report_to_csv,
    report_to_json,
    save_patch,
    substitution_counts,
)
from penrosenet import net as net_module

import hostspeed
from tracer import Tracer, duration, self_times

LAYERS = ("cli", "tiling", "net", "discrepancy", "golden", "render")

# per-layer metrics: (name, unit); spans named "<layer>.<op>" give "<layer>.<op>_s"
SPAN_TIMES = (
    "tiling.generate", "tiling.save", "tiling.load",
    "net.extract", "net.c1", "net.c2", "net.export", "net.load",
    "discrepancy.report", "discrepancy.write", "discrepancy.region",
    "golden.exact_suite", "render.svg",
)
COUNTS = (
    ("tiling.tiles", "count"), ("tiling.rounds", "count"),
    ("tiling.generate_rss_mb", "MB"), ("tiling.bytes_per_tile", "B"),
    ("tiling.patch_bytes", "B"),
    ("net.points", "count"), ("net.points_in_window", "count"),
    ("net.extract_rss_mb", "MB"), ("net.c2_samples", "count"), ("net.file_bytes", "B"),
    ("discrepancy.squares", "count"), ("discrepancy.region_supertiles", "count"),
    ("render.svg_bytes", "B"), ("render.polygons", "count"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)
PER_LAYER = (
    tuple((f"{name}_s", "s") for name in SPAN_TIMES)
    + COUNTS
    + tuple((f"self.{layer}_s", "s") for layer in LAYERS)
    + TRACE_METRICS
)

MB = 1e6
SEED_CENSUS = TileCensus(1, 0)  # generate_patch_covering deflates one half-kite


@dataclass(frozen=True)
class Workload:
    pipeline: str
    seed: int
    side: int
    i_min: int
    i_max: int
    window: Square


def parse_workload(name: str, seed: int) -> Workload:
    """``certify-256`` -> the certify pipeline on a 256 window at a seeded origin."""
    pipeline, _, side_text = name.partition("-")
    if pipeline not in PIPELINES or not side_text.isdigit():
        raise ValueError(f"unknown workload {name!r}")
    side = int(side_text)
    i_max = side.bit_length() - 2
    if side < 8 or side != 2 ** (i_max + 1):
        raise ValueError(f"window side {side} must be a power of two >= 8")
    ox, oy = (int(v) for v in np.random.default_rng(seed).integers(-64, 65, size=2))
    return Workload(pipeline, seed, side, min(4, i_max), i_max, Square(float(ox), float(oy), float(side)))


@dataclass
class Outputs:
    """What one pipeline produced, kept for the checks that follow it."""

    generated: Patch  # from generate_patch_covering, with its provenance
    patch: Patch  # the patch the net was extracted from
    net: Net
    report: DiscrepancyReport
    report_paths: tuple[str, str]
    extra: dict = field(default_factory=dict)


def _report(tr: Tracer, net, wl: Workload, out_dir: str):
    with tr.span("discrepancy.report") as c:
        report = build_report(net, wl.i_min, wl.i_max)
        c["squares"] = sum(row.squares_total for row in report.rows)
    paths = (os.path.join(out_dir, "report.csv"), os.path.join(out_dir, "report.json"))
    with tr.span("discrepancy.write"):
        report_to_csv(report, paths[0])
        report_to_json(report, paths[1])
    return report, paths


def _generate(tr: Tracer, wl: Workload) -> Patch:
    with tr.span("tiling.generate") as c:
        patch = generate_patch_covering(wl.window)
        c["tiles"] = len(patch)
        c["rounds"] = patch.provenance["rounds"]
    return patch


def _extract(tr: Tracer, patch: Patch, window: Square | None = None):
    with tr.span("net.extract") as c:
        net = extract_net(patch, window=window)
        c["points"] = len(net)
    return net


def certify(tr: Tracer, wl: Workload, out_dir: str) -> Outputs:
    """The ``analyze`` path: generate, extract, report, worst-square regions."""
    patch = _generate(tr, wl)
    net = _extract(tr, patch)
    report, paths = _report(tr, net, wl, out_dir)
    regions = []
    for row in report.rows:
        with tr.span("discrepancy.region") as c:
            region = region_analysis(patch, Square(row.E_argmax_x, row.E_argmax_y, row.side))
            c["region_supertiles"] = region.intersecting.total()
        regions.append(region)
    return Outputs(patch, patch, net, report, paths, {"regions": regions})


def exact_suite(rng: np.random.Generator) -> list[tuple[str, bool]]:
    """The exact self-checks of ``penrosenet verify``, through public functions."""
    results = [("ratio fixed point f(phi) = phi", ratio_map(PHI) == PHI)]

    ok = True
    for _ in range(200):
        x = 1 + Fraction(int(rng.integers(0, 1000)), 1000)
        y = 1 + Fraction(int(rng.integers(0, 1000)), 1000)
        ok &= abs(ratio_map(x) - ratio_map(y)) * 4 <= abs(x - y)
    results.append(("contraction |f(x)-f(y)| <= |x-y|/4 on 200 exact pairs", ok))

    seeds = (TileCensus(1, 1), TileCensus(2, 1), TileCensus(1, 2), TileCensus(5, 3))
    results.append(("ratio gap |K_n/D_n - phi| <= 2^(1-n), n <= 25",
                    all(check_prop21(s, 25).all_hold for s in seeds)))

    x0 = 1 + Fraction(int(rng.integers(0, 1001)), 1000)
    try:
        ok = len(iterate_ratio_map(x0, 25)) == 26
    except ArithmeticError:
        ok = False
    results.append(("iterates f^k(x0) within 4^-k of phi, k <= 25", ok))

    for kind, base in ((HALF_KITE, TileCensus(1, 0)), (HALF_DART, TileCensus(0, 1))):
        patch = deflate_patch(Patch.single_tile(kind, scale_exp=-6), 6)
        results.append((f"census of 6 rounds of kind {kind} equals the recursion",
                        census(patch) == substitution_counts(base, 6)))

    model = default_density()
    phi_sq = PHI_FLOAT * PHI_FLOAT
    results.append(("density identity rho*psi*(1+phi^2) = phi^2",
                    abs(model.rho * model.psi * (1 + phi_sq) - phi_sq) <= 1e-12))

    value, vector = PENROSE_SUBSTITUTION.dominant_eigen()
    results.append(("substitution eigenvalue phi^2, eigenvector ratio phi",
                    abs(value - phi_sq) <= 1e-10 and abs(vector[0] / vector[1] - PHI_FLOAT) <= 1e-10))
    return results


def c2_samples(window: Square) -> int:
    """Grid size of the sampled covering radius, 0 once the sampler is gone."""
    step = getattr(net_module, "C2_GRID_STEP", None)
    if step is None:
        return 0
    per_axis = len(np.arange(window.x, window.x + window.side + step / 2, step))
    return per_axis * per_axis


def verify(tr: Tracer, wl: Workload, out_dir: str) -> Outputs:
    """The ``verify`` path: exact suite, then c1/c2, report and net I/O."""
    with tr.span("golden.exact_suite"):
        suite = exact_suite(np.random.default_rng(wl.seed))
    patch = _generate(tr, wl)
    net = _extract(tr, patch)
    with tr.span("net.c1"):
        c1 = net.c1
    with tr.span("net.c2") as c:
        c2 = net.c2
        c["c2_samples"] = c2_samples(net.window)
    report, paths = _report(tr, net, wl, out_dir)
    net_path = os.path.join(out_dir, "net.txt")
    with tr.span("net.export") as c:
        export_net(net, net_path)
    c["file_bytes"] = os.path.getsize(net_path)
    with tr.span("net.load"):
        loaded = load_net(net_path)
    return Outputs(patch, patch, net, report, paths,
                   {"suite": suite, "c1": c1, "c2": c2, "loaded_net": loaded})


def roundtrip(tr: Tracer, wl: Workload, out_dir: str) -> Outputs:
    """Patch file round trip: generate, save, load, analyze the loaded patch, render."""
    patch = _generate(tr, wl)
    patch_path = os.path.join(out_dir, "patch.txt")
    with tr.span("tiling.save") as c:
        save_patch(patch, patch_path)
    c["patch_bytes"] = os.path.getsize(patch_path)
    with tr.span("tiling.load"):
        loaded = load_patch(patch_path)
    net = _extract(tr, loaded, wl.window)
    report, paths = _report(tr, net, wl, out_dir)
    svg_path = os.path.join(out_dir, "patch.svg")
    with tr.span("render.svg") as c:
        svg = render_svg(loaded, net=net, overlay="net")
        with open(svg_path, "w", encoding="ascii") as fh:
            fh.write(svg)
    c["svg_bytes"] = len(svg)
    c["polygons"] = svg.count("<polygon ")
    return Outputs(patch, loaded, net, report, paths, {"polygons": c["polygons"]})


PIPELINES = {"certify": certify, "verify": verify, "roundtrip": roundtrip}


class Checks:
    """Correctness checks counted against the number attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def patches_equal(a: Patch, b: Patch) -> bool:
    return (
        a.generation == b.generation
        and a.scale_exp == b.scale_exp
        and all(
            x.dtype == y.dtype and np.array_equal(x, y)
            for x, y in ((a.kinds, b.kinds), (a.chiralities, b.chiralities), (a.coords, b.coords))
        )
    )


def run_checks(check: Checks, wl: Workload, out: Outputs) -> None:
    rounds = out.generated.provenance["rounds"]
    check("census equals substitution_counts(seed, rounds)",
          census(out.patch) == substitution_counts(SEED_CENSUS, rounds))
    for row in out.report.rows:
        counted = count_in_square(out.net, Square(row.E_argmax_x, row.E_argmax_y, row.side))
        check(f"i={row.i}: E_argmax kites/darts equal count_in_square",
              counted == (row.E_argmax_kites, row.E_argmax_darts))

    if wl.pipeline == "certify":
        for row, region in zip(out.report.rows, out.extra["regions"]):
            flags = region.checks
            for key, ok in flags.items():
                if key == "v_lower_applicable":
                    continue  # an applicability flag, not a check
                if key == "v_lower" and not flags["v_lower_applicable"]:
                    continue
                check(f"i={row.i}: region_analysis {key}", ok)
    elif wl.pipeline == "verify":
        for name, ok in out.extra["suite"]:
            check(f"exact: {name}", ok)
        c1_exact = 2.0 * math.sin(math.radians(36.0)) / PHI_FLOAT
        check("c1 equals 2 sin36/phi within 1e-9", abs(out.extra["c1"] - c1_exact) <= 1e-9)
        check("c2 <= COVERING_RADIUS_BOUND + c2_error_bound",
              out.extra["c2"] <= COVERING_RADIUS_BOUND + out.net.c2_error_bound)
        check("load_net point count equals export_net point count",
              len(out.extra["loaded_net"]) == len(out.net))
    else:
        check("load_patch(save_patch(p)) equals p", patches_equal(out.generated, out.patch))
        check("SVG <polygon> count equals tile count", out.extra["polygons"] == len(out.patch))


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def warm_up() -> None:
    """Lazy set-up every real run pays once: first deflation, extraction, report and KD-tree."""
    net = extract_net(generate_patch_covering(Square(0.0, 0.0, 16.0)))
    build_report(net, 2, 3)
    net.c1


def layer_metrics(tr: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the traced pipelines; medians across pipelines."""
    spans = tr.spans
    own = self_times(spans)
    per_run: dict[str, dict[str, float]] = {}
    for span, own_s in zip(spans, own):
        vals = per_run.setdefault(span["run_id"], {})
        name = span["name"]
        layer = name.split(".")[0]
        vals[f"self.{layer}_s"] = vals.get(f"self.{layer}_s", 0.0) + own_s
        if name in SPAN_TIMES:
            vals[f"{name}_s"] = vals.get(f"{name}_s", 0.0) + duration(span)
        for key, value in span["counts"].items():
            metric = f"{layer}.{key}"
            vals[metric] = vals.get(metric, 0) + value
        if name == "tiling.generate":
            rise = span["rss_peak"] - span["rss_start"]
            vals["tiling.generate_rss_mb"] = rise / MB
            vals["tiling.bytes_per_tile"] = rise / span["counts"]["tiles"]
        elif name == "net.extract":
            vals["net.extract_rss_mb"] = (span["rss_peak"] - span["rss_start"]) / MB
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    metrics = {}
    for name, unit in PER_LAYER:
        values = [vals.get(name, 0) for vals in per_run.values()]
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
    metrics["trace.wall_s"]["value"] = traced
    metrics["trace.untraced_wall_s"]["value"] = untraced
    metrics["trace.overhead_s"]["value"] = traced - untraced
    metrics["trace.spans"]["value"] = len(spans)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = parse_workload(args.workload, args.seed)

    warm_up()
    print("READY", flush=True)
    hostspeed.kernel_s()  # a fresh process's first call runs about a third slower
    kernels = [hostspeed.kernel_s()]
    print(f"HOST {kernels[0] / hostspeed.REFERENCE_S!r}", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    pipeline = PIPELINES[wl.pipeline]
    check = Checks()
    walls: dict[bool, list[float]] = {False: [], True: []}
    hashes: set[tuple[str, str]] = set()
    tracer = Tracer(enabled=bool(args.trace))
    untraced = Tracer(enabled=False)
    loop_start = time.perf_counter()
    step_s = 0.0
    with tracer:
        # closed loop: start another step only if it still fits in --seconds
        while not walls[False] or time.perf_counter() - loop_start + step_s <= args.seconds:
            step_start = time.perf_counter()
            run_id = f"{args.workload}:{args.seed}:{len(walls[False])}"
            for tr in (untraced, tracer) if args.trace else (untraced,):
                tr.run_id = run_id
                gc.collect()  # start each pipeline from a heap without the last one's garbage
                t0 = time.perf_counter()
                with tr.span("cli.pipeline"):
                    out = pipeline(tr, wl, args.out_dir)
                walls[tr.enabled].append(time.perf_counter() - t0)
                run_checks(check, wl, out)
                if tr.enabled:
                    extract = next(s for s in reversed(tr.spans) if s["name"] == "net.extract")
                    extract["counts"]["points_in_window"] = sum(count_in_square(out.net, out.net.window))
                hashes.add(tuple(sha256_file(p) for p in out.report_paths))
                prov = out.generated.provenance
                del out
            kernels.append(hostspeed.kernel_s())
            step_s = time.perf_counter() - step_start
    pipelines = len(walls[False]) + len(walls[True])
    if pipelines > 1:
        check("reports byte-identical across the pipelines of this run", len(hashes) == 1)
    csv_sha, json_sha = sorted(hashes)[0]

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "window": list(wl.window),
        "i_min": wl.i_min,
        "i_max": wl.i_max,
        "rounds": int(prov["rounds"]),
        "translation": [int(v) for v in prov["translation"]],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    result = {
        "provenance": provenance,
        "report_sha256": {"report.csv": csv_sha, "report.json": json_sha},
        "attempted": check.attempted,
        "failures": check.failures,
        "pipelines": pipelines,
        "wall_samples": walls[False],
        "wall_s": statistics.median(walls[False]),
        "kernel_samples": kernels,
        "kernel_reference_s": hostspeed.REFERENCE_S,
        "wall_norm_s": statistics.median(hostspeed.normalized(walls[False], kernels)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }
    if args.trace:
        result["per_layer"] = layer_metrics(tracer, walls[True], walls[False])
        trace_path = os.path.join(os.path.dirname(os.path.abspath(args.out_dir)),
                                  f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, provenance)
        result["trace_file"] = trace_path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
