"""Fast self-test of the benchmark on small windows (about ten seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs each pipeline of ``worker.py`` at a small window side, untraced and
traced, and checks that every correctness check passes, that every per-layer
metric is reported, that wall times are scaled by the host-speed readings
around them, that layer self times add up to the traced wall time,
that reports are byte-identical for one seed and the amount of work is the
same for another, and that ``run.py`` fails without a result when the
package is missing.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import REFERENCE_S, normalized  # noqa: E402
from run import OUT, WORKLOADS, child_env  # noqa: E402
from tracer import self_times  # noqa: E402

SMALL = ("certify-64", "verify-32", "roundtrip-32")
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def worker(workload: str, seed: int, trace: int, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--out-dir", str(out_dir)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    expect(proc.returncode == 0, f"{workload} seed {seed} trace {trace}: exit {proc.returncode} {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    expect(lines[:1] == ["READY"], f"{workload}: READY is not the first line")
    return json.loads(lines[-1])


def check_self_times() -> None:
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},
        {"start": 1.0, "end": 4.0, "parent": 0},
        {"start": 2.0, "end": 3.0, "parent": 1},
        {"start": 5.0, "end": 9.0, "parent": 0},
    ]
    expect(self_times(spans) == [3.0, 2.0, 1.0, 4.0], "self_times of a nested span tree")


def check_normalized() -> None:
    kernels = [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S]
    expect(normalized([1.0, 2.0], kernels) == [1.0, 1.0], "wall times scaled by the kernel times around them")


def check_workload(workload: str, tmp: Path) -> None:
    plain = worker(workload, 5, 0, tmp / "a")
    again = worker(workload, 5, 1, tmp / "b")
    other = worker(workload, 6, 0, tmp / "c")
    for name, result in (("seed 5", plain), ("seed 5 traced", again), ("seed 6", other)):
        expect(result["attempted"] >= 1 and not result["failures"],
               f"{workload} {name}: failed checks {result['failures']}")
    expect(plain["report_sha256"] == again["report_sha256"], f"{workload}: reports differ for one seed")
    expect(plain["provenance"]["window"] != other["provenance"]["window"], f"{workload}: seed ignored")
    expect(plain["provenance"]["rounds"] == other["provenance"]["rounds"], f"{workload}: work depends on seed")
    expect(len(plain["kernel_samples"]) == len(plain["wall_samples"]) + 1 and plain["wall_norm_s"] > 0,
           f"{workload}: host-speed readings missing")

    layers = again["per_layer"]
    expect(sorted(layers) == sorted(PER_LAYER), f"{workload}: per-layer metrics differ from BENCHMARK.json")
    own = sum(m["value"] for name, m in layers.items() if name.startswith("self."))
    wall = layers["trace.wall_s"]["value"]
    expect(abs(own - wall) <= 0.01 * wall + 1e-3, f"{workload}: self times {own} vs traced wall {wall}")
    expect(layers["tiling.tiles"]["value"] > 0 and layers["net.points"]["value"] > 0,
           f"{workload}: tile and point counts missing")
    spans = json.loads(Path(again["trace_file"]).read_text())["spans"]
    expect(all({"name", "start", "end", "parent", "run_id", "counts"} <= set(s) for s in spans),
           f"{workload}: span fields missing")


def check_missing_package(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=120,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py without the package must fail without a result")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        check_self_times()
        check_normalized()
        for workload in SMALL:
            check_workload(workload, tmp)
        check_missing_package(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
