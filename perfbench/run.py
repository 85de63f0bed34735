"""Benchmark of penrosenet's certification pipelines, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify-256 --seed 7 --seconds 35 --trace 0

The seed picks the integer origin of the counting window uniformly in
[-64, 64]^2; the amount of work does not depend on it.  Each run measures
set-up time in ``SETUP_SAMPLES`` fresh processes (the last of which runs the
workload), runs ``worker.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned
to one thread, and prints provenance, the report hashes, every metric by name
with its unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``wall_norm_s`` and
``setup_s`` are scaled to the reference host speed of ``hostspeed.py``; the
unscaled times and the reference kernel times are printed as ``output``
lines, not metrics.  It exits 1 without that line when the package or a
worker is missing or fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("certify-256", "verify-64", "roundtrip-64")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, without looking above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    ram_kb = 0
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                ram_kb = int(line.split()[1])
    return {"nproc": len(os.sched_getaffinity(0)), "ram_gb": round(ram_kb / 1e6, 2)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({name: "1" for name in PINNED})
    return env


def start_worker(args: list[str], env: dict) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, its process-start-to-READY time and its host factor.

    The host factor is the reference kernel's time just after READY over its
    time on the reference host (see ``hostspeed.py``).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    host = proc.stdout.readline().split()
    if len(host) != 2 or host[0] != "HOST":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker gave no host factor: {host!r}")
    return proc, ready, float(host[1])


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker, killing it past ``timeout``; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="penrosenet layered benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "penrosenet" / "__init__.py").is_file():
        print(f"error: no penrosenet package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    env = child_env()
    run_dir = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", str(run_dir)]
    setup, setup_norm = [], []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready, host = start_worker(worker_args + ["--setup-only"], env)
            finish(proc, 60.0)
            setup.append(ready)
            setup_norm.append(ready / host)
        proc, ready, host = start_worker(worker_args, env)
        setup.append(ready)
        setup_norm.append(ready / host)
        out = finish(proc, max(1.0, DEADLINE_S - (time.perf_counter() - started)))
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    provenance = {"git_commit": git_commit(), "source_sha256": source_sha256(),
                  **machine(), **result["provenance"]}
    print("provenance " + json.dumps(provenance))
    for name, digest in result["report_sha256"].items():
        print(f"output {name} sha256 {digest}")
    print("output wall_samples_s " + json.dumps(result["wall_samples"]))
    print(f"output wall_s median {result['wall_s']!r} fastest {min(result['wall_samples'])!r} "
          f"slowest {max(result['wall_samples'])!r} of {len(result['wall_samples'])} pipelines")
    kernels = result["kernel_samples"]
    print(f"output host kernel_s median {statistics.median(kernels)!r} fastest {min(kernels)!r} "
          f"slowest {max(kernels)!r} of {len(kernels)} (reference {result['kernel_reference_s']} s)")
    print(f"output setup_s median {statistics.median(setup)!r} of {len(setup)} unscaled: " + json.dumps(setup))
    if "trace_file" in result:
        print(f"output trace {os.path.relpath(result['trace_file'], ROOT)}")

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_norm_s": {"value": result["wall_norm_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    failed = len(result["failures"])
    for name in result["failures"]:
        print(f"check FAILED: {name}")
    print(f"metric check_failures {failed} count (of checks_run {result['attempted']}, "
          f"{result['pipelines']} pipelines)")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
