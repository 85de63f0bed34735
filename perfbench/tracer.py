"""In-memory spans recorded around the benchmark's calls into penrosenet.

A span covers one call into a layer (``tiling``, ``net``, ``discrepancy``,
``golden``, ``render``) or a whole pipeline (``cli``).  It records its name,
start and end on the monotonic clock, the index of the enclosing span, the
pipeline's run id, item counts, and resident memory at entry, at exit and at
its sampled peak.  Spans stay in memory and are written once, at exit.

The peak is sampled by one background thread reading ``/proc/self/statm``
every ``SAMPLE_INTERVAL_S`` while tracing is on, so a span's peak holds even
when an earlier span already set the process-wide ``ru_maxrss``.  Linux only.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext

SAMPLE_INTERVAL_S = 0.005
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs a dict per span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler = None
        self.run_id = ""

    def __enter__(self) -> "Tracer":
        if self.enabled:
            self._sampler = threading.Thread(target=self._sample, name="rss-sampler", daemon=True)
            self._sampler.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join()
            self._sampler = None

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            rss = rss_bytes()
            with self._lock:
                for span in self._open:
                    if rss > span["rss_peak"]:
                        span["rss_peak"] = rss

    def span(self, name: str):
        """Context manager yielding the span's counts dict; fill it inside or after."""
        if not self.enabled:
            return nullcontext({})
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        rss = rss_bytes()
        record = {
            "name": name,
            "run_id": self.run_id,
            "parent": self._open[-1]["index"] if self._open else None,
            "index": len(self.spans),
            "counts": {},
            "rss_start": rss,
            "rss_peak": rss,
        }
        self.spans.append(record)
        with self._lock:
            self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            rss = rss_bytes()
            with self._lock:
                self._open.pop()
                record["rss_end"] = rss
                record["rss_peak"] = max(record["rss_peak"], rss)

    def dump(self, path: str, provenance: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"provenance": provenance, "spans": self.spans}, fh, indent=1)
            fh.write("\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own
