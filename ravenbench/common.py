"""Measurement helpers shared by the workloads: timing, spans, memory.

Nothing here imports the program under test, so ``run.py`` can report a
missing ``src/repro`` before touching it.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Metric names, units, bounds, workloads and run length.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: What BENCHMARK.json cannot hold: load shapes and the layer map.
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in BENCHMARK[kind]
}

clock = time.perf_counter


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p50(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    A span records its name, start, end, the span that caused it and
    the request it belongs to. With ``enabled=False`` every call is a
    shared no-op context, so untraced runs pay one method call per
    wrapped public call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._null = nullcontext()
        self._next_id = 0
        self._lock = threading.Lock()

    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            return self._null
        return self._span(name, request)

    @contextmanager
    def _span(self, name: str, request: int | None):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append((span_id, parent, request, name, start, end))

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON: one complete event per span."""
        if not self.spans:
            return
        origin = min(span[4] for span in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": os.getpid(),
                "tid": request if request is not None else 0,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, request, name, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def host_speed_ms() -> float:
    """A fixed pure-Python arithmetic loop, timed as a diagnostic.

    It shares nothing with the program and allocates almost nothing, so
    when it reads slow too, a slow run was the machine, not the program.
    """
    samples = []
    for _ in range(3):
        start = clock()
        total = 0
        for value in range(300_000):
            total += value * value
        samples.append((clock() - start) * 1e3)
    return min(samples)


def timed_ms(fn, repeats: int) -> list[float]:
    """Wall time of ``repeats`` calls of ``fn`` in milliseconds."""
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append((clock() - start) * 1e3)
    return samples


class Window:
    """What one measured window of a workload produced."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        #: Client-side delay before each send: think time between a
        #: reply and the next request in a closed loop, lateness
        #: against the schedule in an open loop (seconds).
        self.late: list[float] = []
        #: Per operation, in order: (seconds busy, rows answered,
        #: correct); a closed loop's throughput is read from these.
        self.ops: list[tuple[float, int, bool]] = []
        self.extra: dict = {}

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def all_latencies(self) -> list[float]:
        return [x for samples in self.latencies.values() for x in samples]


def report_failure(kind: str, error: BaseException, seen: set) -> None:
    """Print the first failure of each kind with its traceback."""
    import sys
    import traceback

    if kind in seen:
        return
    seen.add(kind)
    print(f"ravenbench: {kind} failed:", file=sys.stderr)
    traceback.print_exception(error, file=sys.stderr)


def closed_loop(next_op, seconds: float, tracer: Tracer) -> Window:
    """One client that sends its next operation when the last returns.

    ``next_op(i)`` gives ``(kind, run, check)``: ``run()`` calls the
    program and ``check(result)`` returns ``(correct, rows)``. Checking
    is the benchmark's own work, so its time is left out of the window.
    """
    window = Window()
    seen: set = set()
    checking = 0.0
    start = clock()
    deadline = start + seconds
    ready = start
    index = 0
    while True:
        kind, run, check = next_op(index)
        sent = clock()
        if sent >= deadline:
            break
        window.late.append(sent - ready)
        try:
            with tracer.span(kind, index):
                result = run()
        except Exception as error:  # counted, reported, and the loop goes on
            report_failure(kind, error, seen)
            result = error
        done = clock()
        window.record(kind, done - sent)
        window.attempted += 1
        try:
            correct, rows = (False, 0) if isinstance(result, Exception) else check(result)
        except Exception as error:  # a malformed answer is a wrong answer
            report_failure(f"{kind} check", error, seen)
            correct, rows = False, 0
        if correct:
            window.rows += rows
        else:
            window.failed += 1
            rows = 0
        window.ops.append((done - ready, rows, correct))
        ready = clock()
        checking += ready - done
        index += 1
    window.wall_s = clock() - start - checking
    return window


def chunked_rates(ops: list[tuple[float, int, bool]], cycle: int, chunks: int = 10):
    """Operations/s and rows/s of each of ``chunks`` consecutive chunks.

    Each chunk holds the same whole number of ``cycle``-operation
    rounds, so every chunk has the same mix of operation kinds; their
    median drops a chunk that a burst of outside load slowed.
    """
    rounds = len(ops) // cycle
    chunks = max(1, min(chunks, rounds))
    size = max(1, rounds // chunks) * cycle
    op_rates, row_rates = [], []
    for k in range(chunks):
        part = ops[k * size : (k + 1) * size] or ops
        seconds = sum(busy for busy, _, _ in part)
        op_rates.append(sum(correct for _, _, correct in part) / seconds)
        row_rates.append(sum(rows for _, rows, _ in part) / seconds)
    return op_rates, row_rates
