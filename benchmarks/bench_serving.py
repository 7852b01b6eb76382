"""Serving-layer benchmark: plan-cache and micro-batching speedups.

Claims measured (printed as JSON for the bench trajectory):

* **plan cache** — executing a prepared inference query (analyze/optimize
  once, bind parameters per request) is >= 3x faster than running the full
  one-shot pipeline (parse -> analyze -> optimize -> codegen -> execute)
  for every request, over >= 1000 requests.
* **micro-batching** — coalescing one-row PREDICT requests into
  vectorized batches yields >= 2x the throughput of one-row-at-a-time
  prepared execution for the same requests.

* **observability overhead** — the always-compiled-in instrumentation
  (event emission + span guards) costs <= 5% of per-request latency
  when nothing subscribes (the "enabled-but-unsubscribed" default),
  measured by primitive-cost accounting: (calls per request) x (cost
  per unsubscribed call) against the request's wall time.
* **observatory overhead** — running the full workload observatory
  (drift watchdog + query-log profiler attached to the bus) costs
  <= 5% of per-request latency, by the same primitive-cost accounting
  with the consumers *subscribed*.

Also writes CI artifacts: one sample query trace
(``TRACE_SAMPLE.json`` / ``TRACE_SAMPLE_PATH``), a Prometheus
text-exposition snapshot (``PROM_SNAPSHOT.txt`` / ``PROM_SNAPSHOT_PATH``)
and a profiler report (``PROFILER_REPORT.json`` /
``PROFILER_REPORT_PATH``).

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]

``--smoke`` shrinks row counts so CI can exercise the full code path in
seconds; the speedup assertions only apply to full-size runs.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from concurrent.futures import wait

import numpy as np

from harness import capture_metrics, counter_rate, measure
from repro import Database, RavenSession, Table
from repro.ml import DecisionTreeClassifier, Pipeline, StandardScaler
from repro.observability import events
from repro.observability import trace as qtrace
from repro.serving import MicroBatcher

FILTER_SQL = """
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'approval');
SELECT d.id, p.pred
FROM PREDICT(MODEL = @model, DATA = applicants AS d)
WITH (pred float) AS p
WHERE d.age < ?
"""

PREDICT_SQL = """
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'approval');
SELECT d.age, d.income, p.pred
FROM PREDICT(MODEL = @model, DATA = requests AS d)
WITH (pred float) AS p
"""


def build_session(num_rows: int) -> RavenSession:
    rng = np.random.default_rng(7)
    age = rng.uniform(18, 90, num_rows)
    income = rng.normal(55.0, 20.0, num_rows)
    approved = ((income > 50.0) | (age < 30.0)).astype(np.float64)
    database = Database()
    database.register_table(
        "applicants",
        Table.from_dict(
            {"id": np.arange(num_rows), "age": age, "income": income}
        ),
    )
    pipeline = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
        ]
    ).fit(np.column_stack([age, income]), approved)
    database.store_model(
        "approval", pipeline, metadata={"feature_names": ["age", "income"]}
    )
    return RavenSession(database)


def bench_plan_cache(session: RavenSession, num_requests: int) -> dict:
    cutoffs = [25.0 + (i % 50) for i in range(num_requests)]

    # Baseline: the full one-shot pipeline per request (what a client
    # without prepared queries pays every time).
    start = time.perf_counter()
    for cutoff in cutoffs:
        session.execute(FILTER_SQL.replace("?", repr(cutoff)))
    baseline_seconds = time.perf_counter() - start

    with capture_metrics() as registry:
        prepared = session.prepare(FILTER_SQL)
        start = time.perf_counter()
        for cutoff in cutoffs:
            prepared.execute(params=(cutoff,))
        prepared_seconds = time.perf_counter() - start
        # Each re-prepare of the same SQL (a new client session arriving)
        # resolves against the shared normalized-plan cache.
        for _ in range(20):
            session.prepare(FILTER_SQL)
    metrics = registry.snapshot()

    return {
        "requests": num_requests,
        "one_shot_seconds": round(baseline_seconds, 4),
        "prepared_seconds": round(prepared_seconds, 4),
        "one_shot_rps": round(num_requests / baseline_seconds, 1),
        "prepared_rps": round(num_requests / prepared_seconds, 1),
        "speedup": round(baseline_seconds / max(prepared_seconds, 1e-9), 2),
        "plan_cache": session.plan_cache.stats(),
        # Event-bus-derived view of the same scenario, for the
        # metrics-based regression gates.
        "metrics": {
            "plan_cache_hits": metrics.get("plan_cache.hit", 0),
            "plan_cache_misses": metrics.get("plan_cache.miss", 0),
            "plan_cache_hit_rate": round(
                counter_rate(metrics, "plan_cache.hit", "plan_cache.miss"), 4
            ),
        },
    }


def bench_micro_batching(
    session: RavenSession, num_requests: int, max_batch_rows: int = 128
) -> dict:
    rng = np.random.default_rng(11)
    rows = [
        Table.from_dict(
            {
                "age": np.array([rng.uniform(18, 90)]),
                "income": np.array([rng.normal(55.0, 20.0)]),
            }
        )
        for _ in range(num_requests)
    ]
    template = rows[0]
    prepared = session.prepare(PREDICT_SQL, data={"requests": template})

    def unbatched() -> None:
        # Baseline: one row at a time through the (already cheap)
        # prepared path.
        for row in rows:
            prepared.execute(data={"requests": row})

    futures: list = []

    def batched() -> None:
        with MicroBatcher(
            lambda table: prepared.execute(data={"requests": table}),
            max_batch_rows=max_batch_rows,
            max_wait_seconds=0.005,
        ) as batcher:
            futures[:] = [batcher.submit(row) for row in rows]
            batcher.flush()
            wait(futures, timeout=600)

    # Each side is the median of warm repeats: a single bare window let
    # one slow scheduler slice on either side decide the claim.
    unbatched_seconds = measure(unbatched, repeats=5, warmup=1)
    batched_seconds = measure(batched, repeats=5, warmup=1)
    for future in futures:
        assert future.result().num_rows == 1

    return {
        "requests": num_requests,
        "max_batch_rows": max_batch_rows,
        "unbatched_seconds": round(unbatched_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "unbatched_rps": round(num_requests / unbatched_seconds, 1),
        "batched_rps": round(num_requests / batched_seconds, 1),
        "speedup": round(unbatched_seconds / max(batched_seconds, 1e-9), 2),
    }


def bench_observability_overhead(
    session: RavenSession, num_requests: int
) -> dict:
    """Instrumentation cost with nobody subscribed (the serving default).

    The tracing/event hooks are compiled into the hot path, so "off"
    cannot be measured by removing them; instead the overhead is
    accounted directly: count the emit/span call sites one request
    passes through (via a probe request with a subscriber and a trace
    attached), microbenchmark the *unsubscribed* cost of each primitive,
    and compare their product against the request's measured wall time.
    """
    prepared = session.prepare(FILTER_SQL)
    cutoffs = [25.0 + (i % 50) for i in range(num_requests)]

    start = time.perf_counter()
    for cutoff in cutoffs:
        prepared.execute(params=(cutoff,))
    per_request_seconds = (time.perf_counter() - start) / num_requests

    # Probe: how many events / spans does one request produce?
    with events.BUS.subscribe_queue() as sub:
        with qtrace.trace_query("probe") as trace:
            prepared.execute(params=(30.0,))
        events_per_request = len(sub.drain())
    spans_per_request = trace.span_count

    # Primitive costs in the unsubscribed / untraced state.
    probes = 200_000
    start = time.perf_counter()
    for _ in range(probes):
        events.emit("bench.noop", value=1)
    emit_seconds = (time.perf_counter() - start) / probes
    start = time.perf_counter()
    for _ in range(probes):
        with qtrace.span("noop", value=1):
            pass
    span_seconds = (time.perf_counter() - start) / probes

    overhead_seconds = (
        events_per_request * emit_seconds + spans_per_request * span_seconds
    )
    overhead_fraction = overhead_seconds / max(per_request_seconds, 1e-12)
    return {
        "requests": num_requests,
        "per_request_seconds": round(per_request_seconds, 7),
        "events_per_request": events_per_request,
        "spans_per_request": spans_per_request,
        "emit_unsubscribed_ns": round(emit_seconds * 1e9, 1),
        "span_untraced_ns": round(span_seconds * 1e9, 1),
        "overhead_seconds_per_request": round(overhead_seconds, 9),
        "overhead_fraction": round(overhead_fraction, 5),
    }


def bench_observatory_overhead(
    session: RavenSession, num_requests: int
) -> dict:
    """Serving cost of the full observatory, attached and listening.

    Same primitive-cost accounting as
    :func:`bench_observability_overhead`, but with the drift watchdog
    and query-log profiler subscribed: per-event *dispatch* cost (the
    bus fan-out plus both consumers folding the event) times events per
    request, plus the profiler's per-trace fold, against the request's
    wall time.
    """
    from repro.observability.profiler import QueryLogProfiler
    from repro.observability.watchdog import WorkloadWatchdog

    prepared = session.prepare(FILTER_SQL)
    cutoffs = [25.0 + (i % 50) for i in range(num_requests)]

    start = time.perf_counter()
    for cutoff in cutoffs:
        prepared.execute(params=(cutoff,))
    per_request_seconds = (time.perf_counter() - start) / num_requests

    watchdog = WorkloadWatchdog(
        session.database, auto_analyze=False
    ).attach(events.BUS)
    profiler = QueryLogProfiler().attach(events.BUS)
    try:
        # Events per request with the observatory listening, probed
        # under a trace (the profiler implies tracing), plus the two
        # serving-envelope events (submitted/completed) RavenServer
        # emits around every request this path doesn't pass through.
        with events.BUS.subscribe_queue() as sub:
            with qtrace.trace_query("probe"):
                prepared.execute(params=(30.0,))
            events_per_request = len(sub.drain()) + 2
        # Per-event dispatch cost through the subscribed consumers;
        # serving.completed is the watchdog's busiest path (it also
        # debounce-checks the poll clock).
        probes = 200_000
        start = time.perf_counter()
        for _ in range(probes):
            events.emit(
                "serving.completed", query="bench", latency_seconds=0.001
            )
        dispatch_seconds = (time.perf_counter() - start) / probes
        # Per-trace profiler fold (paid once per traced request).
        with qtrace.trace_query("probe") as trace:
            prepared.execute(params=(30.0,))
        record_probes = 20_000
        start = time.perf_counter()
        for _ in range(record_probes):
            profiler.record(trace)
        record_seconds = (time.perf_counter() - start) / record_probes
    finally:
        profiler.detach()
        watchdog.detach()

    overhead_seconds = (
        events_per_request * dispatch_seconds + record_seconds
    )
    overhead_fraction = overhead_seconds / max(per_request_seconds, 1e-12)
    return {
        "requests": num_requests,
        "per_request_seconds": round(per_request_seconds, 7),
        "events_per_request": events_per_request,
        "dispatch_subscribed_ns": round(dispatch_seconds * 1e9, 1),
        "profiler_record_us": round(record_seconds * 1e6, 2),
        "watchdog_polls": watchdog.stats()["polls"],
        "overhead_seconds_per_request": round(overhead_seconds, 9),
        "overhead_fraction": round(overhead_fraction, 5),
    }


def write_trace_sample(session: RavenSession) -> str:
    """One real traced request, dumped as JSON for the CI artifact."""
    prepared = session.prepare(FILTER_SQL)
    with qtrace.trace_query("bench_serving.sample") as trace:
        prepared.execute(params=(40.0,))
    path = os.environ.get("TRACE_SAMPLE_PATH", "TRACE_SAMPLE.json")
    with open(path, "w") as fh:
        fh.write(trace.to_json(indent=2))
    return path


def write_observatory_artifacts(session: RavenSession) -> dict:
    """A Prometheus snapshot and a profiler report from a short traced
    run — the CI artifacts proving the export surfaces stay render-able."""
    from repro.observability.export import render_prometheus
    from repro.observability.metrics import ServingMetrics
    from repro.observability.profiler import QueryLogProfiler

    metrics = ServingMetrics().attach(events.BUS)
    profiler = QueryLogProfiler().attach(events.BUS)
    prepared = session.prepare(FILTER_SQL)
    try:
        for i in range(20):
            with qtrace.trace_query("bench_serving.observatory") as trace:
                prepared.execute(params=(25.0 + i,))
            profiler.record(trace)
    finally:
        profiler.detach()
        metrics.detach()
    prom_path = os.environ.get("PROM_SNAPSHOT_PATH", "PROM_SNAPSHOT.txt")
    with open(prom_path, "w") as fh:
        fh.write(render_prometheus(metrics.registry.snapshot()))
    report_path = os.environ.get(
        "PROFILER_REPORT_PATH", "PROFILER_REPORT.json"
    )
    with open(report_path, "w") as fh:
        json.dump(profiler.report(), fh, indent=2, default=str)
    return {"prometheus": prom_path, "profiler_report": report_path}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny row counts; exercises the path without timing claims",
    )
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args()

    table_rows = 200 if args.smoke else 2_000
    num_requests = args.requests or (60 if args.smoke else 1_000)

    session = build_session(table_rows)
    # Smoke workloads are tiny (sub-millisecond requests over a 200-row
    # table), which inflates the instrumentation *fraction*; the 5%
    # claim is asserted at full size, smoke gets a noise-tolerant bound.
    overhead_target = 0.15 if args.smoke else 0.05
    # The observatory adds subscribed dispatch + a per-trace fold; on
    # sub-millisecond smoke requests the *fraction* inflates the same
    # way, so smoke gets the same style of relaxed bound.
    observatory_target = 0.25 if args.smoke else 0.05
    results = {
        "table_rows": table_rows,
        "smoke": args.smoke,
        "plan_cache": bench_plan_cache(session, num_requests),
        "micro_batching": bench_micro_batching(session, num_requests),
        "observability_overhead": bench_observability_overhead(
            session, num_requests
        ),
        "observatory_overhead": bench_observatory_overhead(
            session, num_requests
        ),
    }
    results["trace_sample_path"] = write_trace_sample(session)
    results["artifacts"] = write_observatory_artifacts(session)
    results["claims"] = {
        "plan_cache_speedup_target": 3.0,
        "plan_cache_speedup_measured": results["plan_cache"]["speedup"],
        "plan_cache_pass": results["plan_cache"]["speedup"] >= 3.0,
        "micro_batch_speedup_target": 2.0,
        "micro_batch_speedup_measured": results["micro_batching"]["speedup"],
        "micro_batch_pass": results["micro_batching"]["speedup"] >= 2.0,
        "overhead_target": overhead_target,
        "overhead_measured": results["observability_overhead"][
            "overhead_fraction"
        ],
        "overhead_pass": results["observability_overhead"][
            "overhead_fraction"
        ]
        <= overhead_target,
        "observatory_target": observatory_target,
        "observatory_measured": results["observatory_overhead"][
            "overhead_fraction"
        ],
        "observatory_pass": results["observatory_overhead"][
            "overhead_fraction"
        ]
        <= observatory_target,
    }
    print(json.dumps(results, indent=2))
    assert results["claims"]["overhead_pass"], (
        "unsubscribed observability overhead above "
        f"{overhead_target:.0%}: "
        f"{results['claims']['overhead_measured']:.2%}"
    )
    assert results["claims"]["observatory_pass"], (
        "watchdog+profiler observatory overhead above "
        f"{observatory_target:.0%}: "
        f"{results['claims']['observatory_measured']:.2%}"
    )
    if not args.smoke:
        assert results["claims"]["plan_cache_pass"], (
            "plan-cache speedup below 3x: "
            f"{results['claims']['plan_cache_speedup_measured']}"
        )
        assert results["claims"]["micro_batch_pass"], (
            "micro-batch speedup below 2x: "
            f"{results['claims']['micro_batch_speedup_measured']}"
        )


if __name__ == "__main__":
    main()
