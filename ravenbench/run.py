"""The repository benchmark: one workload per process, from one command.

Run from the root of a checkout:

    python3 ravenbench/run.py --workload http_predict --seed 1 --seconds 40 --trace 0

Workload reasons, metric names and units are in ``BENCHMARK.json``;
load shapes and metric definitions are in ``ravenbench/spec.json``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it measures the workload
untraced, then in short untraced and traced windows (with spans around
every public call it makes) for the tracing overhead, then replays
sampled requests through each layer's entry point; it prints the
per-layer metrics and writes the spans to ``.ravenbench/``.

Set-up time is the median over several fresh processes: the program's
set-up is lazy and per-process (backend calibration, the worker pool),
so a second set-up in one process would skip part of it. Input
synthesis and model training are the benchmark's own work; they are
timed apart and reported as diagnostics only.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds diagnostics, including the
exact-count fingerprint. Every answer is checked; a wrong one makes the
exit code 1. Without ``src/repro`` beside this directory the benchmark
prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import (
    BENCHMARK,
    ROOT,
    SPEC,
    UNITS,
    Tracer,
    chunked_rates,
    clock,
    host_speed_ms,
    p50,
    peak_rss_mb,
    percentile,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up once, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def make_workload(name: str, seed: int):
    if name == "fig1_batch":
        from fig1 import Fig1Batch as workload
    elif name == "http_predict":
        from http_predict import HttpPredict as workload
    else:
        from write_mix import WriteMix as workload
    return workload(seed)


def set_up(workload) -> float:
    """Seconds from an empty Database to the first answer, then checked."""
    start = clock()
    answer = workload.setup()
    seconds = clock() - start
    workload.check_first(answer)
    return seconds


def setup_probes(args, count: int) -> list[float]:
    """Set-up time in ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        command = [
            sys.executable,
            str(ROOT / "ravenbench" / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def primary_p50(window) -> float:
    """Median latency of the workload's read, in seconds."""
    return window.extra.get("latency_p50_s", p50(window.extra["primary"]))


def end_to_end(workload, window) -> dict:
    """Every end-to-end metric but ``setup_s``, which the probes give."""
    if "chunk_ops_per_s" not in window.extra:
        op_rates, row_rates = chunked_rates(window.ops, workload.cycle)
        window.extra.update(chunk_ops_per_s=op_rates, chunk_rows_per_s=row_rates)
    return {
        "rows_per_s": p50(window.extra["chunk_rows_per_s"]),
        "ops_per_s": p50(window.extra["chunk_ops_per_s"]),
        "latency_p50_ms": primary_p50(window) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, base, abba) -> tuple[dict, int]:
    """Layer metrics from the untraced window, the ABBA windows, and replays."""
    from layers import measure_layers

    primary = base.extra["primary"]
    metrics = {
        "latency_p99_ms": percentile(primary, 99) * 1e3,
        "max_rate_rps": base.extra.get(
            "max_rate_rps", (base.attempted - base.failed) / base.wall_s
        ),
        "read_p50_ms": p50(base.latencies.get("read", primary)) * 1e3,
        "failed_share": base.failed / max(1, base.attempted),
        "loadgen.late_ms_p99": percentile(base.late, 99) * 1e3,
        "trace.overhead_pct": (
            (primary_p50(abba[1]) + primary_p50(abba[2]))
            / (primary_p50(abba[0]) + primary_p50(abba[3]))
            - 1.0
        )
        * 100.0,
    }
    metrics.update(workload.layer_counts(base))
    replayed = measure_layers(workload.subject())
    wrong = replayed.pop("_wrong")
    if "insert" in base.latencies:
        replayed["insert_p50_ms"] = p50(base.latencies["insert"]) * 1e3
    metrics.update(replayed)
    return metrics, wrong


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("ravenbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        workload = make_workload(args.workload, args.seed)
        try:
            print(json.dumps({"setup_s": set_up(workload)}))
        finally:
            workload.close()
        return 0

    # The traced run reports no set-up time, so it skips the probes.
    # The others run half before and half after the measurement, so a
    # short burst of outside load cannot slow all of them.
    probes = 0 if args.trace else SPEC["setup_probes"]
    setup_samples = setup_probes(args, probes // 2)
    start = clock()
    workload = make_workload(args.workload, args.seed)
    synthesis_s = clock() - start
    try:
        setup_samples.append(set_up(workload))
        fingerprint = workload.fingerprint()
        host_ms = [host_speed_ms()]
        null = Tracer(False)
        if args.trace:
            base = workload.measure(args.seconds / 2, null)
            # Tracing overhead: untraced, traced, traced, untraced, so a
            # steady drift of the machine's speed cancels out.
            tracer = Tracer(True)
            eighth = args.seconds / 8
            abba = [
                workload.measure(eighth, tracer if traced else null)
                for traced in (False, True, True, False)
            ]
            metrics, wrong = per_layer(workload, base, abba)
            windows = [base, *abba]
            tracer.write(
                ROOT / ".ravenbench" / f"trace-{args.workload}-{args.seed}.json"
            )
        else:
            base = workload.measure(args.seconds, null)
            metrics = end_to_end(workload, base)
            windows, wrong = [base], 0
        host_ms.append(host_speed_ms())
    finally:
        workload.close()
    if probes:
        setup_samples += setup_probes(args, probes - probes // 2)
        metrics["setup_s"] = statistics.median(setup_samples)

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "synthesis_s": synthesis_s,
        "setup_samples_s": setup_samples,
        "host_speed_ms": host_ms,
        "samples": {kind: len(v) for kind, v in base.latencies.items()},
        "p50_ms": {kind: p50(v) * 1e3 for kind, v in base.latencies.items()},
        "wall_s": base.wall_s,
        "replay_wrong": wrong,
        "fingerprint": fingerprint,
        "window": {k: v for k, v in base.extra.items() if k != "primary"},
    }
    print(json.dumps({"diagnostics": diagnostics}, default=str))
    correct = failed == 0 and wrong == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
