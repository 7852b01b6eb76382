"""Self-test of the benchmark itself (not a timing run).

    python3 ravenbench/selftest.py

Checks that:

* the exact-count fingerprint of every workload is identical across two
  runs with the same seed (a plan that flips between runs is a
  different program, not noise);
* an untraced run prints exactly the end-to-end metrics and a traced
  run exactly the per-layer metrics, all answers correct, on every
  workload in ``spec.json`` (the gated ones and ``fig1_batch``);
* the counts show each workload using its layers as described;
* each workload's oracle rejects a wrong answer.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCHMARK, ROOT, SPEC

SEED = 11
SECONDS = "2"


def run(workload: str, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(ROOT / "ravenbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", SECONDS, "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise AssertionError(f"{workload} --trace {trace} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def check_oracles() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from fig1 import Fig1Batch

    from repro import Table

    workload = Fig1Batch(SEED)
    ids = workload.expected_ids
    los = workload.expected_los.copy()
    assert workload.check(Table.from_dict({"id": ids, "length_of_stay": los}))[0]
    los[0] += 1.0
    assert not workload.check(Table.from_dict({"id": ids, "length_of_stay": los}))[0]
    assert not workload.check(
        Table.from_dict({"id": ids[1:], "length_of_stay": workload.expected_los[1:]})
    )[0]


def main() -> int:
    check_oracles()
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    layers = {}
    for workload in SPEC["workloads"]:
        first, result = run(workload, 0)
        assert result["correct"] and result["failed"] == 0, result
        assert set(result["metrics"]) == end_to_end, set(result["metrics"]) ^ end_to_end
        second, traced = run(workload, 1)
        assert traced["correct"] and traced["failed"] == 0, traced
        assert set(traced["metrics"]) == per_layer, set(traced["metrics"]) ^ per_layer
        assert first["fingerprint"] == second["fingerprint"], (
            workload, first["fingerprint"], second["fingerprint"]
        )
        layers[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        layers[workload]["fingerprint"] = first["fingerprint"]
        print(f"{workload}: fingerprint {json.dumps(first['fingerprint'])}")

    assert layers["http_predict"]["plan_cache.hit_ratio"] >= 0.99
    assert layers["write_mix"]["plan_cache.hit_ratio"] < 1.0
    assert layers["write_mix"]["distributed.ships_per_read"] > 0
    assert layers["write_mix"]["distributed.prune_ratio"] > 0
    assert layers["fig1_batch"]["optimizer.memo_groups"] > 0
    fig1 = layers["fig1_batch"]["fingerprint"]
    assert fig1["session_memo"]["groups"] > 0
    assert fig1["database_explain"]["memo_groups"] > 0
    assert layers["http_predict"]["batcher.rows_per_batch_mean"] > 0
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
