"""http_predict: online scoring of a few fresh patient rows per request.

Each request posts its rows as inline ``data`` to
``POST /prepared/los/execute``: a PREDICT query registered with
``batch=True`` and one ``?`` filter parameter. A run is a few passes,
each of which first keeps the server saturated with a closed loop, one
client per connection, for the throughput; then sends an open loop of
seeded Poisson arrivals at each rate of a fixed ladder, for the latency
at each rate and the highest rate that meets the p99 limit.
"""

from __future__ import annotations

import http.client
import json
import os

import numpy as np

from common import SPEC, Tracer, Window, percentile
from layers import Subject, explain_counts
from loadgen import (
    Rung,
    backlog_grew,
    poisson_schedule,
    run_rung,
    run_saturated,
    slice_rates,
)

MODEL = "duration_of_stay"
#: The deployed model is the same for every seed; the seed picks the
#: requests and their arrival times.
MODEL_SEED = 0
TRAINING_PATIENTS = 20_000
POOL_PATIENTS = 50_000
MAX_ROWS_PER_REQUEST = 8
#: Every generated patient is at least 16, so the filter keeps every row
#: and the query stays row-preserving, as the micro-batcher requires.
AGE_FLOOR = 16.0
SQL = f"""
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = '{MODEL}');
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = patients AS d)
WITH (length_of_stay float) AS p
WHERE d.age >= ?
"""
COLUMNS = ["id", "age", "pregnant", "gender", "bp", "heart_rate", "glucose"]
CONFIG = SPEC["workloads"]["http_predict"]
#: One connection, and one load thread, per processor.
CONNECTIONS = len(os.sched_getaffinity(0))


class HttpPredict:
    name = "http_predict"

    def __init__(self, seed: int):
        from repro import Table
        from repro.data import hospital

        self.seed = seed
        self.hospital = hospital
        training = hospital.generate(TRAINING_PATIENTS, seed=MODEL_SEED)
        self.pipeline = hospital.train_tree_pipeline(
            training, max_depth=8, seed=MODEL_SEED
        )
        pool = hospital.generate(POOL_PATIENTS, seed=seed + 1)
        self.pool = {
            "id": pool.patient_info.column("id").astype(np.int64),
            "age": pool.features[:, 0],
            "pregnant": pool.features[:, 1],
            "gender": pool.features[:, 2],
            "bp": pool.features[:, 3],
            "heart_rate": pool.features[:, 4],
            "glucose": pool.features[:, 5],
        }
        self.features = pool.features
        self.template = Table.from_dict({c: self.pool[c][:1] for c in COLUMNS})
        self.rng = np.random.default_rng(seed)
        self.cursor = 0
        self.database = self.session = self.server = self.frontdoor = None
        self.path = "/prepared/los/execute"

    # -- inputs ------------------------------------------------------------

    def _next_request(self) -> tuple[int, int]:
        rows = int(self.rng.integers(1, MAX_ROWS_PER_REQUEST + 1))
        if self.cursor + rows > POOL_PATIENTS:
            self.cursor = 0
        start = self.cursor
        self.cursor += rows
        return start, rows

    def _body(self, start: int, rows: int) -> bytes:
        columns = {c: self.pool[c][start : start + rows].tolist() for c in COLUMNS}
        return json.dumps(
            {"params": [AGE_FLOOR], "data": {"patients": {"columns": columns}}}
        ).encode()

    def _table(self, start: int, rows: int):
        from repro import Table

        return Table.from_dict({c: self.pool[c][start : start + rows] for c in COLUMNS})

    def _expected_payload(self, start: int, rows: int) -> dict:
        """The oracle: the same request through the in-process PreparedQuery."""
        from repro.serving.net import codec

        table = self.server.prepared("los").execute(
            (AGE_FLOOR,), {"patients": self._table(start, rows)}
        )
        return json.loads(json.dumps(codec.table_to_payload(table)))

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """From an empty Database to the first answer (set-up time)."""
        from repro import Database, HttpFrontDoor, RavenServer, RavenSession

        self.database = Database()
        self.database.store_model(
            MODEL,
            self.pipeline,
            metadata={"feature_names": self.hospital.QUERY_FEATURE_NAMES},
        )
        self.session = RavenSession(self.database)
        self.server = RavenServer(self.session)
        self.server.prepare("los", SQL, data={"patients": self.template}, batch=True)
        self.frontdoor = HttpFrontDoor(self.server)
        self.frontdoor.start()
        connection = http.client.HTTPConnection(self.frontdoor.host, self.frontdoor.port)
        try:
            connection.request("POST", self.path, body=self._body(0, 4))
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def check_first(self, answer) -> None:
        status, body = answer
        columns = json.loads(body)["columns"] if status == 200 else {}
        predicted = self.pipeline.predict(self.features[:4])
        if (
            columns.get("id") != self.pool["id"][:4].tolist()
            or columns.get("length_of_stay") != predicted.tolist()
        ):
            raise RuntimeError(f"http_predict: the first answer is wrong: {body!r}")

    def close(self) -> None:
        if self.frontdoor is not None:
            self.frontdoor.close()
        if self.server is not None:
            self.server.shutdown()
        if self.database is not None:
            self.database.close()

    # -- the workload ------------------------------------------------------

    def _counters(self) -> dict:
        snapshot = self.server.stats_snapshot()
        return {
            "histogram": dict(snapshot["batch_size_histogram"]),
            "misses": snapshot["plan_cache"]["misses"],
            "hits": snapshot["plan_cache"]["hits"],
            "invalidations": snapshot["plan_cache"]["invalidations"],
            "replans": self.server.prepared("los").replans,
        }

    def _rung(self, rate: float | None, offsets, count: int):
        requests = [self._next_request() for _ in range(count)]
        bodies = [self._body(start, rows) for start, rows in requests]
        return Rung(rate, offsets, bodies), requests

    def measure(self, seconds: float, tracer: Tracer) -> Window:
        """Passes of (saturation, then every ladder rung), checked at the end.

        Each step's time is split over several passes, so a step's
        samples come from across the window rather than one stretch.
        """
        ladder = CONFIG["ladder_rps"]
        passes = CONFIG["passes"]
        limit_s = CONFIG["p99_limit_ms"] / 1e3
        saturated_s = seconds * CONFIG["saturation_share"] / passes
        per_rung = (seconds / passes - saturated_s) / len(ladder)
        host, port = self.frontdoor.host, self.frontdoor.port
        before = self._counters()
        steps = []
        for _ in range(passes):
            # Bodies for four times the capacity measured on this
            # machine, so a faster server does not run out of requests.
            rung, requests = self._rung(
                None, None, int(4 * CONFIG["capacity_rps"] * saturated_s) + 64
            )
            with tracer.span("loadgen.saturated"):
                run_saturated(
                    host, port, self.path, rung, CONNECTIONS, saturated_s, tracer
                )
            steps.append((rung, requests))
            for rate in ladder:
                offsets = poisson_schedule(self.rng, rate, per_rung)
                rung, requests = self._rung(rate, offsets, len(offsets))
                with tracer.span(f"loadgen.rung_{rate}"):
                    run_rung(host, port, self.path, rung, CONNECTIONS, tracer)
                steps.append((rung, requests))
        after = self._counters()

        window = Window()
        with tracer.span("oracle"):
            for rung, requests in steps:
                for index, (start, rows) in enumerate(requests[: rung.sent]):
                    rung.wrong[index] = rung.status[index] != 200 or json.loads(
                        rung.answers[index]
                    ) != self._expected_payload(start, rows)
                    if not rung.wrong[index]:
                        window.rows += rows
                window.attempted += rung.sent
                window.failed += int(rung.wrong[: rung.sent].sum())

        saturated = [(rung, requests) for rung, requests in steps if rung.rate is None]
        slices = max(1, 10 // passes)
        ops_rates, row_rates = [], []
        for rung, requests in saturated:
            ops_rates += slice_rates(rung, slices=slices)
            row_rates += slice_rates(rung, [rows for _, rows in requests], slices)
        window.latencies["saturated"] = [
            x for rung, _ in saturated for x in rung.latency[: rung.sent]
        ]
        summaries = [
            _summarize(rate, [rung for rung, _ in steps if rung.rate == rate], limit_s)
            for rate in ladder
        ]
        for summary in summaries:
            window.wall_s += summary["wall_s"]
            window.latencies[f"rung_{summary['rate']}"] = summary.pop("latency")
        # Latency and the generator's lateness at the middle rung; the
        # top rung is past capacity, so there the generator must fall behind.
        middle = summaries[len(summaries) // 2]
        window.late = middle.pop("late")
        passing = [summary for summary in summaries if summary["passed"]]
        window.extra.update(
            primary=window.latencies[f"rung_{middle['rate']}"],
            chunk_ops_per_s=ops_rates,
            chunk_rows_per_s=row_rates,
            max_rate_rps=(
                max(passing, key=lambda summary: summary["rate"])["achieved_rps"]
                if passing
                else 0.0
            ),
            counters_before=before,
            counters_after=after,
            batches=_histogram_delta(before["histogram"], after["histogram"]),
            saturated={
                "connections": CONNECTIONS,
                "sent": sum(rung.sent for rung, _ in saturated),
                "p50_ms": percentile(window.latencies["saturated"], 50) * 1e3,
            },
            rungs=[
                {k: v for k, v in summary.items() if k != "late"}
                for summary in summaries
            ],
        )
        return window

    def layer_counts(self, window: Window) -> dict:
        """Each batch is one execution of the prepared plan."""
        before = window.extra["counters_before"]
        after = window.extra["counters_after"]
        batches = window.extra["batches"]
        executions = max(1, sum(batches.values()))
        rows = sum(int(size) * count for size, count in batches.items())
        return {
            "plan_cache.hit_ratio": 1.0 - (after["misses"] - before["misses"]) / executions,
            "prepared.replans": float(after["replans"] - before["replans"]),
            "batcher.rows_per_batch_mean": rows / executions,
            "distributed.ships_per_read": 0.0,
            "distributed.prune_ratio": 0.0,
        }

    def fingerprint(self) -> dict:
        """Exact counts of a fixed serial run of requests over HTTP.

        One request at a time, so each batch holds one request and the
        batch histogram does not depend on arrival timing.
        """
        before = self._counters()
        answer_bytes = 0
        connection = http.client.HTTPConnection(self.frontdoor.host, self.frontdoor.port)
        try:
            rng = np.random.default_rng(self.seed + 7)
            start = 0
            for _ in range(16):
                rows = int(rng.integers(1, MAX_ROWS_PER_REQUEST + 1))
                connection.request("POST", self.path, body=self._body(start, rows))
                response = connection.getresponse()
                answer = response.read()
                if json.loads(answer) != self._expected_payload(start, rows):
                    raise RuntimeError("http_predict: wrong answer in the fingerprint run")
                answer_bytes += len(answer)
                start += rows
        finally:
            connection.close()
        after = self._counters()
        explain = SQL.replace("SELECT d.id", "EXPLAIN SELECT d.id").replace("?", str(AGE_FLOOR))
        return {
            "batch_histogram": _histogram_delta(before["histogram"], after["histogram"]),
            "response_bytes": answer_bytes,
            "plan_cache": {
                key: after[key] - before[key] for key in ("hits", "misses", "invalidations")
            },
            "explain": explain_counts(
                self.database, explain, {"patients": self._table(0, 4)}
            ),
        }

    def subject(self) -> Subject:
        literal = SQL.replace("?", str(AGE_FLOOR))
        samples = [self._next_request() for _ in range(8)]
        requests = [{"patients": self._table(start, rows)} for start, rows in samples]
        return Subject(
            session=self.session,
            database=self.database,
            sql=literal,
            data=requests[0],
            prepared_sql=SQL,
            params=[(AGE_FLOOR,)] * len(requests),
            requests=requests,
            template={"patients": self.template},
            explain_sql=literal.replace("SELECT d.id", "EXPLAIN SELECT d.id"),
            join_sql=f"SELECT d.id, d.age FROM patients AS d WHERE d.age >= {AGE_FLOOR}",
            model=MODEL,
            pipeline=self.pipeline,
            features=self.features,
            request_rows=MAX_ROWS_PER_REQUEST // 2,
            write_table="request_log",
            write_rows=self._table(0, 64),
            sharded_table=None,
            server=self.server,
            frontdoor=self.frontdoor,
            prepared_name="los",
        )


def _summarize(rate: float, rungs: list, limit_s: float) -> dict:
    """One ladder rate over all its passes; it passes if every pass does."""
    latency = np.concatenate([rung.latency for rung in rungs])
    late = np.concatenate([rung.late for rung in rungs])
    wrong = any(rung.wrong.any() for rung in rungs)
    backlog = any(backlog_grew(rung, limit_s) for rung in rungs)
    wall_s = sum(rung.wall_s for rung in rungs)
    answered = sum(int(np.count_nonzero(~rung.wrong)) for rung in rungs)
    p99 = percentile(latency, 99)
    return {
        "rate": rate,
        "sent": len(latency),
        "achieved_rps": answered / wall_s,
        "wall_s": wall_s,
        "p50_ms": percentile(latency, 50) * 1e3,
        "p99_ms": p99 * 1e3,
        "late_p99_ms": percentile(late, 99) * 1e3,
        "backlog_grew": backlog,
        "passed": not wrong and p99 <= limit_s and not backlog,
        "latency": latency.tolist(),
        "late": late.tolist(),
    }


def _histogram_delta(before: dict, after: dict) -> dict:
    delta = {int(k): after[k] - before.get(k, 0) for k in after}
    return {str(k): v for k, v in sorted(delta.items()) if v}
