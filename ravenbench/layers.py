"""Per-layer measurements for the traced run.

Each workload describes itself as a :class:`Subject`: its session, its
read (ad hoc and prepared), its model and a write target. The same
replays then run on every workload, each through one layer's public
entry point, so a layer metric has one definition across workloads.
A workload that does not use a layer still gets the layer's cost on
its own request (what the layer would add), and its counts read 0.
"""

from __future__ import annotations

import http.client
import json
import re
from dataclasses import dataclass

import numpy as np

from common import clock, p50, timed_ms

#: Repeats of each replay; medians are reported.
REPEATS = 5
HTTP_SAMPLES = 8
SMALL_BATCH_REPEATS = 200
LARGE_BATCH_ROWS = 100_000


@dataclass
class Subject:
    session: object
    database: object
    #: The workload's read as ad hoc SQL (literal parameters) and the
    #: request tables it reads, if any.
    sql: str
    data: dict | None
    #: The same read as a prepared query: SQL with ``?`` placeholders,
    #: one params tuple and one request-data dict per replayed sample.
    prepared_sql: str
    params: list
    requests: list
    template: dict | None
    explain_sql: str
    #: The read's relational part alone (the Fig. 1 CTE's join, or the
    #: scan and filter where the read has no join).
    join_sql: str
    model: str
    pipeline: object
    #: Feature matrix in the model's input order, for scoring replays.
    features: np.ndarray
    request_rows: int
    write_table: str
    write_rows: object
    sharded_table: str | None
    #: The workload's own server, when it serves over HTTP.
    server: object = None
    frontdoor: object = None
    prepared_name: str | None = None


def explain_counts(database, explain_sql: str, data=None) -> dict:
    """Memo counters and the backend of each Predict, read from EXPLAIN."""
    lines = list(database.execute(explain_sql, data)["plan"])
    text = "\n".join(lines)
    memo = re.search(r"memo: groups=(\d+) expressions=(\d+)", text)
    rules = re.search(r"memo rules: (.*)", text)
    return {
        "memo_groups": int(memo.group(1)) if memo else 0,
        "memo_expressions": int(memo.group(2)) if memo else 0,
        "rules_fired": rules.group(1).split(", ") if rules else [],
        "predict_backends": re.findall(r"Predict model=\S+ backend=(\w+)", text),
        "shards": re.findall(r"shards=(\d+/\d+)", text),
    }


def _body(params, request) -> bytes:
    payload: dict = {}
    if params is not None:
        payload["params"] = list(params)
    if request is not None:
        payload["data"] = {
            name: {
                "columns": {
                    column: table.column(column).tolist()
                    for column in table.schema.names
                }
            }
            for name, table in request.items()
        }
    return json.dumps(payload).encode()


def measure_net(subject: Subject) -> dict:
    """HTTP round trip against the same request's in-process layers."""
    from repro import HttpFrontDoor, RavenServer
    from repro.serving.net import codec, http11

    server, frontdoor, name = subject.server, subject.frontdoor, subject.prepared_name
    own = server is None
    if own:
        server = RavenServer(subject.session)
        name = "replay"
        server.prepare(name, subject.prepared_sql, data=subject.template)
        frontdoor = HttpFrontDoor(server)
        frontdoor.start()
    samples = {k: [] for k in ("rtt", "query", "execute", "decode", "encode")}
    response_bytes = []
    wrong = 0
    connection = http.client.HTTPConnection(frontdoor.host, frontdoor.port)
    try:
        prepared = server.prepared(name)
        for params, request in zip(subject.params, subject.requests):
            body = _body(params, request)
            start = clock()
            payload = codec.parse_json_body(body)
            codec.payload_to_tables(payload.get("data"))
            samples["decode"].append(clock() - start)

            start = clock()
            connection.request(
                "POST",
                f"/prepared/{name}/execute",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            answer = response.read()
            samples["rtt"].append(clock() - start)
            response_bytes.append(len(answer))

            start = clock()
            server.query(name, params, request, timeout=60)
            samples["query"].append(clock() - start)

            start = clock()
            result = prepared.execute(params, request)
            samples["execute"].append(clock() - start)

            start = clock()
            http11.json_response(codec.table_to_payload(result)).encode()
            samples["encode"].append(clock() - start)
            if response.status != 200 or json.loads(answer) != json.loads(
                json.dumps(codec.table_to_payload(result))
            ):
                wrong += 1
        rejected = server.stats_snapshot()["rejected"]
    finally:
        connection.close()
        if own:
            frontdoor.close()
            server.shutdown()
    ms = {k: [x * 1e3 for x in v] for k, v in samples.items()}
    # RavenServer.query covers the hand-off and PreparedQuery.execute.
    unattributed = [
        rtt - (decode + query + encode)
        for rtt, query, decode, encode in zip(
            ms["rtt"], ms["query"], ms["decode"], ms["encode"]
        )
    ]
    return {
        "net.decode_us_p50": p50(ms["decode"]) * 1e3,
        "net.encode_us_p50": p50(ms["encode"]) * 1e3,
        "net.response_bytes": float(p50(response_bytes)),
        "net.overhead_ms_p50": p50([r - q for r, q in zip(ms["rtt"], ms["query"])]),
        "net.unattributed_ms_p50": p50(unattributed),
        "server.handoff_ms_p50": p50(
            [q - e for q, e in zip(ms["query"], ms["execute"])]
        ),
        "server.rejected": float(rejected),
        "_wrong": wrong,
    }


def backend_of(subject: Subject) -> str:
    """The scoring backend the workload's plan chose for its Predict."""
    counts = explain_counts(subject.database, subject.explain_sql, subject.data)
    backends = counts["predict_backends"]
    return backends[0] if backends else "numpy"


def measure_scoring(subject: Subject) -> dict:
    from repro.tensor import InferenceSession, convert

    backend = backend_of(subject)
    features = np.ascontiguousarray(subject.features, dtype=np.float64)
    graph = convert(subject.pipeline, n_features=features.shape[1])
    session = InferenceSession(graph, backend=backend)
    feed = session.input_names[0]
    reps = -(-LARGE_BATCH_ROWS // len(features))
    large = np.ascontiguousarray(np.tile(features, (reps, 1))[:LARGE_BATCH_ROWS])
    small = np.ascontiguousarray(features[: subject.request_rows])
    large_ms = timed_ms(lambda: session.run({feed: large}), REPEATS)
    small_ms = timed_ms(lambda: session.run({feed: small}), SMALL_BATCH_REPEATS)
    return {
        "scoring.large_batch_ms_per_100k_rows": p50(large_ms),
        "scoring.small_batch_us_p50": p50(small_ms) * 1e3,
    }


def measure_planning(subject: Subject) -> dict:
    session, database = subject.session, subject.database
    analyze_ms, optimize_ms = [], []
    plan = report = None
    for _ in range(REPEATS):
        start = clock()
        graph = session.analyze(subject.sql, subject.data)
        middle = clock()
        plan, report = session.optimize(graph)
        end = clock()
        analyze_ms.append((middle - start) * 1e3)
        optimize_ms.append((end - middle) * 1e3)
    memo = report.memo or {}
    prepared = session.prepare(subject.prepared_sql, data=subject.template)
    samples = list(zip(subject.params, subject.requests))
    prepared_ms = []
    for index in range(REPEATS * 2):
        params, request = samples[index % len(samples)]
        start = clock()
        prepared.execute(params, request)
        prepared_ms.append((clock() - start) * 1e3)
    return {
        "optimizer.analyze_ms_p50": p50(analyze_ms),
        "optimizer.optimize_ms_p50": p50(optimize_ms),
        "optimizer.memo_groups": float(memo.get("groups_created", 0)),
        "optimizer.memo_expressions": float(memo.get("expressions_added", 0)),
        "optimizer.rules_fired": float(len(memo.get("rules_fired", []))),
        "executor.execute_ms_p50": p50(
            timed_ms(lambda: session.executor.execute(plan), REPEATS)
        ),
        "executor.join_ms_p50": p50(
            timed_ms(lambda: database.execute(subject.join_sql, subject.data), REPEATS)
        ),
        "core.session_query_ms_p50": p50(
            timed_ms(lambda: session.execute(subject.sql, subject.data), REPEATS)
        ),
        "relational.database_query_ms_p50": p50(
            timed_ms(lambda: database.execute(subject.sql, subject.data), REPEATS)
        ),
        "prepared.execute_ms_p50": p50(prepared_ms),
    }


def measure_unsharded(subject: Subject) -> dict:
    """The prepared read on an unsharded copy of the workload's tables.

    The copy is a ``Database()`` with default ExecutionOptions, as the
    workloads' own databases are, so only the sharding differs.
    """
    from repro import Database, RavenSession

    database = subject.database
    copy = None
    if subject.sharded_table is not None:
        copy = Database()
        for name in database.catalog.table_names():
            copy.register_table(name, database.table(name))
        entry = database.get_model(subject.model)
        copy.store_model(subject.model, entry.payload, metadata=entry.metadata)
        session = RavenSession(copy)
    else:
        session = subject.session
    try:
        prepared = session.prepare(subject.prepared_sql, data=subject.template)
        samples = list(zip(subject.params, subject.requests))
        ms = []
        for index in range(REPEATS * 2):
            params, request = samples[index % len(samples)]
            start = clock()
            prepared.execute(params, request)
            ms.append((clock() - start) * 1e3)
    finally:
        if copy is not None:
            copy.close()
    return {"distributed.unsharded_read_ms_p50": p50(ms)}


def measure_writes(subject: Subject) -> dict:
    """INSERT into the workload's write table, then refresh its statistics.

    This mutates the workload's data, so it runs last.
    """
    database = subject.database
    if not database.catalog.has_table(subject.write_table):
        database.register_table(subject.write_table, subject.write_rows)
    insert_ms, refresh_ms = [], []
    for _ in range(REPEATS):
        start = clock()
        database.execute(
            f"INSERT INTO {subject.write_table} SELECT * FROM bench_rows",
            data={"bench_rows": subject.write_rows},
        )
        middle = clock()
        database.catalog.table_statistics(subject.write_table)
        end = clock()
        insert_ms.append((middle - start) * 1e3)
        refresh_ms.append((end - middle) * 1e3)
    return {
        "insert_p50_ms": p50(insert_ms),
        "catalog.stats_refresh_ms_p50": p50(refresh_ms),
    }


def measure_layers(subject: Subject) -> dict:
    metrics: dict = {}
    metrics.update(measure_planning(subject))
    metrics.update(measure_scoring(subject))
    metrics.update(measure_net(subject))
    metrics.update(measure_unsharded(subject))
    metrics.update(measure_writes(subject))
    return metrics
