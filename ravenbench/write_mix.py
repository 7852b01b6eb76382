"""write_mix: prepared reads of a hash-sharded table beside writes to it.

The ``readings`` table is hash-sharded into 4 shards on ``device_id``.
One closed-loop client runs rounds of one ``INSERT INTO readings SELECT
* FROM batch`` (``Database.execute``) and 15 prepared PREDICT aggregates
routed by shard-key equality (``RavenSession.prepare(...).execute``);
every fifth round first stores a new model version
(``Database.store_model``). Each write moves table, statistics and shard
epochs or the model version, so the next reads replan, re-split and
re-ship shards that the other workloads keep warm.
"""

from __future__ import annotations

import numpy as np

from common import Tracer, Window, closed_loop
from layers import Subject, explain_counts

MODEL = "failure"
ROWS = 100_000
DEVICES = 64
SHARDS = 4
INSERT_ROWS = 50
READS_PER_ROUND = 15
MODEL_EVERY_ROUNDS = 5
MODEL_VERSIONS = 4
FEATURES = ["temp", "vib", "load", "hum"]
SQL = f"""
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = '{MODEL}');
SELECT COUNT(*) AS n, SUM(p.fail) AS fails
FROM PREDICT(MODEL = @model, DATA = readings AS d)
WITH (fail float) AS p
WHERE d.device_id = ?
"""


def _rows(rng: np.random.Generator, n: int) -> dict:
    x = rng.normal(size=(n, len(FEATURES)))
    columns = {"device_id": rng.integers(0, DEVICES, n).astype(np.int64)}
    columns.update({name: x[:, i] for i, name in enumerate(FEATURES)})
    return columns


def _train(seed: int):
    from repro.ml import DecisionTreeClassifier, Pipeline, StandardScaler

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(20_000, len(FEATURES)))
    shift = rng.normal(0.0, 0.3)
    y = ((x[:, 0] + 0.5 * x[:, 1] > 0.3 + shift) | (x[:, 2] > 1.2)).astype(np.float64)
    return Pipeline(
        [
            ("scaler", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=6, random_state=seed)),
        ]
    ).fit(x, y)


class WriteMix:
    name = "write_mix"
    #: Operations in one full cycle of rounds (one model version each).
    cycle = MODEL_EVERY_ROUNDS * (1 + READS_PER_ROUND) + 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.initial = _rows(self.rng, ROWS)
        # The model versions are the same for every seed: the seed picks
        # the rows, the devices read and the inserted batches.
        self.models = [_train(k) for k in range(MODEL_VERSIONS)]
        # The benchmark's own copy of the table: the initial rows, then
        # every inserted batch in order. Writes only append, so the table
        # a read saw is a prefix of this copy.
        self.batches: list[dict] = []
        self.rows = ROWS
        self.version = 0  # index into self.models of the stored latest
        self.stored = 1
        self.reads: list[tuple[int, int, int, object]] = []
        self.round = 0
        self.slot = 0
        self.database = self.session = self.prepared = None

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """From an empty Database to the first answer (set-up time)."""
        from repro import Database, RavenSession, Table

        self.database = Database()
        self.database.register_table("readings", Table.from_dict(self.initial))
        self.database.store_model(
            MODEL, self.models[0], metadata={"feature_names": FEATURES}
        )
        self.database.shard_table("readings", "device_id", SHARDS)
        self.session = RavenSession(self.database)
        self.prepared = self.session.prepare(SQL)
        return self.prepared.execute((0,))

    def check_first(self, answer) -> None:
        self.reads.append((0, self.rows, self.version, answer))
        if self.verify():
            raise RuntimeError("write_mix: the first answer is wrong")

    def close(self) -> None:
        if self.database is not None:
            self.database.close()

    # -- correctness -------------------------------------------------------

    def _columns(self, name: str) -> np.ndarray:
        return np.concatenate([self.initial[name]] + [b[name] for b in self.batches])

    def _predictions(self, version: int) -> np.ndarray:
        matrix = np.column_stack([self._columns(name) for name in FEATURES])
        return np.asarray(self.models[version].predict(matrix), dtype=np.float64)

    def verify(self) -> int:
        """Check every recorded read against the numpy oracle; count wrong."""
        devices = self._columns("device_id")
        predictions = {}
        wrong = 0
        for device, rows, version, result in self.reads:
            if version not in predictions:
                predictions[version] = self._predictions(version)
            mask = devices[:rows] == device
            try:
                correct = int(result.column("n")[0]) == int(mask.sum()) and float(
                    result.column("fails")[0]
                ) == float(predictions[version][:rows][mask].sum())
            except (KeyError, IndexError, TypeError):
                correct = False
            wrong += not correct
        self.reads.clear()
        return wrong

    # -- the workload ------------------------------------------------------

    def _next_kind(self) -> str:
        """Round ``r``: a model version every fifth round, one insert, reads."""
        store = self.round % MODEL_EVERY_ROUNDS == MODEL_EVERY_ROUNDS - 1
        kinds = (["model"] if store else []) + ["insert"] + ["read"] * READS_PER_ROUND
        kind = kinds[self.slot]
        self.slot += 1
        if self.slot == len(kinds):
            self.slot = 0
            self.round += 1
        return kind

    def next_op(self, _index: int):
        from repro import Table

        kind = self._next_kind()
        if kind == "read":
            device = int(self.rng.integers(0, DEVICES))
            rows, version = self.rows, self.version

            def check(result):
                self.reads.append((device, rows, version, result))
                return True, int(result.column("n")[0])

            return "read", lambda: self.prepared.execute((device,)), check
        if kind == "insert":
            batch = _rows(self.rng, INSERT_ROWS)
            table = Table.from_dict(batch)

            def insert():
                self.database.execute(
                    "INSERT INTO readings SELECT * FROM batch", data={"batch": table}
                )
                self.batches.append(batch)
                self.rows += INSERT_ROWS

            return "insert", insert, lambda _: (True, 0)
        version = self.stored % MODEL_VERSIONS

        def store():
            self.database.store_model(
                MODEL, self.models[version], metadata={"feature_names": FEATURES}
            )
            self.version = version
            self.stored += 1

        return "model", store, lambda _: (True, 0)

    def _counters(self) -> dict:
        plan_cache = self.session.plan_cache.stats()
        runtime = self.database.distributed.stats()
        return {
            "plan_cache_hits": plan_cache["hits"],
            "plan_cache_misses": plan_cache["misses"],
            "plan_cache_invalidations": plan_cache["invalidations"],
            "replans": self.prepared.replans,
            "shard_ships": runtime["shard_ships"],
            "shards_scanned": runtime["shards_scanned"],
            "shards_pruned": runtime["shards_pruned"],
        }

    def measure(self, seconds: float, tracer: Tracer) -> Window:
        before = self._counters()
        window = closed_loop(self.next_op, seconds, tracer)
        after = self._counters()
        wrong = self.verify()
        window.failed += wrong
        window.extra.update(
            primary=window.latencies.get("read", []),
            counters={key: after[key] - before[key] for key in after},
        )
        return window

    def layer_counts(self, window: Window) -> dict:
        counters = window.extra["counters"]
        reads = max(1, len(window.latencies.get("read", [])))
        routed = counters["shards_scanned"] + counters["shards_pruned"]
        return {
            "plan_cache.hit_ratio": 1.0 - counters["plan_cache_misses"] / reads,
            "prepared.replans": float(counters["replans"]),
            "batcher.rows_per_batch_mean": 0.0,
            "distributed.ships_per_read": counters["shard_ships"] / reads,
            "distributed.prune_ratio": counters["shards_pruned"] / max(1, routed),
        }

    def fingerprint(self) -> dict:
        """Exact counts over the first two rounds of operations.

        Shard ships are left out: with more than one pool worker, whether
        a task finds its shard already cached depends on which worker
        takes it, so the ship count varies between same-seed runs.
        """
        before = self._counters()
        for index in range(2 * (1 + READS_PER_ROUND)):
            _kind, run, check = self.next_op(index)
            check(run())
        after = self._counters()
        if self.verify():
            raise RuntimeError("write_mix: wrong answer in the fingerprint run")
        explain = SQL.replace("SELECT COUNT", "EXPLAIN SELECT COUNT").replace("?", "0")
        return {
            "counters": {
                key: after[key] - before[key] for key in after if key != "shard_ships"
            },
            "explain": explain_counts(self.database, explain),
        }

    def subject(self) -> Subject:
        from repro import Table

        devices = [int(d) for d in self.rng.integers(0, DEVICES, 8)]
        literal = SQL.replace("?", str(devices[0]))
        return Subject(
            session=self.session,
            database=self.database,
            sql=literal,
            data=None,
            prepared_sql=SQL,
            params=[(d,) for d in devices],
            requests=[None] * len(devices),
            template=None,
            explain_sql=literal.replace("SELECT COUNT", "EXPLAIN SELECT COUNT"),
            join_sql=(
                "SELECT COUNT(*) AS n FROM readings AS d "
                f"WHERE d.device_id = {devices[0]}"
            ),
            model=MODEL,
            pipeline=self.models[self.version],
            features=np.column_stack([self.initial[name] for name in FEATURES]),
            request_rows=ROWS // DEVICES,
            write_table="readings",
            write_rows=Table.from_dict(_rows(self.rng, INSERT_ROWS)),
            sharded_table="readings",
        )
