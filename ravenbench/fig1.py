"""fig1_batch: the paper's Fig. 1 inference query, ad hoc, over ~100k patients.

One closed-loop client sends ``hospital.INFERENCE_QUERY`` (3-way join,
PREDICT with the scaler+tree pipeline, two filters) and alternates,
in a seeded order, between ``RavenSession.execute`` and
``Database.execute``. Nothing is prepared, so every request is analyzed
and planned again.
"""

from __future__ import annotations

import numpy as np

from common import Tracer, closed_loop, p50
from layers import Subject, explain_counts

PATIENTS = 100_000
MODEL = "duration_of_stay"
#: The deployed model is the same for every seed: the seed picks the
#: patients, not the tree, so runs with different seeds do the same
#: planning and scoring work.
MODEL_SEED = 0
TRAINING_PATIENTS = 20_000


class Fig1Batch:
    name = "fig1_batch"
    cycle = 2

    def __init__(self, seed: int):
        from repro.data import hospital

        self.hospital = hospital
        self.dataset = hospital.generate(PATIENTS, seed=seed)
        self.pipeline = hospital.train_tree_pipeline(
            hospital.generate(TRAINING_PATIENTS, seed=MODEL_SEED),
            max_depth=8,
            seed=MODEL_SEED,
        )
        # The oracle: the model applied to the joined features in numpy,
        # then both filters; patients are generated in id order.
        features = self.dataset.features
        predicted = self.pipeline.predict(features)
        keep = (features[:, 1] == 1.0) & (predicted > 7)
        self.expected_ids = np.flatnonzero(keep).astype(np.int64)
        self.expected_los = predicted[keep].astype(np.float64)
        # Requests come in pairs, one per entry point, in a seeded order
        # within each pair, so any run of whole pairs has the same mix.
        rng = np.random.default_rng(seed)
        first = rng.integers(0, 2, 2048)
        self.entry_points = np.column_stack([first, 1 - first]).ravel()
        self.database = None
        self.session = None

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """From an empty Database to the first answer (set-up time)."""
        from repro import Database, RavenSession

        hospital = self.hospital
        self.database = Database()
        hospital.load_into(self.database, self.dataset)
        self.database.store_model(
            MODEL,
            self.pipeline,
            metadata={"feature_names": hospital.QUERY_FEATURE_NAMES},
        )
        self.session = RavenSession(self.database)
        return self.session.execute(hospital.INFERENCE_QUERY).table

    def check_first(self, answer) -> None:
        if not self.check(answer)[0]:
            raise RuntimeError("fig1_batch: the first answer is wrong")

    def close(self) -> None:
        if self.database is not None:
            self.database.close()

    # -- correctness -------------------------------------------------------

    def check(self, table) -> tuple[bool, int]:
        ids = np.asarray(table.column("id"), dtype=np.int64)
        los = np.asarray(table.column("length_of_stay"), dtype=np.float64)
        order = np.argsort(ids, kind="stable")
        correct = np.array_equal(ids[order], self.expected_ids) and np.array_equal(
            los[order], self.expected_los
        )
        return bool(correct), PATIENTS

    # -- the workload ------------------------------------------------------

    def _operation(self, index: int):
        sql = self.hospital.INFERENCE_QUERY
        if self.entry_points[index % len(self.entry_points)]:
            return "core.session_query", lambda: self.session.execute(sql).table
        return "relational.database_query", lambda: self.database.execute(sql)

    def measure(self, seconds: float, tracer: Tracer):
        def next_op(index):
            kind, run = self._operation(index)
            return kind, run, self.check

        window = closed_loop(next_op, seconds, tracer)
        # One latency per pair: the mean of the two entry points' medians
        # (the pooled median would fall between their two modes).
        medians = [p50(v) for v in window.latencies.values()]
        window.extra["primary"] = window.all_latencies()
        window.extra["latency_p50_s"] = sum(medians) / len(medians)
        return window

    def layer_counts(self, window) -> dict:
        """Every request is ad hoc: no prepared plan, batch or shard is used."""
        return dict.fromkeys(
            (
                "plan_cache.hit_ratio",
                "prepared.replans",
                "batcher.rows_per_batch_mean",
                "distributed.ships_per_read",
                "distributed.prune_ratio",
            ),
            0.0,
        )

    def fingerprint(self) -> dict:
        """Exact counts of one request per entry point."""
        sql = self.hospital.INFERENCE_QUERY
        graph = self.session.analyze(sql)
        _plan, report = self.session.optimize(graph)
        memo = report.memo or {}
        for kind in ("core.session_query", "relational.database_query"):
            run = (
                (lambda: self.session.execute(sql).table)
                if kind == "core.session_query"
                else (lambda: self.database.execute(sql))
            )
            if not self.check(run())[0]:
                raise RuntimeError(f"fig1_batch: wrong answer from {kind}")
        return {
            "session_memo": {
                "groups": memo.get("groups_created"),
                "expressions": memo.get("expressions_added"),
                "rules_fired": sorted(memo.get("rules_fired", [])),
            },
            "database_explain": explain_counts(
                self.database, _explain_sql(sql)
            ),
        }

    def subject(self) -> Subject:
        sql = self.hospital.INFERENCE_QUERY
        return Subject(
            session=self.session,
            database=self.database,
            sql=sql,
            data=None,
            prepared_sql=sql,
            params=[None] * 8,
            requests=[None] * 8,
            template=None,
            explain_sql=_explain_sql(sql),
            join_sql=_join_sql(sql),
            model=MODEL,
            pipeline=self.pipeline,
            features=self.dataset.features,
            request_rows=8,
            write_table="blood_tests",
            write_rows=self.dataset.blood_tests.slice(0, 64),
            sharded_table=None,
        )


def _explain_sql(sql: str) -> str:
    return sql.replace("WITH data AS", "EXPLAIN WITH data AS")


def _join_sql(sql: str) -> str:
    """The Fig. 1 CTE's 3-way join alone, without PREDICT or filters."""
    start = sql.index("SELECT pi.id")
    end = sql.index(")\nSELECT d.id")
    return sql[start:end]
