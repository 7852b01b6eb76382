"""Tests for the cross-optimizer's rules: memo rewrites, the IR post-pass,
and the memo's cost model."""

import re

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.core.analysis import SQLAnalyzer
from repro.core.optimizer import MemoOptimizer, SearchContext, cross_ir_rules
from repro.core.optimizer.rules import compile_clustered_pipeline
from repro.core.optimizer.search import ir_to_logical
from repro.data import flights, hospital


def analyze(db, sql):
    return SQLAnalyzer(db).analyze(sql)


def search_context(db):
    return SearchContext(catalog=db.catalog, models=db)


def memo_search(db, sql, rules=None):
    """``(best logical plan, MemoReport)`` of one memo search."""
    rules = cross_ir_rules() if rules is None else rules
    optimizer = MemoOptimizer(rules, search_context(db))
    return optimizer.optimize(ir_to_logical(analyze(db, sql)))


def unoptimized_cost(db, sql):
    """The memo cost model's price of the unoptimized plan."""
    plan = ir_to_logical(analyze(db, sql))
    context = search_context(db)
    context.prepare(plan)
    return context.cost_tree(plan)


def tree_nodes(pipeline):
    return pipeline.final_estimator.tree_.node_count


@pytest.fixture()
def hospital_env():
    return hospital.setup_database(3000, seed=5, max_depth=6)


class TestFilterPushdown:
    def test_input_conjunct_moves_below_predict(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db, options={"enable_inlining": False})
        graph, report = session.optimize(session.analyze(hospital.INFERENCE_QUERY))
        assert any(r.startswith("PushFilterBelowPredict") for r in report.applied)
        predict = graph.find("mld.pipeline")[0]
        below = graph.node(predict.inputs[0])
        assert below.op == "ra.filter"
        assert "pregnant" in repr(below.attrs["predicate"])
        # The prediction-output conjunct stays above.
        above = graph.parents_of(predict)[0]
        assert "length_of_stay" in repr(above.attrs["predicate"])

    def test_idempotent(self, hospital_env):
        db, _, _ = hospital_env
        rules = cross_ir_rules({"enable_inlining": False})
        best, first = memo_search(db, hospital.INFERENCE_QUERY, rules)
        assert "PushFilterBelowPredict" in first.stats.fired_rule_names()
        _, second = MemoOptimizer(rules, search_context(db)).optimize(best)
        assert "PushFilterBelowPredict" not in second.stats.fired_rule_names()


class TestPredicatePruning:
    def test_tree_shrinks_and_inputs_narrow(self, hospital_env):
        db, _, pipeline = hospital_env
        session = RavenSession(db, options={"enable_inlining": False})
        graph, report = session.optimize(session.analyze(hospital.INFERENCE_QUERY))
        assert any(r.startswith("PredicateBasedModelPruning") for r in report.applied)
        node = graph.find("mld.pipeline")[0]
        assert tree_nodes(node.attrs["pipeline"]) < tree_nodes(pipeline)
        assert len(node.attrs["feature_names"]) < len(
            hospital.QUERY_FEATURE_NAMES
        )

    def test_statistics_derived_predicates(self):
        """Columns constant in the stored data act as derived predicates."""
        rng = np.random.default_rng(0)
        n = 500
        X = np.column_stack(
            [np.full(n, 1.0), rng.normal(size=n)]  # col 'flag' is constant
        )
        y = (X[:, 1] > 0).astype(float)
        from repro.ml import DecisionTreeClassifier, Pipeline

        pipe = Pipeline(
            [("clf", DecisionTreeClassifier(max_depth=4, random_state=0))]
        ).fit(
            np.column_stack([rng.integers(0, 2, n).astype(float), X[:, 1]]), y
        )
        db = Database()
        db.register_table(
            "rows", Table.from_dict({"flag": X[:, 0], "x": X[:, 1]})
        )
        db.store_model("m", pipe, metadata={"feature_names": ["flag", "x"]})
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = rows AS d) "
            "WITH (y float) AS p"
        )
        session = RavenSession(
            db,
            options={
                "derive_statistics_predicates": True,
                "enable_inlining": False,
            },
        )
        graph, report = session.optimize(session.analyze(sql))
        assert any(r.startswith("PredicateBasedModelPruning") for r in report.applied)
        node = graph.find("mld.pipeline")[0]
        assert node.attrs["feature_names"] == ["x"]


class TestProjectionPushdownRule:
    def test_sparse_model_narrows_and_projects(self, flights_small):
        db, _, _ = flights_small
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'flight_delay');"
            "SELECT d.flight_id, p.delayed_pred FROM "
            "PREDICT(MODEL = @m, DATA = flights AS d) "
            "WITH (delayed_pred float) AS p"
        )
        session = RavenSession(db, options={"enable_inlining": False})
        graph, report = session.optimize(session.analyze(sql))
        pushdowns = [
            r for r in report.applied if r.startswith("ModelProjectionPushdown")
        ]
        # L1 zeroed some one-hot category weights: the model got narrower.
        assert pushdowns
        dropped = re.search(r"'features_dropped': (\d+)", pushdowns[0])
        assert int(dropped.group(1)) > 0
        node = graph.find("mld.pipeline")[0]
        assert len(node.attrs["feature_names"]) <= len(flights.FEATURE_NAMES)
        if len(node.attrs["feature_names"]) < len(flights.FEATURE_NAMES):
            # Whole input columns died too: data projection inserted.
            assert graph.node(node.inputs[0]).op == "ra.project"

    def test_narrowed_model_is_exact(self, flights_small):
        db, dataset, pipeline = flights_small
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'flight_delay');"
            "SELECT d.flight_id, p.delayed_pred FROM "
            "PREDICT(MODEL = @m, DATA = flights AS d) "
            "WITH (delayed_pred float) AS p"
        )
        session = RavenSession(db, options={"enable_inlining": False})
        optimized = session.execute(sql)
        baseline = session.execute(sql, optimize=False)
        assert np.allclose(
            np.sort(optimized.table.column("delayed_pred")),
            np.sort(baseline.table.column("delayed_pred")),
        )


class TestProjectionPruningSafety:
    def test_select_list_survives_order_by_and_limit(self, hospital_env):
        """Regression: the result projection must keep every requested
        column even when ORDER BY/LIMIT sit above it in the plan."""
        db, _, _ = hospital_env
        query = hospital.INFERENCE_QUERY.replace(
            "SELECT d.id, p.length_of_stay",
            "SELECT d.id, d.age, p.length_of_stay",
        ) + " ORDER BY d.id LIMIT 5"
        result = RavenSession(db).execute(query)
        assert result.table.schema.names == ("id", "age", "length_of_stay")
        assert result.table.num_rows == 5


class TestJoinEliminationRule:
    def test_fig1_join_dropped_after_pruning(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db)
        result = session.execute(hospital.INFERENCE_QUERY)
        assert any("JoinElimination" in r for r in result.report.applied)
        remaining_scans = {
            n.attrs["table"] for n in result.plan.find("ra.scan")
        }
        assert "prenatal_tests" not in remaining_scans

    def test_not_dropped_when_columns_needed(self, hospital_env):
        db, _, _ = hospital_env
        query = hospital.INFERENCE_QUERY.replace(
            "SELECT d.id, p.length_of_stay",
            "SELECT d.id, d.heart_rate, p.length_of_stay",
        )
        session = RavenSession(db)
        result = session.execute(query)
        remaining_scans = {
            n.attrs["table"] for n in result.plan.find("ra.scan")
        }
        assert "prenatal_tests" in remaining_scans

    def test_not_dropped_without_fk_containment(self):
        db = Database()
        db.register_table(
            "a", Table.from_dict({"id": np.arange(10), "x": np.arange(10.0)})
        )
        # b is missing half the keys: the join filters rows.
        db.register_table(
            "b", Table.from_dict({"id": np.arange(5), "y": np.arange(5.0)})
        )
        from repro.ml import DecisionTreeRegressor, Pipeline

        X = np.arange(10.0).reshape(-1, 1)
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=2))]).fit(X, X[:, 0])
        db.store_model("m", pipe, metadata={"feature_names": ["x"]})
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm');"
            "SELECT p.z FROM PREDICT(MODEL = @m, "
            "DATA = (SELECT a.id AS id, a.x AS x, b.y AS y FROM a AS a "
            "JOIN b AS b ON a.id = b.id) AS d) WITH (z float) AS p"
        )
        session = RavenSession(db)
        result = session.execute(sql)
        assert result.table.num_rows == 5  # join semantics preserved
        tables = {n.attrs["table"] for n in result.plan.find("ra.scan")}
        assert "b" in tables


class TestSplitting:
    def test_union_of_pruned_branches(self, hospital_env):
        db, dataset, _ = hospital_env
        session_split = RavenSession(
            db, options={"enable_splitting": True, "enable_inlining": False}
        )
        result = session_split.execute(hospital.INFERENCE_QUERY)
        splits = [r for r in result.report.applied if "ModelQuerySplitting" in r]
        # The split works on the pruned model, so never on a column the
        # WHERE clause already fixes (pregnant = 1).
        assert splits and "pregnant" not in splits[0]
        assert result.plan.find("ra.union_all")
        assert result.report.strategy == "memo"
        assert result.report.memo["rule_errors"] == 0
        # Same rows as the unsplit plan.
        plain = RavenSession(db).execute(hospital.INFERENCE_QUERY)
        assert sorted(result.table.column("id").tolist()) == sorted(
            plain.table.column("id").tolist()
        )

    def test_inlined_branch_keeps_union_width(self, hospital_env):
        """The memo inlines one branch here and scores the other in
        process; projection pruning must not narrow the inlined one,
        since UNION ALL aligns its branches by position."""
        db, _, _ = hospital_env
        result = RavenSession(db, options={"enable_splitting": True}).execute(
            hospital.INFERENCE_QUERY
        )
        (union,) = result.plan.find("ra.union_all")
        assert sorted(result.plan.node(i).op for i in union.inputs) == [
            "mld.pipeline",
            "ra.project",
        ]
        plain = RavenSession(db).execute(hospital.INFERENCE_QUERY)
        assert sorted(result.table.column("id").tolist()) == sorted(
            plain.table.column("id").tolist()
        )

    @pytest.mark.parametrize(
        "nn_translation, scoring_op",
        [(False, "mld.pipeline"), (True, "la.tensor_graph")],
    )
    def test_branches_are_not_split_again(
        self, hospital_env, nn_translation, scoring_op
    ):
        """Exactly two scoring branches; with NN translation on too, each
        branch is translated (the split is not raced by translation)."""
        db, _, _ = hospital_env
        session = RavenSession(
            db,
            options={
                "enable_splitting": True,
                "enable_inlining": False,
                "enable_nn_translation": nn_translation,
            },
        )
        graph, report = session.optimize(session.analyze(hospital.INFERENCE_QUERY))
        (union,) = graph.find("ra.union_all")
        branches = [graph.node(i) for i in union.inputs]
        assert [b.op for b in branches] == [scoring_op, scoring_op]
        assert len(graph.find(scoring_op)) == 2
        splits = [r for r in report.applied if r.startswith("ModelQuerySplitting")]
        assert len(splits) == 1


class TestInliningRule:
    def test_small_tree_inlined(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db)
        result = session.execute(hospital.INFERENCE_QUERY)
        assert any("ModelInlining" in r for r in result.report.applied)
        assert not result.plan.find("mld.pipeline")

    def test_big_tree_not_inlined(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db, options={"max_inline_nodes": 2})
        result = session.execute(hospital.INFERENCE_QUERY)
        assert not any("ModelInlining" in r for r in result.report.applied)
        assert result.plan.find("mld.pipeline")


class TestNNTranslationRule:
    def test_pipeline_becomes_tensor_graph(self, hospital_env):
        db, dataset, pipeline = hospital_env
        session = RavenSession(
            db,
            options={"enable_inlining": False, "enable_nn_translation": True},
        )
        result = session.execute(hospital.INFERENCE_QUERY)
        assert any("NNTranslation" in r for r in result.report.applied)
        (node,) = result.plan.find("la.tensor_graph")
        assert node.attrs["device"] == "cpu"
        # Translated from the predicate-pruned model.
        assert len(node.attrs["feature_names"]) < len(
            hospital.QUERY_FEATURE_NAMES
        )
        assert result.report.strategy == "memo"
        assert result.report.memo["rule_errors"] == 0
        # And results still match the in-process plan.
        plain = RavenSession(
            db, options={"enable_inlining": False}
        ).execute(hospital.INFERENCE_QUERY)
        assert sorted(result.table.column("id").tolist()) == sorted(
            plain.table.column("id").tolist()
        )


class TestClusteredModel:
    def test_per_cluster_models_are_narrower(self, flights_small):
        _db, dataset, pipeline = flights_small
        clustered = compile_clustered_pipeline(
            pipeline,
            dataset.features[:1500],
            n_clusters=8,
            cluster_columns=[0, 1, 2],
            random_state=0,
        )
        full_width = len(pipeline.final_estimator.coef_)
        assert clustered.average_model_width() < full_width
        assert clustered.compile_seconds > 0

    def test_predictions_match_original(self, flights_small):
        _db, dataset, pipeline = flights_small
        clustered = compile_clustered_pipeline(
            pipeline,
            dataset.features[:2000],
            n_clusters=4,
            cluster_columns=[2],  # destination airport
            random_state=0,
        )
        reference = pipeline.predict(dataset.features)
        routed = clustered.predict(dataset.features)
        assert np.array_equal(reference, routed)


class TestEnginesAndCost:
    def test_cost_based_reduces_cost(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db)
        _, report = session.optimize(session.analyze(hospital.INFERENCE_QUERY))
        assert report.cost_after < report.cost_before

    def test_engine_assignment(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db, options={"enable_inlining": False})
        result = session.execute(hospital.INFERENCE_QUERY)
        engines = {n.engine for n in result.plan.nodes()}
        assert "relational" in engines
        assert "python" in engines  # the in-process pipeline node

    def test_memo_cost_monotone_in_rows(self):
        small_db, _, _ = hospital.setup_database(500, seed=1, max_depth=4)
        big_db, _, _ = hospital.setup_database(5000, seed=1, max_depth=4)
        big = unoptimized_cost(big_db, hospital.INFERENCE_QUERY)
        assert big > unoptimized_cost(small_db, hospital.INFERENCE_QUERY)

    def test_rule_order_ablation(self, hospital_env):
        """The memo with predicate-based pruning costs no more than the
        memo without it (pruning before inlining: a smaller CASE)."""
        db, _, _ = hospital_env
        rules = cross_ir_rules()
        no_pruning = [r for r in rules if r.name != "PredicateBasedModelPruning"]
        assert len(no_pruning) == len(rules) - 1
        _, full = memo_search(db, hospital.INFERENCE_QUERY, rules)
        _, partial = memo_search(db, hospital.INFERENCE_QUERY, no_pruning)
        assert full.cost <= partial.cost
