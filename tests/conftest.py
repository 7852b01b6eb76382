"""Shared fixtures: small seeded datasets and prebuilt databases."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.data import flights, hospital
from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    Pipeline,
    StandardScaler,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "allow_rule_errors: the test deliberately makes a memo rule raise",
    )


@pytest.fixture(autouse=True)
def _strict_memo_rules(request, monkeypatch):
    """Fail any test in which a memo search swallowed a rule exception.

    ``MemoOptimizer`` counts a raising rule in ``MemoStats.rule_errors``
    and keeps searching, so a broken rule would otherwise only lose
    plans silently. Tests that break a rule on purpose opt out with
    ``@pytest.mark.allow_rule_errors``.
    """
    from repro.core.optimizer.search import MemoOptimizer

    original = MemoOptimizer.optimize
    swallowed: list[int] = []

    def optimize(self, plan):
        best, report = original(self, plan)
        if report.stats.rule_errors:
            swallowed.append(report.stats.rule_errors)
        return best, report

    monkeypatch.setattr(MemoOptimizer, "optimize", optimize)
    yield
    if request.node.get_closest_marker("allow_rule_errors") is None:
        assert not swallowed, (
            f"memo searches swallowed {sum(swallowed)} rule exception(s)"
        )


@pytest.fixture(autouse=True)
def _no_leaked_pool_runtimes():
    """Fail any test that leaves a live worker pool behind.

    ``Database.close()`` must always tear down the distributed runtime's
    process pool; a leaked pool outlives the test and starves later
    fork-based tests of file descriptors. The check compares *pools*,
    not runtimes — ``database.distributed`` lazily creates a (poolless)
    runtime for stats snapshots, which is harmless.
    """
    from repro.distributed.runtime import live_pool_runtimes

    before = set(id(rt) for rt in live_pool_runtimes())
    yield
    leaked = [rt for rt in live_pool_runtimes() if id(rt) not in before]
    for runtime in leaked:
        runtime.shutdown()
    assert not leaked, (
        f"test leaked {len(leaked)} distributed pool runtime(s); "
        "close() the Database (or use it as a context manager)"
    )


@pytest.fixture(scope="session")
def hospital_small():
    """(database, dataset, pipeline) with 2000 hospital rows."""
    return hospital.setup_database(2000, seed=7, max_depth=6)


@pytest.fixture(scope="session")
def flights_small():
    """(database, dataset, pipeline) with 3000 flight rows."""
    return flights.setup_database(3000, seed=11)


@pytest.fixture()
def simple_db():
    """A tiny two-table database for relational tests."""
    db = Database()
    db.register_table(
        "people",
        Table.from_dict(
            {
                "id": np.array([1, 2, 3, 4], dtype=np.int64),
                "age": np.array([25.0, 35.0, 45.0, 55.0]),
                "city": np.array(["ny", "sf", "ny", "la"]),
            }
        ),
    )
    db.register_table(
        "salaries",
        Table.from_dict(
            {
                "id": np.array([1, 2, 3, 5], dtype=np.int64),
                "salary": np.array([50.0, 60.0, 70.0, 80.0]),
            }
        ),
    )
    return db


@pytest.fixture(scope="session")
def xy_binary():
    """A separable binary classification problem with known dead features."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, 6))
    w = np.array([2.0, 0.0, -1.5, 0.0, 1.0, 0.0])
    y = (X @ w + rng.normal(scale=0.3, size=800) > 0).astype(np.float64)
    return X, y


@pytest.fixture(scope="session")
def fitted_tree_pipeline(xy_binary):
    X, y = xy_binary
    pipe = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=5, random_state=0)),
        ]
    )
    return pipe.fit(X, y)


@pytest.fixture(scope="session")
def fitted_logistic_pipeline(xy_binary):
    X, y = xy_binary
    pipe = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", LogisticRegression(penalty="l1", C=0.02, max_iter=600)),
        ]
    )
    return pipe.fit(X, y)


@pytest.fixture()
def raven(hospital_small):
    database, _dataset, _pipeline = hospital_small
    return RavenSession(database)
