"""The unified memo search engine (Cascades exploration + DP join order).

Every planner in the system drives plan search through this module:

* ``Database.execute`` / ``EXPLAIN`` — the SQL physical planner
  (:class:`repro.relational.algebra.planner.PhysicalPlanner`) registers
  the relational rule set (filter merge, predicate pushdown, join
  ordering) plus the catalog-model rewrites (predicate-based pruning,
  projection pushdown) and extracts the cheapest plan.
* ``RavenSession.optimize`` — the cross-IR optimizer converts the
  unified IR to a logical tree (:func:`ir_to_logical`), adds the ML
  rules that change execution strategy (model inlining, plus the
  opt-in model/query splitting and NN translation), searches the same
  memo, and lowers the winner back (:func:`logical_to_ir`).

Relational and ML transformations therefore compete as *memo rules
under one cost model*, which is the paper's §4.3 "Cascades-style
cost-based optimizer" claim. Join ordering is Selinger-style dynamic
programming inside the memo: every join subset becomes a memo group,
bushy shapes are allowed, and the search falls back to the PR 2 greedy
heuristic above a size guard.

Scoring operators are priced per row from the model's shape plus a
charge per consumed feature (so narrowed models win); inlined CASE
projections are priced from their vectorized evaluation (calibrated
against the Fig. 2(c) inlining benchmark) rather than per expression
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.ir.graph import IRGraph
from repro.core.optimizer.memo import Memo, MemoStats
from repro.distributed.operators import (
    Gather,
    Repartition,
    ShardScan,
    Shuffle,
    ShuffleJoin,
    StageInput,
)
from repro.distributed.routing import (
    colocated_shard_ids,
    compatible_layouts,
    hash_class,
    surviving_shards,
)
from repro.distributed.serialize import (
    expression_is_serializable,
    fragment_is_serializable,
)
from repro.core.optimizer.ml_rewrites import (
    ColumnFacts,
    UnsupportedRewrite,
    apply_predicate_pruning,
    apply_projection_pushdown,
    pipeline_to_expression,
    split_pipeline,
)
from repro.errors import OptimizerError, UnsupportedOpError
from repro.ml.ensemble import (
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.relational.algebra import logical
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    Literal,
    conjoin,
    conjuncts,
    equality_constants,
    range_bounds,
)
from repro.relational.statistics import (
    DEFAULT_ROW_ESTIMATE,
    DEFAULT_SELECTIVITY,
    TableStatistics,
    column_stats_resolver,
    constant_columns,
    combine_aggregate_estimate,
    combine_join_estimate,
    estimate_predicate_selectivity,
    group_keys_cardinality,
    join_condition_selectivity,
)
from repro.relational.types import Column, Schema

# -- search configuration ----------------------------------------------------

#: Smallest INNER/CROSS chain the join-order rule rewrites.
MIN_JOIN_RELATIONS = 3

#: Largest chain priced by exhaustive (bushy) DP; beyond this the rule
#: falls back to the greedy seed. 2^10 subsets keeps full DP under a
#: few tens of milliseconds in pure Python.
DP_MAX_RELATIONS = 10

#: The PR 2 greedy planner's cap, kept for the ``legacy`` search mode
#: (benchmark baseline): chains above it are left in FROM order.
LEGACY_MAX_RELATIONS = 6

# -- cost model --------------------------------------------------------------

ENGINE_SWITCH_COST = 500.0  # hand a batch across engines
FEATURE_COST = 0.2  # per row, per feature a scoring operator consumes
CASE_NODE_WEIGHT = 0.02  # vectorized CASE evaluation, per expression node
COLUMN_ITEM_COST = 0.05  # projecting an existing column is a dict re-pick

# Distributed execution weights. A fragment dispatch pays plan
# serialization + IPC round-trip regardless of data size; gathered rows
# pay a per-row pickle/concat toll. Together they make scatter-gather
# lose on small tables and cheap fragments (where the in-process morsel
# path is already optimal) and win when per-row fragment work dominates.
FRAGMENT_DISPATCH_COST = 2_000.0  # per dispatched fragment
GATHER_ROW_COST = 0.3  # per gathered result row (IPC + concat)
REPARTITION_ROW_COST = 0.5  # hash + stable reorder, per input row

# Shuffle-join weights. The map side hash-partitions vectorized
# (cheaper than the local Repartition's stable reorder) and every row
# crosses the coordinator once on its way to the owning bucket worker;
# the bucket joins then run the executor's per-row hash-join loop in
# parallel. Together: a shuffle loses to the coordinator join on small
# inputs (dispatch + tolls dominate) and wins once the Python join
# loop over hundreds of thousands of rows is the bottleneck.
SHUFFLE_PARTITION_ROW_COST = 0.2  # per map-output row (hash + split)
SHUFFLE_TRANSFER_ROW_COST = 0.2  # per row routed through the coordinator


def _node_count(expr: Expression) -> int:
    return sum(1 for _ in expr.walk())


def _item_cost(expr: Expression) -> float:
    """Per-row cost of one projection item."""
    if isinstance(expr, ColumnRef):
        return COLUMN_ITEM_COST
    if isinstance(expr, CaseWhen):
        return CASE_NODE_WEIGHT * _node_count(expr)
    return 1.0 + sum(_item_cost(child) for child in expr.children())


def _pipeline_row_cost(pipeline) -> float:
    """Per-row scoring cost of an in-process pipeline."""
    transformers, predictor = split_pipeline(pipeline)
    cost = 2.0 * len(transformers)
    tree = getattr(predictor, "tree_", None)
    if tree is not None:
        return cost + tree.max_depth() * 1.5
    estimators = getattr(predictor, "estimators_", None)
    if estimators:
        return cost + sum(t.tree_.max_depth() * 1.5 for t in estimators)
    coef = getattr(predictor, "coef_", None)
    if coef is not None:
        return cost + 0.1 * len(coef)
    coefs = getattr(predictor, "coefs_", None)
    if coefs:
        return cost + 0.05 * sum(w.size for w in coefs)
    return cost + 10.0


def predict_row_cost(op: logical.Predict, ctx: "SearchContext") -> float:
    """Per-row scoring cost of a Predict operator, flavor-aware."""
    resolved = ctx.pipeline_for(op)
    features = resolved[1] if resolved else (op.feature_names or ())
    feature_cost = FEATURE_COST * len(features or ())
    flavor = ctx.predict_flavor(op)
    if flavor == "tensor.graph":
        graph = op.payload
        per_row = 0.2 * (len(graph.nodes) if graph is not None else 10)
        return feature_cost + per_row
    if flavor == "python.script":
        return feature_cost + 20.0
    if resolved is not None:
        return feature_cost + _pipeline_row_cost(resolved[0])
    return feature_cost + 10.0


def hash_join_cost(
    left_rows: float,
    right_rows: float,
    kind: str,
    condition: Expression | None,
    resolver,
) -> float:
    """Cost of one hash join as the executor actually runs it.

    The executor hashes on a *single* equi-conjunct and evaluates the
    remaining conjuncts as a residual filter over the matched rows —
    so a multi-conjunct join's intermediate cardinality is governed by
    its most selective single conjunct, not the product of all of them.
    Pricing that honestly keeps the DP search from bundling relations
    into wide cross products "paid for" by a many-conjunct condition
    the executor cannot actually hash on.
    """
    build_and_probe = (left_rows + right_rows) * 1.0
    if condition is None:
        return build_and_probe + left_rows * right_rows * 0.5
    parts = conjuncts(condition)
    best = None
    for part in parts:
        selectivity = join_condition_selectivity(part, resolver)
        if selectivity is not None and (best is None or selectivity < best):
            best = selectivity
    matched = combine_join_estimate(left_rows, right_rows, kind, best)
    residual = max(0, len(parts) - 1)
    return build_and_probe + matched * (0.5 + 0.3 * residual)


def order_by_selectivity(
    parts: list[Expression], resolver
) -> list[Expression]:
    """Most selective conjunct first — the executor hashes on the first
    equi-conjunct it sees, so this ordering is itself an optimization."""

    def key(part: Expression) -> float:
        selectivity = join_condition_selectivity(part, resolver)
        return (
            selectivity if selectivity is not None else DEFAULT_SELECTIVITY
        )

    return sorted(parts, key=key)


def operator_cost(
    op: logical.LogicalOp,
    rows: float,
    child_rows: list[float],
    ctx: "SearchContext",
) -> float:
    """Total cost of one operator given its (group) cardinalities."""
    if isinstance(op, (logical.Scan, logical.InlineTable, ShardScan)):
        return rows * 0.1
    if isinstance(op, Gather):
        # Per-shard fragment cost is priced over the fragment tree
        # (whose ShardScan leaves already carry per-shard cardinality);
        # shards run concurrently on the worker pool, so the fragment
        # cost is paid once per wave, not once per shard. Co-located
        # join fragments price identically — the join inside the
        # fragment runs over 1/K-sized inputs per worker.
        fragment_cost = ctx.cost_tree(op.fragment)
        workers = max(1, ctx.shard_workers())
        waves = -(-max(1, op.shards_scanned) // workers)
        return (
            FRAGMENT_DISPATCH_COST * op.shards_scanned
            + fragment_cost * waves
            + rows * GATHER_ROW_COST
        )
    if isinstance(op, ShuffleJoin):
        return shuffle_join_cost(op, rows, ctx)
    if isinstance(op, Shuffle):
        return _shuffle_side_cost(op, ctx)
    input_rows = child_rows[0] if child_rows else rows
    if isinstance(op, Repartition):
        return input_rows * REPARTITION_ROW_COST
    if isinstance(op, logical.Filter):
        return input_rows * 0.3 * len(conjuncts(op.predicate))
    if isinstance(op, logical.Project):
        return rows * 0.1 * sum(_item_cost(e) for e, _ in op.items)
    if isinstance(op, logical.Join):
        left = child_rows[0] if child_rows else rows
        right = child_rows[1] if len(child_rows) > 1 else rows
        return hash_join_cost(left, right, op.kind, op.condition, ctx.resolver)
    if isinstance(op, (logical.OrderBy, logical.Distinct)):
        return rows * 2.0
    if isinstance(op, logical.Aggregate) and op.group_by:
        # Grouped aggregation walks every input row in Python (the
        # composite-key and group-representative loops), so it is
        # priced per *input* row — which is what makes shard-local
        # partial aggregation (touching 1/Nth of the rows per worker)
        # worth a fan-out.
        return input_rows * 0.6 + rows * 0.2
    if isinstance(op, (logical.Limit, logical.UnionAll, logical.Aggregate)):
        return rows * 0.2
    if isinstance(op, logical.Predict):
        switch = ENGINE_SWITCH_COST
        if ctx.predict_flavor(op) == "python.script":
            switch *= 4
        # A compiled backend trades a fixed setup cost (fusion pattern
        # matching, JIT warm-up — paid per session, amortized by the
        # session cache but real on the cold path) for a calibrated
        # per-row discount. That is exactly the paper's batch-size
        # crossover: the interpreter wins small batches, compiled
        # execution wins scans.
        backend = dict(op.extra).get("backend") if op.extra else None
        setup, row_scale = ctx.backend_profile(backend)
        return (
            switch
            + setup
            + input_rows * predict_row_cost(op, ctx) * row_scale
        )
    return rows


def _shuffle_side_cost(shuffle: Shuffle, ctx: "SearchContext") -> float:
    """Map-phase cost of one shuffle side (fragment + partition + route)."""
    rows = ctx.estimate_tree(shuffle)
    fragment_cost = ctx.cost_tree(shuffle.fragment)
    workers = max(1, ctx.shard_workers())
    if shuffle.is_sharded and shuffle.shard_ids:
        waves = -(-max(1, len(shuffle.shard_ids)) // workers)
        map_cost = (
            FRAGMENT_DISPATCH_COST * len(shuffle.shard_ids)
            + fragment_cost * waves
        )
    else:
        map_cost = fragment_cost  # the coordinator runs the map itself
    return map_cost + rows * (
        SHUFFLE_PARTITION_ROW_COST + SHUFFLE_TRANSFER_ROW_COST
    )


def shuffle_join_cost(
    op: ShuffleJoin, rows: float, ctx: "SearchContext"
) -> float:
    """Total cost of a shuffle join: maps + staged bucket work + gather.

    The bucket joins run the executor's hash join concurrently over
    key-disjoint buckets, so the join work — and any post-join stages
    riding in the same round-trip (filters, PREDICT, partial
    aggregates) — divides by the effective parallelism. Only the
    *final* stage's output pays the gather toll home, which is exactly
    why a partial aggregate stage wins: it shrinks the payload the
    coordinator must collect from join-output rows to group rows.
    """
    left_rows = ctx.estimate_tree(op.left)
    right_rows = ctx.estimate_tree(op.right)
    join_work = hash_join_cost(
        left_rows, right_rows, op.kind, op.condition, ctx.resolver
    )
    parallelism = max(1, min(op.num_buckets, ctx.shard_workers()))
    flowing = combine_join_estimate(
        left_rows,
        right_rows,
        op.kind,
        join_condition_selectivity(op.condition, ctx.resolver),
    )
    stage_work = 0.0
    for stage in op.stages:
        flowing, cost = _stage_tree_cost(stage, flowing, ctx)
        stage_work += cost
    return (
        _shuffle_side_cost(op.left, ctx)
        + _shuffle_side_cost(op.right, ctx)
        + FRAGMENT_DISPATCH_COST * op.num_buckets
        + (join_work + stage_work) / parallelism
        + flowing * GATHER_ROW_COST
    )


def _stage_tree_rows(
    stage: logical.LogicalOp, input_rows: float, ctx: "SearchContext"
) -> float:
    """Row estimate of one worker stage fed ``input_rows`` at its
    :class:`StageInput` leaf."""
    if isinstance(stage, StageInput):
        return input_rows
    child_rows = [
        _stage_tree_rows(child, input_rows, ctx) for child in stage.children
    ]
    return estimate_operator_rows(stage, child_rows, ctx)


def _stage_tree_cost(
    stage: logical.LogicalOp, input_rows: float, ctx: "SearchContext"
) -> tuple[float, float]:
    """``(output rows, cost)`` of one worker stage over its input."""
    if isinstance(stage, StageInput):
        return input_rows, 0.0
    parts = [
        _stage_tree_cost(child, input_rows, ctx) for child in stage.children
    ]
    child_rows = [child for child, _cost in parts]
    rows = estimate_operator_rows(stage, child_rows, ctx)
    cost = operator_cost(stage, rows, child_rows, ctx) + sum(
        cost for _rows, cost in parts
    )
    return rows, cost


def estimate_operator_rows(
    op: logical.LogicalOp,
    child_rows: list[float],
    ctx: "SearchContext",
) -> float:
    """Output-cardinality estimate of one operator over group inputs."""
    if isinstance(op, logical.Scan):
        stats = ctx.table_statistics(op.table_name)
        return float(stats.row_count) if stats else DEFAULT_ROW_ESTIMATE
    if isinstance(op, ShardScan):
        stats = ctx.table_statistics(op.table_name)
        total = float(stats.row_count) if stats else DEFAULT_ROW_ESTIMATE
        return max(1.0, total / max(1, op.total_shards))
    if isinstance(op, Gather):
        per_shard = ctx.estimate_tree(op.fragment)
        return max(1.0, per_shard * max(1, op.shards_scanned))
    if isinstance(op, Shuffle):
        per_shard = ctx.estimate_tree(op.fragment)
        if op.is_sharded:
            return max(1.0, per_shard * max(1, len(op.shard_ids)))
        return max(1.0, per_shard)
    if isinstance(op, ShuffleJoin):
        rows = combine_join_estimate(
            ctx.estimate_tree(op.left),
            ctx.estimate_tree(op.right),
            op.kind,
            join_condition_selectivity(op.condition, ctx.resolver),
        )
        for stage in op.stages:
            rows = _stage_tree_rows(stage, rows, ctx)
        return max(1.0, rows)
    if isinstance(op, Repartition):
        return child_rows[0] if child_rows else DEFAULT_ROW_ESTIMATE
    if isinstance(op, logical.InlineTable):
        return float(op.table.num_rows)
    if isinstance(op, logical.Filter):
        selectivity = estimate_predicate_selectivity(
            op.predicate, ctx.resolver
        )
        return max(1.0, child_rows[0] * selectivity)
    if isinstance(op, logical.Join):
        left, right = child_rows[0], child_rows[1]
        if op.kind == "CROSS" or op.condition is None:
            return left * right
        return combine_join_estimate(
            left,
            right,
            op.kind,
            join_condition_selectivity(op.condition, ctx.resolver),
        )
    if isinstance(op, logical.Aggregate):
        return combine_aggregate_estimate(
            child_rows[0],
            group_keys_cardinality(op.group_by, ctx.resolver),
        )
    if isinstance(op, logical.Limit):
        return min(child_rows[0], float(op.count))
    if isinstance(op, logical.UnionAll):
        return sum(child_rows)
    if child_rows:
        return child_rows[0]
    return DEFAULT_ROW_ESTIMATE


# -- reference resolution (shared with the old planner semantics) ------------


def stored_names(schema: Schema) -> frozenset:
    return frozenset(column.name.lower() for column in schema)


def resolve_ref_mapping(
    schema: Schema, expr: Expression
) -> dict[str, str] | None:
    """Map each column reference to the stored name it binds to in scope.

    Mirrors the executor's resolution order (exact, unique suffix,
    qualified fallback) so placement decisions follow exactly the
    columns evaluation would read. ``None`` when any reference fails or
    is ambiguous — such a conjunct must stay where it is, preserving
    the runtime error instead of silently picking a side.
    """
    names = [stored.lower() for stored in schema.names]
    mapping: dict[str, str] = {}
    for ref in expr.columns():
        key = ref.lower()
        if key in names:
            mapping[ref] = key
            continue
        suffix_matches = [
            stored for stored in names if stored.endswith("." + key)
        ]
        if len(suffix_matches) == 1:
            mapping[ref] = suffix_matches[0]
            continue
        if suffix_matches:
            return None  # ambiguous
        if "." in key:
            short = key.rsplit(".", 1)[-1]
            if short in names:
                mapping[ref] = short
                continue
        return None
    return mapping


def resolve_refs(schema: Schema, expr: Expression) -> frozenset | None:
    """Stored column names the expression's references bind to in scope."""
    mapping = resolve_ref_mapping(schema, expr)
    return frozenset(mapping.values()) if mapping is not None else None


# -- search context ----------------------------------------------------------


class SearchContext:
    """Catalog/statistics access + per-search state shared by the rules.

    ``catalog`` needs ``table_statistics``/``get_table``; ``models``
    needs ``get_model`` (a :class:`~repro.relational.catalog.Catalog`
    or a :class:`~repro.relational.database.Database` provide all of
    them). Lookups failing degrade to default estimates, never errors.
    """

    def __init__(
        self,
        catalog=None,
        models=None,
        options: dict | None = None,
        join_search: str = "dp",
        dp_max_relations: int = DP_MAX_RELATIONS,
    ):
        self.catalog = catalog
        self.models = models if models is not None else catalog
        self.options = dict(options or {})
        self.join_search = join_search
        self.dp_max_relations = dp_max_relations
        self.memo: Memo | None = None
        self.stats: MemoStats = MemoStats()
        self.dp_seen: set[frozenset] = set()
        self.resolver: Callable = lambda _name: None
        self.predict_requirements: dict[tuple, set | None] = {}
        # id()-keyed state must pin the keyed objects: a temporary plan
        # freed mid-search could have its id recycled by a new node,
        # aliasing a stale estimate or a dp_seen skip onto it. The
        # estimate cache stores (plan, rows) and identity-checks on
        # read; ``pin`` keeps dp_seen's leaf objects alive.
        self._estimate_cache: dict[int, tuple[logical.LogicalOp, float]] = {}
        self._pinned: list[object] = []
        self._backend_profiles: dict[str, tuple[float, float]] | None = None

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, plan: logical.LogicalOp) -> None:
        """Build per-search state from the input plan (scans, models)."""
        sources: list[tuple[TableStatistics, str | None]] = []

        def collect(root: logical.LogicalOp) -> None:
            for op in root.walk():
                if isinstance(op, (logical.Scan, ShardScan)):
                    stats = self.table_statistics(op.table_name)
                    if stats is not None:
                        sources.append((stats, op.alias))
                elif isinstance(op, Gather):
                    collect(op.fragment)
                elif isinstance(op, ShuffleJoin):
                    collect(op.left.fragment)
                    collect(op.right.fragment)

        collect(plan)
        self.resolver = column_stats_resolver(sources)
        self.dp_seen = set()
        self._estimate_cache = {}
        self._pinned = []
        try:
            self.predict_requirements = predict_requirements(plan, self)
        except Exception:
            self.predict_requirements = {}

    def record(self, rule_name: str, detail: str = "") -> None:
        self.stats.record_rule(rule_name, detail)

    # -- catalog access ----------------------------------------------------

    def table_statistics(self, name: str) -> TableStatistics | None:
        if self.catalog is None:
            return None
        try:
            return self.catalog.table_statistics(name)
        except Exception:
            return None

    def get_model(self, ref: str):
        if self.models is None:
            return None
        try:
            return self.models.get_model(ref)
        except Exception:
            return None

    def sharding(self, table_name: str):
        """The table's :class:`ShardedTable`, or ``None`` (not sharded,
        no catalog, or any lookup failure — never an error)."""
        if not self.options.get("enable_distributed", True):
            return None
        lookup = getattr(self.catalog, "sharding", None)
        if lookup is None:
            return None
        try:
            return lookup(table_name)
        except Exception:
            return None

    def shard_workers(self) -> int:
        """Worker-pool width the cost model assumes for fan-out plans."""
        from repro.concurrency import default_max_workers

        configured = self.options.get("shard_workers")
        return int(configured) if configured else default_max_workers()

    def column_constants(self, table_name: str) -> dict[str, float]:
        """Columns holding a single distinct value (derived predicates)."""
        if self.catalog is None:
            return {}
        try:
            table = self.catalog.get_table(table_name)
        except Exception:
            return {}
        return constant_columns(table)

    # -- model access ------------------------------------------------------

    def predict_flavor(self, op: logical.Predict) -> str:
        if op.flavor:
            return op.flavor
        entry = self.get_model(op.model_ref)
        return entry.flavor if entry is not None else "ml.pipeline"

    def pipeline_for(self, op: logical.Predict):
        """``(pipeline, feature_names)`` for an ml.pipeline Predict."""
        if op.payload is not None:
            if op.flavor not in (None, "ml.pipeline"):
                return None
            return op.payload, tuple(op.feature_names or ())
        entry = self.get_model(op.model_ref)
        if entry is None or entry.flavor != "ml.pipeline":
            return None
        features = op.feature_names or entry.metadata.get("feature_names")
        return entry.payload, tuple(features or ())

    def requirement_for(self, op: logical.Predict) -> set | None:
        key = (op.model_ref.lower(), (op.alias or "").lower())
        return self.predict_requirements.get(key, None)

    def backend_profile(self, backend: str | None) -> tuple[float, float]:
        """``(setup_cost, row_scale)`` for a scoring backend choice.

        Calibrated lazily (and persisted in the catalog) by
        :mod:`repro.tensor.backends.calibrate`; the interpreter is the
        1.0 reference and any failure degrades to the defaults.
        """
        if not backend or backend == "numpy":
            return (0.0, 1.0)
        if self._backend_profiles is None:
            try:
                from repro.tensor.backends import calibrate

                self._backend_profiles = calibrate.profiles(self.catalog)
            except Exception:
                from repro.tensor.backends.calibrate import DEFAULT_PROFILES

                self._backend_profiles = dict(DEFAULT_PROFILES)
        return self._backend_profiles.get(backend, (0.0, 1.0))

    # -- tree-level estimation (leaves inside the join-order rule) ---------

    def pin(self, objs) -> None:
        """Keep objects alive while their ids key ``dp_seen`` entries."""
        self._pinned.extend(objs)

    def estimate_tree(self, plan: logical.LogicalOp) -> float:
        cached = self._estimate_cache.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        child_rows = [self.estimate_tree(c) for c in plan.children]
        rows = estimate_operator_rows(plan, child_rows, self)
        self._estimate_cache[id(plan)] = (plan, rows)
        return rows

    def cost_tree(self, plan: logical.LogicalOp) -> float:
        child_rows = [self.estimate_tree(c) for c in plan.children]
        local = operator_cost(plan, self.estimate_tree(plan), child_rows, self)
        return local + sum(self.cost_tree(c) for c in plan.children)


def _suffix_refs(exprs) -> set[str]:
    names: set[str] = set()
    for expr in exprs:
        if expr is None:
            continue
        for ref in expr.columns():
            names.add(ref.lower())
            names.add(ref.split(".")[-1].lower())
    return names


def predict_requirements(
    plan: logical.LogicalOp, ctx: SearchContext
) -> dict[tuple, set | None]:
    """Columns the query needs *above* each Predict, keyed by model+alias.

    Computed once on the input plan (before any rewrite) so the
    projection-pushdown rule can insert a data projection below a
    scoring operator without seeing its consumers — the memo's
    alternatives share groups, so "above" is otherwise undefined.
    ``None`` means everything must be kept (an unanalyzable consumer).
    """
    out: dict[tuple, set | None] = {}

    def merge(key: tuple, required: set | None) -> None:
        if key in out:
            if out[key] is None or required is None:
                out[key] = None
            else:
                out[key] |= required
        else:
            out[key] = None if required is None else set(required)

    def walk(op: logical.LogicalOp, required: set | None) -> None:
        if isinstance(op, logical.Project):
            if required is None:
                chosen = op.items
            else:
                chosen = tuple(
                    (expr, name)
                    for expr, name in op.items
                    if name.lower() in required
                    or name.split(".")[-1].lower() in required
                )
            walk(op.child, _suffix_refs(e for e, _ in chosen))
            return
        if isinstance(op, logical.Filter):
            below = (
                None
                if required is None
                else required | _suffix_refs([op.predicate])
            )
            walk(op.child, below)
            return
        if isinstance(op, logical.Join):
            below = (
                None
                if required is None
                else required | _suffix_refs([op.condition])
            )
            walk(op.left, below)
            walk(op.right, below)
            return
        if isinstance(op, logical.Aggregate):
            needed = _suffix_refs(
                [e for e, _ in op.group_by]
                + [arg for _f, arg, _a in op.aggregates if arg is not None]
            )
            walk(op.child, needed)
            return
        if isinstance(op, logical.OrderBy):
            below = (
                None
                if required is None
                else required | _suffix_refs([e for e, _ in op.keys])
            )
            walk(op.child, below)
            return
        if isinstance(op, (logical.Limit, logical.Distinct)):
            walk(op.child, required)
            return
        if isinstance(op, logical.UnionAll):
            for branch in op.branches:
                walk(branch, required)
            return
        if isinstance(op, logical.Predict):
            key = (op.model_ref.lower(), (op.alias or "").lower())
            merge(key, required)
            resolved = ctx.pipeline_for(op)
            features = resolved[1] if resolved else None
            if required is None or not features:
                below = None
            else:
                outputs: set[str] = set()
                for name, _dtype in op.output_columns:
                    outputs.add(name.lower())
                    if op.alias:
                        outputs.add(f"{op.alias}.{name}".lower())
                below = (required - outputs) | {
                    f.split(".")[-1].lower() for f in features
                } | {f.lower() for f in features}
            walk(op.child, below)
            return
        # Scan / InlineTable / unknown shapes: nothing below.

    walk(plan, None)
    return out


# -- rules -------------------------------------------------------------------


class MemoRule:
    """One exploration rule: a plan pattern → alternative sub-plans.

    ``substitute=True`` marks a normalization rule: its output replaces
    the matched expression (which is disabled for extraction) instead
    of competing on cost. Filter merging and predicate pushdown are
    substitutions — the executor's zone-map and morsel-parallel fast
    paths key on the single-``Filter(Scan)`` shape they establish, a
    benefit the per-operator cost model cannot see. Rules that change
    *how* work is done (join order, model rewrites, inlining) stay
    competitive.
    """

    name: str = ""
    substitute: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.name:
            cls.name = cls.__name__

    def apply(
        self, plan: logical.LogicalOp, ctx: SearchContext
    ) -> list[logical.LogicalOp]:
        raise NotImplementedError


class MergeConsecutiveFiltersRule(MemoRule):
    """``filter(filter(x))`` → one conjunctive filter."""

    name = "MergeConsecutiveFilters"
    substitute = True

    def apply(self, plan, ctx):
        if not (
            isinstance(plan, logical.Filter)
            and isinstance(plan.child, logical.Filter)
        ):
            return []
        merged = logical.Filter(
            plan.child.child, plan.child.predicate & plan.predicate
        )
        ctx.record(self.name)
        return [merged]


class PredicatePushdownRule(MemoRule):
    """Sink WHERE conjuncts below joins and scoring operators.

    The relational pushdown pass of the old ``PhysicalPlanner``,
    re-registered as a memo rule: each conjunct is resolved in its
    original scope once and placed at the deepest operator exposing
    exactly those stored columns, so reordering can never re-bind a
    bare reference (see ``resolve_ref_mapping``).
    """

    name = "PredicatePushdown"
    substitute = True

    def apply(self, plan, ctx):
        if not (
            isinstance(plan, logical.Filter)
            and isinstance(plan.child, (logical.Join, logical.Predict))
        ):
            return []
        residual: list[Expression] = []
        child = plan.child
        trace: list[str] = []
        for conjunct in conjuncts(plan.predicate):
            resolved = resolve_refs(child.schema, conjunct)
            sunk = (
                self._sink(child, conjunct, resolved, trace)
                if resolved is not None
                else None
            )
            if sunk is None:
                residual.append(conjunct)
            else:
                child = sunk
        if child is plan.child:
            return []
        for kind in trace:
            ctx.record(kind, "pushed 1 conjunct")
        if residual:
            return [logical.Filter(child, conjoin(residual))]
        return [child]

    def _sink(
        self,
        plan: logical.LogicalOp,
        conjunct: Expression,
        resolved: frozenset,
        trace: list[str],
    ) -> logical.LogicalOp | None:
        """Push one conjunct down, guided by its resolved stored columns."""
        if not resolved <= stored_names(plan.schema):
            return None
        if isinstance(plan, logical.Join):
            # LEFT joins only accept pushdown into the preserved side;
            # filtering the null-padded side changes results.
            allow_left = plan.kind in ("INNER", "CROSS", "LEFT")
            allow_right = plan.kind in ("INNER", "CROSS")
            if allow_left:
                sunk = self._sink(plan.left, conjunct, resolved, trace)
                if sunk is not None:
                    trace.append("PushFilterIntoJoin")
                    return plan.with_children((sunk, plan.right))
            if allow_right:
                sunk = self._sink(plan.right, conjunct, resolved, trace)
                if sunk is not None:
                    trace.append("PushFilterIntoJoin")
                    return plan.with_children((plan.left, sunk))
            if plan.kind in ("INNER", "CROSS"):
                # Spans both sides: merge into the join condition.
                condition = (
                    conjunct
                    if plan.condition is None
                    else conjoin([plan.condition, conjunct])
                )
                trace.append("PushFilterIntoJoin")
                return logical.Join(plan.left, plan.right, "INNER", condition)
            return None
        if isinstance(plan, logical.Predict):
            # Score fewer rows: a conjunct that only touches input
            # columns moves below the model call. Any reference that
            # could mean a prediction output (its alias, or a bare name
            # colliding with an output column) keeps the filter above.
            output_names = {name.lower() for name, _ in plan.output_columns}
            for ref in conjunct.columns():
                if ref.split(".")[-1].lower() in output_names:
                    return None
                if plan.alias and ref.lower().startswith(
                    plan.alias.lower() + "."
                ):
                    return None
            sunk = self._sink(plan.child, conjunct, resolved, trace)
            if sunk is not None:
                trace.append("PushFilterBelowPredict")
                return plan.with_children((sunk,))
            return None
        if isinstance(plan, logical.Filter):
            # Sink past this filter only when the conjunct can go
            # strictly deeper (into a join side or below a model call);
            # over a leaf, merge into ONE filter — stacked filters
            # would hide the Filter(Scan) shape from zone-map pruning
            # and the morsel-parallel PREDICT path.
            if isinstance(plan.child, (logical.Join, logical.Predict)):
                sunk = self._sink(plan.child, conjunct, resolved, trace)
                if sunk is not None:
                    return logical.Filter(sunk, plan.predicate)
            return logical.Filter(plan.child, plan.predicate & conjunct)
        return logical.Filter(plan, conjunct)


def collect_join_chain(plan: logical.Join):
    """Flatten an INNER/CROSS chain into leaves + resolved ON conjuncts.

    Every ON conjunct is resolved to stored column names in the scope
    of the join that originally carried it; re-placement then follows
    those stored names only (a bare ref that was unambiguous at its
    join may become ambiguous in a reordered scope, so refs are
    rewritten to their resolved stored names up front).
    """
    leaves: list[logical.LogicalOp] = []
    conditions: list[tuple[Expression, frozenset | None]] = []

    def collect(op: logical.LogicalOp) -> None:
        if isinstance(op, logical.Join) and op.kind in ("INNER", "CROSS"):
            collect(op.left)
            collect(op.right)
            if op.condition is not None:
                for conjunct in conjuncts(op.condition):
                    mapping = resolve_ref_mapping(op.schema, conjunct)
                    if mapping is None:
                        conditions.append((conjunct, None))
                        continue
                    qualified = conjunct.substitute(
                        {
                            ref: ColumnRef(stored)
                            for ref, stored in mapping.items()
                            if ref.lower() != stored
                        }
                    )
                    conditions.append((qualified, frozenset(mapping.values())))
        else:
            leaves.append(op)

    collect(plan)
    return leaves, conditions


def place_single_relation_conjuncts(leaves, leaf_names, conditions):
    """ON conjuncts over one relation become leaf filters (selectivity);
    the rest split into placeable (``unused``) and residual conjuncts."""
    unused: list[tuple[Expression, frozenset]] = []
    unplaceable: list[Expression] = []
    for conjunct, resolved in conditions:
        if resolved is None:
            unplaceable.append(conjunct)
            continue
        for i, names in enumerate(leaf_names):
            if resolved <= names:
                leaf = leaves[i]
                if isinstance(leaf, logical.Filter):
                    # Merge, keeping a single Filter(Scan) so the
                    # executor's pruning fast path still matches.
                    leaves[i] = logical.Filter(
                        leaf.child, leaf.predicate & conjunct
                    )
                else:
                    leaves[i] = logical.Filter(leaf, conjunct)
                break
        else:
            unused.append((conjunct, resolved))
    return unused, unplaceable


class JoinOrderRule(MemoRule):
    """Selinger-style DP join ordering inside the memo (bushy allowed).

    Chains of ``MIN_JOIN_RELATIONS``..``dp_max_relations`` INNER/CROSS
    joins are priced exhaustively over connected-by-cost subsets; every
    subset's best sub-plan is registered as a memo group. Larger chains
    fall back to the PR 2 greedy seed (cheapest connected pair, then
    grow by minimal intermediate). ``legacy`` mode reproduces the PR 2
    planner exactly: greedy up to 6 relations, FROM order beyond.
    """

    name = "DPJoinOrder"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Join) or plan.kind not in (
            "INNER",
            "CROSS",
        ):
            return []
        leaves, conditions = collect_join_chain(plan)
        n = len(leaves)
        if n < MIN_JOIN_RELATIONS:
            return []
        if ctx.join_search == "legacy" and n > LEGACY_MAX_RELATIONS:
            return []
        chain_key = frozenset(id(leaf) for leaf in leaves)
        if chain_key in ctx.dp_seen:
            return []
        original_leaves = list(leaves)
        ctx.pin(leaves)
        ctx.dp_seen.add(chain_key)
        leaf_names = [stored_names(leaf.schema) for leaf in leaves]
        unused, unplaceable = place_single_relation_conjuncts(
            leaves, leaf_names, conditions
        )
        # Leaf-filter placement rebuilt some leaves: mark the placed
        # chain too so sub-joins of the produced tree are not re-run.
        ctx.pin(leaves)
        ctx.dp_seen.add(frozenset(id(leaf) for leaf in leaves))
        estimates = [max(1.0, ctx.estimate_tree(leaf)) for leaf in leaves]
        use_dp = ctx.join_search == "dp" and n <= ctx.dp_max_relations
        if use_dp:
            tree = self._dp(
                leaves, leaf_names, estimates, unused, ctx, original_leaves
            )
            ctx.stats.dp_relations = max(ctx.stats.dp_relations, n)
            leftover = list(unplaceable)
        else:
            if ctx.join_search == "dp":
                ctx.stats.dp_fallbacks += 1
                detail = f"{n} relations (above DP size guard)"
            else:
                detail = f"{n} relations ({ctx.join_search} mode)"
            tree = self._greedy(leaves, leaf_names, estimates, unused, ctx)
            ctx.record("GreedyJoinOrder", detail)
            leftover = unplaceable + [conjunct for conjunct, _ in unused]
        if leftover:
            tree = logical.Filter(tree, conjoin(leftover))
        return [tree]

    # -- exhaustive DP ------------------------------------------------------

    def _dp(self, leaves, leaf_names, estimates, unused, ctx, original_leaves):
        n = len(leaves)
        full = (1 << n) - 1
        selectivities = [
            join_condition_selectivity(conjunct, ctx.resolver)
            for conjunct, _resolved in unused
        ]
        names: dict[int, frozenset] = {}
        rows: dict[int, float] = {}
        cost: dict[int, float] = {}
        plan: dict[int, logical.LogicalOp] = {}
        for i in range(n):
            mask = 1 << i
            names[mask] = leaf_names[i]
            rows[mask] = estimates[i]
            cost[mask] = ctx.cost_tree(leaves[i])
            plan[mask] = leaves[i]
        subsets = 0
        pruned = 0
        for mask in sorted(range(1, full + 1), key=int.bit_count):
            if mask in plan:
                continue  # single leaf
            members = [i for i in range(n) if mask & (1 << i)]
            mask_names = frozenset().union(*(leaf_names[i] for i in members))
            names[mask] = mask_names
            # Canonical cardinality: leaf product, damped by every ON
            # conjunct fully contained in this subset — identical for
            # every split, the memo-group property DP relies on.
            estimate = 1.0
            for i in members:
                estimate *= estimates[i]
            for s, (_conjunct, resolved) in zip(selectivities, unused):
                if resolved <= mask_names:
                    estimate *= s if s is not None else DEFAULT_SELECTIVITY
            rows[mask] = max(1.0, estimate)
            subsets += 1

            def split_conjuncts(sub_names, rest_names):
                return [
                    conjunct
                    for conjunct, resolved in unused
                    if resolved <= mask_names
                    and not resolved <= sub_names
                    and not resolved <= rest_names
                ]

            best: tuple[float, int] | None = None
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub < rest:
                    sub = (sub - 1) & mask
                    continue  # each unordered split once
                if rest in cost and sub in cost:
                    partial = cost[sub] + cost[rest]
                    if best is not None and partial >= best[0]:
                        pruned += 1
                    else:
                        attached = split_conjuncts(names[sub], names[rest])
                        total = partial + hash_join_cost(
                            rows[sub],
                            rows[rest],
                            "INNER" if attached else "CROSS",
                            conjoin(attached) if attached else None,
                            ctx.resolver,
                        )
                        if best is None or total < best[0]:
                            best = (total, sub)
                sub = (sub - 1) & mask
            assert best is not None
            _total, sub = best
            rest = mask ^ sub
            attached = order_by_selectivity(
                split_conjuncts(names[sub], names[rest]), ctx.resolver
            )
            # Hash joins build on the right input: smaller side right.
            left_mask, right_mask = (
                (sub, rest) if rows[sub] >= rows[rest] else (rest, sub)
            )
            joined = logical.Join(
                plan[left_mask],
                plan[right_mask],
                "INNER" if attached else "CROSS",
                conjoin(attached) if attached else None,
            )
            cost[mask] = best[0]
            plan[mask] = joined
            if ctx.memo is not None and mask != full:
                # DP inside the memo: each *proper* subset's best
                # sub-plan becomes a group, so shared sub-joins dedup
                # across alternatives. The full-mask tree is NOT
                # registered here — it is the rule's alternative, and
                # pre-interning it would make ``add_expression`` treat
                # the alternative as a duplicate of its own group.
                ctx.memo.register(joined)
            # Mark the subset under both leaf identities (pre- and
            # post-filter-placement): the FROM-order tree's nested
            # sub-chains reference the original leaves, and skipping
            # them here is what makes DP run once per chain instead of
            # once per prefix.
            ctx.dp_seen.add(frozenset(id(leaves[i]) for i in members))
            ctx.dp_seen.add(
                frozenset(id(original_leaves[i]) for i in members)
            )
        ctx.stats.dp_subsets += subsets
        ctx.stats.branches_pruned += pruned
        ctx.record(
            self.name,
            f"{n} relations, {subsets} subsets, {pruned} splits pruned",
        )
        return plan[full]

    # -- greedy fallback (the PR 2 seed) -------------------------------------

    def _greedy(self, leaves, leaf_names, estimates, unused, ctx):
        resolve = ctx.resolver
        remaining = set(range(len(leaves)))

        def applicable_between(names_a, names_b):
            return [
                (conjunct, resolved)
                for conjunct, resolved in unused
                if resolved <= (names_a | names_b)
                and not resolved <= names_a
                and not resolved <= names_b
            ]

        def joined_estimate(rows_a, rows_b, applicable):
            joined = rows_a * rows_b
            for condition, _resolved in applicable:
                selectivity = join_condition_selectivity(condition, resolve)
                joined *= (
                    selectivity
                    if selectivity is not None
                    else DEFAULT_SELECTIVITY
                )
            return joined

        # Seed with the cheapest connected *pair* — starting from the
        # single smallest relation can force an expensive first join
        # when the small relation only connects to a big one.
        seed = None
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                applicable = applicable_between(leaf_names[i], leaf_names[j])
                joined = joined_estimate(estimates[i], estimates[j], applicable)
                key = (0 if applicable else 1, joined)
                if seed is None or key < seed[0]:
                    seed = (key, i, j, applicable)
        assert seed is not None
        (_seed_rank, seed_rows), left_i, right_i, seed_conditions = seed
        # Hash joins build on the right input: put the smaller side there.
        if estimates[left_i] < estimates[right_i]:
            left_i, right_i = right_i, left_i

        def attach(left, right, applicable):
            if applicable:
                for used in applicable:
                    unused.remove(used)
                ordered = order_by_selectivity(
                    [conjunct for conjunct, _ in applicable], resolve
                )
                return logical.Join(left, right, "INNER", conjoin(ordered))
            return logical.Join(left, right, "CROSS", None)

        tree = attach(leaves[left_i], leaves[right_i], seed_conditions)
        tree_names = leaf_names[left_i] | leaf_names[right_i]
        tree_rows = max(1.0, seed_rows)
        remaining -= {left_i, right_i}
        while remaining:
            best = None
            for i in remaining:
                applicable = applicable_between(tree_names, leaf_names[i])
                joined = joined_estimate(tree_rows, estimates[i], applicable)
                # Connected candidates strictly outrank cross joins.
                key = (0 if applicable else 1, joined)
                if best is None or key < best[0]:
                    best = (key, i, applicable)
            assert best is not None
            (_rank, joined_rows), chosen, applicable = best
            tree = attach(tree, leaves[chosen], applicable)
            tree_names |= leaf_names[chosen]
            tree_rows = max(1.0, joined_rows)
            remaining.remove(chosen)
        return tree


class PredicateBasedModelPruningRule(MemoRule):
    """Prune model pipelines using predicate (and statistics) facts.

    The §4.1 data-to-model rewrite re-registered as a memo rule: facts
    from filters *below* the scoring operator (placed there by
    ``PredicatePushdown``, so the two rules compose inside the memo)
    prune tree branches, fold constants, and narrow the input columns.
    """

    name = "PredicateBasedModelPruning"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        constants: dict[str, float] = {}
        bounds: dict[str, tuple[float, float]] = {}
        for op in plan.child.walk():
            if not isinstance(op, logical.Filter):
                continue
            for name, value in equality_constants(op.predicate).items():
                if isinstance(value, (int, float)):
                    constants[name.lower()] = float(value)
            for name, interval in range_bounds(op.predicate).items():
                low, high = bounds.get(name.lower(), (-math.inf, math.inf))
                bounds[name.lower()] = (
                    max(low, interval[0]),
                    min(high, interval[1]),
                )
        if ctx.options.get("derive_statistics_predicates"):
            for op in plan.child.walk():
                if isinstance(op, logical.Scan):
                    for name, value in ctx.column_constants(
                        op.table_name
                    ).items():
                        constants.setdefault(name, value)
        index_of = {name.lower(): i for i, name in enumerate(feature_names)}
        facts = ColumnFacts()
        for name, value in constants.items():
            if name in index_of:
                facts.constants[index_of[name]] = value
        for name, interval in bounds.items():
            if name in index_of and index_of[name] not in facts.constants:
                facts.bounds[index_of[name]] = interval
        if facts.empty:
            return []
        try:
            result = apply_predicate_pruning(pipeline, facts)
        except UnsupportedRewrite:
            return []
        before = result.detail.get("nodes_before")
        after = result.detail.get("nodes_after")
        shrank = before is not None and after is not None and after < before
        folded = result.detail.get("features_folded", 0) > 0
        narrowed = len(result.kept_inputs) < len(feature_names)
        if not (shrank or folded or narrowed):
            return []
        kept = tuple(feature_names[i] for i in result.kept_inputs)
        ctx.record(
            self.name,
            f"{result.detail} kept {len(kept)}/{len(feature_names)} inputs",
        )
        return [
            logical.Predict(
                plan.child,
                plan.model_ref,
                plan.output_columns,
                plan.alias,
                plan.batch_size,
                "ml.pipeline",
                result.pipeline,
                kept,
                plan.extra,
            )
        ]


class BackendChoiceRule(MemoRule):
    """Offer compiled scoring backends as physical Predict alternatives.

    For every Predict whose model the tensor layer can execute compiled
    (a ``tensor.graph`` payload, or a stored ``ml.pipeline`` the NN
    translator :func:`~repro.tensor.converters.supports`), emit one
    alternative per *available* backend, tagged in ``extra``. The
    alternatives then compete under :meth:`SearchContext.backend_profile`
    costs — small batches keep the untagged interpreter expression,
    large scans flip to fused/JIT. Inline payloads (plan-embedded
    pipelines, possibly rewritten by other rules) are eligible too: the
    executors compile them once per resolved scorer and the plan object
    pins the payload identity for the compiled cache.
    """

    name = "BackendChoice"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        if plan.extra and "backend" in dict(plan.extra):
            return []
        flavor = ctx.predict_flavor(plan)
        if flavor == "tensor.graph":
            eligible = True
        elif flavor == "ml.pipeline":
            payload = plan.payload
            if payload is None:
                resolved = ctx.pipeline_for(plan)
                if resolved is None:
                    return []
                payload = resolved[0]
            try:
                from repro.tensor.converters import supports

                eligible = supports(payload)
            except Exception:
                eligible = False
        else:
            eligible = False
        if not eligible:
            return []
        try:
            from repro.tensor.backends import available_compiled_backends

            backends = available_compiled_backends()
        except Exception:
            return []
        alternatives = []
        for backend in backends:
            ctx.record(self.name, f"{plan.model_ref}->{backend}")
            alternatives.append(
                logical.Predict(
                    plan.child,
                    plan.model_ref,
                    plan.output_columns,
                    plan.alias,
                    plan.batch_size,
                    plan.flavor,
                    plan.payload,
                    plan.feature_names,
                    plan.extra + (("backend", backend),),
                )
            )
        return alternatives


class ModelProjectionPushdownRule(MemoRule):
    """Narrow the model to its useful features; project the data early.

    The §4.1 model-to-data rewrite as a memo rule. The data projection
    below the scoring operator keeps the narrowed features plus every
    column the query needs above the Predict (precomputed by
    :func:`predict_requirements`); ``insert_projection=False`` narrows
    only the model, preserving the executor's ``Predict(Filter(Scan))``
    morsel-parallel fast path for the SQL planner.
    """

    name = "ModelProjectionPushdown"

    def __init__(self, insert_projection: bool = True):
        self.insert_projection = insert_projection

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        tolerance = float(ctx.options.get("lossy_pushdown_tolerance", 0.0))
        try:
            result = apply_projection_pushdown(pipeline, tolerance)
        except UnsupportedRewrite:
            return []
        narrowed_inputs = len(result.kept_inputs) < len(feature_names)
        dropped = result.detail.get("features_dropped", 0) > 0
        if not (narrowed_inputs or dropped):
            return []
        new_features = tuple(feature_names[i] for i in result.kept_inputs)
        child = plan.child
        if narrowed_inputs and self.insert_projection:
            child = self._project_child(plan, child, new_features, ctx)
        ctx.record(
            self.name,
            f"kept {len(new_features)}/{len(feature_names)} inputs "
            f"({result.detail})",
        )
        return [
            logical.Predict(
                child,
                plan.model_ref,
                plan.output_columns,
                plan.alias,
                plan.batch_size,
                "ml.pipeline",
                result.pipeline,
                new_features,
                plan.extra,
            )
        ]

    @staticmethod
    def _project_child(plan, child, features, ctx):
        required = ctx.requirement_for(plan)
        if required is None:
            return child  # unanalyzable consumers: keep every column
        keep = set(required) | {f.lower() for f in features} | {
            f.split(".")[-1].lower() for f in features
        }
        items = tuple(
            (ColumnRef(column.name), column.name)
            for column in child.schema
            if column.name.lower() in keep
            or column.name.split(".")[-1].lower() in keep
        )
        if not items or len(items) >= len(child.schema):
            return child
        return logical.Project(child, items)


_INLINABLE = (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    LinearRegression,
    LogisticRegression,
    Ridge,
    Lasso,
    RandomForestClassifier,
    RandomForestRegressor,
    GradientBoostingRegressor,
)


def _total_tree_nodes(predictor) -> int | None:
    """Combined node count across the predictor's trees (None = no trees)."""
    tree = getattr(predictor, "tree_", None)
    if tree is not None:
        return tree.node_count
    estimators = getattr(predictor, "estimators_", None)
    if estimators:
        return sum(t.tree_.node_count for t in estimators)
    return None


class ModelInliningRule(MemoRule):
    """Replace small tree/linear pipelines with inline SQL expressions.

    The §4.2 predictor-to-expression rewrite as a memo rule: the
    inlined projection is an *alternative* in the scoring operator's
    group, so in-process scoring and SQL inlining compete under the
    one cost model instead of being picked by a strategy enumeration.
    """

    name = "ModelInlining"

    def __init__(self, max_tree_nodes: int = 255):
        self.max_tree_nodes = max_tree_nodes

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        _, predictor = split_pipeline(pipeline)
        if not isinstance(predictor, _INLINABLE):
            return []
        total_nodes = _total_tree_nodes(predictor)
        if total_nodes is not None and total_nodes > self.max_tree_nodes:
            return []  # CASE expression would explode; leave to NN path
        try:
            expression = pipeline_to_expression(pipeline, list(feature_names))
        except UnsupportedRewrite:
            return []
        child = plan.child
        items = [
            (ColumnRef(column.name), column.name) for column in child.schema
        ]
        for out_name, _dtype in plan.output_columns:
            qualified = (
                f"{plan.alias}.{out_name}" if plan.alias else out_name
            )
            items.append((expression, qualified))
        ctx.record(
            self.name,
            f"inlined {type(predictor).__name__} "
            f"({total_nodes if total_nodes is not None else 'linear'} nodes)",
        )
        return [logical.Project(child, tuple(items))]


def _shrink_model(
    plan: logical.Predict, ctx: SearchContext
) -> logical.Predict:
    """``plan`` with its model shrunk by the data-driven rewrites.

    The forced strategy rules start from here: a substitution disables
    the matched Predict before the competitive rules run on it, so
    predicate-based pruning and projection pushdown are applied first
    (as rewrites of the one plan, not as alternatives).
    """
    for rewrite in (
        PredicateBasedModelPruningRule(),
        ModelProjectionPushdownRule(insert_projection=False),
    ):
        plan = (rewrite.apply(plan, ctx) or [plan])[0]
    return plan


class ModelQuerySplittingRule(MemoRule):
    """Split a tree-pipeline Predict into a UNION ALL of pruned branches.

    Model/query splitting (paper §2): the tree's root test becomes a
    filter on each branch, and each branch scores with the model pruned
    to its side of the test — the kinship with model cascades the paper
    notes. Opt-in (``enable_splitting``) and a substitution, so the
    split is forced rather than priced against the unsplit plan. The
    split works on the pruned model (:func:`_shrink_model`). Each
    branch carries a ``split`` marker in ``extra`` so it is never split
    again; the competitive rewrites (pruning, inlining, backends) still
    apply to it.
    """

    name = "ModelQuerySplitting"
    substitute = True

    #: Smaller trees are not worth a second scan of the input.
    MIN_TREE_NODES = 5

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        if ("split", True) in plan.extra:
            return []
        plan = _shrink_model(plan, ctx)
        resolved = ctx.pipeline_for(plan)
        if resolved is None or not resolved[1]:
            return []
        pipeline, feature_names = resolved
        transformers, predictor = split_pipeline(pipeline)
        if not isinstance(
            predictor, (DecisionTreeClassifier, DecisionTreeRegressor)
        ):
            return []
        tree = predictor.tree_
        if tree.node_count < self.MIN_TREE_NODES or tree.is_leaf(0):
            return []
        # The root feature must trace back to one input column through
        # width-preserving scalers only (so the raw-space threshold is
        # recoverable).
        if not all(
            isinstance(t, (StandardScaler, MinMaxScaler)) for t in transformers
        ):
            return []
        feature = int(tree.feature[0])
        threshold = float(tree.threshold[0])
        for transformer in reversed(transformers):
            if isinstance(transformer, StandardScaler):
                threshold = (
                    threshold * transformer.scale_[feature]
                    + transformer.mean_[feature]
                )
            else:
                threshold = (
                    threshold * transformer.range_[feature]
                    + transformer.min_[feature]
                )
        above = float(math.nextafter(threshold, math.inf))
        try:
            sides = [
                (op, apply_predicate_pruning(pipeline, ColumnFacts(bounds=b)))
                for op, b in (
                    ("<=", {feature: (-math.inf, threshold)}),
                    (">", {feature: (above, math.inf)}),
                )
            ]
        except UnsupportedRewrite:
            return []
        column = feature_names[feature]
        branches = tuple(
            logical.Predict(
                logical.Filter(
                    plan.child,
                    BinaryOp(op, ColumnRef(column), Literal(threshold)),
                ),
                plan.model_ref,
                plan.output_columns,
                plan.alias,
                plan.batch_size,
                "ml.pipeline",
                rewrite.pipeline,
                tuple(feature_names[i] for i in rewrite.kept_inputs),
                plan.extra + (("split", True),),
            )
            for op, rewrite in sides
        )
        ctx.record(self.name, f"split on {column} <= {threshold:.4g}")
        return [logical.UnionAll(branches)]


class NNTranslationRule(MemoRule):
    """Compile an ``ml.pipeline`` Predict into a tensor graph (§4.2).

    The NN runtime then scores the whole pipeline, featurizers
    included, on the configured ``device``. Opt-in
    (``enable_nn_translation``) and a substitution, so the translation
    is forced. The network is built from the pruned model
    (:func:`_shrink_model`).
    """

    name = "NNTranslation"
    substitute = True

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        if ctx.pipeline_for(plan) is None:
            return []
        from repro.tensor.converters import convert

        plan = _shrink_model(plan, ctx)
        pipeline, feature_names = ctx.pipeline_for(plan)
        try:
            tensor_graph = convert(pipeline)
        except UnsupportedOpError:
            return []
        device = ctx.options.get("device", "cpu")
        ctx.record(
            self.name, f"{len(tensor_graph.nodes)} tensor ops on {device}"
        )
        return [
            logical.Predict(
                plan.child,
                plan.model_ref,
                plan.output_columns,
                plan.alias,
                plan.batch_size,
                "tensor.graph",
                tensor_graph,
                feature_names,
                plan.extra + (("device", device),),
            )
        ]


class ShardedExecutionRule(MemoRule):
    """Scatter-gather alternatives for plans over sharded tables.

    Three shapes gain a distributed alternative, all built from the
    same single-table pipeline fragment (``Filter``/``Project``/
    ``Predict`` over a ``Scan`` of a sharded table, rebuilt around a
    :class:`ShardScan` leaf):

    * ``Filter(Scan)`` / ``Predict(...(Scan))`` → ``Gather(fragment)``
      — the fragment runs once per surviving shard on the process
      pool; PREDICT-over-scan escapes the in-process GIL ceiling.
    * ``Aggregate(...)`` → ``Project(AggregateFinal(Gather(
      AggregatePartial(fragment))))`` — the classic partial→final
      split: shards pre-aggregate locally (COUNT/SUM/MIN/MAX combine
      directly; AVG decomposes into SUM+COUNT re-divided above), so
      only group rows cross the process boundary. Large gathered
      intermediates additionally get a :class:`Repartition` exchange
      below the final aggregate, whose key-disjoint buckets the
      executor aggregates in parallel.

    Routing happens here, at plan time: shard statistics (zone maps
    one level up) plus exact hash/range routing on shard-key equality
    prune shards before anything is dispatched, and the pruned
    ``shard_ids`` are recorded on the ``Gather`` — EXPLAIN, the
    executor, and serving plan caches all report that decision.
    """

    name = "ShardedScatterGather"

    #: Gathered-row estimate above which the final aggregate gets a
    #: Repartition exchange (overridable via ``repartition_min_rows``).
    REPARTITION_MIN_ROWS = 50_000

    #: Allowed fragment interior operators (leaf must be a Scan).
    _PIPELINE_OPS = (logical.Filter, logical.Project, logical.Predict)

    def apply(self, plan, ctx):
        if not ctx.options.get("enable_distributed", True):
            return []
        if isinstance(plan, logical.Aggregate):
            return self._aggregate_alternative(plan, ctx)
        if isinstance(plan, (logical.Predict, logical.Filter)):
            return self._pipeline_alternative(plan, ctx)
        return []

    # -- fragment construction ---------------------------------------------

    def _fragmentize(self, plan, ctx):
        """``(fragment, sharded, predicate)`` for a distributable
        single-table pipeline, else ``None``."""
        scan = plan
        predicates: list[Expression] = []
        while isinstance(scan, self._PIPELINE_OPS):
            if isinstance(scan, logical.Filter):
                predicates.append(scan.predicate)
            scan = scan.child
        if not isinstance(scan, logical.Scan):
            return None
        sharded = ctx.sharding(scan.table_name)
        if sharded is None or sharded.num_shards < 2:
            return None
        leaf = ShardScan(
            scan.table_name,
            scan.base_schema,
            scan.alias,
            sharded.num_shards,
        )

        def rebuild(op):
            if op is scan:
                return leaf
            return op.with_children(tuple(rebuild(c) for c in op.children))

        fragment = rebuild(plan)
        if not fragment_is_serializable(fragment, ctx.predict_flavor):
            return None
        predicate = conjoin(predicates) if predicates else None
        return fragment, sharded, predicate

    def _route(self, sharded, predicate):
        """``(shard_ids, pruned_by)`` under shard statistics."""
        keep = None
        if predicate is not None:
            try:
                keep = surviving_shards(sharded, predicate)
            except Exception:
                keep = None
        if keep is None:
            return tuple(range(sharded.num_shards)), "none"
        shard_ids = tuple(int(i) for i in range(len(keep)) if keep[i])
        pruned = "zone-map" if len(shard_ids) < sharded.num_shards else "none"
        return shard_ids, pruned

    def _gather(self, fragment, sharded, predicate, ctx):
        shard_ids, pruned_by = self._route(sharded, predicate)
        gather = Gather(
            sharded.table_name,
            fragment,
            sharded.spec.key,
            shard_ids,
            sharded.num_shards,
            pruned_by,
        )
        ctx.record(
            self.name,
            f"{sharded.table_name}: {len(shard_ids)}/{sharded.num_shards} "
            f"shards ({pruned_by})",
        )
        return gather

    # -- pipeline shapes ----------------------------------------------------

    def _pipeline_alternative(self, plan, ctx):
        result = self._fragmentize(plan, ctx)
        if result is None:
            return []
        fragment, sharded, predicate = result
        return [self._gather(fragment, sharded, predicate, ctx)]

    # -- partial→final aggregates -------------------------------------------

    def _aggregate_alternative(self, plan, ctx):
        if any(
            func not in logical.AGGREGATE_FUNCTIONS
            for func, _arg, _alias in plan.aggregates
        ):
            return []
        result = self._fragmentize(plan.child, ctx)
        if result is None:
            return []
        fragment_child, sharded, predicate = result
        split = _split_aggregates(plan.aggregates, bool(plan.group_by))
        if split is None:
            return []
        partial_aggs, final_aggs, items = split
        partial = logical.Aggregate(
            fragment_child, plan.group_by, partial_aggs
        )
        if not fragment_is_serializable(partial, ctx.predict_flavor):
            return []
        gathered = self._gather(partial, sharded, predicate, ctx)
        return [_final_aggregate_over(gathered, plan, split, ctx)]


class ShardJoinRule(MemoRule):
    """Distributed alternatives for equi-joins over sharded tables.

    Two strategies, chosen by layout compatibility:

    * **co-located** — both sides are sharded *by the equi-join key*
      under compatible specs (same hash modulus and key hash class, or
      identical range boundaries), so shard *i* of the left can only
      match shard *i* of the right: the rule offers a
      ``Gather(join fragment, join="colocated")`` where each worker
      joins its shard pair locally. The whole pipeline *above* the join
      (filters, projections, PREDICT) rides inside the fragment when it
      serializes, so model scoring runs inside the joined pipeline on
      the workers.
    * **shuffle** — layouts are incompatible (different shard counts,
      range⋈hash, key mismatch, or one side unsharded): the rule
      offers a :class:`ShuffleJoin` whose sides hash-partition on the
      join key into worker-owned buckets; bucket *k* ⋈ bucket *k* runs
      in parallel. Offered only when at least one side is genuinely
      sharded (otherwise the in-process join is already optimal).

    Both strategies accept INNER, LEFT, and FULL equi-joins (the binder
    normalizes RIGHT to LEFT by swapping inputs) with at least one
    column-to-column equality conjunct; residual conjuncts evaluate
    inside the per-worker joins exactly as the coordinator's hash join
    would evaluate them, and outer joins NULL-extend unmatched rows
    per shard pair / bucket, which concatenates to the global result
    because every preserved row lives in exactly one pair.

    An ``Aggregate`` directly above a distributable join chain
    additionally gains a *multi-stage* alternative: the partial half of
    the classic partial→final aggregate split rides inside the worker
    round-trip (inside the co-located fragment, or as a post-join
    ``stages`` pipeline on the shuffle exchange), so workers ship group
    rows instead of join output and the coordinator only merges.
    """

    name = "ShardJoin"

    _JOIN_KINDS = ("INNER", "LEFT", "FULL")
    _PIPELINE_OPS = (logical.Filter, logical.Project, logical.Predict)

    def apply(self, plan, ctx):
        if not ctx.options.get("enable_distributed", True):
            return []
        if isinstance(plan, logical.Aggregate):
            if not ctx.options.get("enable_staged_fragments", True):
                # Ablation knob: fall back to gathering raw join output
                # and aggregating on the coordinator.
                return []
            return self._aggregate_over_join(plan, ctx)
        chain, join = self._join_chain(plan)
        if join is None:
            return []
        sides = self._join_sides(join, ctx)
        if sides is None:
            return []
        left_side, right_side, left_key, right_key = sides
        colocated = self._colocated(
            chain, join, left_side, right_side, left_key, right_key, ctx
        )
        if colocated is not None:
            return [colocated]
        if plan is join:
            # The shuffle alternative lives in the bare join's group;
            # pipelines above it compose through the memo.
            shuffled = self._shuffle(
                join, left_side, right_side, left_key, right_key, ctx
            )
            if shuffled is not None:
                return [shuffled]
        return []

    def _join_chain(self, plan):
        """``(pipeline chain above the join, join)`` or ``(.., None)``."""
        chain: list[logical.LogicalOp] = []
        node = plan
        while isinstance(node, self._PIPELINE_OPS):
            chain.append(node)
            node = node.child
        if not isinstance(node, logical.Join):
            return chain, None
        if node.kind not in self._JOIN_KINDS or node.condition is None:
            return chain, None
        return chain, node

    def _join_sides(self, join, ctx):
        """Resolved equi-keys and per-side pipelines, or ``None``."""
        keys = self._equi_keys(join)
        if keys is None:
            return None
        left_key, right_key = keys
        left_side = self._side(join.left, ctx)
        right_side = self._side(join.right, ctx)
        if left_side is None or right_side is None:
            return None
        return left_side, right_side, left_key, right_key

    # -- aggregates riding the join round-trip ------------------------------

    def _aggregate_over_join(self, plan, ctx):
        """Partial→final split where the partial runs on the workers.

        ``Aggregate(pipeline(Join))`` becomes ``Project(AggregateFinal(
        [Repartition](exchange)))`` where the exchange is either the
        co-located Gather whose *fragment* ends in the partial
        aggregate, or a ShuffleJoin carrying the pipeline + partial
        aggregate as a post-join worker stage — either way the join
        output never reaches the coordinator, only group rows do.
        """
        if any(
            func not in logical.AGGREGATE_FUNCTIONS
            for func, _arg, _alias in plan.aggregates
        ):
            return []
        split = _split_aggregates(plan.aggregates, bool(plan.group_by))
        if split is None:
            return []
        chain, join = self._join_chain(plan.child)
        if join is None:
            return []
        sides = self._join_sides(join, ctx)
        if sides is None:
            return []
        left_side, right_side, left_key, right_key = sides
        partial_aggs, _final_aggs, _items = split
        exchange = None
        colocated = self._colocated(
            chain, join, left_side, right_side, left_key, right_key, ctx
        )
        if colocated is not None:
            partial = logical.Aggregate(
                colocated.fragment, plan.group_by, partial_aggs
            )
            if not fragment_is_serializable(partial, ctx.predict_flavor):
                return []
            exchange = Gather(
                colocated.table_name,
                partial,
                colocated.shard_key,
                colocated.shard_ids,
                colocated.total_shards,
                colocated.pruned_by,
                colocated.join,
            )
        else:
            shuffled = self._shuffle(
                join, left_side, right_side, left_key, right_key, ctx
            )
            if shuffled is not None:
                stage: logical.LogicalOp = StageInput(shuffled.join_schema)
                for node in reversed(chain):
                    stage = node.with_children((stage,))
                stage = logical.Aggregate(stage, plan.group_by, partial_aggs)
                if not fragment_is_serializable(stage, ctx.predict_flavor):
                    return []
                exchange = ShuffleJoin(
                    shuffled.left,
                    shuffled.right,
                    shuffled.kind,
                    shuffled.condition,
                    shuffled.num_buckets,
                    (stage,),
                )
        if exchange is None:
            return []
        ctx.record(self.name, "partial aggregate rides the join round-trip")
        return [_final_aggregate_over(exchange, plan, split, ctx)]

    # -- shared analysis ---------------------------------------------------

    def _side(self, op, ctx):
        """``(pipeline root, scan, sharded|None)`` for a join side that
        is a single-table pipeline, else ``None``."""
        node = op
        while isinstance(node, self._PIPELINE_OPS):
            node = node.child
        if not isinstance(node, logical.Scan) or isinstance(node, ShardScan):
            return None
        sharded = ctx.sharding(node.table_name)
        if sharded is not None and sharded.num_shards < 2:
            sharded = None
        return op, node, sharded

    def _equi_keys(self, join):
        """One ``left.col = right.col`` conjunct's stored column names,
        resolved in each side's output schema, or ``None``."""
        for conjunct in conjuncts(join.condition):
            if not (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                continue
            a = self._resolve_side(join, conjunct.left.name)
            b = self._resolve_side(join, conjunct.right.name)
            if a is None or b is None:
                continue
            (side_a, stored_a), (side_b, stored_b) = a, b
            if side_a == "left" and side_b == "right":
                return stored_a, stored_b
            if side_a == "right" and side_b == "left":
                return stored_b, stored_a
        return None

    @staticmethod
    def _resolve_side(join, ref: str):
        """Which side a reference binds to (unambiguously), plus the
        stored column name it resolves to there."""
        expr = ColumnRef(ref)
        left = resolve_ref_mapping(join.left.schema, expr)
        right = resolve_ref_mapping(join.right.schema, expr)
        if left and not right:
            return "left", next(iter(left.values()))
        if right and not left:
            return "right", next(iter(right.values()))
        return None

    @staticmethod
    def _base_column(scan: logical.Scan, stored: str):
        """``(base column name, numpy dtype)`` for a stored output name
        of a scan (alias prefix stripped), or ``None``."""
        name = stored
        if scan.alias and name.lower().startswith(scan.alias.lower() + "."):
            name = name[len(scan.alias) + 1:]
        lowered = name.lower()
        for column in scan.base_schema:
            if column.name.lower() == lowered:
                return column.name, column.dtype.numpy_dtype
        return None

    @staticmethod
    def _schema_dtype(schema: Schema, stored: str):
        for column in schema:
            if column.name.lower() == stored.lower():
                return column.dtype.numpy_dtype
        return None

    @staticmethod
    def _replace_leaf(pipeline, scan, leaf):
        def rebuild(op):
            if op is scan:
                return leaf
            return op.with_children(tuple(rebuild(c) for c in op.children))

        return rebuild(pipeline)

    @staticmethod
    def _route_side(fragment, sharded):
        """Plan-time shard routing for one side's fragment."""
        predicates = [
            n.predicate
            for n in fragment.walk()
            if isinstance(n, logical.Filter)
        ]
        keep = None
        if predicates:
            try:
                keep = surviving_shards(sharded, conjoin(predicates))
            except Exception:
                keep = None
        if keep is None:
            return tuple(range(sharded.num_shards)), "none"
        ids = tuple(int(i) for i in range(len(keep)) if keep[i])
        pruned = "zone-map" if len(ids) < sharded.num_shards else "none"
        return ids, pruned

    # -- co-located joins --------------------------------------------------

    def _colocated(
        self, chain, join, left_side, right_side, left_key, right_key, ctx
    ):
        left_pipe, left_scan, left_sharded = left_side
        right_pipe, right_scan, right_sharded = right_side
        if left_sharded is None or right_sharded is None:
            return None
        left_base = self._base_column(left_scan, left_key)
        right_base = self._base_column(right_scan, right_key)
        if left_base is None or right_base is None:
            return None
        (left_col, left_dtype) = left_base
        (right_col, right_dtype) = right_base
        if (
            left_sharded.spec.key.split(".")[-1].lower()
            != left_col.lower()
            or right_sharded.spec.key.split(".")[-1].lower()
            != right_col.lower()
        ):
            return None
        if not compatible_layouts(
            left_sharded.spec, left_dtype, right_sharded.spec, right_dtype
        ):
            return None
        total = left_sharded.num_shards
        left_leaf = ShardScan(
            left_scan.table_name,
            left_scan.base_schema,
            left_scan.alias,
            total,
            left_col,
        )
        right_leaf = ShardScan(
            right_scan.table_name,
            right_scan.base_schema,
            right_scan.alias,
            total,
            right_col,
        )
        fragment: logical.LogicalOp = logical.Join(
            self._replace_leaf(left_pipe, left_scan, left_leaf),
            self._replace_leaf(right_pipe, right_scan, right_leaf),
            join.kind,
            join.condition,
        )
        for node in reversed(chain):
            fragment = node.with_children((fragment,))
        if not fragment_is_serializable(fragment, ctx.predict_flavor):
            return None
        shardeds = {
            left_scan.table_name.lower(): left_sharded,
            right_scan.table_name.lower(): right_sharded,
        }
        try:
            shard_ids, pruned_by = colocated_shard_ids(fragment, shardeds)
        except Exception:
            shard_ids = list(range(total))
            pruned_by = "none"
        gather = Gather(
            left_scan.table_name,
            fragment,
            left_col,
            tuple(shard_ids),
            total,
            pruned_by,
            join="colocated",
        )
        ctx.record(
            self.name,
            f"colocated {left_scan.table_name}⋈{right_scan.table_name}: "
            f"{len(shard_ids)}/{total} shards ({pruned_by})",
        )
        return gather

    # -- shuffle joins -----------------------------------------------------

    def _shuffle(
        self, join, left_side, right_side, left_key, right_key, ctx
    ):
        left_dtype = self._schema_dtype(join.left.schema, left_key)
        right_dtype = self._schema_dtype(join.right.schema, right_key)
        if left_dtype is None or right_dtype is None:
            return None
        left_class = hash_class(left_dtype)
        if left_class is None or left_class != hash_class(right_dtype):
            return None  # equal values would bucket differently
        if not expression_is_serializable(join.condition):
            return None
        num_buckets = max(2, ctx.shard_workers())
        shuffles: list[Shuffle] = []
        any_sharded = False
        for (pipe, scan, sharded), key in (
            (left_side, left_key),
            (right_side, right_key),
        ):
            if sharded is not None:
                leaf = ShardScan(
                    scan.table_name,
                    scan.base_schema,
                    scan.alias,
                    sharded.num_shards,
                )
                fragment = self._replace_leaf(pipe, scan, leaf)
                if fragment_is_serializable(fragment, ctx.predict_flavor):
                    shard_ids, pruned_by = self._route_side(
                        fragment, sharded
                    )
                    shuffles.append(
                        Shuffle(
                            scan.table_name,
                            fragment,
                            key,
                            shard_ids,
                            sharded.num_shards,
                            num_buckets,
                            pruned_by,
                        )
                    )
                    any_sharded = True
                    continue
            # The coordinator maps unsharded (or unshippable) sides
            # locally over the original pipeline.
            shuffles.append(
                Shuffle(scan.table_name, pipe, key, (), 1, num_buckets)
            )
        if not any_sharded:
            return None
        shuffle_join = ShuffleJoin(
            shuffles[0], shuffles[1], join.kind, join.condition, num_buckets
        )
        ctx.record(
            self.name,
            f"shuffle {shuffles[0].table_name}⋈{shuffles[1].table_name}: "
            f"{num_buckets} buckets",
        )
        return shuffle_join


#: Guard column global partial aggregates append (see the rule).
_PARTIAL_ROWS = "__partial_rows"


def _split_aggregates(aggregates, grouped: bool):
    """Partial + final aggregate lists and final projection items.

    Returns ``None`` if any aggregate cannot be decomposed. ``COUNT``
    re-combines with SUM, ``SUM``/``MIN``/``MAX`` with themselves, and
    ``AVG`` splits into ``SUM``+``COUNT`` re-divided in the projection
    (guarded against all-empty groups). Global (ungrouped) partials
    additionally carry a ``COUNT(*)`` row guard.
    """
    partial: list[tuple] = []
    final: list[tuple] = []
    items: list[tuple] = []
    for func, arg, alias in aggregates:
        if func in ("COUNT", "SUM"):
            partial.append((func, arg, alias))
            final.append(("SUM", ColumnRef(alias), alias))
            items.append((ColumnRef(alias), alias))
        elif func in ("MIN", "MAX"):
            partial.append((func, arg, alias))
            final.append((func, ColumnRef(alias), alias))
            items.append((ColumnRef(alias), alias))
        elif func == "AVG":
            if arg is None:
                return None
            psum = f"{alias}__psum"
            pcnt = f"{alias}__pcnt"
            partial.append(("SUM", arg, psum))
            partial.append(("COUNT", arg, pcnt))
            final.append(("SUM", ColumnRef(psum), psum))
            final.append(("SUM", ColumnRef(pcnt), pcnt))
            items.append(
                (
                    CaseWhen(
                        (
                            (
                                BinaryOp(
                                    ">", ColumnRef(pcnt), Literal(0)
                                ),
                                BinaryOp(
                                    "/",
                                    ColumnRef(psum),
                                    ColumnRef(pcnt),
                                ),
                            ),
                        ),
                        Literal(0.0),
                    ),
                    alias,
                )
            )
        else:
            return None
    if not grouped:
        partial.append(("COUNT", None, _PARTIAL_ROWS))
    return tuple(partial), tuple(final), items


def _final_aggregate_over(exchange, plan, split, ctx):
    """The coordinator half of a partial→final aggregate split.

    ``exchange`` already produces the partial rows (a Gather whose
    fragment pre-aggregates, or a staged ShuffleJoin); this builds the
    final combine + re-projection above it.
    """
    _partial_aggs, final_aggs, items = split
    gathered: logical.LogicalOp = exchange
    if not plan.group_by:
        # Empty shards/buckets emit identity partial rows (COUNT 0,
        # MIN +inf); drop them before the final combine so sentinel
        # values cannot leak through integer casts.
        gathered = logical.Filter(
            gathered,
            BinaryOp(">", ColumnRef(_PARTIAL_ROWS), Literal(0)),
        )
    final_group_by = tuple(
        (ColumnRef(name), name) for _expr, name in plan.group_by
    )
    final_child = _maybe_repartition(gathered, plan.group_by, ctx)
    final = logical.Aggregate(final_child, final_group_by, final_aggs)
    project_items = tuple(
        [(ColumnRef(name), name) for _expr, name in plan.group_by] + items
    )
    return logical.Project(final, project_items)


def _maybe_repartition(gathered, group_by, ctx):
    """Insert a hash exchange under big grouped final aggregates.

    Buckets on the first plain-column grouping key: every row of a
    group shares that value, so buckets are group-disjoint and the
    executor can aggregate them independently in parallel.
    """
    key = next(
        (alias for expr, alias in group_by if isinstance(expr, ColumnRef)),
        None,
    )
    if key is None:
        return gathered
    threshold = float(
        ctx.options.get(
            "repartition_min_rows", ShardedExecutionRule.REPARTITION_MIN_ROWS
        )
    )
    if ctx.estimate_tree(gathered) < threshold:
        return gathered
    ctx.record("RepartitionExchange", f"on {key}")
    return Repartition(gathered, key, ctx.shard_workers())


# -- rule sets ---------------------------------------------------------------


def sql_rules(options: dict | None = None) -> list[MemoRule]:
    """The SQL physical planner's rule set (Database.execute / EXPLAIN).

    Predicate-based model pruning is included — it preserves the
    ``Predict`` operator shape (the relational executor scores the
    rewritten payload inline) and only fires when WHERE facts actually
    shrink the model. The always-applicable rewrites (projection
    pushdown, model inlining) are not: ad-hoc SQL re-optimizes every
    execution, and swapping a fresh payload per run would defeat the
    model session cache (Fig. 3's repeat-query advantage) for queries
    the rewrite barely helps. Prepared/served queries get them through
    the cross-IR rule set, where the plan cache amortizes the rewrite.
    """
    return [
        MergeConsecutiveFiltersRule(),
        PredicatePushdownRule(),
        JoinOrderRule(),
        PredicateBasedModelPruningRule(),
        BackendChoiceRule(),
        ShardedExecutionRule(),
        ShardJoinRule(),
    ]


def cross_ir_rules(options: dict | None = None) -> list[MemoRule]:
    """The cross-IR optimizer's rule set (RavenSession.optimize)."""
    options = dict(options or {})
    rules: list[MemoRule] = [
        MergeConsecutiveFiltersRule(),
        PredicatePushdownRule(),
        JoinOrderRule(),
        PredicateBasedModelPruningRule(),
        ModelProjectionPushdownRule(insert_projection=True),
        BackendChoiceRule(),
        ShardedExecutionRule(),
        ShardJoinRule(),
    ]
    if options.get("enable_inlining", True):
        rules.append(
            ModelInliningRule(
                max_tree_nodes=int(options.get("max_inline_nodes", 255))
            )
        )
    if options.get("enable_splitting"):
        rules.append(ModelQuerySplittingRule())
    if options.get("enable_nn_translation"):
        rules.append(NNTranslationRule())
    return rules


# -- the optimizer -----------------------------------------------------------


@dataclass
class MemoReport:
    """What one memo search did (EXPLAIN and plan caches render this)."""

    stats: MemoStats
    applied: list[str] = field(default_factory=list)
    cost: float = 0.0


class MemoOptimizer:
    """Explore a logical plan through the memo; extract the cheapest."""

    def __init__(self, rules: list[MemoRule], context: SearchContext):
        self.rules = rules
        self.context = context
        self.memo: Memo | None = None

    def optimize(
        self, plan: logical.LogicalOp
    ) -> tuple[logical.LogicalOp, MemoReport]:
        from repro.observability import events
        from repro.observability import trace as qtrace

        with qtrace.span("memo_search") as sp:
            memo = Memo()
            self.memo = memo
            self.context.memo = memo
            self.context.stats = memo.stats
            self.context.prepare(plan)
            root = memo.register(plan)
            self._explore(root, set())
            cost, best = self._best(root)
            if best is None:  # defensive: extraction can never fail silently
                best, cost = plan, float("inf")
            report = MemoReport(
                stats=memo.stats,
                applied=list(memo.stats.rules_fired),
                cost=cost,
            )
            sp.set("groups", memo.stats.groups_created)
            sp.set("expressions", memo.stats.expressions_added)
            sp.set("pruned", memo.stats.branches_pruned)
            sp.set("rules_fired", len(memo.stats.rules_fired))
        if events.BUS.active:
            events.emit(
                "optimizer.memo_search",
                cost=cost,
                **memo.stats.to_dict(),
            )
        return best, report

    # -- exploration --------------------------------------------------------

    def _explore(self, group_id: int, visited: set[int]) -> None:
        if group_id in visited:
            return
        visited.add(group_id)
        group = self.memo.group(group_id)
        index = 0
        while index < len(group.expressions):
            expr = group.expressions[index]
            # Substitution (normalization) rules run first, before the
            # expression's children are explored: a replaced expression
            # is dead for extraction, so exploring below it — e.g.
            # running the exhaustive join-order DP on the pre-pushdown
            # join chain — would only burn search budget on unreachable
            # groups. The rewritten alternative lands in this group and
            # its sub-tree is explored in its own right.
            self._apply_rules(group, group_id, expr, index, substitute=True)
            if expr.disabled:
                index += 1
                continue
            # Competitive rules also run before descending: every rule
            # matches on the concrete representative sub-tree, so child
            # exploration cannot change a match, and top-down order
            # lets the join-order DP mark its sub-chains as searched
            # before the nested join groups are visited.
            self._apply_rules(group, group_id, expr, index, substitute=False)
            for child in expr.children:
                self._explore(child, visited)
            self.memo.stats.expressions_explored += 1
            index += 1

    def _apply_rules(self, group, group_id, expr, index, substitute):
        for rule in self.rules:
            if rule.substitute is not substitute:
                continue
            if expr.disabled:
                # Already replaced by an earlier substitution: the
                # replacement gets its own substitution pass, so later
                # rules (e.g. NN translation after splitting) apply to
                # it in rule order instead of racing it on cost.
                break
            marker = (rule.name, index)
            if marker in group.done:
                continue
            group.done.add(marker)
            try:
                alternatives = rule.apply(expr.plan, self.context)
            except Exception:
                # A rule bug must never break query execution; the
                # original expression is always still in the group.
                self.memo.stats.rule_errors += 1
                continue
            added = False
            for alternative in alternatives:
                if self.memo.add_expression(group_id, alternative):
                    added = True
            if added and rule.substitute:
                # Normalization: the rewritten form replaces the
                # matched expression rather than competing with it.
                expr.disabled = True

    # -- extraction (cost-bounded branch and bound) --------------------------

    def _rows(self, group_id: int) -> float:
        group = self.memo.group(group_id)
        if group.rows is not None:
            return group.rows
        group.rows = DEFAULT_ROW_ESTIMATE  # cycle guard / in-progress
        expr = group.expressions[0]
        child_rows = [self._rows(child) for child in expr.children]
        group.rows = estimate_operator_rows(expr.op, child_rows, self.context)
        return group.rows

    def _best(self, group_id: int) -> tuple[float, logical.LogicalOp | None]:
        group = self.memo.group(group_id)
        if group.best is not None:
            return group.best
        group.best = (math.inf, None)  # cycle guard / in-progress
        best_cost = math.inf
        best_plan: logical.LogicalOp | None = None
        rows = self._rows(group_id)
        live = [expr for expr in group.expressions if not expr.disabled]
        if not live:  # paranoia: never leave a group unextractable
            live = group.expressions
        for expr in live:
            child_rows = [self._rows(child) for child in expr.children]
            total = operator_cost(expr.op, rows, child_rows, self.context)
            if total >= best_cost:
                self.memo.stats.branches_pruned += 1
                continue
            plans: list[logical.LogicalOp] = []
            feasible = True
            for child in expr.children:
                child_cost, child_plan = self._best(child)
                total += child_cost
                if child_plan is None or total >= best_cost:
                    # The accumulated bound already lost: stop pricing
                    # this expression's remaining children.
                    self.memo.stats.branches_pruned += 1
                    feasible = False
                    break
                plans.append(child_plan)
            if not feasible:
                continue
            best_cost = total
            best_plan = (
                expr.op.with_children(plans) if plans else expr.plan
            )
        group.best = (best_cost, best_plan)
        return group.best


# -- IR bridge ---------------------------------------------------------------


class PlanConversionError(OptimizerError):
    """The IR graph has no logical-tree form (shared nodes, exotic ops)."""


def _unprefixed(schema: Schema, alias: str | None) -> Schema:
    if not alias:
        return schema
    prefix = alias.lower() + "."
    return Schema(
        tuple(
            Column(
                column.name[len(prefix):]
                if column.name.lower().startswith(prefix)
                else column.name,
                column.dtype,
            )
            for column in schema
        )
    )


def ir_to_logical(graph: IRGraph) -> logical.LogicalOp:
    """Convert an IR graph (tree or DAG) to a logical plan for the memo.

    Scoring operators become payload-carrying :class:`logical.Predict`
    nodes (``mld.pipeline`` / ``la.tensor_graph`` / ``udf.python``);
    auxiliary attributes round-trip through ``Predict.extra``. An IR
    node with several consumers (a DAG edge, e.g. after model/query
    splitting) converts once and every consumer holds the *same*
    logical object — the memo's identity map then interns the shared
    subtree into a single group, so it is explored and priced exactly
    once. Raises :class:`PlanConversionError` for unconvertible
    operators.
    """
    built: dict[int, logical.LogicalOp] = {}

    def build(node) -> logical.LogicalOp:
        cached = built.get(node.id)
        if cached is not None:
            return cached
        try:
            result = _build_node(node)
        except KeyError as exc:
            # Graphs from other analyzers (e.g. the Python static
            # analyzer) may omit attrs this bridge requires; report
            # that as a conversion failure, not a bare KeyError.
            raise PlanConversionError(
                f"IR node {node.op!r} lacks attr {exc}"
            ) from exc
        built[node.id] = result
        return result

    def _build_node(node) -> logical.LogicalOp:
        children = [build(graph.node(i)) for i in node.inputs]
        attrs = node.attrs
        op = node.op
        if op == "ra.scan":
            return logical.Scan(
                attrs["table"],
                _unprefixed(attrs["schema"], attrs.get("alias")),
                attrs.get("alias"),
            )
        if op == "ra.inline_table":
            return logical.InlineTable(
                attrs["table_value"],
                attrs.get("alias"),
                attrs.get("source_name"),
            )
        if op == "ra.filter":
            return logical.Filter(children[0], attrs["predicate"])
        if op == "ra.project":
            if attrs.get("items") is None:
                raise PlanConversionError("projection without items")
            return logical.Project(children[0], tuple(attrs["items"]))
        if op == "ra.join":
            return logical.Join(
                children[0],
                children[1],
                attrs.get("kind", "INNER"),
                attrs.get("condition"),
            )
        if op == "ra.aggregate":
            return logical.Aggregate(
                children[0],
                tuple(attrs.get("group_by") or ()),
                tuple(attrs.get("aggregates") or ()),
            )
        if op == "ra.order_by":
            return logical.OrderBy(children[0], tuple(attrs["keys"]))
        if op == "ra.limit":
            return logical.Limit(children[0], attrs["count"])
        if op == "ra.distinct":
            return logical.Distinct(children[0])
        if op == "ra.union_all":
            return logical.UnionAll(tuple(children))
        if op == "ra.gather":
            return Gather(
                attrs["table"],
                attrs["fragment"],
                attrs["shard_key"],
                tuple(attrs["shard_ids"]),
                attrs["total_shards"],
                attrs.get("pruned_by", "none"),
                attrs.get("join", "none"),
            )
        if op == "ra.shuffle_join":
            return ShuffleJoin(
                attrs["left"],
                attrs["right"],
                attrs.get("kind", "INNER"),
                attrs["condition"],
                attrs["num_buckets"],
                tuple(attrs.get("stages") or ()),
            )
        if op == "ra.repartition":
            return Repartition(
                children[0], attrs["key"], attrs["num_buckets"]
            )
        if op in ("mld.pipeline", "la.tensor_graph", "udf.python"):
            if op == "mld.pipeline":
                flavor, payload, extra = (
                    "ml.pipeline",
                    attrs["pipeline"],
                    (),
                )
            elif op == "la.tensor_graph":
                flavor = "tensor.graph"
                payload = attrs["graph"]
                extra = (("device", attrs.get("device", "cpu")),)
            else:
                flavor = "python.script"
                payload = attrs.get("source")
                extra = (("name", attrs.get("name")),)
            if op != "udf.python" and attrs.get("backend"):
                extra = extra + (("backend", attrs["backend"]),)
            features = attrs.get("feature_names")
            return logical.Predict(
                children[0],
                str(attrs.get("model_ref") or ""),
                tuple(attrs.get("output_columns") or ()),
                attrs.get("alias"),
                attrs.get("batch_size"),
                flavor,
                payload,
                # () means "zero features" (fully-pruned model): keep it
                # distinct from None ("all columns"), matching the
                # lowering direction.
                tuple(features) if features is not None else None,
                extra,
            )
        raise PlanConversionError(f"IR op {op!r} has no logical form")

    return build(graph.output)


def logical_to_ir(plan: logical.LogicalOp) -> IRGraph:
    """Lower a (possibly memo-rewritten) logical plan back onto the IR.

    A logical sub-plan *object* referenced by multiple parents (shared
    through the memo's identity map) lowers to one IR node with
    multiple consumers, preserving the DAG shape instead of
    duplicating the subtree.
    """
    graph = IRGraph()
    lowered: dict[int, tuple[logical.LogicalOp, int]] = {}

    def lower(op: logical.LogicalOp) -> int:
        cached = lowered.get(id(op))
        if cached is not None and cached[0] is op:
            return cached[1]
        node_id = _lower_node(op)
        lowered[id(op)] = (op, node_id)
        return node_id

    def _lower_node(op: logical.LogicalOp) -> int:
        if isinstance(op, logical.Scan):
            return graph.add(
                "ra.scan",
                [],
                table=op.table_name,
                alias=op.alias,
                schema=op.schema,
            ).id
        if isinstance(op, logical.InlineTable):
            return graph.add(
                "ra.inline_table",
                [],
                table_value=op.table,
                alias=op.alias,
                source_name=op.source_name,
            ).id
        if isinstance(op, logical.Filter):
            child = lower(op.child)
            return graph.add("ra.filter", [child], predicate=op.predicate).id
        if isinstance(op, logical.Project):
            child = lower(op.child)
            return graph.add("ra.project", [child], items=list(op.items)).id
        if isinstance(op, logical.Join):
            left = lower(op.left)
            right = lower(op.right)
            return graph.add(
                "ra.join", [left, right], kind=op.kind, condition=op.condition
            ).id
        if isinstance(op, logical.Aggregate):
            child = lower(op.child)
            return graph.add(
                "ra.aggregate",
                [child],
                group_by=list(op.group_by),
                aggregates=list(op.aggregates),
            ).id
        if isinstance(op, logical.OrderBy):
            child = lower(op.child)
            return graph.add("ra.order_by", [child], keys=list(op.keys)).id
        if isinstance(op, logical.Limit):
            child = lower(op.child)
            return graph.add("ra.limit", [child], count=op.count).id
        if isinstance(op, logical.Distinct):
            child = lower(op.child)
            return graph.add("ra.distinct", [child]).id
        if isinstance(op, logical.UnionAll):
            branches = [lower(b) for b in op.branches]
            return graph.add("ra.union_all", branches).id
        if isinstance(op, Gather):
            # The fragment stays a logical subtree attribute — it is
            # dispatched (and JSON-serialized) whole, never executed
            # operator-by-operator by the IR runtime.
            return graph.add(
                "ra.gather",
                [],
                table=op.table_name,
                fragment=op.fragment,
                shard_key=op.shard_key,
                shard_ids=tuple(op.shard_ids),
                total_shards=op.total_shards,
                pruned_by=op.pruned_by,
                join=op.join,
                schema=op.schema,
            ).id
        if isinstance(op, ShuffleJoin):
            # Like Gather, the side templates stay logical attributes:
            # the exchange dispatches them whole.
            return graph.add(
                "ra.shuffle_join",
                [],
                left=op.left,
                right=op.right,
                kind=op.kind,
                condition=op.condition,
                num_buckets=op.num_buckets,
                stages=tuple(op.stages),
                schema=op.schema,
            ).id
        if isinstance(op, Repartition):
            child = lower(op.child)
            return graph.add(
                "ra.repartition",
                [child],
                key=op.key,
                num_buckets=op.num_buckets,
            ).id
        if isinstance(op, logical.Predict):
            child = lower(op.child)
            common = dict(
                model_ref=op.model_ref,
                output_columns=tuple(op.output_columns),
                alias=op.alias,
                # () means "zero features" (fully-pruned model), which
                # must NOT collapse to None ("all columns").
                feature_names=(
                    list(op.feature_names)
                    if op.feature_names is not None
                    else None
                ),
            )
            extra = dict(op.extra)
            if extra.get("backend"):
                common["backend"] = extra["backend"]
            if op.flavor == "tensor.graph":
                return graph.add(
                    "la.tensor_graph",
                    [child],
                    graph=op.payload,
                    device=extra.get("device", "cpu"),
                    **common,
                ).id
            if op.flavor == "python.script":
                common.pop("backend", None)
                return graph.add(
                    "udf.python",
                    [child],
                    source=op.payload,
                    name=extra.get("name") or op.model_ref,
                    **common,
                ).id
            return graph.add(
                "mld.pipeline", [child], pipeline=op.payload, **common
            ).id
        raise PlanConversionError(
            f"cannot lower logical op {type(op).__name__} to IR"
        )

    graph.set_output(lower(plan))
    graph.validate()
    return graph
