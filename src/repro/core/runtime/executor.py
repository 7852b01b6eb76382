"""The integrated runtime: executes optimized IR plans (paper §5).

RA nodes run on the relational engine's vectorized kernels; ``mld.*``
nodes score in-process through the ML library; ``la.tensor_graph`` nodes
run in cached tensor inference sessions (on CPU or the simulated GPU);
``udf.python`` nodes fall back to the out-of-process runtime. Shared
subplans (e.g. both branches of a model/query split) are memoized per
execution.

Scoring is chunked and scored on a thread pool above a row threshold,
reproducing SQL Server's automatic parallelization of scan + PREDICT
(Fig. 3, observation iii); batch size is configurable for the §5(v)
batching experiment.

Execution is re-entrant: each :meth:`RavenExecutor.execute` call keeps its
memo table on the stack and never mutates the plan, so the serving layer
can run one cached (prepared) plan from many worker threads concurrently.
The only shared mutable state — the tensor inference-session cache — is
guarded by a lock.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.errors import RuntimeDispatchError
from repro.core.ir.graph import IRGraph
from repro.core.ir.nodes import IRNode
from repro.relational.algebra import logical
from repro.relational.algebra.executor import ExecutionOptions
from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.tensor.session import InferenceSession


class RavenExecutor:
    """Executes unified-IR plans against a database."""

    def __init__(
        self,
        database: Database,
        options: ExecutionOptions | None = None,
        external_runtime: Callable | None = None,
    ):
        self._database = database
        self.options = options or database.executor_options
        self._external_runtime = external_runtime
        # Tensor sessions are cached by tensor-graph identity; entries
        # survive across queries, like ORT sessions inside SQL Server.
        # The keyed graph object is pinned alongside the session: id()s
        # are recycled after garbage collection, and plan churn (drop,
        # rollback, re-prepare) makes graph turnover routine.
        self._session_cache: dict[tuple, tuple[object, InferenceSession]] = {}
        self._compiled_cache: dict[tuple, tuple[object, object]] = {}
        self._session_lock = threading.Lock()

    # -- entry point -----------------------------------------------------

    def execute(self, graph: IRGraph) -> Table:
        memo: dict[int, Table] = {}
        return self._execute_node(graph, graph.output, memo)

    def _execute_node(
        self, graph: IRGraph, node: IRNode, memo: dict[int, Table]
    ) -> Table:
        if node.id in memo:
            return memo[node.id]
        handler = getattr(
            self, "_run_" + node.op.replace(".", "_"), None
        )
        if handler is None:
            raise RuntimeDispatchError(f"no runtime for IR op {node.op!r}")
        inputs = [
            self._execute_node(graph, graph.node(i), memo) for i in node.inputs
        ]
        result = handler(node, inputs)
        memo[node.id] = result
        return result

    # -- relational operators (delegated to the DB's kernels) ------------------

    def _relational(self, op: logical.LogicalOp) -> Table:
        return self._database.execute_plan(op)

    def _run_ra_scan(self, node: IRNode, inputs: list[Table]) -> Table:
        table = self._database.table(node.attrs["table"])
        alias = node.attrs.get("alias")
        return table.prefixed(alias) if alias else table

    def _run_ra_inline_table(self, node: IRNode, inputs: list[Table]) -> Table:
        table = node.attrs["table_value"]
        alias = node.attrs.get("alias")
        return table.prefixed(alias) if alias else table

    def _run_ra_filter(self, node: IRNode, inputs: list[Table]) -> Table:
        return self._relational(
            logical.Filter(
                logical.InlineTable(inputs[0]), node.attrs["predicate"]
            )
        )

    def _run_ra_project(self, node: IRNode, inputs: list[Table]) -> Table:
        items = node.attrs.get("items")
        if items is None:
            return inputs[0].drop(node.attrs.get("drop", []))
        return self._relational(
            logical.Project(logical.InlineTable(inputs[0]), tuple(items))
        )

    def _run_ra_join(self, node: IRNode, inputs: list[Table]) -> Table:
        return self._relational(
            logical.Join(
                logical.InlineTable(inputs[0]),
                logical.InlineTable(inputs[1]),
                node.attrs.get("kind", "INNER"),
                node.attrs.get("condition"),
            )
        )

    def _run_ra_union_all(self, node: IRNode, inputs: list[Table]) -> Table:
        return self._relational(
            logical.UnionAll(tuple(logical.InlineTable(t) for t in inputs))
        )

    def _run_ra_order_by(self, node: IRNode, inputs: list[Table]) -> Table:
        return self._relational(
            logical.OrderBy(
                logical.InlineTable(inputs[0]), tuple(node.attrs["keys"])
            )
        )

    def _run_ra_limit(self, node: IRNode, inputs: list[Table]) -> Table:
        return inputs[0].head(node.attrs["count"])

    def _run_ra_distinct(self, node: IRNode, inputs: list[Table]) -> Table:
        return self._relational(
            logical.Distinct(logical.InlineTable(inputs[0]))
        )

    def _run_ra_gather(self, node: IRNode, inputs: list[Table]) -> Table:
        from repro.distributed.operators import Gather

        return self._relational(
            Gather(
                node.attrs["table"],
                node.attrs["fragment"],
                node.attrs["shard_key"],
                tuple(node.attrs["shard_ids"]),
                node.attrs["total_shards"],
                node.attrs.get("pruned_by", "none"),
                node.attrs.get("join", "none"),
            )
        )

    def _run_ra_shuffle_join(self, node: IRNode, inputs: list[Table]) -> Table:
        from repro.distributed.operators import ShuffleJoin

        return self._relational(
            ShuffleJoin(
                node.attrs["left"],
                node.attrs["right"],
                node.attrs.get("kind", "INNER"),
                node.attrs["condition"],
                node.attrs["num_buckets"],
                tuple(node.attrs.get("stages") or ()),
            )
        )

    def _run_ra_repartition(self, node: IRNode, inputs: list[Table]) -> Table:
        from repro.distributed.operators import Repartition

        return self._relational(
            Repartition(
                logical.InlineTable(inputs[0]),
                node.attrs["key"],
                node.attrs["num_buckets"],
            )
        )

    def _run_ra_aggregate(self, node: IRNode, inputs: list[Table]) -> Table:
        return self._relational(
            logical.Aggregate(
                logical.InlineTable(inputs[0]),
                tuple(node.attrs.get("group_by", [])),
                tuple(node.attrs.get("aggregates", [])),
            )
        )

    # -- scoring operators ------------------------------------------------

    def _append_outputs(
        self,
        node: IRNode,
        table: Table,
        values: np.ndarray,
    ) -> Table:
        """Attach prediction columns (aliased) to the input rows."""
        values = np.asarray(values)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        alias = node.attrs.get("alias")
        result = table
        outputs = node.attrs.get("output_columns") or (
            ("prediction", DataType.FLOAT),
        )
        for index, (name, dtype) in enumerate(outputs):
            if index >= values.shape[1]:
                break
            out_name = f"{alias}.{name}" if alias else name
            np_dtype = (
                dtype.numpy_dtype
                if isinstance(dtype, DataType)
                else np.dtype(np.float64)
            )
            result = result.with_column(
                out_name, values[:, index].astype(np_dtype)
            )
        return result

    def _score_chunked(
        self, table: Table, features: list[str] | None, scorer
    ) -> np.ndarray:
        """Chunk + thread-pool scoring (the parallel PREDICT path)."""
        options = self.options
        rows = table.num_rows
        matrix = table.to_matrix(features)
        batch = options.default_batch_size
        parallel = (
            options.parallel_predict and rows >= options.parallel_row_threshold
        )
        if batch is None and not parallel:
            return np.asarray(scorer(matrix))
        if batch is None:
            batch = max(1, rows // (options.max_workers * 2))
        chunks = [
            matrix[start : start + batch]
            for start in range(0, max(rows, 1), batch)
        ]
        if parallel and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=options.max_workers) as pool:
                parts = list(pool.map(scorer, chunks))
        else:
            parts = [scorer(chunk) for chunk in chunks]
        return np.concatenate([np.asarray(p) for p in parts])

    def _run_mld_pipeline(self, node: IRNode, inputs: list[Table]) -> Table:
        pipeline = node.attrs["pipeline"]
        features = node.attrs.get("feature_names")
        scorer = None
        backend = (node.attrs.get("backend") or "numpy").lower()
        if backend != "numpy":
            scorer = self._compiled_scorer_for(node, pipeline, features, backend)
        if scorer is None:
            scorer = lambda m: pipeline.predict(m)  # noqa: E731
        predictions = self._score_chunked(inputs[0], features, scorer)
        return self._append_outputs(node, inputs[0], predictions)

    def _compiled_scorer_for(self, node: IRNode, pipeline, features, backend):
        """Cached compiled scorer for a memo-chosen pipeline backend.

        Cached by pipeline identity + backend (pipelines are opaque
        payloads; plans pin them). ``None`` — and the interpreted
        ``predict`` path — when NN translation fails.
        """
        from repro.tensor.backends import compiled_pipeline_scorer

        key = (id(pipeline), backend)
        with self._session_lock:
            cached = self._compiled_cache.get(key)
            if cached is not None and cached[0] is pipeline:
                return cached[1]
        scorer = compiled_pipeline_scorer(
            pipeline, len(features) if features else None, backend
        )
        with self._session_lock:
            self._compiled_cache[key] = (pipeline, scorer)
        return scorer

    def _run_la_tensor_graph(self, node: IRNode, inputs: list[Table]) -> Table:
        session = self._session_for(node)
        features = node.attrs.get("feature_names")

        def scorer(matrix: np.ndarray) -> np.ndarray:
            outputs = session.run({session.input_names[0]: matrix})
            return np.asarray(outputs[0]).reshape(matrix.shape[0], -1)

        predictions = self._score_chunked(inputs[0], features, scorer)
        return self._append_outputs(node, inputs[0], predictions)

    def _session_for(self, node: IRNode) -> InferenceSession:
        tensor_graph = node.attrs["graph"]
        backend = (node.attrs.get("backend") or "numpy").lower()
        key = (id(tensor_graph), backend)
        with self._session_lock:
            cached = self._session_cache.get(key)
            if (
                cached is not None
                and cached[0] is tensor_graph
                and cached[1].device.name == _device_name(node)
            ):
                return cached[1]
        # Build outside the lock: session construction can be expensive
        # and must not stall concurrent scoring on unrelated graphs.
        session = InferenceSession(
            tensor_graph,
            device=node.attrs.get("device", "cpu"),
            backend=backend,
        )
        with self._session_lock:
            self._session_cache[key] = (tensor_graph, session)
        return session

    # -- fallback runtimes ------------------------------------------------

    def _run_udf_python(self, node: IRNode, inputs: list[Table]) -> Table:
        fn = node.attrs.get("fn")
        if callable(fn):
            result = fn(inputs[0])
            if isinstance(result, Table):
                return result
            return self._append_outputs(node, inputs[0], np.asarray(result))
        if self._external_runtime is not None:
            result = self._external_runtime(
                node.attrs.get("source", ""), inputs[0]
            )
            if isinstance(result, Table):
                return result
            return self._append_outputs(node, inputs[0], np.asarray(result))
        raise RuntimeDispatchError(
            f"UDF {node.attrs.get('name', '?')!r} has no callable and no "
            "external runtime is configured"
        )


def _device_name(node: IRNode) -> str:
    device = node.attrs.get("device", "cpu")
    if isinstance(device, str):
        return "gpu(simulated)" if device.lower() in ("gpu", "cuda") else "cpu"
    return device.name
