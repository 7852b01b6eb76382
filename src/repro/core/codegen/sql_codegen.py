"""Runtime code generation: optimized IR -> SQL text (paper §2, §5).

Raven's Runtime Code Generator "builds a new SQL query that corresponds to
the optimized IR". RA nodes render to plain SQL; scoring nodes render to
``PREDICT(MODEL = @..., DATA = ...) WITH (...)`` table expressions;
inlined models are already plain projection expressions by the time they
get here. The emitted SQL re-parses and re-binds against the same
database, which is how the round-trip tests validate codegen.
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.core.ir.graph import IRGraph
from repro.core.ir.nodes import IRNode
from repro.relational.types import DataType


def generate_sql(graph: IRGraph) -> str:
    """Render an IR plan as a SQL query string."""
    body = _render(graph, graph.output)
    return body


def _render(graph: IRGraph, node: IRNode) -> str:
    op = node.op
    if op == "ra.scan":
        table = node.attrs["table"]
        alias = node.attrs.get("alias")
        return f"SELECT * FROM {table}" + (f" AS {alias}" if alias else "")
    if op == "ra.inline_table":
        raise CodegenError(
            "inline tables have no SQL form; pass them via execute(data=...)"
        )
    if op == "ra.filter":
        child = _subquery(graph, node.inputs[0], "sq")
        predicate = node.attrs["predicate"].to_sql()
        return f"SELECT * FROM {child} WHERE {predicate}"
    if op == "ra.project":
        child = _subquery(graph, node.inputs[0], "sq")
        items = node.attrs.get("items")
        if items is None:
            raise CodegenError("cannot emit SQL for drop-style projection")
        # Output names keep their unqualified form so references above the
        # subquery (``d.pregnant``) still resolve via suffix matching.
        used: set[str] = set()
        parts = []
        for expr, name in items:
            short = _safe_name(name.split(".")[-1])
            candidate = short
            suffix = 1
            while candidate in used:
                suffix += 1
                candidate = f"{short}_{suffix}"
            used.add(candidate)
            parts.append(f"{expr.to_sql()} AS {candidate}")
        return f"SELECT {', '.join(parts)} FROM {child}"
    if op == "ra.join":
        left = _subquery(graph, node.inputs[0], "l")
        right = _subquery(graph, node.inputs[1], "r")
        kind = node.attrs.get("kind", "INNER")
        condition = node.attrs.get("condition")
        if kind == "CROSS" or condition is None:
            return f"SELECT * FROM {left} CROSS JOIN {right}"
        return (
            f"SELECT * FROM {left} {kind} JOIN {right} "
            f"ON {condition.to_sql()}"
        )
    if op == "ra.union_all":
        branches = [_render(graph, graph.node(i)) for i in node.inputs]
        return " UNION ALL ".join(branches)
    if op == "ra.order_by":
        child = _subquery(graph, node.inputs[0], "sq")
        keys = ", ".join(
            f"{expr.to_sql()} {'ASC' if ascending else 'DESC'}"
            for expr, ascending in node.attrs["keys"]
        )
        return f"SELECT * FROM {child} ORDER BY {keys}"
    if op == "ra.limit":
        child = _subquery(graph, node.inputs[0], "sq")
        return f"SELECT * FROM {child} LIMIT {node.attrs['count']}"
    if op == "ra.distinct":
        child = _subquery(graph, node.inputs[0], "sq")
        return f"SELECT DISTINCT * FROM {child}"
    if op == "ra.aggregate":
        child = _subquery(graph, node.inputs[0], "sq")
        selects = []
        groups = []
        for expr, name in node.attrs.get("group_by", []):
            selects.append(f"{expr.to_sql()} AS {_safe_name(name)}")
            groups.append(expr.to_sql())
        for func, arg, alias in node.attrs.get("aggregates", []):
            arg_sql = "*" if arg is None else arg.to_sql()
            selects.append(f"{func}({arg_sql}) AS {_safe_name(alias)}")
        sql = f"SELECT {', '.join(selects)} FROM {child}"
        if groups:
            sql += f" GROUP BY {', '.join(groups)}"
        return sql
    if op in ("mld.pipeline", "la.tensor_graph"):
        return _render_predict(graph, node)
    if op == "udf.python":
        model_ref = node.attrs.get("model_ref")
        if model_ref:
            return _render_exec_external(graph, node, model_ref)
        raise CodegenError("cannot emit SQL for an anonymous Python UDF")
    raise CodegenError(f"no SQL rendering for IR op {op!r}")


def _render_predict(graph: IRGraph, node: IRNode) -> str:
    model_ref = node.attrs.get("model_ref", "optimized_model")
    child = _subquery(graph, node.inputs[0], node.attrs.get("alias") or "d")
    outputs = node.attrs.get("output_columns", (("prediction", DataType.FLOAT),))
    with_clause = ", ".join(
        f"{name} {_sql_type(dtype)}" for name, dtype in outputs
    )
    alias = node.attrs.get("alias")
    suffix = f" AS {alias}" if alias else ""
    variable = "@" + _safe_name(model_ref.replace(":", "_").replace(".", "_"))
    return (
        f"SELECT * FROM PREDICT(MODEL = {variable}, DATA = {child}) "
        f"WITH ({with_clause}){suffix}"
    )


def _render_exec_external(graph: IRGraph, node: IRNode, model_ref: str) -> str:
    input_sql = _render(graph, graph.node(node.inputs[0]))
    escaped = input_sql.replace("'", "''")
    return (
        "EXEC sp_execute_external_script @language = 'python', "
        f"@script = '{model_ref}', @input_data_1 = '{escaped}'"
    )


def _subquery(graph: IRGraph, node_id: int, alias_hint: str) -> str:
    node = graph.node(node_id)
    if node.op == "ra.scan":
        table = node.attrs["table"]
        alias = node.attrs.get("alias")
        return f"{table} AS {alias}" if alias else table
    inner = _render(graph, node)
    return f"({inner}) AS {alias_hint}{node_id}"


def _safe_name(name: str) -> str:
    cleaned = name.replace(".", "_")
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = f"c_{cleaned}"
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in cleaned)


def _sql_type(dtype) -> str:
    if not isinstance(dtype, DataType):
        return "float"
    return {
        DataType.BOOL: "bit",
        DataType.INT: "bigint",
        DataType.FLOAT: "float",
        DataType.STRING: "varchar",
        DataType.BINARY: "varbinary",
    }[dtype]
