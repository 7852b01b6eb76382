"""Unified IR node definitions.

Raven's IR (paper §3.1) mixes four operator categories in one DAG:

* **RA** — relational algebra (scan/filter/project/join/...),
* **LA** — linear algebra (a tensor graph executed by the NN runtime),
* **MLD** — classical-ML operators and data featurizers (trees, scalers,
  one-hot encoders, whole pipelines),
* **UDF** — opaque code the static analyzer could not translate.

Nodes are lightweight records; the DAG structure and rewriting machinery
live in :mod:`repro.core.ir.graph`. Higher- and lower-level operators
coexist on purpose (an ``ml.pipeline`` node can be expanded into individual
featurizer nodes, or collapsed into a single ``la.tensor_graph``), mirroring
the paper's MLIR-style multi-level design.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpCategory(enum.Enum):
    """The four operator families of the unified IR."""

    RA = "relational"
    LA = "linear_algebra"
    MLD = "ml_and_featurizers"
    UDF = "udf"


# Canonical op names. RA ops mirror the logical algebra; MLD ops wrap
# fitted estimators; LA wraps a tensor graph; UDF wraps a callable.
RA_OPS = frozenset(
    {
        "ra.scan",
        "ra.inline_table",
        "ra.filter",
        "ra.project",
        "ra.join",
        "ra.aggregate",
        "ra.order_by",
        "ra.limit",
        "ra.distinct",
        "ra.union_all",
        "ra.gather",  # distributed scatter-gather exchange (leaf)
        "ra.repartition",  # local hash exchange (key-disjoint buckets)
        "ra.shuffle_join",  # distributed hash-shuffle equi-join (leaf)
    }
)

MLD_OPS = frozenset(
    {
        "mld.pipeline",  # a whole fitted model pipeline (featurizers+predictor)
    }
)

LA_OPS = frozenset({"la.tensor_graph"})

UDF_OPS = frozenset({"udf.python"})

ALL_OPS = RA_OPS | MLD_OPS | LA_OPS | UDF_OPS


def category_of(op: str) -> OpCategory:
    """The category an op name belongs to."""
    if op in RA_OPS:
        return OpCategory.RA
    if op in MLD_OPS:
        return OpCategory.MLD
    if op in LA_OPS:
        return OpCategory.LA
    if op in UDF_OPS:
        return OpCategory.UDF
    raise ValueError(f"unknown IR op {op!r}")


# Engine assignment values (paper §5: in-process relational/tensor engines,
# out-of-process external scripts, containerized REST fallback).
ENGINE_RELATIONAL = "relational"
ENGINE_TENSOR = "tensor"
ENGINE_PYTHON = "python"
ENGINE_EXTERNAL = "external"
ENGINE_CONTAINER = "container"


@dataclass
class IRNode:
    """One operator in the unified IR DAG.

    ``inputs`` are node ids within the owning :class:`IRGraph`. ``attrs``
    carry op-specific payload (predicates, fitted models, tensor graphs,
    output column descriptors). ``engine`` is filled in by the optimizer's
    engine-assignment step.
    """

    id: int
    op: str
    inputs: list[int] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    engine: str | None = None

    @property
    def category(self) -> OpCategory:
        return category_of(self.op)

    def copy(self) -> "IRNode":
        return IRNode(
            self.id, self.op, list(self.inputs), dict(self.attrs), self.engine
        )

    def describe(self) -> str:
        """One-line human-readable description (used by the printer)."""
        detail = ""
        if self.op == "ra.scan":
            detail = self.attrs.get("table", "")
            alias = self.attrs.get("alias")
            if alias:
                detail += f" AS {alias}"
        elif self.op == "ra.filter":
            detail = repr(self.attrs.get("predicate"))
        elif self.op == "ra.project":
            names = [name for _, name in self.attrs.get("items", [])]
            detail = ", ".join(names)
        elif self.op == "ra.join":
            detail = self.attrs.get("kind", "INNER")
            condition = self.attrs.get("condition")
            if condition is not None:
                detail += f" ON {condition!r}"
        elif self.op == "mld.pipeline":
            pipeline = self.attrs.get("pipeline")
            if pipeline is not None:
                detail = type(pipeline).__name__
                steps = getattr(pipeline, "steps", None)
                if steps:
                    detail = "->".join(type(s).__name__ for _, s in steps)
        elif self.op == "la.tensor_graph":
            graph = self.attrs.get("graph")
            if graph is not None:
                detail = f"{len(graph.nodes)} tensor ops"
            device = self.attrs.get("device")
            if device:
                detail += f" on {device}"
        elif self.op == "udf.python":
            detail = self.attrs.get("name", "<anonymous>")
        engine = f" [{self.engine}]" if self.engine else ""
        return f"{self.op}({detail}){engine}"
