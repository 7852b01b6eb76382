"""Rule protocol for the cross-optimizer's IR post-pass.

An IR :class:`Rule` inspects an IR graph, decides whether it applies,
and rewrites it in place.
:class:`~repro.core.optimizer.engine.UnifiedOptimizer` runs these after
the memo search; each application is recorded so tests and ``EXPLAIN``
can show which optimizations fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ir.graph import IRGraph


@dataclass
class RuleContext:
    """Shared services rules may consult.

    ``database`` gives access to the stored data (the paper's "data
    properties"); ``applied`` logs every rule that fired.
    """

    database: object | None = None
    applied: list[str] = field(default_factory=list)

    def record(self, rule_name: str, detail: str = "") -> None:
        entry = rule_name if not detail else f"{rule_name}: {detail}"
        self.applied.append(entry)

    def is_unique_column(self, table_name: str, column: str) -> bool:
        """True when every value in ``table.column`` is distinct.

        This is the data-statistics check join elimination relies on:
        an INNER equi-join against a unique key is row-preserving for
        the other side.
        """
        if self.database is None:
            return False
        try:
            table = self.database.table(table_name)
            values = table.column(column)
        except Exception:
            return False
        return len(np.unique(values)) == table.num_rows


class Rule:
    """Base class: subclasses implement :meth:`apply`."""

    #: Human-readable rule name (defaults to the class name).
    name: str = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.name:
            cls.name = cls.__name__

    def apply(self, graph: IRGraph, context: RuleContext) -> bool:
        """Try to rewrite ``graph`` in place; True if anything changed."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<rule {self.name}>"
