"""The cross-optimizer: memo engine, rules, cost model, model rewrites."""

from repro.core.optimizer.engine import OptimizationReport, UnifiedOptimizer
from repro.core.optimizer.memo import Memo, MemoStats
from repro.core.optimizer.rule import Rule, RuleContext
from repro.core.optimizer.search import (
    MemoOptimizer,
    MemoReport,
    MemoRule,
    SearchContext,
    cross_ir_rules,
    sql_rules,
)

__all__ = [
    "cross_ir_rules",
    "Memo",
    "MemoOptimizer",
    "MemoReport",
    "MemoRule",
    "MemoStats",
    "OptimizationReport",
    "Rule",
    "RuleContext",
    "SearchContext",
    "sql_rules",
    "UnifiedOptimizer",
]
