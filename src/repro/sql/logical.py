"""Logical plan: relational operators built from the AST.

The planner lowers a :class:`~repro.sql.ast.SelectStatement` into a tree of
logical nodes.  Column resolution is late-bound: the row executor evaluates
column references against rows that carry both bare and qualified keys, so
the logical plan only needs the *structure* right.

:func:`push_down_filters` is the one rewrite: it moves WHERE conjuncts that
depend on a single base table below the joins, onto that table's scan.
Execution applies it; the physical planner lowers the plan as written.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    column_refs,
)
from .catalog import Catalog, DEFAULT_CATALOG


class PlanError(ValueError):
    """Raised when a statement cannot be planned."""


@dataclass
class LogicalScan:
    """Read a base table under a binding name."""
    table: str
    binding: str


@dataclass
class LogicalFilter:
    """Keep rows satisfying a predicate."""
    child: "LogicalNode"
    predicate: Expr


@dataclass
class LogicalJoin:
    """Join two inputs on a condition (inner or left)."""
    left: "LogicalNode"
    right: "LogicalNode"
    condition: Expr
    kind: str = "inner"


@dataclass
class LogicalAggregate:
    """Group rows and evaluate aggregate select items."""
    child: "LogicalNode"
    group_by: list[Expr]
    items: list[SelectItem]
    having: Optional[Expr] = None


@dataclass
class LogicalProject:
    """Evaluate select items (optionally DISTINCT)."""
    child: "LogicalNode"
    items: list[SelectItem]
    distinct: bool = False


@dataclass
class LogicalSort:
    """Order rows by one or more keys."""
    child: "LogicalNode"
    order_by: list[OrderItem]


@dataclass
class LogicalLimit:
    """Keep the first N rows."""
    child: "LogicalNode"
    count: int


@dataclass
class LogicalSubquery:
    """A FROM-clause subquery with an optional binding alias."""

    child: "LogicalNode"
    binding: Optional[str]


LogicalNode = Union[
    LogicalScan,
    LogicalFilter,
    LogicalJoin,
    LogicalAggregate,
    LogicalProject,
    LogicalSort,
    LogicalLimit,
    LogicalSubquery,
]


def plan_statement(
    statement: SelectStatement, catalog: Catalog = DEFAULT_CATALOG
) -> LogicalNode:
    """Lower a parsed statement to a logical plan tree."""
    if statement.from_table is None:
        raise PlanError("SELECT without FROM is not supported")
    node = _plan_source(statement.from_table, catalog)
    for join in statement.joins:
        right = _plan_source(join.table, catalog)
        node = LogicalJoin(left=node, right=right, condition=join.condition,
                           kind=join.kind)
    if statement.where is not None:
        node = LogicalFilter(child=node, predicate=statement.where)
    if statement.is_aggregate:
        node = LogicalAggregate(
            child=node,
            group_by=list(statement.group_by),
            items=list(statement.select_items),
            having=statement.having,
        )
    else:
        node = LogicalProject(
            child=node, items=list(statement.select_items),
            distinct=statement.distinct,
        )
    if statement.order_by:
        node = LogicalSort(child=node, order_by=list(statement.order_by))
    if statement.limit is not None:
        node = LogicalLimit(child=node, count=statement.limit)
    return node


def _plan_source(
    source: Union[TableRef, SubqueryRef], catalog: Catalog
) -> LogicalNode:
    if isinstance(source, TableRef):
        schema = catalog.resolve_table(source.name)
        return LogicalScan(table=schema.name, binding=source.binding)
    inner = plan_statement(source.query, catalog)
    return LogicalSubquery(child=inner, binding=source.alias)


def plan_children(node: LogicalNode) -> list[LogicalNode]:
    """The children of a logical node (for generic traversals)."""
    if isinstance(node, LogicalScan):
        return []
    if isinstance(node, LogicalJoin):
        return [node.left, node.right]
    return [node.child]


def scans_in(node: LogicalNode) -> list[LogicalScan]:
    """All base-table scans under ``node``."""
    if isinstance(node, LogicalScan):
        return [node]
    found: list[LogicalScan] = []
    for child in plan_children(node):
        found.extend(scans_in(child))
    return found


# ----------------------------------------------------------------------
# Filter pushdown
# ----------------------------------------------------------------------

def push_down_filters(
    plan: LogicalNode, catalog: Catalog = DEFAULT_CATALOG
) -> LogicalNode:
    """Move single-table WHERE conjuncts onto their base-table scans.

    A conjunct moves into a :class:`LogicalFilter` directly above a
    :class:`LogicalScan` when every column it references resolves to that
    scan, the way the executors resolve it over the joined row (the
    qualified key first, then the bare name, each found in exactly one
    join input), the path down to the scan crosses only inner joins or the
    preserved side of LEFT joins, and it cannot raise (see
    :func:`_cannot_raise`).  Every other conjunct stays above the joins.
    A join then sees an in-order subsequence of its unpushed inputs, so
    every operator's output is an in-order subsequence of its unpushed
    output and the result is unchanged, row order and float sums included.
    Subquery plans are rewritten too; ``plan`` itself is not modified.
    """
    if isinstance(plan, LogicalScan):
        return plan
    if isinstance(plan, LogicalJoin):
        return replace(
            plan,
            left=push_down_filters(plan.left, catalog),
            right=push_down_filters(plan.right, catalog),
        )
    child = push_down_filters(plan.child, catalog)
    if isinstance(plan, LogicalFilter) and isinstance(child, LogicalJoin):
        return _push_into_join(plan.predicate, child, catalog)
    return replace(plan, child=child)


def _conjuncts(predicate: Expr) -> list[Expr]:
    """The top-level AND operands of ``predicate``, left to right."""
    if isinstance(predicate, BinaryOp) and predicate.op == "and":
        return _conjuncts(predicate.left) + _conjuncts(predicate.right)
    return [predicate]


def _conjoin(parts: list[Expr]) -> Expr:
    predicate = parts[0]
    for part in parts[1:]:
        predicate = BinaryOp("and", predicate, part)
    return predicate


@dataclass
class _Input:
    """One leaf of a join tree, as WHERE conjuncts see it."""

    node: LogicalNode
    #: Keys the leaf contributes to a joined row; ``None`` when unknown.
    keys: Optional[set[str]]
    #: Column -> storage kind when the leaf is a base scan that may take a
    #: filter (the path to it keeps every one of its rows); else ``None``.
    kinds: Optional[dict[str, str]]


def _join_inputs(
    node: LogicalNode, catalog: Catalog, movable: bool = True
) -> list[_Input]:
    if isinstance(node, LogicalJoin):
        return (
            _join_inputs(node.left, catalog, movable and node.kind in ("inner", "left"))
            + _join_inputs(node.right, catalog, movable and node.kind == "inner")
        )
    # A scan may already carry a filter from an earlier pass.
    scan = node.child if isinstance(node, LogicalFilter) else node
    if isinstance(scan, LogicalScan):
        schema = catalog.resolve_table(scan.table)
        names = schema.column_names()
        kinds = {c.name: c.numpy_kind for c in schema.columns}
        return [_Input(node, _with_binding(names, scan.binding),
                       kinds if movable else None)]
    if isinstance(node, LogicalSubquery):
        names = _output_names(node.child)
        keys = None if names is None else _with_binding(names, node.binding)
        return [_Input(node, keys, None)]
    return [_Input(node, None, None)]


def _with_binding(names: list[str], binding: Optional[str]) -> set[str]:
    keys = set(names)
    if binding:
        keys.update(f"{binding}.{n}" for n in names if "." not in n)
    return keys


def _output_names(node: LogicalNode) -> Optional[list[str]]:
    """Output column names of a subquery plan; ``None`` if it selects ``*``."""
    while isinstance(node, (LogicalSort, LogicalLimit)):
        node = node.child
    if not isinstance(node, (LogicalProject, LogicalAggregate)):
        return None
    if any(isinstance(item.expr, Star) for item in node.items):
        return None
    return [item.output_name for item in node.items]


def _owner(ref: ColumnRef, inputs: list[_Input]) -> Optional[_Input]:
    """The one join input a reference resolves to, as the executors do."""
    if any(i.keys is None for i in inputs):
        return None
    key = f"{ref.qualifier}.{ref.name}" if ref.qualifier else ref.name
    owners = [i for i in inputs if key in i.keys]  # type: ignore[operator]
    if not owners and ref.qualifier:
        owners = [i for i in inputs if ref.name in i.keys]  # type: ignore[operator]
    return owners[0] if len(owners) == 1 else None


_COMPARISONS = frozenset(("=", "<>", "<", ">", "<=", ">="))


def _cannot_raise(expr: Expr, kinds: dict[str, str]) -> bool:
    """True when ``expr`` is a raise-free test of columns against literals.

    Comparisons, LIKE, IN and IS [NOT] NULL of a column against literals,
    combined with AND, OR and NOT.  An ordering comparison also needs a
    literal of the column's kind, since ``'a' < 1`` raises.
    """
    if isinstance(expr, UnaryOp):
        return expr.op == "not" and _cannot_raise(expr.operand, kinds)
    if isinstance(expr, InList):
        return isinstance(expr.expr, ColumnRef) and all(
            isinstance(v, Literal) for v in expr.values
        )
    if isinstance(expr, FunctionCall):
        return (
            expr.name.lower() == "is_null" and len(expr.args) == 1
            and isinstance(expr.args[0], ColumnRef)
        )
    if not isinstance(expr, BinaryOp):
        return False
    if expr.op in ("and", "or"):
        return _cannot_raise(expr.left, kinds) and _cannot_raise(expr.right, kinds)
    if expr.op == "like":
        return isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal)
    if expr.op not in _COMPARISONS:
        return False
    column, literal = expr.left, expr.right
    if isinstance(column, Literal):
        column, literal = literal, column
    if not (isinstance(column, ColumnRef) and isinstance(literal, Literal)):
        return False
    value = literal.value
    if expr.op in ("=", "<>") or value is None:
        return True
    if kinds.get(column.name) == "str":
        return isinstance(value, str)
    return isinstance(value, (int, float))


def _push_into_join(
    predicate: Expr, join: LogicalJoin, catalog: Catalog
) -> LogicalNode:
    inputs = _join_inputs(join, catalog)
    pushed: dict[int, list[Expr]] = {}
    kept: list[Expr] = []
    for conjunct in _conjuncts(predicate):
        owners = {id(_owner(ref, inputs)) for ref in column_refs(conjunct)}
        target = next(
            (i for i in inputs if owners == {id(i)} and i.kinds is not None), None
        )
        if target is not None and _cannot_raise(conjunct, target.kinds):  # type: ignore[arg-type]
            pushed.setdefault(id(target.node), []).append(conjunct)
        else:
            kept.append(conjunct)
    node = _attach(join, pushed)
    return LogicalFilter(node, _conjoin(kept)) if kept else node


def _attach(node: LogicalNode, pushed: dict[int, list[Expr]]) -> LogicalNode:
    if isinstance(node, LogicalJoin):
        return replace(
            node, left=_attach(node.left, pushed), right=_attach(node.right, pushed)
        )
    extra = pushed.get(id(node))
    if not extra:
        return node
    if isinstance(node, LogicalFilter):
        return LogicalFilter(node.child, _conjoin([node.predicate, *extra]))
    return LogicalFilter(node, _conjoin(extra))


def explain(node: LogicalNode, indent: int = 0) -> str:
    """Human-readable plan tree."""
    pad = "  " * indent
    if isinstance(node, LogicalScan):
        line = f"{pad}Scan({node.table} as {node.binding})"
    elif isinstance(node, LogicalFilter):
        line = f"{pad}Filter({node.predicate})"
    elif isinstance(node, LogicalJoin):
        line = f"{pad}Join[{node.kind}]({node.condition})"
    elif isinstance(node, LogicalAggregate):
        keys = ", ".join(str(g) for g in node.group_by)
        line = f"{pad}Aggregate(group by {keys})"
    elif isinstance(node, LogicalProject):
        names = ", ".join(i.output_name for i in node.items)
        line = f"{pad}Project({names})"
    elif isinstance(node, LogicalSort):
        keys = ", ".join(
            f"{o.expr}{' desc' if o.descending else ''}" for o in node.order_by
        )
        line = f"{pad}Sort({keys})"
    elif isinstance(node, LogicalLimit):
        line = f"{pad}Limit({node.count})"
    elif isinstance(node, LogicalSubquery):
        line = f"{pad}Subquery(as {node.binding})"
    else:  # pragma: no cover - exhaustive above
        raise PlanError(f"unknown node {node!r}")
    return "\n".join([line] + [explain(c, indent + 1) for c in plan_children(node)])
