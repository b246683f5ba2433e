"""Row-level executor for logical plans.

This is a reference executor for correctness and examples, not performance:
rows are dictionaries keyed by both bare and binding-qualified column names
(``l_suppkey`` and ``l.l_suppkey``), joins hash on equi-keys extracted from
the condition, and aggregates accumulate per group key.
"""

from __future__ import annotations

import fnmatch
from typing import Callable, Container, Iterable, Optional, Sequence

from .ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    Star,
    UnaryOp,
)
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalSubquery,
    PlanError,
)

Row = dict[str, object]
Database = dict[str, list[Row]]


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be evaluated over the data."""


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------

#: fnmatch metacharacters that must be escaped when they appear literally
#: in a SQL LIKE pattern (``]`` is only special after an unescaped ``[``).
_GLOB_SPECIALS = frozenset("*?[")


def like_to_glob(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an ``fnmatch`` glob.

    ``%`` and ``_`` become ``*`` and ``?``; glob metacharacters already
    present in the SQL pattern are wrapped in character classes so
    ``LIKE '10[%'`` matches a literal ``[`` instead of opening a class.
    """
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append("*")
        elif ch == "_":
            out.append("?")
        elif ch in _GLOB_SPECIALS:
            out.append(f"[{ch}]")
        else:
            out.append(ch)
    return "".join(out)


def sql_like(value: object, pattern: object) -> bool:
    """SQL LIKE semantics shared by the row and columnar engines."""
    return fnmatch.fnmatchcase(str(value), like_to_glob(str(pattern)))


_SCALAR_FUNCTIONS: dict[str, Callable[..., object]] = {
    "substr": lambda s, start, length=None: (
        str(s)[int(start) - 1 : int(start) - 1 + int(length)]
        if length is not None
        else str(s)[int(start) - 1 :]
    ),
    "substring": lambda s, start, length=None: _SCALAR_FUNCTIONS["substr"](s, start, length),
    "upper": lambda s: str(s).upper(),
    "lower": lambda s: str(s).lower(),
    "length": lambda s: len(str(s)),
    "abs": lambda x: abs(x),  # noqa: ARG005
    "round": lambda x, digits=0: round(float(x), int(digits)),
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "is_null": lambda x: x is None,
    "year": lambda s: int(str(s)[:4]),
}


def eval_expr(expr: Expr, row: Row) -> object:
    """Evaluate a scalar expression against one row."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        key = f"{expr.qualifier}.{expr.name}" if expr.qualifier else expr.name
        if key in row:
            return row[key]
        if expr.name in row:
            return row[expr.name]
        raise ExecutionError(f"column {key!r} not found in row")
    if isinstance(expr, Star):
        raise ExecutionError("* is only valid in select lists and count(*)")
    if isinstance(expr, UnaryOp):
        value = eval_expr(expr.operand, row)
        if expr.op == "-":
            # NULL propagates through arithmetic, same as binary operators.
            return None if value is None else -value
        if expr.op == "not":
            return not value
        raise ExecutionError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, row)
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if name in AGGREGATE_FUNCTIONS:
            raise ExecutionError(
                f"aggregate {name}() outside an aggregation context"
            )
        fn = _SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [eval_expr(a, row) for a in expr.args]
        return fn(*args)
    if isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            if eval_expr(condition, row):
                return eval_expr(value, row)
        return eval_expr(expr.default, row) if expr.default is not None else None
    if isinstance(expr, InList):
        needle = eval_expr(expr.expr, row)
        matched = any(needle == eval_expr(v, row) for v in expr.values)
        return (not matched) if expr.negated else matched
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _eval_binary(expr: BinaryOp, row: Row) -> object:
    op = expr.op
    if op == "and":
        return bool(eval_expr(expr.left, row)) and bool(eval_expr(expr.right, row))
    if op == "or":
        return bool(eval_expr(expr.left, row)) or bool(eval_expr(expr.right, row))
    return binary_value(op, eval_expr(expr.left, row), eval_expr(expr.right, row))


#: Row-engine semantics of the NULL-propagating binary operators.
PY_BINARY: dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def binary_value(op: str, left: object, right: object) -> object:
    """Apply binary operator ``op`` to two already-evaluated operands."""
    if op == "and":
        return bool(left) and bool(right)
    if op == "or":
        return bool(left) or bool(right)
    if op == "like":
        return sql_like(left, right)
    if op == "||":
        return f"{left}{right}"
    if left is None or right is None:
        return None
    fn = PY_BINARY.get(op)
    if fn is None:
        raise ExecutionError(f"unknown operator {op!r}")
    return fn(left, right)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------

class _Accumulator:
    """Accumulates one aggregate function over a group."""

    def __init__(self, call: FunctionCall) -> None:
        self.call = call
        self.name = call.name.lower()
        self.count = 0
        self.total = 0.0
        self.min: Optional[object] = None
        self.max: Optional[object] = None
        self.seen: Optional[set] = set() if call.distinct else None

    def add(self, row: Row) -> None:
        """Feed one input row into the accumulator."""
        if self.name == "count" and self.call.args and isinstance(self.call.args[0], Star):
            self.count += 1
            return
        if not self.call.args:
            raise ExecutionError(f"{self.name}() needs an argument")
        value = eval_expr(self.call.args[0], row)
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if isinstance(value, (int, float)):
            self.total += value
        if self.min is None or value < self.min:  # type: ignore[operator]
            self.min = value
        if self.max is None or value > self.max:  # type: ignore[operator]
            self.max = value

    def result(self) -> object:
        """The aggregate's final value for the group."""
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total if self.count else None
        if self.name == "avg":
            return self.total / self.count if self.count else None
        if self.name == "min":
            return self.min
        if self.name == "max":
            return self.max
        raise ExecutionError(f"unknown aggregate {self.name!r}")


def _collect_aggregates(expr: Expr, out: list[FunctionCall]) -> None:
    if isinstance(expr, FunctionCall):
        if expr.name.lower() in AGGREGATE_FUNCTIONS:
            out.append(expr)
            return
        for arg in expr.args:
            _collect_aggregates(arg, out)
    elif isinstance(expr, BinaryOp):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            _collect_aggregates(condition, out)
            _collect_aggregates(value, out)
        if expr.default is not None:
            _collect_aggregates(expr.default, out)
    elif isinstance(expr, InList):
        _collect_aggregates(expr.expr, out)
        for value in expr.values:
            _collect_aggregates(value, out)


def aggregate_slots(exprs: Iterable[Optional[Expr]]) -> dict[str, FunctionCall]:
    """The distinct aggregate calls in ``exprs``, keyed by their text."""
    calls: list[FunctionCall] = []
    for expr in exprs:
        if expr is not None:
            _collect_aggregates(expr, calls)
    return {str(c): c for c in calls}


def bind_aggregates(
    expr: Expr, slots: dict[str, int]
) -> Callable[[Row, Sequence[object]], object]:
    """Compile ``expr`` once into ``f(group_row, results)``.

    Aggregate sub-calls read ``results[slots[str(call)]]``; operators over
    them apply to the evaluated operands; anything else evaluates against
    the group's representative row.
    """
    if isinstance(expr, FunctionCall) and expr.name.lower() in AGGREGATE_FUNCTIONS:
        slot = slots[str(expr)]
        return lambda row, results: results[slot]
    if isinstance(expr, BinaryOp):
        op = expr.op
        left = bind_aggregates(expr.left, slots)
        right = bind_aggregates(expr.right, slots)
        return lambda row, results: binary_value(
            op, left(row, results), right(row, results)
        )
    if isinstance(expr, UnaryOp):
        inner = bind_aggregates(expr.operand, slots)
        if expr.op == "-":
            return lambda row, results: -inner(row, results)  # type: ignore[operator]
        return lambda row, results: not inner(row, results)
    return lambda row, results: eval_expr(expr, row)


# ----------------------------------------------------------------------
# Plan execution
# ----------------------------------------------------------------------

def _qualify(row: Row, binding: Optional[str]) -> Row:
    if not binding:
        return dict(row)
    out = dict(row)
    for key, value in row.items():
        if "." not in key:
            out[f"{binding}.{key}"] = value
    return out


def _extract_equi_keys(condition: Expr) -> list[tuple[ColumnRef, ColumnRef]]:
    """Pull ``a.x = b.y`` pairs out of a conjunctive join condition."""
    pairs: list[tuple[ColumnRef, ColumnRef]] = []
    if isinstance(condition, BinaryOp):
        if condition.op == "and":
            pairs.extend(_extract_equi_keys(condition.left))
            pairs.extend(_extract_equi_keys(condition.right))
        elif condition.op == "=":
            if isinstance(condition.left, ColumnRef) and isinstance(
                condition.right, ColumnRef
            ):
                pairs.append((condition.left, condition.right))
    return pairs


def _column_key(ref: ColumnRef, names: Container[str]) -> Optional[str]:
    """The one of ``names`` that ``ref`` resolves to (qualified first)."""
    key = f"{ref.qualifier}.{ref.name}" if ref.qualifier else ref.name
    if key in names:
        return key
    return ref.name if ref.name in names else None


def _resolve_side(ref: ColumnRef, row: Row) -> Optional[object]:
    key = _column_key(ref, row)
    return None if key is None else row[key]


def _qualified_names(names: Iterable[str], binding: Optional[str]) -> list[str]:
    """Column names after :func:`_qualify`: bare names plus binding aliases."""
    out: dict[str, None] = dict.fromkeys(names)
    if binding:
        for name in list(out):
            if "." not in name:
                out[f"{binding}.{name}"] = None
    return list(out)


def plan_schema(node: LogicalNode, database: Database, catalog=None) -> Optional[list[str]]:
    """Best-effort static column names of ``node``'s output rows.

    Returns ``None`` when the shape cannot be determined without running
    the plan (an empty base table absent from ``catalog``, or a node whose
    output depends on the data).  The row engine uses this to NULL-fill
    the missing side of unmatched LEFT and RIGHT JOIN rows when that
    input is empty.
    """
    if isinstance(node, LogicalScan):
        rows = database.get(node.table)
        if rows:
            return _qualified_names(rows[0].keys(), node.binding)
        if catalog is not None:
            try:
                names = catalog.resolve_table(node.table).column_names()
            except KeyError:
                return None
            return _qualified_names(names, node.binding)
        return None
    if isinstance(node, LogicalSubquery):
        inner = plan_schema(node.child, database, catalog)
        return None if inner is None else _qualified_names(inner, node.binding)
    if isinstance(node, (LogicalFilter, LogicalSort, LogicalLimit)):
        return plan_schema(node.child, database, catalog)
    if isinstance(node, LogicalJoin):
        left = plan_schema(node.left, database, catalog)
        right = plan_schema(node.right, database, catalog)
        if left is None or right is None:
            return None
        present = set(left)
        return left + [name for name in right if name not in present]
    if isinstance(node, (LogicalAggregate, LogicalProject)):
        names_out: dict[str, None] = {}
        for item in node.items:
            if isinstance(item.expr, Star):
                child = plan_schema(node.child, database, catalog)
                if child is None:
                    return None
                names_out.update(dict.fromkeys(child))
            else:
                names_out[item.output_name] = None
        return list(names_out)
    return None


class QueryExecutor:
    """Executes logical plans over an in-memory database."""

    def __init__(self, database: Database, catalog=None) -> None:
        self.database = database
        self.catalog = catalog

    def execute(self, node: LogicalNode) -> list[Row]:
        """Evaluate the plan and materialise all result rows."""
        return list(self._run(node))

    # ------------------------------------------------------------------
    def _run(self, node: LogicalNode) -> Iterable[Row]:
        if isinstance(node, LogicalScan):
            table = self.database.get(node.table)
            if table is None:
                raise ExecutionError(f"table {node.table!r} not loaded")
            return [_qualify(row, node.binding) for row in table]
        if isinstance(node, LogicalSubquery):
            rows = self.execute(node.child)
            return [_qualify(row, node.binding) for row in rows]
        if isinstance(node, LogicalFilter):
            return [r for r in self._run(node.child) if eval_expr(node.predicate, r)]
        if isinstance(node, LogicalJoin):
            return self._join(node)
        if isinstance(node, LogicalAggregate):
            return self._aggregate(node)
        if isinstance(node, LogicalProject):
            return self._project(node)
        if isinstance(node, LogicalSort):
            return self._sort(node)
        if isinstance(node, LogicalLimit):
            rows = list(self._run(node.child))
            return rows[: node.count]
        raise PlanError(f"cannot execute {node!r}")

    # ------------------------------------------------------------------
    def _join(self, node: LogicalJoin) -> list[Row]:
        left_rows = list(self._run(node.left))
        right_rows = list(self._run(node.right))
        keys = _extract_equi_keys(node.condition)
        null_right = self._null_row(node.right, right_rows) if node.kind == "left" else {}
        # Hash join: bucket the right side.  Each key pair is oriented by
        # whether its first ref names a column of the left rows (all left
        # rows share one key set; with none, nothing joins).  Without an
        # equi-key, the empty key buckets every right row together: a
        # nested loop.
        left_names = left_rows[0] if left_rows else {}
        oriented = [
            (a, b) if _column_key(a, left_names) is not None else (b, a)
            for a, b in keys
        ]
        buckets: dict[tuple, list[int]] = {}
        for j, row in enumerate(right_rows):
            key = tuple(_resolve_side(r, row) for _, r in oriented)
            buckets.setdefault(key, []).append(j)
        out: list[Row] = []
        right_matched = [False] * len(right_rows) if node.kind == "right" else []
        for lrow in left_rows:
            matched = False
            key = tuple(_resolve_side(l, lrow) for l, _ in oriented)
            for j in buckets.get(key, ()):
                combined = {**lrow, **right_rows[j]}
                if eval_expr(node.condition, combined):
                    out.append(combined)
                    matched = True
                    if right_matched:
                        right_matched[j] = True
            if not matched and node.kind == "left":
                out.append({**lrow, **null_right})
        if node.kind == "right":
            # Unmatched right rows follow every matched pair, in input order.
            null_left = self._null_row(node.left, left_rows)
            out.extend(
                {**null_left, **rrow}
                for rrow, hit in zip(right_rows, right_matched) if not hit
            )
        return out

    def _null_row(self, node: LogicalNode, rows: list[Row]) -> Row:
        """An all-NULL row over the columns of ``node``'s output ``rows``.

        With no rows to read names from, the static :func:`plan_schema`
        supplies them.
        """
        if rows:
            return dict.fromkeys(name for row in rows for name in row)
        return dict.fromkeys(plan_schema(node, self.database, self.catalog) or ())

    # ------------------------------------------------------------------
    def _aggregate(self, node: LogicalAggregate) -> list[Row]:
        child_rows = list(self._run(node.child))
        calls = list(aggregate_slots(
            [item.expr for item in node.items] + [node.having]
        ).values())
        slots = {str(c): i for i, c in enumerate(calls)}

        groups: dict[tuple, tuple[Row, list[_Accumulator]]] = {}
        for row in child_rows:
            key = tuple(
                _hashable(eval_expr(g, row)) for g in node.group_by
            ) if node.group_by else ()
            if key not in groups:
                groups[key] = (row, [_Accumulator(c) for c in calls])
            for acc in groups[key][1]:
                acc.add(row)
        if not groups and not node.group_by:
            groups[()] = ({}, [_Accumulator(c) for c in calls])

        having = bind_aggregates(node.having, slots) if node.having is not None else None
        items = [(i.output_name, bind_aggregates(i.expr, slots)) for i in node.items]
        out: list[Row] = []
        for representative, accs in groups.values():
            results = [acc.result() for acc in accs]
            if having is not None and not having(representative, results):
                continue
            out.append({
                name: value(representative, results) for name, value in items
            })
        return out

    # ------------------------------------------------------------------
    def _project(self, node: LogicalProject) -> list[Row]:
        out: list[Row] = []
        for row in self._run(node.child):
            if len(node.items) == 1 and isinstance(node.items[0].expr, Star):
                out_row = dict(row)
            else:
                out_row = {}
                for item in node.items:
                    if isinstance(item.expr, Star):
                        out_row.update(row)
                    else:
                        out_row[item.output_name] = eval_expr(item.expr, row)
            out.append(out_row)
        if node.distinct:
            seen: set[tuple] = set()
            deduped: list[Row] = []
            for row in out:
                key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            return deduped
        return out

    # ------------------------------------------------------------------
    def _sort(self, node: LogicalSort) -> list[Row]:
        rows = list(self._run(node.child))
        for order in reversed(node.order_by):
            rows.sort(
                key=lambda r, o=order: _sort_key(eval_expr(o.expr, r)),
                reverse=order.descending,
            )
        return rows


def _hashable(value: object) -> object:
    return tuple(value) if isinstance(value, list) else value


def _sort_key(value: object) -> tuple:
    # None sorts first; mixed types sort by type name then value.
    if value is None:
        return (0, "", "")
    return (1, type(value).__name__, value)

