"""Vectorized columnar execution engine on numpy.

Operators exchange :class:`~repro.sql.batch.ColumnBatch` objects — typed
``np.ndarray`` columns with null bitmaps and dictionary-encoded strings
(:mod:`repro.sql.batch`) — and scalar expressions are compiled once per
query into array kernels (:mod:`repro.sql.kernels`).  The physical
operators are array programs:

* **filter** — kernel truthiness mask, ``np.flatnonzero`` + fancy-index
  gather;
* **aggregate** — group assignment by factorizing integer key codes (a
  16-bit radix sort) remapped to first-seen order, then ``np.bincount``
  (whose sequential accumulation matches the row engine's ``total += v``
  float-for-float) and ``np.minimum.at``/``np.maximum.at`` segmented
  reductions;
* **join** — equi-keys turned into one integer code per row (int keys
  offset and packed directly; otherwise pooled: dictionary merge for
  strings, ``np.unique`` for numerics), build side stably ordered once,
  probe through per-code run counts, candidate pairs expanded with
  ``np.repeat``;
* **sort** — successive stable ``np.argsort`` passes, least-significant
  key first, with a null-flag pass replicating the row engine's
  ``_sort_key`` ordering.

Semantics mirror the row executor exactly — NULL propagation,
``and``/``or`` via Python truthiness, LIKE via the shared glob
translation, first-seen group ordering, probe-order hash joins — and any
value shape the typed fast paths can't reproduce bit-for-bit (mixed-type
columns, NaN sort/group keys, DISTINCT aggregates) drops to an exact
Python fallback for that operator.  Differential tests assert identical
output on every TPC-H query and the conformance corpus.

Compilation prunes columns: scans, filters and joins carry only the names
their ancestors reference (see :func:`compile_plan`).

Plans the engine cannot run raise :class:`UnsupportedFeature` at compile
time; the dispatcher (:mod:`repro.sql.dispatch`) catches it and falls back
to the row executor.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Star,
    UnaryOp,
    column_refs,
)
from .batch import (
    ColumnBatch,
    ColumnTable,
    ColumnVector,
    concat_batches,
    gather,
    slice_batch,
)
from .catalog import Catalog
from .executor import (
    Database,
    ExecutionError,
    Row,
    _column_key,
    _extract_equi_keys,
    _hashable,
    _sort_key,
    aggregate_slots,
    bind_aggregates,
)
from .kernels import Kernel, compile_kernel
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

__all__ = [
    "ColumnBatch",
    "ColumnTable",
    "ColumnVector",
    "ColumnarExecutor",
    "DEFAULT_BATCH_SIZE",
    "Kernel",
    "UnsupportedFeature",
    "compile_kernel",
    "compile_plan",
    "walk_ops",
]

#: Rows per batch when a caller asks for a fixed size.  With array kernels
#: the per-batch overhead is one ufunc dispatch per operator, so batches
#: are best measured in the hundreds of thousands; ``batch_size=None``
#: (the default everywhere) goes further and scans whole tables in one
#: batch, capped at :data:`_AUTO_BATCH_CAP` lanes.
DEFAULT_BATCH_SIZE = 65536

_AUTO_BATCH_CAP = 1 << 20

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min

#: Join keys pooled through float64 stay exact only below 2**53.
_FLOAT_EXACT_INT = 2 ** 53

#: Widest int value range used directly as group codes: two folded key
#: columns then stay below 2**62.
_MAX_KEY_SPAN = 1 << 31


class UnsupportedFeature(ExecutionError):
    """Plan shape the columnar engine cannot run (dispatch falls back)."""


class _PythonFallback(Exception):
    """Internal: value shape needs the exact row-semantics Python path."""


def _ref_names(exprs: Iterable[Optional[Expr]]) -> set[str]:
    """Every column name a reference in ``exprs`` may resolve to."""
    names: set[str] = set()
    for expr in exprs:
        if expr is None:
            continue
        for ref in column_refs(expr):
            names.add(ref.name)
            if ref.qualifier:
                names.add(f"{ref.qualifier}.{ref.name}")
    return names


def _widen(
    needed: Optional[set[str]], exprs: Iterable[Optional[Expr]]
) -> Optional[set[str]]:
    """``needed`` plus the names ``exprs`` reference (``None`` = all)."""
    return None if needed is None else needed | _ref_names(exprs)


def _prune(schema: Iterable[str], needed: Optional[set[str]]) -> list[str]:
    """``schema`` restricted to ``needed``, in schema order.

    An operator's pruned schema holds a name iff its unpruned schema does,
    for every name its ancestors reference, so references resolve, and
    join columns override, exactly as without pruning.
    """
    return list(schema) if needed is None else [n for n in schema if n in needed]


def _narrow(batch: ColumnBatch, names: list[str]) -> ColumnBatch:
    """``batch`` restricted to ``names`` (a subset of its own)."""
    if len(names) == len(batch.names):
        return batch
    return ColumnBatch(names, {n: batch.columns[n] for n in names}, batch.length)


def _auto_batch_size(n_rows: int) -> int:
    return min(max(n_rows, 1), _AUTO_BATCH_CAP)


def _stable_desc_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable *descending* argsort (ties keep their original order)."""
    n = len(keys)
    return (n - 1) - np.argsort(keys[::-1], kind="stable")[::-1]


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

class _Op:
    """Base batch operator: produces batches, tracks throughput stats."""

    kind = "op"

    def __init__(self) -> None:
        self.schema: list[str] = []
        self.rows_out = 0
        self.batches_out = 0
        self.seconds = 0.0
        self.detail = ""

    def children(self) -> list["_Op"]:
        return []

    def batches(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def _emit(self, batch: ColumnBatch) -> ColumnBatch:
        self.rows_out += batch.length
        self.batches_out += 1
        return batch

    def stats(self) -> dict[str, object]:
        """Per-operator throughput summary for metrics/tracing."""
        rate = self.rows_out / self.seconds if self.seconds > 0 else 0.0
        return {
            "rows": self.rows_out,
            "batches": self.batches_out,
            "seconds": round(self.seconds, 6),
            "rows_per_s": round(rate, 1),
            "detail": self.detail,
        }


class _UnaryOpBase(_Op):
    def __init__(self, child: _Op) -> None:
        super().__init__()
        self.child = child

    def children(self) -> list[_Op]:
        return [self.child]


class _ScanOp(_Op):
    kind = "scan"

    def __init__(
        self,
        node: LogicalScan,
        database: Database,
        catalog: Optional[Catalog],
        batch_size: Optional[int],
        needed: Optional[set[str]] = None,
    ) -> None:
        super().__init__()
        rows = database.get(node.table)
        if rows is None:
            raise ExecutionError(f"table {node.table!r} not loaded")
        self.rows = rows
        self.columnar = isinstance(rows, ColumnTable)
        self.batch_size = (
            batch_size if batch_size is not None else _auto_batch_size(len(rows))
        )
        self.detail = node.table
        if self.columnar:
            base = list(rows.names)
        elif len(rows):
            base = list(rows[0].keys())
        elif catalog is not None:
            try:
                base = catalog.resolve_table(node.table).column_names()
            except KeyError:
                raise UnsupportedFeature(
                    f"empty table {node.table!r} has no static schema"
                ) from None
        else:
            raise UnsupportedFeature(
                f"empty table {node.table!r} has no static schema"
            )
        # Visible name -> the base column behind it (qualified aliases share
        # their bare column's vector).
        binding = node.binding
        sources = {n: n for n in base}
        if binding:
            for n in base:
                if "." not in n:
                    sources.setdefault(f"{binding}.{n}", n)
        self.schema = _prune(sources, needed)
        self.sources = {n: sources[n] for n in self.schema}
        self.base_names = list(dict.fromkeys(self.sources.values()))

    def batches(self) -> Iterator[ColumnBatch]:
        rows, size = self.rows, self.batch_size
        total = len(rows)
        for start in range(0, total, size):
            began = perf_counter()
            stop = min(start + size, total)
            if self.columnar:
                base = {
                    n: rows.columns[n].slice(start, stop)
                    for n in self.base_names
                }
            else:
                chunk = rows[start:stop]
                base = {
                    n: ColumnVector.from_values([row[n] for row in chunk])
                    for n in self.base_names
                }
            columns = {name: base[n] for name, n in self.sources.items()}
            batch = ColumnBatch(self.schema, columns, stop - start)
            self.seconds += perf_counter() - began
            yield self._emit(batch)


class _AliasOp(_UnaryOpBase):
    """FROM-clause subquery: re-qualify child columns under a binding."""

    kind = "subquery"

    def __init__(self, child: _Op, binding: Optional[str]) -> None:
        super().__init__(child)
        self.binding = binding
        self.detail = binding or ""
        if binding:
            self.alias_names = [
                n for n in child.schema if "." not in n
            ]
            extra = [
                f"{binding}.{n}" for n in self.alias_names
                if f"{binding}.{n}" not in child.schema
            ]
            self.schema = child.schema + extra
        else:
            self.alias_names = []
            self.schema = list(child.schema)

    def batches(self) -> Iterator[ColumnBatch]:
        binding = self.binding
        for batch in self.child.batches():
            if not binding:
                yield self._emit(batch)
                continue
            began = perf_counter()
            columns = dict(batch.columns)
            for n in self.alias_names:
                columns[f"{binding}.{n}"] = columns[n]
            out = ColumnBatch(self.schema, columns, batch.length)
            self.seconds += perf_counter() - began
            yield self._emit(out)


class _FilterOp(_UnaryOpBase):
    kind = "filter"

    def __init__(
        self, child: _Op, predicate: Expr, needed: Optional[set[str]] = None
    ) -> None:
        super().__init__(child)
        self.kernel = compile_kernel(predicate, child.schema)
        self.schema = _prune(child.schema, needed)
        self.detail = str(predicate)

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            began = perf_counter()
            mask = self.kernel.truth(batch)
            if mask.any():
                kept = _narrow(batch, self.schema)
                out: Optional[ColumnBatch] = (
                    kept if mask.all() else gather(kept, np.flatnonzero(mask))
                )
            else:
                out = None
            self.seconds += perf_counter() - began
            if out is not None:
                yield self._emit(out)


class _ProjectOp(_UnaryOpBase):
    kind = "project"

    def __init__(self, child: _Op, node: LogicalProject) -> None:
        super().__init__(child)
        self.items = node.items
        self.distinct = node.distinct
        self.passthrough = (
            len(node.items) == 1 and isinstance(node.items[0].expr, Star)
        )
        self.kernels: list[tuple[Optional[str], Optional[Kernel]]] = []
        names: dict[str, None] = {}
        if self.passthrough:
            names = dict.fromkeys(child.schema)
        else:
            for item in node.items:
                if isinstance(item.expr, Star):
                    self.kernels.append((None, None))
                    names.update(dict.fromkeys(child.schema))
                else:
                    name = item.output_name
                    self.kernels.append(
                        (name, compile_kernel(item.expr, child.schema))
                    )
                    names[name] = None
        self.schema = list(names)
        self.seen: Optional[set] = set() if node.distinct else None

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self.child.batches():
            began = perf_counter()
            if self.passthrough:
                out = batch
            else:
                columns: dict[str, ColumnVector] = {}
                for name, kernel in self.kernels:
                    if kernel is None:
                        for n in self.child.schema:
                            columns[n] = batch.columns[n]
                    else:
                        columns[name] = kernel.eval(batch)  # type: ignore[index]
                out = ColumnBatch(self.schema, columns, batch.length)
            if self.seen is not None:
                out = self._dedup(out)
            self.seconds += perf_counter() - began
            if out is not None and out.length:
                yield self._emit(out)

    def _dedup(self, batch: ColumnBatch) -> Optional[ColumnBatch]:
        names = batch.names
        cols = [batch.columns[n].to_pylist() for n in names]
        seen = self.seen
        assert seen is not None
        keep: list[int] = []
        for i, values in enumerate(zip(*cols)):
            key = tuple(sorted((n, _hashable(v)) for n, v in zip(names, values)))
            if key not in seen:
                seen.add(key)
                keep.append(i)
        if len(keep) == batch.length:
            return batch
        if not keep:
            return None
        return gather(batch, np.array(keep, np.int64))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _equality_codes(vec: ColumnVector) -> np.ndarray:
    """Int codes where equal code <=> Python-equal value; NULL lanes -> 0.

    Raises :class:`_PythonFallback` for shapes numpy equality cannot
    reproduce (mixed-type columns; NaN keys, which hash by identity in the
    row engine's group dict).
    """
    if vec.kind == "object":
        raise _PythonFallback
    mask = vec.null_mask()
    if vec.kind == "str":
        return np.where(mask, 0, vec.data.astype(np.int64) + 1)
    data = vec.data
    valid = data[~mask]
    if vec.kind == "float" and valid.size and bool(np.isnan(valid).any()):
        raise _PythonFallback
    if vec.kind == "int" and valid.size:
        low = int(valid.min())
        if int(valid.max()) - low < _MAX_KEY_SPAN:
            # Offset ints are exact codes already; no sort needed.
            return np.where(mask, 0, data - (low - 1))
    _, inv = np.unique(data, return_inverse=True)
    return np.where(mask, 0, inv.astype(np.int64) + 1)


def _factorize(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_index=True, return_inverse=True)[1:]``.

    For non-empty, non-negative int codes: the first lane of each distinct
    code and every lane's dense id, both in ascending code order, from one
    stable :func:`_stable_order` pass.
    """
    order = _stable_order(codes, int(codes.max()) + 1)
    ordered = codes[order]
    new = np.empty(len(codes), np.bool_)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ids = np.empty(len(codes), np.int64)
    ids[order] = np.cumsum(new) - 1
    return order[new], ids


def _combine_codes(parts: list[np.ndarray]) -> np.ndarray:
    """Fold per-column codes into one joint code per lane."""
    codes = parts[0]
    for nxt in parts[1:]:
        width = int(nxt.max()) + 1 if nxt.size else 1
        # Compress after every fold so the product stays far from 2**63.
        codes = _factorize(codes * width + nxt)[1]
    return codes


def _first_seen_groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ids in first-occurrence order + first lane index per group."""
    first, inv = _factorize(codes)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), np.int64)
    rank[order] = np.arange(len(first))
    return rank[inv], first[order]


def _py_groups(
    key_vectors: list[ColumnVector], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact row-engine group assignment (Python dict hashing/equality)."""
    lists = [v.to_pylist() for v in key_vectors]
    group_ids: dict[tuple, int] = {}
    gids = np.empty(n, np.int64)
    reps: list[int] = []
    for i in range(n):
        key = tuple(_hashable(lst[i]) for lst in lists)
        gid = group_ids.get(key)
        if gid is None:
            gid = group_ids[key] = len(reps)
            reps.append(i)
        gids[i] = gid
    return gids, np.array(reps, np.int64)


class _AggCall:
    """One aggregate call: vectorized over all groups at once."""

    __slots__ = ("name", "star", "distinct", "kernel")

    def __init__(self, call: FunctionCall, schema: Sequence[str]) -> None:
        self.name = call.name.lower()
        self.star = bool(call.args) and isinstance(call.args[0], Star)
        if self.star and self.name != "count":
            # The row engine would raise per row; surface the same error.
            raise ExecutionError("* is only valid in select lists and count(*)")
        if not call.args:
            raise ExecutionError(f"{self.name}() needs an argument")
        self.distinct = bool(call.distinct)
        self.kernel = (
            None if self.star else compile_kernel(call.args[0], schema)
        )

    def compute(
        self, table: ColumnBatch, gids: np.ndarray, n_groups: int
    ) -> list:
        """Per-group results, groups in first-seen order."""
        if self.star:
            return np.bincount(gids, minlength=n_groups).tolist()
        values = self.kernel.eval(table)  # type: ignore[union-attr]
        if self.distinct or values.kind == "object":
            return self._py_compute(values.to_pylist(), gids, n_groups)
        valid = ~values.null_mask()
        g_valid = gids[valid]
        name = self.name
        if name == "count":
            return np.bincount(g_valid, minlength=n_groups).tolist()
        if name in ("sum", "avg"):
            counts = np.bincount(g_valid, minlength=n_groups)
            if values.kind == "str":
                # The row engine counts non-null strings but adds nothing.
                totals = np.zeros(n_groups)
            else:
                # bincount accumulates weights sequentially in lane order —
                # bit-identical to the row engine's per-row `total += v`.
                totals = np.bincount(
                    g_valid,
                    weights=values.data[valid].astype(np.float64),
                    minlength=n_groups,
                )
            pairs = zip(totals.tolist(), counts.tolist())
            if name == "sum":
                return [t if c else None for t, c in pairs]
            return [t / c if c else None for t, c in pairs]
        if name not in ("min", "max"):
            raise ExecutionError(f"unknown aggregate {self.name!r}")
        if values.kind == "bool":
            return self._py_compute(values.to_pylist(), gids, n_groups)
        data = values.data[valid]
        if values.kind == "float" and data.size and bool(np.isnan(data).any()):
            # `v < m` with NaN is order-dependent; replay the exact order.
            return self._py_compute(values.to_pylist(), gids, n_groups)
        present = np.bincount(g_valid, minlength=n_groups) > 0
        reduce_at = np.minimum.at if name == "min" else np.maximum.at
        if values.kind == "str":
            sentinel = _INT64_MAX if name == "min" else np.int64(-1)
            out = np.full(n_groups, sentinel, np.int64)
            reduce_at(out, g_valid, data.astype(np.int64))
            dictionary = values.dictionary
            return [
                str(dictionary[c]) if p else None
                for c, p in zip(out.tolist(), present.tolist())
            ]
        if values.kind == "int":
            sentinel_i = _INT64_MAX if name == "min" else _INT64_MIN
            out = np.full(n_groups, sentinel_i, np.int64)
        else:
            out = np.full(n_groups, np.inf if name == "min" else -np.inf)
        reduce_at(out, g_valid, data)
        return [
            c if p else None for c, p in zip(out.tolist(), present.tolist())
        ]

    def _py_compute(self, values: list, gids: np.ndarray, n_groups: int) -> list:
        """Row-engine accumulator semantics, replayed in lane order."""
        counts = [0] * n_groups
        totals = [0.0] * n_groups
        mins: list = [None] * n_groups
        maxs: list = [None] * n_groups
        name = self.name
        pairs = zip(gids.tolist(), values)
        if self.distinct:
            seen: list[set] = [set() for _ in range(n_groups)]
            for g, v in pairs:
                if v is None:
                    continue
                bucket = seen[g]
                if v in bucket:
                    continue
                bucket.add(v)
                counts[g] += 1
                if isinstance(v, (int, float)):
                    totals[g] += v
                if mins[g] is None or v < mins[g]:
                    mins[g] = v
                if maxs[g] is None or v > maxs[g]:
                    maxs[g] = v
        elif name in ("sum", "avg"):
            for g, v in pairs:
                if v is not None:
                    counts[g] += 1
                    if isinstance(v, (int, float)):
                        totals[g] += v
        elif name == "count":
            for g, v in pairs:
                if v is not None:
                    counts[g] += 1
        elif name == "min":
            for g, v in pairs:
                if v is not None and (mins[g] is None or v < mins[g]):
                    mins[g] = v
        elif name == "max":
            for g, v in pairs:
                if v is not None and (maxs[g] is None or v > maxs[g]):
                    maxs[g] = v
        else:
            raise ExecutionError(f"unknown aggregate {name!r}")
        if name == "count":
            return counts
        if name == "sum":
            return [t if c else None for t, c in zip(totals, counts)]
        if name == "avg":
            return [t / c if c else None for t, c in zip(totals, counts)]
        return mins if name == "min" else maxs


class _AggregateOp(_UnaryOpBase):
    kind = "aggregate"

    def __init__(
        self, child: _Op, node: LogicalAggregate, batch_size: Optional[int]
    ) -> None:
        super().__init__(child)
        self.batch_size = batch_size
        exprs = [item.expr for item in node.items] + [node.having]
        unique = aggregate_slots(exprs)
        slots = {key: i for i, key in enumerate(unique)}
        self.calls = [_AggCall(c, child.schema) for c in unique.values()]
        self.group_kernels = [
            compile_kernel(g, child.schema) for g in node.group_by
        ]
        self.having = (
            bind_aggregates(node.having, slots) if node.having is not None else None
        )
        # Per item: (output name, aggregate slot, representative column,
        # per-group evaluator).  An item that is one aggregate call or one
        # resolvable column reference is read as a whole column; any other
        # item runs its evaluator once per group.
        self.items: list[tuple[str, Optional[int], Optional[str], Callable]] = []
        for item in node.items:
            expr, slot, key = item.expr, None, None
            if isinstance(expr, FunctionCall) and expr.name.lower() in AGGREGATE_FUNCTIONS:
                slot = slots[str(expr)]
            elif isinstance(expr, ColumnRef):
                key = _column_key(expr, child.schema)
            self.items.append(
                (item.output_name, slot, key, bind_aggregates(expr, slots))
            )
        self.per_group = self.having is not None or any(
            slot is None and key is None for _, slot, key, _ in self.items
        )
        self.schema = list(dict.fromkeys(name for name, *_ in self.items))
        # Each group's representative row carries only what the bound
        # expressions read from it: references outside aggregate calls.
        self.rep_names = _prune(
            child.schema, set().union(*(_group_row_names(e) for e in exprs))
        )
        self.detail = ", ".join(str(g) for g in node.group_by)

    def batches(self) -> Iterator[ColumnBatch]:
        # Aggregation is computed over the whole input at once: bincount's
        # sequential accumulation then matches the row engine's row order
        # regardless of how the child chose to batch.
        collected = list(self.child.batches())
        began = perf_counter()
        table = concat_batches(self.child.schema, collected)
        n = table.length
        reps: Optional[ColumnBatch] = None
        if self.group_kernels:
            gids, rep_idx = np.empty(0, np.int64), np.empty(0, np.int64)
            if n:
                key_vectors = [k.eval(table) for k in self.group_kernels]
                try:
                    codes = [_equality_codes(v) for v in key_vectors]
                    gids, rep_idx = _first_seen_groups(_combine_codes(codes))
                except _PythonFallback:
                    gids, rep_idx = _py_groups(key_vectors, n)
            reps = gather(_narrow(table, self.rep_names), rep_idx)
        else:
            gids = np.zeros(n, np.int64)
            if n:
                reps = gather(_narrow(table, self.rep_names), np.zeros(1, np.int64))
        # No input and no GROUP BY: one group with an empty representative.
        n_groups = 1 if reps is None else reps.length
        per_call = [c.compute(table, gids, n_groups) for c in self.calls]
        rep_rows: list[Row] = [{}]
        results: list[tuple] = [()] * n_groups
        if self.per_group or reps is None:
            if reps is not None:
                rep_rows = reps.to_rows()
            if per_call:
                results = list(zip(*per_call))
        keep: Sequence[int] = range(n_groups)
        if self.having is not None:
            having = self.having
            keep = [g for g in keep if having(rep_rows[g], results[g])]
        columns: dict[str, list] = {}
        for name, slot, key, value in self.items:
            if slot is not None:
                column = per_call[slot]
            elif key is not None and reps is not None:
                column = reps.columns[key].to_pylist()
            else:
                columns[name] = [value(rep_rows[g], results[g]) for g in keep]
                continue
            columns[name] = column if self.having is None else [column[g] for g in keep]
        self.seconds += perf_counter() - began
        total = len(keep)
        size = self.batch_size if self.batch_size is not None else max(total, 1)
        for start in range(0, total, size):
            stop = min(start + size, total)
            yield self._emit(ColumnBatch(self.schema, {
                name: ColumnVector.from_values(columns[name][start:stop])
                for name in self.schema
            }, stop - start))


def _group_row_names(expr: Optional[Expr]) -> set[str]:
    """Names :func:`bind_aggregates` reads from a group's representative."""
    if expr is None or (
        isinstance(expr, FunctionCall) and expr.name.lower() in AGGREGATE_FUNCTIONS
    ):
        return set()
    if isinstance(expr, BinaryOp):
        return _group_row_names(expr.left) | _group_row_names(expr.right)
    if isinstance(expr, UnaryOp):
        return _group_row_names(expr.operand)
    return _ref_names([expr])


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------

def _is_pure_equi(condition: Expr) -> bool:
    """True when the condition is exactly a conjunction of col = col."""
    if isinstance(condition, BinaryOp):
        if condition.op == "and":
            return _is_pure_equi(condition.left) and _is_pure_equi(condition.right)
        if condition.op == "=":
            return isinstance(condition.left, ColumnRef) and isinstance(
                condition.right, ColumnRef
            )
    return False


def _pair_codes(
    left: ColumnVector, right: ColumnVector
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Pool one key pair into a shared integer code space.

    Equal code <=> Python-equal value (so int 1 matches float 1.0, exactly
    like the row engine's hash buckets).  Returns ``None`` when no value
    can possibly match (string vs. numeric); raises
    :class:`_PythonFallback` for shapes needing exact Python hashing
    (object columns, NaN keys, ints beyond float64's exact range).
    """
    kl, kr = left.kind, right.kind
    if kl == "object" or kr == "object":
        raise _PythonFallback
    if kl == "str" and kr == "str":
        if left.dictionary is right.dictionary:
            return left.data.astype(np.int64), right.data.astype(np.int64)
        merged = np.unique(np.concatenate([left.dictionary, right.dictionary]))
        lc = merged.searchsorted(left.dictionary).astype(np.int64)[left.data]
        rc = merged.searchsorted(right.dictionary).astype(np.int64)[right.data]
        return lc, rc
    if kl == "str" or kr == "str":
        return None
    ld, rd = left.data, right.data
    if "float" in (kl, kr):
        for vec, side in ((left, ld), (right, rd)):
            valid = side[~vec.null_mask()]
            if not valid.size:
                continue
            if vec.kind == "float":
                if bool(np.isnan(valid).any()):
                    raise _PythonFallback
            elif int(np.abs(valid).max()) > _FLOAT_EXACT_INT:
                raise _PythonFallback
        ld = ld.astype(np.float64)
        rd = rd.astype(np.float64)
    elif kl == "bool":
        ld = ld.astype(np.int64)
    elif kr == "bool":
        rd = rd.astype(np.int64)
    pooled = np.concatenate([ld, rd])
    _, inv = np.unique(pooled, return_inverse=True)
    inv = inv.astype(np.int64)
    return inv[: len(ld)], inv[len(ld):]


class _JoinOp(_Op):
    kind = "join"

    def __init__(
        self,
        left: _Op,
        right: _Op,
        node: LogicalJoin,
        batch_size: Optional[int],
        needed: Optional[set[str]] = None,
    ) -> None:
        super().__init__()
        if node.kind not in ("inner", "left"):
            raise UnsupportedFeature(f"unsupported join kind {node.kind!r}")
        keys = _extract_equi_keys(node.condition)
        if not keys:
            raise UnsupportedFeature("join without equi-key condition")
        self.left = left
        self.right = right
        self.join_kind = node.kind
        self.batch_size = batch_size
        # Orient each key pair by the input whose schema resolves its first
        # ref, like the row engine's check against the left rows' names.
        left_present = set(left.schema)
        self.keys = [
            (a, b) if _column_key(a, left_present) is not None else (b, a)
            for a, b in keys
        ]
        self.detail = str(node.condition)
        self.right_names = set(right.schema)
        joined = left.schema + [
            n for n in right.schema if n not in left_present
        ]
        self.condition_kernel = compile_kernel(node.condition, joined)
        self.schema = _prune(joined, needed)
        # A condition that is exactly its equi-pairs needs no residual
        # pass: code-matched candidates satisfy it by construction (null
        # keys are excluded, which the equality conjunct would reject too).
        self.pure_equi = _is_pure_equi(node.condition)

    def children(self) -> list[_Op]:
        return [self.left, self.right]

    @staticmethod
    def _key_column(ref: ColumnRef, batch: ColumnBatch) -> ColumnVector:
        key = _column_key(ref, batch.columns)
        if key is None:
            return ColumnVector.all_null(batch.length)
        return batch.columns[key]

    def batches(self) -> Iterator[ColumnBatch]:
        left = concat_batches(self.left.schema, list(self.left.batches()))
        right = concat_batches(self.right.schema, list(self.right.batches()))
        began = perf_counter()
        left_vecs = [self._key_column(l, left) for l, _ in self.keys]
        right_vecs = [self._key_column(r, right) for _, r in self.keys]
        try:
            cand_left, cand_right = self._match_vectorized(
                left, right, left_vecs, right_vecs
            )
        except _PythonFallback:
            cand_left, cand_right = self._match_python(left_vecs, right_vecs)
        # Residual check over candidate pairs, mirroring the row engine's
        # per-candidate eval_expr (skipped for pure equi-conditions).
        if cand_left.size and not self.pure_equi:
            needed = self.condition_kernel.col_keys
            columns = {}
            for name in needed:
                if name in self.right_names:
                    columns[name] = right.columns[name].take(cand_right)
                else:
                    columns[name] = left.columns[name].take(cand_left)
            candidates = ColumnBatch(needed, columns, cand_left.size)
            keep = self.condition_kernel.truth(candidates)
            cand_left = cand_left[keep]
            cand_right = cand_right[keep]
        if self.join_kind == "left":
            matched = np.zeros(left.length, np.bool_)
            matched[cand_left] = True
            unmatched = np.flatnonzero(~matched)
            if unmatched.size:
                all_left = np.concatenate([cand_left, unmatched])
                all_right = np.concatenate(
                    [cand_right, np.full(unmatched.size, -1, np.int64)]
                )
                order = np.argsort(all_left, kind="stable")
                cand_left = all_left[order]
                cand_right = all_right[order]
        self.seconds += perf_counter() - began
        total = int(cand_left.size)
        size = self.batch_size if self.batch_size is not None else max(total, 1)
        for start in range(0, total, size):
            began = perf_counter()
            li = cand_left[start:start + size]
            ri = cand_right[start:start + size]
            taken: dict[tuple[str, int], ColumnVector] = {}
            columns = {}
            for name in self.schema:
                if name in self.right_names:
                    source = right.columns[name]
                    cache_key = ("r", id(source))
                    picked = taken.get(cache_key)
                    if picked is None:
                        picked = taken[cache_key] = _take_padded(source, ri)
                else:
                    source = left.columns[name]
                    cache_key = ("l", id(source))
                    picked = taken.get(cache_key)
                    if picked is None:
                        picked = taken[cache_key] = source.take(li)
                columns[name] = picked
            batch = ColumnBatch(self.schema, columns, len(li))
            self.seconds += perf_counter() - began
            yield self._emit(batch)

    def _match_vectorized(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        left_vecs: list[ColumnVector],
        right_vecs: list[ColumnVector],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs via a stably ordered build side + code probe."""
        nl = left.length
        empty = np.empty(0, np.int64)
        left_valid = np.ones(nl, np.bool_)
        right_valid = np.ones(right.length, np.bool_)
        for lv, rv in zip(left_vecs, right_vecs):
            left_valid &= ~lv.null_mask()
            right_valid &= ~rv.null_mask()
        codes = _int_key_codes(left_vecs, right_vecs, left_valid, right_valid)
        if codes is None:
            left_parts: list[np.ndarray] = []
            right_parts: list[np.ndarray] = []
            for lv, rv in zip(left_vecs, right_vecs):
                pair = _pair_codes(lv, rv)
                if pair is None:
                    return empty, empty
                left_parts.append(pair[0])
                right_parts.append(pair[1])
            codes = (
                _join_fold(left_parts, right_parts, take_left=True),
                _join_fold(left_parts, right_parts, take_left=False),
            )
        left_codes, right_codes = codes
        build_idx = np.flatnonzero(right_valid)
        if not build_idx.size or not left_valid.any():
            return empty, empty
        nb = build_idx.size
        build_codes = right_codes[build_idx]
        probe = np.where(left_valid, left_codes, 0)
        span = int(max(build_codes.max(), probe.max())) + 1
        if span > 2 * (nl + nb):
            # Sparse codes: renumber both sides densely first.
            ids = _factorize(np.concatenate([build_codes, probe]))[1]
            build_codes, probe = ids[:nb], ids[nb:]
            span = int(ids.max()) + 1
        # Per-code run starts and lengths by counting; a stable order keeps
        # equal codes in ascending right order, reproducing the row
        # engine's bucket insertion order.
        per_code = np.bincount(build_codes, minlength=span)
        lo = (np.cumsum(per_code) - per_code)[probe]
        counts = np.where(left_valid, per_code[probe], 0)
        build_order = build_idx[_stable_order(build_codes, span)]
        total = int(counts.sum())
        if not total:
            return empty, empty
        cand_left = np.repeat(np.arange(nl, dtype=np.int64), counts)
        offsets = lo - (np.cumsum(counts) - counts)
        cand_right = build_order[
            np.repeat(offsets, counts) + np.arange(total, dtype=np.int64)
        ]
        return cand_left, cand_right

    def _match_python(
        self,
        left_vecs: list[ColumnVector],
        right_vecs: list[ColumnVector],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact Python-equality hash join (row-engine bucket semantics)."""
        left_lists = [v.to_pylist() for v in left_vecs]
        right_lists = [v.to_pylist() for v in right_vecs]
        nl = len(left_lists[0]) if left_lists else 0
        nr = len(right_lists[0]) if right_lists else 0
        buckets: dict[tuple, list[int]] = {}
        for j in range(nr):
            key = tuple(_hashable(lst[j]) for lst in right_lists)
            if any(v is None for v in key):
                continue
            buckets.setdefault(key, []).append(j)
        cand_left: list[int] = []
        cand_right: list[int] = []
        no_match: list[int] = []
        for i in range(nl):
            key = tuple(_hashable(lst[i]) for lst in left_lists)
            if any(v is None for v in key):
                continue
            for j in buckets.get(key, no_match):
                cand_left.append(i)
                cand_right.append(j)
        return (
            np.array(cand_left, np.int64),
            np.array(cand_right, np.int64),
        )


def _stable_order(codes: np.ndarray, span: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``codes`` below ``span``.

    Below ``2**32`` this is an LSD radix sort on 16-bit digits (numpy's
    stable sort is a radix sort for 16-bit types), which beats a
    comparison sort on shuffled keys.
    """
    if span > 1 << 32:
        return np.argsort(codes, kind="stable")
    order = np.argsort((codes & 0xFFFF).astype(np.uint16), kind="stable")
    if span > 1 << 16:
        high = (codes[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


def _int_key_codes(
    left_vecs: list[ColumnVector],
    right_vecs: list[ColumnVector],
    left_valid: np.ndarray,
    right_valid: np.ndarray,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Exact non-negative joint codes for int-only keys, or ``None``.

    Each key is offset by its smallest valid value on either side and the
    keys are packed mixed-radix, so on valid lanes equal code <=> equal key
    tuple with no pooled ``np.unique``.  ``None`` when a key is not int on
    both sides or the packed range would pass ``2**62``.
    """
    left_codes = np.zeros(len(left_valid), np.int64)
    right_codes = np.zeros(len(right_valid), np.int64)
    stride = 1
    for lv, rv in zip(left_vecs, right_vecs):
        if lv.kind != "int" or rv.kind != "int":
            return None
        lvals, rvals = lv.data[left_valid], rv.data[right_valid]
        if not (lvals.size and rvals.size):
            continue  # no valid pair: nothing can match anyway
        low = min(int(lvals.min()), int(rvals.min()))
        high = max(int(lvals.max()), int(rvals.max()))
        # Invalid lanes may wrap here; they are masked out of the match.
        left_codes += (lv.data - low) * stride
        right_codes += (rv.data - low) * stride
        stride *= high - low + 1
        if stride > 1 << 62:
            return None
    return left_codes, right_codes


def _join_fold(
    left_parts: list[np.ndarray], right_parts: list[np.ndarray], take_left: bool
) -> np.ndarray:
    """Fold multi-key pair codes into one joint code per lane.

    Left and right must fold through the *same* compression, so the fold
    runs over the concatenation and this helper slices out one side.
    """
    if len(left_parts) == 1:
        return left_parts[0] if take_left else right_parts[0]
    nl = len(left_parts[0])
    pooled = [np.concatenate([l, r]) for l, r in zip(left_parts, right_parts)]
    codes = _combine_codes(pooled)
    return codes[:nl] if take_left else codes[nl:]


def _take_padded(vec: ColumnVector, indexes: np.ndarray) -> ColumnVector:
    """Gather with ``-1`` meaning NULL (LEFT JOIN fill)."""
    negative = indexes < 0
    if not negative.any():
        return vec.take(indexes)
    if len(vec) == 0:
        return ColumnVector.all_null(len(indexes))
    taken = vec.take(np.where(negative, 0, indexes))
    mask = negative | taken.null_mask()
    if vec.kind == "object":
        data = taken.data.copy()
        data[negative] = None
        return ColumnVector("object", data, mask)
    return ColumnVector(vec.kind, taken.data, mask, taken.dictionary)


# ----------------------------------------------------------------------
# Sort / limit
# ----------------------------------------------------------------------

class _SortOp(_UnaryOpBase):
    kind = "sort"

    def __init__(
        self, child: _Op, node: LogicalSort, batch_size: Optional[int]
    ) -> None:
        super().__init__(child)
        self.schema = list(child.schema)
        self.order = [
            (compile_kernel(o.expr, child.schema), o.descending)
            for o in node.order_by
        ]
        self.detail = ", ".join(str(o.expr) for o in node.order_by)
        self.batch_size = batch_size

    def batches(self) -> Iterator[ColumnBatch]:
        table = concat_batches(self.schema, list(self.child.batches()))
        began = perf_counter()
        n = table.length
        indexes = np.arange(n, dtype=np.int64)
        # Successive stable sorts, least-significant key first — identical
        # to the row engine's reversed() loop over order_by.
        for kernel, descending in reversed(self.order):
            if n == 0:
                break
            indexes = _sort_pass(indexes, kernel.eval(table), descending)
        self.seconds += perf_counter() - began
        size = self.batch_size if self.batch_size is not None else max(n, 1)
        for start in range(0, n, size):
            began = perf_counter()
            batch = gather(table, indexes[start:start + size])
            self.seconds += perf_counter() - began
            yield self._emit(batch)


def _sort_pass(
    indexes: np.ndarray, vec: ColumnVector, descending: bool
) -> np.ndarray:
    """One stable sort pass by ``vec``, refining the current order.

    Equivalent to the row engine's stable sort by ``_sort_key`` — NULLs
    first ascending (last descending), then by value — realised as a value
    pass (NULL lanes pinned to one constant so they tie) followed by a
    null-flag pass.  Object columns and NaN keys replay ``_sort_key``
    itself: Python sorts with NaN are order-dependent, so only the exact
    same comparison sequence reproduces them.
    """
    kind = vec.kind
    if kind == "object" or (
        kind == "float" and bool(np.isnan(vec.data).any())
    ):
        keys = [_sort_key(v) for v in vec.to_pylist()]
        current = indexes.tolist()
        current.sort(key=keys.__getitem__, reverse=descending)
        return np.array(current, np.int64)
    data = vec.data
    mask = vec.mask
    if mask is not None:
        # Pin NULL lanes to a single constant so the value pass leaves
        # their relative order to the null-flag pass alone.  (Computed
        # vectors can hold arbitrary garbage under the mask.)
        data = np.where(mask, data.dtype.type(0), data)
    permuted = data[indexes]
    if descending:
        sub = _stable_desc_argsort(permuted)
    else:
        sub = np.argsort(permuted, kind="stable")
    indexes = indexes[sub]
    if mask is not None and mask.any():
        flags = (~mask)[indexes]  # False (NULL) sorts first ascending
        if descending:
            sub = _stable_desc_argsort(flags)
        else:
            sub = np.argsort(flags, kind="stable")
        indexes = indexes[sub]
    return indexes


class _LimitOp(_UnaryOpBase):
    kind = "limit"

    def __init__(self, child: _Op, count: int) -> None:
        super().__init__(child)
        self.count = count
        self.schema = list(child.schema)
        self.detail = str(count)

    def batches(self) -> Iterator[ColumnBatch]:
        remaining = self.count
        if remaining <= 0:
            return
        for batch in self.child.batches():
            if batch.length <= remaining:
                remaining -= batch.length
                yield self._emit(batch)
                if remaining == 0:
                    return
            else:
                yield self._emit(slice_batch(batch, remaining))
                return


# ----------------------------------------------------------------------
# Plan compilation and execution
# ----------------------------------------------------------------------

def compile_plan(
    node: LogicalNode,
    database: Database,
    catalog: Optional[Catalog] = None,
    batch_size: Optional[int] = None,
) -> _Op:
    """Lower a logical plan to a tree of columnar operators.

    ``batch_size=None`` (the default) lets each scan pick its own batch —
    the whole table, capped at ``2**20`` lanes — which is the fastest
    shape for array kernels; pass an explicit size to bound peak memory.

    Scans, filters and joins carry only the columns their ancestors
    reference (a ``*`` projection references all of them).

    Raises :class:`UnsupportedFeature` for shapes only the row engine
    handles; any other :class:`ExecutionError` is a genuine query error.
    """
    return _lower(node, database, catalog, batch_size, None)


def _lower(
    node: LogicalNode,
    database: Database,
    catalog: Optional[Catalog],
    batch_size: Optional[int],
    needed: Optional[set[str]],
) -> _Op:
    """:func:`compile_plan` for a node whose ancestors read ``needed``."""
    def lower(child: LogicalNode, child_needed: Optional[set[str]]) -> _Op:
        return _lower(child, database, catalog, batch_size, child_needed)

    if isinstance(node, LogicalScan):
        return _ScanOp(node, database, catalog, batch_size, needed)
    if isinstance(node, LogicalSubquery):
        return _AliasOp(lower(node.child, None), node.binding)
    if isinstance(node, LogicalFilter):
        child = lower(node.child, _widen(needed, [node.predicate]))
        return _FilterOp(child, node.predicate, needed)
    if isinstance(node, LogicalJoin):
        inputs = _widen(needed, [node.condition])
        return _JoinOp(
            lower(node.left, inputs), lower(node.right, inputs),
            node, batch_size, needed,
        )
    if isinstance(node, LogicalAggregate):
        exprs = [*node.group_by, *(i.expr for i in node.items), node.having]
        return _AggregateOp(lower(node.child, _ref_names(exprs)), node, batch_size)
    if isinstance(node, LogicalProject):
        star = any(isinstance(i.expr, Star) for i in node.items)
        child_needed = None if star else _ref_names(i.expr for i in node.items)
        return _ProjectOp(lower(node.child, child_needed), node)
    if isinstance(node, LogicalSort):
        child = lower(node.child, _widen(needed, [o.expr for o in node.order_by]))
        return _SortOp(child, node, batch_size)
    if isinstance(node, LogicalLimit):
        return _LimitOp(lower(node.child, needed), node.count)
    raise PlanError(f"cannot execute {node!r}")


def walk_ops(root: _Op) -> list[_Op]:
    """All operators under ``root`` in pre-order."""
    out = [root]
    for child in root.children():
        out.extend(walk_ops(child))
    return out


class ColumnarExecutor:
    """Executes logical plans batch-at-a-time over an in-memory database."""

    def __init__(
        self,
        database: Database,
        catalog: Optional[Catalog] = None,
        batch_size: Optional[int] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.database = database
        self.catalog = catalog
        self.batch_size = batch_size
        self.tracer = tracer
        self.metrics = metrics

    def compile(self, plan: LogicalNode) -> _Op:
        """Lower ``plan``; raises :class:`UnsupportedFeature` on fallback."""
        return compile_plan(plan, self.database, self.catalog, self.batch_size)

    def run(self, root: _Op) -> list[Row]:
        """Drive a compiled operator tree and materialise the result rows."""
        started = perf_counter()
        rows: list[Row] = []
        for batch in root.batches():
            rows.extend(batch.to_rows())
        elapsed = perf_counter() - started
        self._report(root, elapsed, len(rows))
        return rows

    def execute(self, plan: LogicalNode) -> list[Row]:
        """Compile and run ``plan`` in one step."""
        return self.run(self.compile(plan))

    def _report(self, root: _Op, elapsed: float, result_rows: int) -> None:
        ops = walk_ops(root)
        if self.metrics is not None:
            self.metrics.counter("sql_columnar_queries").inc()
            self.metrics.histogram("sql_columnar_query_s").observe(elapsed)
            for op in ops:
                prefix = f"sql_columnar_{op.kind}"
                self.metrics.counter(f"{prefix}_rows").inc(op.rows_out)
                self.metrics.counter(f"{prefix}_batches").inc(op.batches_out)
        if self.tracer is not None and self.tracer.enabled:
            for index, op in enumerate(ops):
                self.tracer.span(
                    "sql", f"columnar.{op.kind}", 0.0, op.seconds,
                    scope=str(index), **op.stats(),
                )
            self.tracer.instant(
                "sql", "columnar.query", 0.0,
                rows=result_rows, elapsed_s=round(elapsed, 6),
            )
