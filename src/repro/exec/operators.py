"""Physical relational operators.

Everything is main-memory and materialized (lists of tuples), as in
PRISMA: fragments are small enough to live in a processing element's
16 MByte store, and operators run to completion inside one OFM.

Every operator threads a :class:`WorkMeter` that counts the abstract
work units (tuples touched, hash operations, comparisons) which the
scheduler later converts into simulated time on the hosting processing
element.  The counts — not Python's own speed — are what the parallel
speedup experiments measure.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExecutionError
from repro.obs.api import SnapshotMixin

Row = tuple
Rows = list
KeyFn = Callable[[Row], tuple]
PredicateFn = Callable[[Row], bool]


@dataclass
class WorkMeter(SnapshotMixin):
    """Abstract work counters, converted to simulated seconds later.

    Also a :class:`~repro.obs.api.Snapshot`, so a meter can register in
    an observatory or be fingerprinted like every other stats surface.
    """

    tuples: float = 0.0
    hashes: float = 0.0
    compares: float = 0.0

    def add(self, other: "WorkMeter") -> None:
        self.tuples += other.tuples
        self.hashes += other.hashes
        self.compares += other.compares

    def scaled(self, factor: float) -> "WorkMeter":
        return WorkMeter(
            self.tuples * factor, self.hashes * factor, self.compares * factor
        )

    def stats(self) -> dict[str, float]:
        return {
            "tuples": self.tuples,
            "hashes": self.hashes,
            "compares": self.compares,
        }

    def reset(self) -> None:
        self.tuples = 0.0
        self.hashes = 0.0
        self.compares = 0.0


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT_OUTER = "left"
    SEMI = "semi"
    ANTI = "anti"


# ---------------------------------------------------------------------------
# Selection / projection.
# ---------------------------------------------------------------------------


def select_batch(
    rows: Sequence[Row],
    kernel: Callable[[Sequence[Row]], Rows],
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> Rows:
    """Filter a whole batch through one kernel call.

    *eval_weight* is comparisons charged per row: interpreted kernels
    come with a larger weight than compiled ones — the paper's
    "interpretation overhead" lives in this number for the simulated
    clock (and in real wall time for E5).
    """
    meter.tuples += len(rows)
    meter.compares += len(rows) * eval_weight
    try:
        return kernel(rows)
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"predicate failed: {exc}") from None


def project_batch(
    rows: Sequence[Row],
    kernel: Callable[[Sequence[Row]], Rows],
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> Rows:
    """Project a whole batch through one kernel call; charged like
    :func:`select_batch`."""
    meter.tuples += len(rows)
    meter.compares += len(rows) * eval_weight
    try:
        return kernel(rows)
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"projection failed: {exc}") from None


# ---------------------------------------------------------------------------
# Joins.
# ---------------------------------------------------------------------------


def hash_join(
    left: Sequence[Row],
    right: Sequence[Row],
    left_key: KeyFn,
    right_key: KeyFn,
    meter: WorkMeter,
    kind: JoinKind = JoinKind.INNER,
    right_width: int | None = None,
    residual: PredicateFn | None = None,
) -> Rows:
    """Equi-join with a hash table on the smaller (right) input.

    NULL keys never match (SQL semantics).  ``LEFT_OUTER`` pads
    unmatched left rows with ``right_width`` NULLs.  *residual* filters
    concatenated candidate rows (for mixed equi + non-equi conditions).
    Plain INNER equi-joins run through :func:`hash_join_batch` instead;
    this form serves the outer, semi, anti and residual joins.
    """
    if kind is JoinKind.LEFT_OUTER and right_width is None:
        raise ExecutionError("LEFT_OUTER join needs right_width for NULL padding")
    # Build + probe hash charges in closed form up front: one hash per
    # input row, independent of match counts (same totals the per-row
    # accumulation produced).
    meter.hashes += len(right) + len(left)
    table: dict[tuple, list[Row]] = {}
    setdefault = table.setdefault
    for row in right:
        key = right_key(row)
        if None in key:
            continue
        setdefault(key, []).append(row)

    output: Rows = []
    append = output.append
    get = table.get
    pad = (None,) * (right_width or 0)
    for row in left:
        key = left_key(row)
        matches = get(key, ()) if None not in key else ()
        if residual is not None and matches:
            candidates = [m for m in matches if residual(row + m)]
            meter.compares += len(matches)
        else:
            candidates = matches
        if kind is JoinKind.INNER:
            for match in candidates:
                append(row + match)
        elif kind is JoinKind.LEFT_OUTER:
            if candidates:
                for match in candidates:
                    append(row + match)
            else:
                append(row + pad)
        elif kind is JoinKind.SEMI:
            if candidates:
                append(row)
        elif kind is JoinKind.ANTI:
            if not candidates:
                append(row)
    meter.tuples += len(output)
    return output


def hash_join_batch(
    left: Sequence[Row],
    right: Sequence[Row],
    kernel: Callable[[Sequence[Row], Sequence[Row]], Rows],
    meter: WorkMeter,
) -> Rows:
    """INNER equi-join via a compiled batch kernel (build + probe fused).

    The kernel (see :func:`repro.exec.batch.compile_join_kernel`) builds
    the hash table over *right* once and probes with a single
    dict-lookup loop over *left* — key extraction inlined, no per-row
    calls.  Output rows/order and meter charges are identical to
    :func:`hash_join` with ``JoinKind.INNER`` and no residual.
    """
    meter.hashes += len(right) + len(left)
    output = kernel(left, right)
    meter.tuples += len(output)
    return output


def nested_loop_join(
    left: Sequence[Row],
    right: Sequence[Row],
    condition: PredicateFn | None,
    meter: WorkMeter,
    kind: JoinKind = JoinKind.INNER,
    right_width: int | None = None,
) -> Rows:
    """General join for non-equi conditions (or cross product)."""
    if kind is JoinKind.LEFT_OUTER and right_width is None:
        raise ExecutionError("LEFT_OUTER join needs right_width for NULL padding")
    output: Rows = []
    pad = (None,) * (right_width or 0)
    meter.compares += len(left) * len(right)
    try:
        for left_row in left:
            matched = False
            for right_row in right:
                combined = left_row + right_row
                if condition is None or condition(combined):
                    matched = True
                    if kind is JoinKind.INNER or kind is JoinKind.LEFT_OUTER:
                        output.append(combined)
                    elif kind is JoinKind.SEMI:
                        break
                    elif kind is JoinKind.ANTI:
                        break
            if kind is JoinKind.SEMI and matched:
                output.append(left_row)
            elif kind is JoinKind.ANTI and not matched:
                output.append(left_row)
            elif kind is JoinKind.LEFT_OUTER and not matched:
                output.append(left_row + pad)
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"join condition failed: {exc}") from None
    meter.tuples += len(output)
    return output


# ---------------------------------------------------------------------------
# Sorting, duplicates, limits.
# ---------------------------------------------------------------------------


def _sort_compares(n: int) -> float:
    if n < 2:
        return 0.0
    import math

    return n * math.log2(n)


def sort_rows(
    rows: Sequence[Row],
    key_positions: Sequence[int],
    descending: Sequence[bool] | None = None,
    meter: WorkMeter | None = None,
) -> Rows:
    """Stable multi-column sort; NULLs sort first (ascending).

    Mixed ascending/descending columns are handled by sorting from the
    least-significant key outward (stability does the rest).
    """
    if meter is not None:
        meter.compares += _sort_compares(len(rows)) * max(1, len(key_positions))
        meter.tuples += len(rows)
    if descending is None:
        descending = [False] * len(key_positions)
    if len(descending) != len(key_positions):
        raise ExecutionError("sort: key/direction lists differ in length")
    result = list(rows)
    for position, desc in reversed(list(zip(key_positions, descending))):
        result.sort(
            key=lambda row: _null_safe_key(row[position]),
            reverse=desc,
        )
    return result


def _null_safe_key(value: Any) -> tuple:
    # None < bools < numbers < strings, each comparable within its class.
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def distinct_rows(rows: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.hashes += len(rows)
    # dict.fromkeys is the C-speed first-occurrence dedup: identical
    # rows and order to the old per-row seen-set loop.
    output: Rows = list(dict.fromkeys(rows))
    meter.tuples += len(output)
    return output


def limit_rows(
    rows: Sequence[Row],
    limit: int | None,
    offset: int = 0,
    meter: WorkMeter | None = None,
) -> Rows:
    """Slice ``rows[offset : offset+limit]``.

    Rows skipped by ``offset`` and rows emitted under ``limit`` are
    tuples the operator touched: both are charged to *meter* (rows
    beyond the cap are never visited, so they stay free).
    """
    if offset < 0 or (limit is not None and limit < 0):
        raise ExecutionError("LIMIT/OFFSET must be non-negative")
    end = None if limit is None else offset + limit
    if meter is not None:
        meter.tuples += len(rows) if end is None else min(len(rows), end)
    return list(rows[offset:end])


class _Desc:
    """Inverts the ordering of one sort-key component (descending keys).

    Only ``__lt__``/``__eq__`` are needed: tuple comparison tests
    elements with ``==`` first and decides with ``<``, and the appended
    original-row index makes the full decorated key a total order.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def top_n_rows(
    rows: Sequence[Row],
    key_positions: Sequence[int],
    limit: int,
    offset: int = 0,
    descending: Sequence[bool] | None = None,
    meter: WorkMeter | None = None,
) -> Rows:
    """Fused ORDER BY + LIMIT via a bounded heap.

    Produces exactly ``limit_rows(sort_rows(rows, ...), limit, offset)``
    — including stability (ties resolve by original row position, the
    same order repeated stable sorts give) — but keeps only the best
    ``offset + limit`` candidates at any time, so the comparison charge
    is ``n·log₂(min(n, offset+limit))`` per key column instead of the
    full ``n·log₂(n)`` sort.  With ``offset+limit ≥ n`` the charge
    degenerates to the sort formula: top-N is never charged more than
    the sort it replaces.
    """
    if offset < 0 or limit < 0:
        raise ExecutionError("LIMIT/OFFSET must be non-negative")
    if descending is None:
        descending = [False] * len(key_positions)
    if len(descending) != len(key_positions):
        raise ExecutionError("top-n: key/direction lists differ in length")
    keep = offset + limit
    n = len(rows)
    if meter is not None:
        meter.tuples += n
        bound = min(n, keep)
        if n >= 2 and bound >= 1:
            import math

            meter.compares += n * math.log2(max(2, bound)) * max(1, len(key_positions))
    if keep == 0:
        return []

    directions = tuple(zip(key_positions, descending))

    def decorated(item: tuple) -> tuple:
        index, row = item
        parts: list = []
        for position, desc in directions:
            key = _null_safe_key(row[position])
            parts.append(_Desc(key) if desc else key)
        parts.append(index)
        return tuple(parts)

    import heapq

    smallest = heapq.nsmallest(keep, enumerate(rows), key=decorated)
    return [row for _index, row in smallest[offset:]]


# ---------------------------------------------------------------------------
# Set operations (SQL semantics: UNION/INTERSECT/EXCEPT deduplicate).
# ---------------------------------------------------------------------------


def union_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    return distinct_rows(list(left) + list(right), meter)


def union_all_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.tuples += len(left) + len(right)
    return list(left) + list(right)


def intersect_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.hashes += len(left) + len(right)
    right_set = set(right)
    output = []
    seen: set[Row] = set()
    for row in left:
        if row in right_set and row not in seen:
            seen.add(row)
            output.append(row)
    meter.tuples += len(output)
    return output


def difference_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.hashes += len(left) + len(right)
    right_set = set(right)
    output = []
    seen: set[Row] = set()
    for row in left:
        if row not in right_set and row not in seen:
            seen.add(row)
            output.append(row)
    meter.tuples += len(output)
    return output


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


def aggregate_batch(
    rows: Sequence[Row],
    kernel: Callable[[Sequence[Row]], Rows],
    meter: WorkMeter,
) -> Rows:
    """Hash aggregation through one kernel call.

    The kernel (see :func:`repro.exec.batch.compile_agg_kernel`) keeps
    per-group flat accumulator slots.  Output rows are
    ``group_key_values + aggregate_values``; a global aggregation yields
    one row even for empty input (COUNT gives 0, the others NULL) — SQL
    semantics.  Charges are closed-form per batch: one hash and one
    tuple per input row, one tuple per output group.
    """
    meter.hashes += len(rows)
    meter.tuples += len(rows)
    try:
        output = kernel(rows)
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"aggregate argument failed: {exc}") from None
    meter.tuples += len(output)
    return output
