"""Batch kernels: every operator runs as one call over a batch of rows.

The paper's generative approach (Section 2.5) compiles a query
expression once instead of interpreting it per tuple.  This module
applies the idea to whole operators: a kernel is one specialized
function per (operator, expression shape) that makes a single pass over
a list of tuples with the expression code inlined, so the hot loop
makes no per-row Python calls (no predicate callable, no projector
callable, no key extractor).  On CPython the per-row call overhead is
the dominant cost of a row-at-a-time loop, which is the paper's
"interpretation overhead" argument transposed to the host interpreter.

Rows are tuples, the engine's wire and storage format; a generated
comprehension like ``[row for row in rows if row[2] > 100]`` runs the
filter entirely in the interpreter's C loop.

Both expression back-ends share these kernel shapes.  Under the
interpreted back-end (experiment E5's ablation)
:class:`~repro.exec.evaluation.Evaluator` wraps a per-row tree walk in
the same ``rows -> rows`` shape, and :func:`compile_agg_kernel` emits a
call to an :class:`~repro.exec.interpreter.InterpretedProjector` where
the compiled kernel inlines the argument code.  Join keys are plain
positional gathers with nothing to interpret, so one join kernel serves
both back-ends.

Simulated-clock charges never depend on the kernel: the operators of
:mod:`repro.exec.operators` that invoke kernels charge closed-form
:class:`~repro.exec.operators.WorkMeter` totals per batch.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter
from typing import Any

from repro.errors import ExecutionError
from repro.exec.compiler import _Emitter
from repro.exec.expressions import ColumnRef, Expr
from repro.exec.interpreter import InterpretedProjector
from repro.exec.operators import AGGREGATE_FUNCTIONS

Row = tuple
BatchKernel = Callable[[Sequence[Row]], list]
JoinBatchKernel = Callable[[Sequence[Row], Sequence[Row]], list]


# ---------------------------------------------------------------------------
# Kernel code generation.
#
# Each generator builds Python source with the expression code inlined
# (reusing the scalar/predicate emitters of repro.exec.compiler), then
# compiles it once.  Kernels are cached per shape by the
# ExpressionCompilerCache, exactly like row-level routines.
# ---------------------------------------------------------------------------


def _build_kernel(source: str, env: dict[str, Any], name: str) -> Callable:
    namespace = dict(env)
    code = compile(source, filename=f"<prisma:{name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generative batch kernels, like the expression compiler
    fn = namespace[name]
    fn.__prisma_source__ = source
    return fn


def compile_batch_predicate(expr: Expr) -> BatchKernel:
    """``rows -> surviving rows`` with the predicate inlined in one pass."""
    emitter = _Emitter()
    body = emitter.predicate(expr)
    source = (
        "def _batch_predicate(rows):\n"
        f"    return [row for row in rows if {body}]\n"
    )
    return _build_kernel(source, emitter.env, "_batch_predicate")


def compile_batch_projector(exprs: Sequence[Expr]) -> BatchKernel:
    """``rows -> projected rows`` with every output expression inlined.

    Pass-through projections (every output a plain column reference) skip
    codegen entirely: ``itemgetter`` + ``map``/``zip`` run the whole
    batch in C, producing the same tuples the generated comprehension
    would.
    """
    indices = batchable_projection(exprs)
    if indices is not None:
        if len(indices) == 1:
            getter = itemgetter(indices[0])

            def _batch_projector(rows, _g=getter):
                return list(zip(map(_g, rows)))

        else:
            getter = itemgetter(*indices)

            def _batch_projector(rows, _g=getter):
                return list(map(_g, rows))

        _batch_projector.__prisma_source__ = f"<itemgetter {indices}>"
        return _batch_projector
    emitter = _Emitter()
    parts = [emitter.scalar(e) for e in exprs]
    tuple_code = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    source = (
        "def _batch_projector(rows):\n"
        f"    return [{tuple_code} for row in rows]\n"
    )
    return _build_kernel(source, emitter.env, "_batch_projector")


def _key_exprs(positions: Sequence[int]) -> tuple[str, str]:
    """(key-building code, NULL-test code) for build-side rows."""
    if len(positions) == 1:
        return f"row[{positions[0]}]", f"_k is None"
    key = "(" + ", ".join(f"row[{c}]" for c in positions) + ")"
    null_test = " or ".join(f"row[{c}] is None" for c in positions)
    return key, null_test


def compile_join_kernel(
    left_keys: Sequence[int], right_keys: Sequence[int]
) -> JoinBatchKernel:
    """INNER equi-join kernel: build once, probe in one comprehension.

    Semantics are identical to :func:`~repro.exec.operators.hash_join`
    with ``JoinKind.INNER``: NULL keys on either side never match (the build
    side skips them, so a NULL probe key simply misses), matches emit in
    left-row order with build-insertion order inside a key, and output
    rows are ``left_row + right_row``.  Probing with the raw value (or
    key tuple) as the dict key gives one dict lookup per left row with
    no key-extractor call.
    """
    left_keys = tuple(left_keys)
    right_keys = tuple(right_keys)
    if not left_keys or len(left_keys) != len(right_keys):
        raise ExecutionError("join kernel needs matching, non-empty key lists")
    if len(left_keys) == 1:
        # Single-column keys need no codegen: the only thing the
        # generated source would specialize is the key index, and a
        # LOAD_FAST of a bound default is as cheap as a LOAD_CONST.
        # Skipping compile() keeps first-query latency down.
        lc, rc = left_keys[0], right_keys[0]

        def _join_kernel(left, right, _lc=lc, _rc=rc):
            table = {}
            get = table.get
            for row in right:
                _k = row[_rc]
                if _k is None:
                    continue
                _b = get(_k)
                if _b is None:
                    table[_k] = [row]
                else:
                    _b.append(row)
            _e = ()
            return [row + _m for row in left for _m in get(row[_lc], _e)]

        _join_kernel.__prisma_source__ = f"<closure join left[{lc}]=right[{rc}]>"
        return _join_kernel
    build_key, build_null = _key_exprs(right_keys)
    if len(left_keys) == 1:
        probe_key = f"row[{left_keys[0]}]"
    else:
        probe_key = "(" + ", ".join(f"row[{c}]" for c in left_keys) + ")"
    lines = [
        "def _join_kernel(left, right):",
        "    table = {}",
        "    get = table.get",
        "    for row in right:",
        f"        _k = {build_key}",
        f"        if {build_null}:",
        "            continue",
        "        _b = get(_k)",
        "        if _b is None:",
        "            table[_k] = [row]",
        "        else:",
        "            _b.append(row)",
        "    _e = ()",
        f"    return [row + _m for row in left for _m in get({probe_key}, _e)]",
    ]
    source = "\n".join(lines) + "\n"
    return _build_kernel(source, {}, "_join_kernel")


def compile_agg_kernel(
    group_cols: Sequence[int],
    aggregates: Sequence[tuple[str, Expr | None, bool]],
    interpreted: bool = False,
) -> BatchKernel:
    """Hash-aggregation kernel over flat accumulator slots.

    *aggregates* is a sequence of ``(func, arg_expr_or_None, distinct)``.
    The generated loop updates only the slots each aggregate actually
    needs (SUM keeps one running total, AVG a count and a total, …); a
    DISTINCT COUNT/SUM/AVG adds a per-group seen-set slot and skips
    values already in it (MIN/MAX are unchanged by DISTINCT, and
    ``COUNT(*)`` counts rows either way).  Values are fed in input
    order, so float results, NULL handling and first-occurrence group
    output order match a per-row accumulation loop exactly.

    With *interpreted* the argument code is a call to an
    :class:`~repro.exec.interpreter.InterpretedProjector` (a per-row
    tree walk) instead of inlined compiled code; everything else about
    the kernel is shared.
    """
    group_cols = tuple(group_cols)
    if not group_cols and all(
        func == "count" and arg is None for func, arg, _distinct in aggregates
    ):
        # Global COUNT(*) (possibly repeated) is just the batch length —
        # no per-row loop, no codegen.  NULLs don't matter (COUNT(*)
        # counts rows), so this is exactly the generated kernel's
        # answer at O(1).
        width = len(tuple(aggregates))

        def _agg_kernel(rows, _w=width):
            return [(len(rows),) * _w]

        _agg_kernel.__prisma_source__ = f"<closure count(*) x{width}>"
        return _agg_kernel
    emitter = _Emitter()

    inits: list[str] = []  # slot initial values, as code
    updates: list[str] = []  # per-row update lines (loop body, unindented)
    results: list[str] = []  # output value expressions over `state`

    for spec_index, (func, arg, distinct) in enumerate(aggregates):
        if func not in AGGREGATE_FUNCTIONS:
            raise ExecutionError(f"no batch kernel for aggregate {func!r}")
        if func == "count" and arg is None:
            slot = len(inits)
            inits.append("0")
            updates.append(f"state[{slot}] += 1")
            results.append(f"state[{slot}]")
            continue
        if arg is None:
            raise ExecutionError(f"{func.upper()} needs an argument")
        value = f"_v{spec_index}"
        if interpreted:
            walker = emitter.bind("interp", InterpretedProjector((arg,)))
            code = f"{walker}(row)[0]"
        else:
            code = emitter.scalar(arg)
        updates.append(f"{value} = {code}")
        if func in ("min", "max"):
            # DISTINCT cannot change an extreme, so MIN/MAX ignore it.
            slot = len(inits)
            inits.append("None")
            op = "<" if func == "min" else ">"
            updates.append(
                f"if {value} is not None and"
                f" (state[{slot}] is None or {value} {op} state[{slot}]):"
            )
            updates.append(f"    state[{slot}] = {value}")
            results.append(f"state[{slot}]")
            continue
        if distinct:
            seen = len(inits)
            inits.append("set()")
            updates.append(f"if {value} is not None and {value} not in state[{seen}]:")
            updates.append(f"    state[{seen}].add({value})")
        else:
            updates.append(f"if {value} is not None:")
        if func == "count":
            slot = len(inits)
            inits.append("0")
            updates.append(f"    state[{slot}] += 1")
            results.append(f"state[{slot}]")
        elif func == "sum":
            slot = len(inits)
            inits.append("None")
            updates.append(f"    _t = state[{slot}]")
            updates.append(
                f"    state[{slot}] = {value} if _t is None else _t + {value}"
            )
            results.append(f"state[{slot}]")
        else:  # avg
            count_slot = len(inits)
            inits.append("0")
            total_slot = len(inits)
            inits.append("None")
            updates.append(f"    state[{count_slot}] += 1")
            updates.append(f"    _t = state[{total_slot}]")
            updates.append(
                f"    state[{total_slot}] = {value} if _t is None else _t + {value}"
            )
            results.append(
                f"(None if state[{count_slot}] == 0"
                f" else state[{total_slot}] / state[{count_slot}])"
            )

    template = "[" + ", ".join(inits) + "]"
    values = ", ".join(results)

    if not group_cols:
        # Global aggregation: one pre-seeded state, one output row even
        # for empty input (SQL semantics).
        lines = [
            "def _agg_kernel(rows):",
            f"    state = {template}",
            "    for row in rows:",
        ]
        lines.extend(f"        {line}" for line in updates)
        lines.append(f"    return [({values}{',' if len(results) == 1 else ''})]")
    else:
        if len(group_cols) == 1:
            key_code = f"row[{group_cols[0]}]"
            out_key = "(_k,)"
        else:
            key_code = "(" + ", ".join(f"row[{c}]" for c in group_cols) + ")"
            out_key = "_k"
        out_row = f"{out_key} + ({values}{',' if len(results) == 1 else ''})"
        if not results:
            out_row = out_key if len(group_cols) > 1 else "(_k,)"
        lines = [
            "def _agg_kernel(rows):",
            "    groups = {}",
            "    get = groups.get",
            "    for row in rows:",
            f"        _k = {key_code}",
            "        state = get(_k)",
            "        if state is None:",
            f"            groups[_k] = state = {template}",
        ]
        lines.extend(f"        {line}" for line in updates)
        lines.append(f"    return [{out_row} for _k, state in groups.items()]")
    source = "\n".join(lines) + "\n"
    return _build_kernel(source, emitter.env, "_agg_kernel")


def batchable_projection(exprs: Sequence[Expr]) -> tuple[int, ...] | None:
    """Column indices when every output is a plain column reference.

    Such projections are pure column slices, which
    :func:`compile_batch_projector` serves with ``itemgetter`` instead
    of generated code.
    """
    indices = []
    for expr in exprs:
        if not isinstance(expr, ColumnRef):
            return None
        indices.append(expr.index)
    return tuple(indices)
