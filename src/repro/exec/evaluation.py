"""Choice of expression back-end: compiled (generative) vs interpreted.

One switch selects how OFMs evaluate predicates and projections — the
ablation behind experiment E5.  Both back-ends return plain callables;
the accompanying *weight* is the abstract comparison count charged per
evaluation on the simulated clock (interpretation is penalized by a
constant factor, mirroring the real-world overhead the paper's
generative approach avoids — and which E5 also measures in wall-clock).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.exec.compiler import ExpressionCompilerCache
from repro.exec.expressions import Expr, all_subexpressions
from repro.exec.interpreter import InterpretedPredicate, InterpretedProjector

#: Simulated-clock penalty of tree-walking interpretation per node.
INTERPRETATION_FACTOR = 4.0


def expression_weight(expr: Expr) -> float:
    """Abstract cost of one evaluation: the number of tree nodes."""
    return float(sum(1 for _ in all_subexpressions(expr)))


class Evaluator:
    """Produces the callables operators run, in one of two back-ends.

    ``compiled`` selects the expression back-end (E5's ablation); it is
    the only switch and never changes results.  Operators run through
    the batch-shaped forms (``rows -> rows``): compiled kernels inline
    the expression code, interpreted ones walk the expression tree per
    row behind the same shape.  The row-level :meth:`predicate` and
    :meth:`projector` serve the places that test one row at a time
    (cursors, join residuals, nested-loop conditions).
    """

    def __init__(
        self,
        compiled: bool = True,
        cache: ExpressionCompilerCache | None = None,
    ):
        self.compiled = compiled
        self.cache = cache or ExpressionCompilerCache()

    def predicate(self, expr: Expr) -> tuple[Callable[[Sequence[Any]], bool], float]:
        """A filter callable and its per-row simulated weight."""
        weight = expression_weight(expr)
        if self.compiled:
            return self.cache.predicate(expr), weight
        return InterpretedPredicate(expr), weight * INTERPRETATION_FACTOR

    def projector(
        self, exprs: Sequence[Expr]
    ) -> tuple[Callable[[Sequence[Any]], tuple], float]:
        """A row-builder callable and its per-row simulated weight."""
        weight = sum(expression_weight(e) for e in exprs)
        if self.compiled:
            return self.cache.projector(exprs), weight
        return InterpretedProjector(exprs), weight * INTERPRETATION_FACTOR

    def key(self, positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
        """A cached key extractor for the given row positions.

        Key extraction has no interpreted variant (there is nothing to
        interpret — it is a plain positional gather), so both back-ends
        share the compiled, cached form.
        """
        return self.cache.key(positions)

    # -- batch-at-a-time forms ------------------------------------------

    def batch_predicate(
        self, expr: Expr
    ) -> tuple[Callable[[Sequence[tuple]], list], float]:
        """A ``rows -> surviving rows`` kernel and the per-row weight.

        The interpreted back-end still pays its per-row tree walk inside
        the batch wrapper — E5's wall-clock interpretation overhead is
        preserved — and its simulated weight keeps the interpretation
        penalty.
        """
        weight = expression_weight(expr)
        if self.compiled:
            return self.cache.batch_predicate(expr), weight
        fn = InterpretedPredicate(expr)
        return (
            lambda rows, _fn=fn: [row for row in rows if _fn(row)],
            weight * INTERPRETATION_FACTOR,
        )

    def batch_projector(
        self, exprs: Sequence[Expr]
    ) -> tuple[Callable[[Sequence[tuple]], list], float]:
        """A ``rows -> projected rows`` kernel and the per-row weight."""
        weight = sum(expression_weight(e) for e in exprs)
        if self.compiled:
            return self.cache.batch_projector(exprs), weight
        fn = InterpretedProjector(exprs)
        return (lambda rows, _fn=fn: [_fn(row) for row in rows], weight * INTERPRETATION_FACTOR)

    def join_kernel(self, left_keys: Sequence[int], right_keys: Sequence[int]) -> Callable:
        """A cached INNER equi-join batch kernel, shared by both back-ends.

        Like :meth:`key` there is nothing to interpret in a positional
        hash join, so the interpreted back-end uses the same kernel.
        """
        return self.cache.join_kernel(left_keys, right_keys)

    def agg_kernel(
        self,
        group_cols: Sequence[int],
        aggregates: Sequence[tuple[str, Expr | None, bool]],
    ) -> Callable:
        """A cached hash-aggregation batch kernel.

        *aggregates* holds ``(func, arg, distinct)`` triples.  Aggregate
        arguments carry no simulated weight in either back-end: the
        operator charges one hash and one tuple per input row.
        """
        return self.cache.agg_kernel(group_cols, aggregates, not self.compiled)
