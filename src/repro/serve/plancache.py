"""GDH-level plan cache for the serving layer.

The same structural-hash idea as the OFM's
:class:`~repro.exec.compiler.ExpressionCompilerCache`, lifted from
expression granularity to whole statements: the key is the statement's
token stream with every bound value in place
(:meth:`repro.serve.params.Template.key`), so a hit returns a plan
compiled for *exactly* this statement, literals and all.  SELECTs cache
a :class:`~repro.core.gdh.PreparedSelect` (bind + optimize product);
other statements cache their bound AST, which skips the host-side
binding but not the simulated front-end charge — only a cached *plan*
earns the cache-hit discount.

Beside the plans it keeps the statement *templates*
(:class:`~repro.serve.params.Template`), keyed by SQL text: the GDH's
parser runs once per distinct text, as the OFM compiles a routine once
and reuses it.  Template traffic has its own counters
(``template_hits``/``template_misses``); ``lookups``, ``hits``,
``misses`` and ``entries`` count plans only.

Invalidation is wholesale on DDL: the GDH bumps its ``ddl_epoch`` and
calls :meth:`PlanCache.invalidate`, dropping every plan.  Finer-grained
invalidation (per touched table) is not worth the bookkeeping at this
scale — DDL is rare in every workload we model.  Templates survive DDL:
parsing reads no catalog.

Capacity is bounded FIFO, for plans and templates each: when full, the
oldest entry (Python dicts are insertion-ordered) is evicted.
Deterministic, and good enough for the repeated-template workloads the
cache exists for.
"""

from __future__ import annotations

from typing import Any

from repro.obs.api import SnapshotMixin
from repro.serve.params import Template

__all__ = ["PlanCache"]

#: Default entry bound; ~100 sessions × a handful of templates × the
#: hot Zipf keys fit comfortably, while a scan of distinct ad-hoc
#: statements cannot grow the cache without bound.
DEFAULT_CAPACITY = 1024


class PlanCache(SnapshotMixin):
    """Bounded statement→plan cache with epoch invalidation, plus the
    text→template cache of the statements it has seen."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: dict[tuple, Any] = {}
        self._templates: dict[str, Template] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.template_hits = 0
        self.template_misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when cold)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Any | None:
        """The cached plan/AST for *key*, or None (counts the lookup)."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: Any) -> None:
        if key in self._entries:
            self._entries[key] = entry
            return
        if len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = entry

    def template(self, sql: str) -> Template:
        """The parsed template of *sql*, lexed and parsed on first sight.

        Raises :class:`~repro.errors.ParseError` for text that does not
        parse (nothing is cached then).
        """
        template = self._templates.get(sql)
        if template is not None:
            self.template_hits += 1
            return template
        self.template_misses += 1
        template = Template(sql)
        if len(self._templates) >= self.capacity:
            del self._templates[next(iter(self._templates))]
        self._templates[sql] = template
        return template

    def invalidate(self, ddl_epoch: int) -> None:
        """Drop every plan: DDL moved schemas or fragment placement.

        Called by the GDH's ``_ddl_changed`` with the new epoch; the
        epoch itself lives on the GDH (and inside each cached
        ``PreparedSelect``) — the cache only needs to empty itself.
        """
        del ddl_epoch
        self._entries.clear()
        self.invalidations += 1

    # -- Snapshot ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._entries),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "templates": len(self._templates),
            "template_hits": self.template_hits,
            "template_misses": self.template_misses,
        }

    def reset(self) -> None:
        self._entries.clear()
        self._templates.clear()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.template_hits = 0
        self.template_misses = 0
