"""The serving layer: DBAPI connections, plan caching, admission control.

The paper's GDH supervises many concurrent sessions ("for each query a
new instance is created, possibly running at its own processor"); this
package is the client-facing half of that story for the simulator:

* :class:`Connection` / :class:`Cursor` — a PEP 249-shaped surface over
  :class:`~repro.core.database.Session`, with ``?`` parameter binding;
* :class:`Template` — one statement text lexed and parsed once, with
  each ``?`` a ``Param`` node that binding replaces;
* :class:`PlanCache` — GDH-level statement→plan cache (structural keys,
  DDL invalidation), so repeated statements skip parse + optimize; it
  also keeps the templates, by text;
* :class:`AdmissionQueue` — bounded concurrent query processes with
  deterministic simulated-time FIFO waits.

``repro.core`` never imports this package; :func:`install_serving`
attaches the hooks onto an existing GDH, and until it runs the engine's
behavior (and its golden fingerprints) is untouched.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.dbapi import (
    Connection,
    Cursor,
    PreparedStatement,
    connect,
    install_serving,
)
from repro.serve.params import Template
from repro.serve.plancache import PlanCache

__all__ = [
    "AdmissionQueue",
    "Connection",
    "Cursor",
    "PlanCache",
    "PreparedStatement",
    "Template",
    "connect",
    "install_serving",
]
