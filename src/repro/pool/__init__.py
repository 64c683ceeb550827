"""POOL-X-like process runtime (paper Section 3.1).

Dynamically created processes, message passing only, explicit allocation
onto processing elements.  See :class:`PoolRuntime` and
:class:`PoolProcess`.  The message-ownership sanitizer
(:mod:`repro.pool.sanitizer`) enforces the no-aliasing half of the
message-passing contract at runtime when enabled.
"""

from repro.pool.placement import least_loaded
from repro.pool.process import PoolProcess
from repro.pool.runtime import (
    RECEIVE_OVERHEAD_S,
    SEND_OVERHEAD_S,
    PoolRuntime,
    RuntimeStats,
)
from repro.pool.sanitizer import first_divergence, snapshot

__all__ = [
    "PoolProcess",
    "PoolRuntime",
    "RECEIVE_OVERHEAD_S",
    "RuntimeStats",
    "SEND_OVERHEAD_S",
    "first_divergence",
    "least_loaded",
    "snapshot",
]
