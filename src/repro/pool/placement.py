"""Which processing element gets a new process.

POOL-X "supports explicit allocation of the dynamically created processes
onto processing elements.  This allows for a proper balance between
storage, processing, and communication, under the control of the
implementor of the database system" (Section 3.1).  A spawn either names
its element or, without one, takes :func:`least_loaded`'s choice — the
rule behind every per-query process and temporary OFM.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.machine.machine import Machine


def least_loaded(machine: Machine) -> int:
    """The live element with the least busy time (ties: lowest id).

    A down element hosts no new processes until it is restored; raises
    :class:`AllocationError` when every element is down.
    """
    best = -1
    best_busy = 0.0
    for pe in machine.nodes:
        if not machine.node_is_up(pe.node_id):
            continue
        busy = pe.stats.busy_time_s
        if best < 0 or busy < best_busy:
            best, best_busy = pe.node_id, busy
    if best < 0:
        raise AllocationError("every processing element is down")
    return best
