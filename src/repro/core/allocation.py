"""The data allocation manager (paper Section 2.2).

Decides which processing element hosts each fragment *copy* of a
relation.  Primaries spread over distinct elements with the most free
memory — fragments are the unit of parallelism, so spreading them is
what buys intra-query speedup (E4), while memory-awareness keeps
16 MByte elements from overflowing — and replicas park on the emptiest
elements not already holding a copy.  The online rebalancer
(:mod:`repro.core.rebalance`) asks the same allocator where split and
migrated fragments should go.

Every choice is made among live elements only: a down element receives
no copy.  The GDH's home element (``reserve_node``) is then avoided
while enough alternatives exist, so coordination work does not contend
with fragment hosting on small machines.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.machine.machine import Machine


class DataAllocationManager:
    """Places fragment copies onto processing elements."""

    def __init__(self, machine: Machine, reserve_node: int | None = 0):
        self.machine = machine
        self.reserve_node = reserve_node

    def _candidates(self, exclude: set[int], spare: int) -> list[int]:
        """Live elements outside *exclude*, in id order.

        The reserve element is dropped while more than *spare* others
        remain.
        """
        machine = self.machine
        candidates = [
            n
            for n in range(machine.n_nodes)
            if n not in exclude and machine.node_is_up(n)
        ]
        reserve = self.reserve_node
        if reserve is not None and len(candidates) > spare and reserve in candidates:
            candidates.remove(reserve)
        return candidates

    def place_fragments(
        self, n_fragments: int, expected_bytes_per_fragment: int = 0
    ) -> list[int]:
        """Pick a home element for each of *n_fragments* fragments.

        Spreads over distinct elements first, most free memory first;
        wraps around when there are more fragments than elements.
        Raises :class:`AllocationError` if no element can fit the
        expected footprint.
        """
        if n_fragments < 1:
            raise AllocationError(f"cannot place {n_fragments} fragments")
        machine = self.machine
        candidates = self._candidates(set(), n_fragments)
        if not candidates:
            raise AllocationError("no processing elements available for placement")
        ranked = sorted(
            candidates,
            key=lambda n: (-machine.node(n).memory.available, n),
        )
        placements: list[int] = []
        for i in range(n_fragments):
            node_id = ranked[i % len(ranked)]
            free = machine.node(node_id).memory.available
            if expected_bytes_per_fragment and free < expected_bytes_per_fragment:
                raise AllocationError(
                    f"element {node_id} has {free} bytes free,"
                    f" fragment needs ~{expected_bytes_per_fragment}"
                )
            placements.append(node_id)
        return placements

    def place_replica(self, used_nodes: set[int]) -> int:
        """Pick the element for one more copy of a fragment whose copies
        already occupy *used_nodes* (the primary's element included).

        The element with the fewest processes started wins (ties: most
        free memory, then lowest id).
        """
        machine = self.machine
        candidates = self._candidates(used_nodes, 1)
        if not candidates:
            raise AllocationError(
                "every live processing element already hosts a copy of this"
                " fragment"
            )
        return min(
            candidates,
            key=lambda n: (
                machine.node(n).stats.processes_started,
                -machine.node(n).memory.available,
                n,
            ),
        )

    def migration_target(self, exclude: set[int]) -> int:
        """Pick where a moved/split-off fragment copy should live.

        *exclude* holds the elements that already host a copy of the
        fragment (a fragment never keeps two copies on one element).
        The least-busy live element wins.
        """
        machine = self.machine
        candidates = self._candidates(exclude, 1)
        if not candidates:
            raise AllocationError("no live processing element to migrate to")
        return min(
            candidates,
            key=lambda n: (
                machine.node(n).stats.busy_time_s,
                machine.node(n).stats.processes_started,
                -machine.node(n).memory.available,
                n,
            ),
        )
