"""The data allocation manager (paper Section 2.2).

Decides which processing element hosts each fragment *copy* of a
relation.  Placement is a first-class policy protocol
(:class:`FragmentPlacement`, mirroring
:class:`repro.pool.placement.PlacementPolicy` for processes): the
default spreads primaries over distinct elements with the most free
memory — fragments are the unit of parallelism, so spreading them is
what buys intra-query speedup (E4), while memory-awareness keeps
16 MByte elements from overflowing — and parks replicas on the
emptiest elements not already holding a copy.  The online rebalancer (:mod:`repro.core.rebalance`) asks
the same protocol where split and migrated fragments should go.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.machine.machine import Machine


class FragmentPlacement:
    """Policy protocol: which element hosts each fragment copy.

    Stateless by design (like ``pool.placement.PlacementPolicy``): every
    method receives the machine, so one policy instance can serve many
    tables.  ``reserve_node`` is the GDH's home element, avoided while
    alternatives exist so coordination work does not contend with
    fragment hosting on small machines.
    """

    def place_primaries(
        self,
        machine: Machine,
        n_fragments: int,
        expected_bytes_per_fragment: int = 0,
        reserve_node: int | None = 0,
        avoid: set[int] | None = None,
    ) -> list[int]:
        """Home elements for the primary copy of each fragment."""
        raise NotImplementedError

    def place_replica(
        self,
        machine: Machine,
        primary_node: int,
        used_nodes: set[int],
        reserve_node: int | None = 0,
    ) -> int:
        """Element for one more copy of a fragment whose copies already
        occupy *used_nodes* (the primary's element included)."""
        raise NotImplementedError

    def migration_target(
        self,
        machine: Machine,
        exclude: set[int],
        reserve_node: int | None = 0,
    ) -> int:
        """Element for a fragment copy being moved or split off.

        *exclude* holds the elements that already host a copy of the
        fragment (a fragment never keeps two copies on one element).
        """
        raise NotImplementedError


class DefaultPlacement(FragmentPlacement):
    """The historical policy, bit-identical to the pre-protocol code.

    Primaries spread most-free-memory-first over distinct elements;
    replicas go to the element with the fewest processes started (ties:
    most free memory, then lowest id).  No topology awareness.
    """

    def place_primaries(
        self,
        machine: Machine,
        n_fragments: int,
        expected_bytes_per_fragment: int = 0,
        reserve_node: int | None = 0,
        avoid: set[int] | None = None,
    ) -> list[int]:
        if n_fragments < 1:
            raise AllocationError(f"cannot place {n_fragments} fragments")
        avoid = set(avoid or ())
        candidates = [
            node_id
            for node_id in range(machine.n_nodes)
            if node_id not in avoid
        ]
        if (
            reserve_node is not None
            and len(candidates) > n_fragments
            and reserve_node in candidates
        ):
            candidates.remove(reserve_node)
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

    def _replica_candidates(
        self,
        machine: Machine,
        used_nodes: set[int],
        reserve_node: int | None,
    ) -> list[int]:
        candidates = [
            n for n in range(machine.n_nodes) if n not in used_nodes
        ]
        if not candidates:
            raise AllocationError(
                "every processing element already hosts a copy of this fragment"
            )
        if reserve_node is not None and len(candidates) > 1 and reserve_node in candidates:
            candidates.remove(reserve_node)
        return candidates

    def place_replica(
        self,
        machine: Machine,
        primary_node: int,
        used_nodes: set[int],
        reserve_node: int | None = 0,
    ) -> int:
        candidates = self._replica_candidates(machine, used_nodes, reserve_node)
        candidates.sort(
            key=lambda n: (
                machine.node(n).stats.processes_started,
                -machine.node(n).memory.available,
                n,
            )
        )
        return candidates[0]

    def migration_target(
        self,
        machine: Machine,
        exclude: set[int],
        reserve_node: int | None = 0,
    ) -> int:
        """The least-busy live element not yet hosting a copy."""
        candidates = [
            n
            for n in self._replica_candidates(machine, set(exclude), reserve_node)
            if machine.node_is_up(n)
        ]
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


class DataAllocationManager:
    """Places fragments onto processing elements via a policy."""

    def __init__(
        self,
        machine: Machine,
        reserve_node: int | None = 0,
        policy: FragmentPlacement | None = None,
    ):
        """*reserve_node* (the GDH's home) is avoided while alternatives
        exist, so coordination work does not contend with fragment
        hosting on small machines."""
        self.machine = machine
        self.reserve_node = reserve_node
        self.policy = policy if policy is not None else DefaultPlacement()

    def place_fragments(
        self,
        n_fragments: int,
        expected_bytes_per_fragment: int = 0,
        avoid: set[int] | None = None,
    ) -> list[int]:
        """Pick a home element for each of *n_fragments* fragments.

        Spreads over distinct elements first (most-free-memory order
        under the default policy); wraps around when there are more
        fragments than elements.  Raises :class:`AllocationError` if no
        element can fit the expected footprint.
        """
        return self.policy.place_primaries(
            self.machine,
            n_fragments,
            expected_bytes_per_fragment,
            reserve_node=self.reserve_node,
            avoid=avoid,
        )

    def place_replica(self, primary_node: int, used_nodes: set[int]) -> int:
        """Pick the element for one more copy of a fragment."""
        return self.policy.place_replica(
            self.machine,
            primary_node,
            used_nodes,
            reserve_node=self.reserve_node,
        )

    def migration_target(self, exclude: set[int]) -> int:
        """Pick where a moved/split-off fragment copy should live."""
        return self.policy.migration_target(
            self.machine,
            set(exclude),
            reserve_node=self.reserve_node,
        )
