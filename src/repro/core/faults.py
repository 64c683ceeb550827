"""Deterministic fault injection (paper Section 3.2's failure model).

The paper grounds "automatic recovery upon system failures" in stable
storage on the disk-equipped elements; this module supplies the
*failures*.  Three fault classes are supported, all deterministic and
replayable from a seed:

* **element crash** — one processing element goes down: every POOL-X
  process placed on it is killed (volatile state lost; later sends to
  it raise :class:`~repro.errors.ProcessCrashed`) and routes through it
  disappear.  The GDH drops the dead fragment copies from its registry
  and aborts every transaction that lost a participant.  Durable state
  (WAL chunks, snapshots, the commit log) is on the disk-equipped
  elements and survives; ``db.restart_element`` replays it.
* **link failure** — one interconnect link goes down; traffic reroutes
  over surviving paths, or raises
  :class:`~repro.errors.LinkDownError` when the fault cuts the network.
* **coordinator halt** — the commit coordinator stops at a *named crash
  point* threaded through :class:`~repro.core.twophase.TwoPhaseCommit`
  (:class:`CrashPoint`), by raising
  :class:`~repro.errors.InjectedCrash` out of the protocol.  Nothing in
  the engine catches it, so the system is left exactly as the crash
  found it: prepared participants in doubt, locks held.

:class:`FaultInjector` (``db.faults``) is a database's one fault API.
Faults fire immediately (:meth:`~FaultInjector.crash_element`,
:meth:`~FaultInjector.fail_link`), for the length of a ``with`` block
(:meth:`~FaultInjector.scope`), or from the simulated event loop
(:meth:`~FaultInjector.schedule`, which is how availability sweeps take
an element down mid-workload); each way an element crash is the same
crash.  The :class:`~repro.machine.machine.Machine` methods underneath
change routing only.

Every injection is appended to a log; :meth:`FaultInjector.fingerprint`
hashes that log so two runs with the same seed and the same driver can
be diffed bit-for-bit (the CI determinism gate does exactly this).  The
RNG is a seeded ``random.Random`` — the lint rule PL002 holds here too.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.transactions import TxnState
from repro.errors import InjectedCrash, MachineError, RecoveryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.gdh import GlobalDataHandler


class CrashPoint(enum.Enum):
    """Named halt points inside the commit/abort protocol.

    The value strings appear in injection logs and test parametrization;
    ``1pc``/``2pc``/``abort`` prefixes group them by protocol path.
    """

    #: 1PC, before the single participant is told to commit: nothing
    #: durable anywhere — presumed abort must roll the transaction back.
    ONE_PC_BEFORE_PARTICIPANT_COMMIT = "1pc.before_participant_commit"
    #: 1PC, after the participant forced its commit record but before
    #: the coordinator logged the decision: the participant's WAL is
    #: authoritative — recovery must keep the transaction committed.
    ONE_PC_AFTER_PARTICIPANT_COMMIT = "1pc.after_participant_commit"
    #: 1PC, after the coordinator's log force: committed everywhere.
    ONE_PC_AFTER_LOG_FORCE = "1pc.after_log_force"
    #: 2PC, before any PREPARE went out.
    TWO_PC_BEFORE_PREPARE = "2pc.before_prepare"
    #: 2PC, after the first participant prepared (it is now in doubt).
    TWO_PC_MID_PREPARE = "2pc.mid_prepare"
    #: 2PC, all participants prepared, decision not yet durable.
    TWO_PC_AFTER_PREPARE = "2pc.after_prepare"
    #: 2PC, decision forced to the commit log, phase two not started.
    TWO_PC_AFTER_LOG_FORCE = "2pc.after_log_force"
    #: 2PC, after the first participant received the commit decision.
    TWO_PC_MID_PHASE_TWO = "2pc.mid_phase_two"
    #: Abort, before anything was logged or undone.
    ABORT_BEFORE_LOG = "abort.before_log"
    #: Abort, after the first participant undid its effects.
    ABORT_MID_UNDO = "abort.mid_undo"


#: Points on the 1PC path, the n-participant 2PC path, the abort path.
ONE_PC_POINTS = (
    CrashPoint.ONE_PC_BEFORE_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_PARTICIPANT_COMMIT,
    CrashPoint.ONE_PC_AFTER_LOG_FORCE,
)
TWO_PC_POINTS = (
    CrashPoint.TWO_PC_BEFORE_PREPARE,
    CrashPoint.TWO_PC_MID_PREPARE,
    CrashPoint.TWO_PC_AFTER_PREPARE,
    CrashPoint.TWO_PC_AFTER_LOG_FORCE,
    CrashPoint.TWO_PC_MID_PHASE_TWO,
)
ABORT_POINTS = (
    CrashPoint.ABORT_BEFORE_LOG,
    CrashPoint.ABORT_MID_UNDO,
)


@dataclass
class CrashReport:
    """What a simulated crash destroyed."""

    at_time: float
    #: "machine" (everything) or "element" (one PE).
    kind: str = "machine"
    #: The failed element, for kind="element".
    node_id: int | None = None
    aborted_transactions: list[int] = field(default_factory=list)
    fragments_lost: int = 0
    #: Names of processes killed by an element crash (sorted).
    processes_killed: list[str] = field(default_factory=list)

    def stats(self) -> dict[str, float]:
        return {
            "at_time": self.at_time,
            "aborted_transactions": len(self.aborted_transactions),
            "fragments_lost": self.fragments_lost,
            "processes_killed": len(self.processes_killed),
        }

    def fingerprint(self) -> str:
        fields_ = (
            self.kind,
            self.node_id,
            self.at_time,
            sorted(self.aborted_transactions),
            self.fragments_lost,
            sorted(self.processes_killed),
        )
        return hashlib.sha256(repr(fields_).encode("utf-8")).hexdigest()

    def reset(self) -> None:
        self.aborted_transactions.clear()
        self.fragments_lost = 0
        self.processes_killed.clear()


class FaultInjector:
    """Seeded, deterministic source of element/link/coordinator faults.

    One injector serves one database instance; the GDH binds it to
    itself and threads it into the commit protocol, the facade exposes
    it as ``db.faults``.  Armed crash points fire once and disarm
    (re-arm explicitly to crash again); element/link faults persist
    until restored.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        #: Seeded RNG for randomized fault schedules (PL002: the fault
        #: subsystem must be replayable from its seed).
        self.rng = random.Random(seed)
        self.gdh: GlobalDataHandler | None = None
        #: point -> (txn filter or None, remaining hits to skip)
        self._armed: dict[CrashPoint, tuple[int | None, int]] = {}
        #: Append-only log of everything that fired, in order.
        self.injections: list[tuple[str, ...]] = []

    def bind(self, gdh: GlobalDataHandler) -> None:
        """Attach to the GDH whose machine, processes and state faults
        target."""
        self.gdh = gdh

    def _require_gdh(self) -> GlobalDataHandler:
        if self.gdh is None:
            raise MachineError("fault injector is not bound to a database")
        return self.gdh

    def _log(self, *entry: str) -> None:
        self.injections.append(entry)

    # -- coordinator crash points --------------------------------------------

    def arm(
        self, point: CrashPoint, txn_id: int | None = None, skip: int = 0
    ) -> None:
        """Arm a crash point: the (skip+1)-th matching pass raises.

        *txn_id* restricts the trigger to one transaction; *skip* lets
        the first N transactions through (crash "mid-workload").
        """
        self._armed[point] = (txn_id, skip)

    def disarm(self, point: CrashPoint) -> None:
        self._armed.pop(point, None)

    def armed_points(self) -> list[CrashPoint]:
        return sorted(self._armed, key=lambda p: p.value)

    def crash_point(self, point: CrashPoint, txn_id: int) -> None:
        """Protocol-side hook: halt here if this point is armed.

        Called by :class:`~repro.core.twophase.TwoPhaseCommit` at every
        named point; a no-op unless armed (the common case is one dict
        lookup on an empty dict).
        """
        if not self._armed:
            return
        entry = self._armed.get(point)
        if entry is None:
            return
        wanted_txn, skip = entry
        if wanted_txn is not None and wanted_txn != txn_id:
            return
        if skip > 0:
            self._armed[point] = (wanted_txn, skip - 1)
            return
        del self._armed[point]
        self._log("crash_point", point.value, str(txn_id))
        raise InjectedCrash(point.value, txn_id)

    # -- element / link faults ------------------------------------------------

    def crash_element(self, node_id: int) -> CrashReport:
        """One PE fails: its processes die, the survivors carry on.

        The one element-crash path, whichever way it is triggered
        (directly, through :meth:`scope`, or from :meth:`schedule`).
        Fragment copies on the element leave the registry, so reads
        fail over to replicas and writes to a copyless fragment error
        out rather than silently diverging.  Transactions that lost a
        participant are aborted at their live participants (their locks
        release, so waiting work proceeds).
        """
        gdh = self._require_gdh()
        supervisor = gdh.gdh_process.node_id
        if node_id == supervisor:
            raise RecoveryError(
                "cannot crash the supervisor element"
                f" {supervisor}: the GDH and its commit log live there"
                " (model GDH failure as a machine-wide crash instead)"
            )
        runtime = gdh.runtime
        report = CrashReport(
            at_time=runtime.horizon(), kind="element", node_id=node_id
        )
        runtime.machine.fail_node(node_id)
        report.processes_killed = runtime.crash_node(node_id)
        self._log("crash_element", str(node_id), *report.processes_killed)
        # Fragment copies on the element lose their volatile state for
        # good; the registry must stop routing reads/writes to them.
        dead = sorted(
            name for name, ofm in gdh.fragment_ofms.items() if not ofm.alive
        )
        for name in dead:
            ofm = gdh.fragment_ofms.pop(name)
            ofm.halt()
            report.fragments_lost += 1
        # Abort every transaction that lost a participant: phase one can
        # no longer succeed for them, and holding their locks would
        # stall the surviving elements forever.
        for txn_id in sorted(gdh.txns.active):
            txn = gdh.txns.active[txn_id]
            if all(ofm.alive for ofm in txn.participants.values()):
                continue
            report.aborted_transactions.append(txn_id)
            for ofm in txn.participants.values():
                if ofm.alive and ofm.has_transaction_state(txn_id):
                    ofm.abort(txn_id)
            gdh.txns.finish(txn, TxnState.ABORTED, report.at_time)
        return report

    def restore_element(self, node_id: int) -> None:
        """Bring a failed element back (empty; processes are respawned
        by restart recovery, not resurrected)."""
        self._require_gdh().machine.restore_node(node_id)
        self._log("restore_element", str(node_id))

    def fail_link(self, u: int, v: int) -> None:
        self._require_gdh().machine.fail_link(u, v)
        self._log("fail_link", str(u), str(v))

    def restore_link(self, u: int, v: int) -> None:
        self._require_gdh().machine.restore_link(u, v)
        self._log("restore_link", str(u), str(v))

    @contextlib.contextmanager
    def scope(
        self,
        nodes: Sequence[int] = (),
        links: Sequence[tuple[int, int]] = (),
    ) -> Iterator[None]:
        """Scoped faults with guaranteed restore.

        ``with db.faults.scope(nodes=[3], links=[(0, 1)]): ...`` crashes
        the elements and cuts the links on entry, and restores them — in
        reverse order — on exit, exception or not.  Only faults this
        scope introduced are restored: an element or link already down
        on entry stays down.  Every transition lands in the injection
        log, so the scope shows up in the determinism fingerprint.
        """
        machine = self._require_gdh().machine
        undo: list[Callable[[], None]] = []
        try:
            for node_id in nodes:
                if machine.node_is_up(node_id):
                    self.crash_element(node_id)
                    undo.append(functools.partial(self.restore_element, node_id))
            for u, v in links:
                if machine.link_is_up(u, v):
                    self.fail_link(u, v)
                    undo.append(functools.partial(self.restore_link, u, v))
            yield
        finally:
            for restore in reversed(undo):
                restore()

    # -- event-loop fault schedule -------------------------------------------

    def schedule(self, at_time: float, kind: str, *args: int) -> None:
        """Place a fault on the simulated event loop.

        *kind* is ``"crash_element"``, ``"restore_element"``,
        ``"fail_link"``, or ``"restore_link"``; *args* are its element
        ids.  The fault fires when the loop reaches *at_time* (drive it
        with ``runtime.run(until=...)``), so a sweep can take elements
        down and up mid-workload deterministically.
        """
        runtime = self._require_gdh().runtime
        actions = {
            "crash_element": lambda: self.crash_element(*args),
            "restore_element": lambda: self.restore_element(*args),
            "fail_link": lambda: self.fail_link(*args),
            "restore_link": lambda: self.restore_link(*args),
        }
        try:
            action = actions[kind]
        except KeyError:
            raise MachineError(f"unknown scheduled fault kind {kind!r}") from None
        runtime.loop.schedule_at(at_time, action)

    # -- determinism / Snapshot protocol --------------------------------------

    def stats(self) -> dict[str, object]:
        """Snapshot view: seed, armed points, and the injection log."""
        return {
            "seed": self.seed,
            "armed": [point.value for point in self.armed_points()],
            "injections": [list(entry) for entry in self.injections],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical injection log (+ seed).

        Two runs with the same seed and driver must produce identical
        fingerprints; the CI determinism gate diffs them.  This predates
        the :class:`~repro.obs.api.Snapshot` protocol and its exact
        payload is pinned by the A4 bench baselines, so it hashes the
        log directly rather than ``stats()``.
        """
        canonical = repr((self.seed, self.injections)).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()

    def reset(self) -> None:
        """Return to the just-constructed state (same seed, fresh RNG)."""
        self.rng = random.Random(self.seed)
        self._armed.clear()
        self.injections.clear()
