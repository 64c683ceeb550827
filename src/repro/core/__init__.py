"""The PRISMA DBMS core: Global Data Handler, transactions, recovery,
distributed execution, and the :class:`PrismaDB` facade (Section 2.2)."""

from repro.core.allocation import DataAllocationManager
from repro.core.catalog import Catalog, FragmentInfo, IndexInfo, TableInfo
from repro.core.database import PrismaDB, Session
from repro.core.executor import DistributedExecutor, DistRelation, ExecutionReport, Part
from repro.core.faults import CrashPoint, CrashReport, FaultInjector
from repro.core.fragmentation import (
    FragmentationScheme,
    HashFragmentation,
    RangeFragmentation,
    RoundRobinFragmentation,
    SingleFragment,
    build_scheme,
    stable_hash,
)
from repro.core.gdh import GlobalDataHandler, SessionState
from repro.core.locks import LockManager, LockMode, WouldBlock
from repro.core.recovery import (
    InDoubtResolution,
    RecoveryManager,
    RecoveryReport,
)
from repro.core.result import QueryResult
from repro.core.transactions import Transaction, TransactionManager, TxnState
from repro.core.twophase import CommitLog, CommitOutcome, TwoPhaseCommit

__all__ = [
    "Catalog",
    "CommitLog",
    "CommitOutcome",
    "CrashPoint",
    "CrashReport",
    "DataAllocationManager",
    "DistRelation",
    "DistributedExecutor",
    "ExecutionReport",
    "FaultInjector",
    "FragmentInfo",
    "FragmentationScheme",
    "GlobalDataHandler",
    "HashFragmentation",
    "InDoubtResolution",
    "IndexInfo",
    "LockManager",
    "LockMode",
    "Part",
    "PrismaDB",
    "QueryResult",
    "RangeFragmentation",
    "RecoveryManager",
    "RecoveryReport",
    "RoundRobinFragmentation",
    "Session",
    "SessionState",
    "SingleFragment",
    "TableInfo",
    "Transaction",
    "TransactionManager",
    "TwoPhaseCommit",
    "TxnState",
    "WouldBlock",
    "build_scheme",
    "stable_hash",
]
