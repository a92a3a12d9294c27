"""Speculative parallel execution built on verified commutativity
conditions and inverse operations (the paper's motivating systems)."""

from .adaptive import (ADAPTIVE_POLICIES, AdaptiveController,
                       BackoffController, HybridController,
                       WaitDieController, make_controller)
from .backend import (AdmissionBackend, LocalAdmissionBackend,
                      resolve_backend)
from .gatekeeper import ConflictManager, LoggedOperation, POLICIES
from .sharding import (FAMILY_ROUTERS, ShardRouter, single_region_router,
                       stable_hash)
from .transaction import Transaction, TxnStatus, rollback
from .executor import (ExecutionReport, RefinementError, RoundsExhausted,
                       SpeculativeExecutor)

__all__ = [
    "ConflictManager", "LoggedOperation", "POLICIES",
    "AdmissionBackend", "LocalAdmissionBackend", "resolve_backend",
    "ADAPTIVE_POLICIES", "AdaptiveController", "BackoffController",
    "WaitDieController", "HybridController", "make_controller",
    "FAMILY_ROUTERS", "ShardRouter", "single_region_router",
    "stable_hash",
    "Transaction", "TxnStatus", "rollback",
    "ExecutionReport", "RefinementError", "RoundsExhausted",
    "SpeculativeExecutor",
]
