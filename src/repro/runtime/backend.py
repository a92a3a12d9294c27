"""Transport-neutral admission backends.

The speculative executor never cared *where* admission decisions come
from — it needs ``shards_for`` / ``check_many`` / ``record`` /
``release`` and, at the end of a run, the admission counters.  This
module names that contract: an :class:`AdmissionBackend` builds one
admission manager per execution.  :class:`LocalAdmissionBackend` hands
out the in-process :class:`~repro.runtime.gatekeeper.ConflictManager`;
:class:`repro.service.client.ServiceBackend` hands out one remote
manager, for a single server and a cluster alike: the same executor,
the same workloads, but every admission decision made by remote asyncio
servers over the wire.

Decision identity is the invariant: for the same (structure, workload,
policy, seed) a served execution must produce a byte-identical
:meth:`~repro.runtime.executor.ExecutionReport.decision_digest` to the
in-process one.
"""

from __future__ import annotations

from .gatekeeper import ConflictManager


class AdmissionBackend:
    """Factory for per-execution admission managers.

    ``kind`` labels the backend on reports; ``supports_threads`` gates
    the executor's threaded modes (a remote manager cannot hand out
    its shard locks, so served executions are per-process serial —
    cross-process parallelism comes from running many client
    processes, which is the deployment shape the service exists for).
    """

    kind = "abstract"
    supports_threads = False

    def conflict_manager(self, ds_name: str, *,
                         policy: str = "commutativity", shards: int = 1,
                         stable: bool = False) -> ConflictManager:
        """A fresh admission manager for one execution."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any long-lived resources (connections)."""


class LocalAdmissionBackend(AdmissionBackend):
    """The in-process path: admission managers over this process's
    registry, exactly the pre-service behaviour."""

    kind = "local"
    supports_threads = True

    def __init__(self, registry=None) -> None:
        self.registry = registry

    def conflict_manager(self, ds_name: str, *,
                         policy: str = "commutativity", shards: int = 1,
                         stable: bool = False) -> ConflictManager:
        return ConflictManager(ds_name, policy, registry=self.registry,
                               shards=shards, stable=stable)


def resolve_backend(backend: AdmissionBackend | None,
                    registry=None) -> AdmissionBackend:
    """``None`` means the in-process backend over ``registry``."""
    if backend is None:
        return LocalAdmissionBackend(registry)
    return backend
