"""The networked serving tier: HTTP gateway over a worker fleet.

This package is the first multi-process layer of the system — the
point where the in-process serving stack (`repro.serving`) becomes a
topology::

            clients (HTTP/1.1 keep-alive)
                      │
              GatewayServer            asyncio, stdlib only
          natural batching: leave at   (frames ≤ max_batch, formed
          once if a worker is idle     only while all workers are busy)
                      │
               WorkerPool              checkout routing, retries,
          version handshake (min_version), restart-on-death
              │              │
         worker proc …  worker proc    fresh interpreters over a
         RegistryWatcher → memmapped   socketpair; each watches the
         ModelSnapshot → Recommendation shared snapshot source and
         Service (version-pinned)       serves one pinned version
              └──────┬───────┘
            shared snapshot source     SnapshotCatalog / DurableSweep
            (page cache shared)        store / plain snapshot dir

Guarantees, in one line each: every response is computed under exactly
one model version (pinning); no **non-stale** response is ever
computed from a model older than one the fleet already served (the
``min_version`` handshake → monotonic reads; degraded-mode responses
step outside the floor and say so with ``stale: true``); worker death
is retried or cleanly failed, never hung (checkout + deadline budget +
per-slot restart loop); a crash-looping worker is rate-limited by its
slot's circuit breaker, not respawned at full speed; overload is shed
at the edge (429) instead of queueing without bound.
"""

# repro.gateway.worker is deliberately NOT imported here: the package
# must stay importable before ``python -m repro.gateway.worker`` runs
# the module as ``__main__`` (importing it from the package first makes
# runpy execute a second copy).
from repro.gateway.server import GatewayServer
from repro.gateway.supervisor import CircuitBreaker, WorkerHandle, WorkerPool

__all__ = [
    "CircuitBreaker",
    "GatewayServer",
    "WorkerHandle",
    "WorkerPool",
]
