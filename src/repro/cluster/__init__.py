"""``repro.cluster``: scheduler-managed sweep execution.

The execution half of the sweep service (the serving half is
:mod:`repro.serve`).  A :class:`ClusterBackend` drives a pool of
``repro-worker`` processes through the shared frame protocol; every
worker-pool spec builds one — ``cluster:N``, ``subprocess:N`` (its
defaults) and ``ssh://host:N,...`` (each slot's worker started over ssh on
its own host).  It gives a long sweep on shared machines what it needs:

* a poll-loop **scheduler** (:mod:`repro.cluster.scheduler`) that spawns
  workers lazily up to a ``parallelmax``, dispatches chunks in the order
  the engine submits them (costliest first, a requeued chunk ahead of
  them all) and tracks a per-worker job context;
* **health probes** — workers emit heartbeat frames from a side thread
  (protocol v2), silence past a deadline marks the worker dead, dead
  workers are respawned with exponential backoff and their in-flight
  chunk is **requeued**, so a ``SIGKILL``-ed or hung worker never loses
  work (results persisted per chunk by the engine are never re-executed);
  a chunk that keeps killing its workers fails the batch once its requeues
  pass ``max_respawns``;
* a **roster** builder (:mod:`repro.cluster.roster`) naming every store
  key a scale's sweeps can produce — the keep-set for ``repro-store gc``.

See ``docs/RUNTIME.md`` ("The cluster backend") for the spec grammar and
the liveness protocol, and ``repro-cluster --help`` for the CLI.
"""

from .backend import ClusterBackend, parse_cluster_spec
from .scheduler import ChunkTicket, ClusterScheduler

__all__ = [
    "ChunkTicket",
    "ClusterBackend",
    "ClusterScheduler",
    "parse_cluster_spec",
]
