"""Detection model serving: train once, keep resident, answer over a socket.

The offline pipeline answers "does this design have a bug?" by spinning up
an experiment: train the two-stage detector, simulate the design under
test, score it, exit.  This package splits that lifecycle so detection
runs at interactive latency:

* :mod:`~repro.serve.registry` — train the engine **once** and persist it
  with its feature/counter schema and training-data provenance; loading
  refuses schema mismatches instead of serving wrong verdicts.
* :mod:`~repro.serve.session` — the warm request path: dedup probe jobs
  against an in-memory overlay plus the persistent result store, run the
  misses through the batch planner, score with the resident model.
* :mod:`~repro.serve.server` — ``repro-serve``, a long-running socket
  daemon speaking the runtime's length-prefixed pickle frame protocol
  (:mod:`repro.runtime.framing`), one serving thread per connection.
* :mod:`~repro.serve.client` — ``repro-client`` and the programmatic
  :class:`~repro.serve.client.ServeClient` used by tests, CI and the
  ``repro-bench`` serve section.

See ``docs/SERVING.md`` for the protocol and operational story.
"""

from .registry import (
    ModelSchema,
    RegisteredModel,
    RegistryError,
    Verdict,
    load_model,
    offline_verdicts,
    save_model,
    train_model,
)
from .session import ServingSession

__all__ = [
    "DetectionServer",
    "ModelSchema",
    "RegisteredModel",
    "RegistryError",
    "ServeClient",
    "ServingSession",
    "Verdict",
    "load_model",
    "offline_verdicts",
    "save_model",
    "train_model",
]


def __getattr__(name: str):
    # Loaded on first use, so ``python -m repro.serve.server`` and
    # ``python -m repro.serve.client`` do not find their own module already
    # imported by this package.
    if name == "DetectionServer":
        from .server import DetectionServer

        return DetectionServer
    if name == "ServeClient":
        from .client import ServeClient

        return ServeClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
