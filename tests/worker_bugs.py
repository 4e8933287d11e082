"""Bug models that misbehave inside a worker, for the backend failure tests.

Spawned ``repro-worker`` processes unpickle these by reference, so they live
in a module that imports nothing beyond the bug-model base: a worker that
resolves one (with this directory on its ``PYTHONPATH``) pays for no
test-suite imports.
"""

import os
import signal

from repro.coresim.hooks import CoreBugModel


class ExplodingBug(CoreBugModel):
    """Picklable bug model that fails as soon as simulation starts."""

    name = "exploding"

    def on_simulation_start(self, config) -> None:
        raise RuntimeError("boom at simulation start")


class WorkerKillerBug(CoreBugModel):
    """Kills the worker process outright: a transport failure, not a job one."""

    name = "worker-killer"

    def on_simulation_start(self, config) -> None:
        os.kill(os.getpid(), signal.SIGKILL)
