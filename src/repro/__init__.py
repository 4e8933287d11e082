"""repro — reproduction of "Automatic Microprocessor Performance Bug Detection".

The package is organised as:

* :mod:`repro.workloads` — synthetic SPEC CPU2006-like workloads and traces,
* :mod:`repro.simpoint` — SimPoint-based probe extraction,
* :mod:`repro.uarch` — microarchitecture configurations (Tables II/III),
* :mod:`repro.coresim` — cycle-level out-of-order core simulator (gem5 stand-in),
* :mod:`repro.memsim` — cache-hierarchy simulator (ChampSim stand-in),
* :mod:`repro.bugs` — the 14 core and 6 memory performance-bug types,
* :mod:`repro.ml` — from-scratch NumPy regression engines (Lasso/MLP/CNN/LSTM/GBT),
* :mod:`repro.detect` — the paper's two-stage detection methodology and baseline,
* :mod:`repro.runtime` — parallel simulation job engine + persistent result store,
* :mod:`repro.experiments` — regeneration of every table and figure.

Quickstart::

    from repro.detect import build_probes, SimulationCache, DetectionSetup, TwoStageDetector
    from repro.uarch import core_set
    from repro.bugs import core_bug_suite

    probes = build_probes(["403.gcc", "458.sjeng"], 40_000, 4_000)
    setup = DetectionSetup(
        probes=probes,
        train_designs=core_set("I"),
        val_designs=core_set("II"),
        stage2_designs=core_set("II") + core_set("III"),
        test_designs=core_set("IV"),
        bug_suite=core_bug_suite(max_variants_per_type=1),
        cache=SimulationCache(),
    )
    result = TwoStageDetector(setup).evaluate()
    print(result.summary_row())
"""

import os as _os

__version__ = "1.0.0"

#: The variables OpenBLAS reads its thread count from, in its order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# One BLAS thread unless the user chose a count: the stage-1 and stage-2
# matrices are small (tens of rows), and a second thread makes them slower.
# This runs before any submodule imports numpy, whose OpenBLAS reads the
# variables once, when it loads, and every process the program starts
# inherits them.  A count set in either variable is kept, and so is the
# other variable's absence.
if not any(_os.environ.get(name) for name in BLAS_THREAD_VARS):
    _os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


def blas_threads() -> str:
    """The BLAS thread count this process's environment asks for."""
    for name in BLAS_THREAD_VARS:
        if _os.environ.get(name):
            return _os.environ[name]
    return "default"

__all__ = [
    "workloads",
    "simpoint",
    "uarch",
    "coresim",
    "memsim",
    "bugs",
    "ml",
    "detect",
    "experiments",
]
