"""Table IV: stage-1 IPC-modelling runtime and inference-error statistics.

For every ML engine in the scale's engine list, trains one model per probe on
the bug-free Set-I/Set-II data and evaluates Equation-(1) inference errors on
the bug-free Set-IV designs, reporting training/inference wall-clock time and
the average / standard deviation / median / 90th-percentile error.  Every
engine reads the same simulations, so they run once, before the first engine
is timed: each row's times are its own fits and error vectors.
"""

from __future__ import annotations

import time

import numpy as np

from ..detect.detector import TwoStageDetector
from .common import ExperimentContext, ExperimentResult, get_scale

EXPERIMENT_ID = "tab4"
TITLE = "IPC modelling runtime and error statistics (Table IV)"


def run(scale: str = "smoke", context: ExperimentContext | None = None) -> ExperimentResult:
    """Regenerate Table IV for the engines enabled at this scale."""
    context = context or ExperimentContext(get_scale(scale))
    sets = context.core_designs()
    test_designs = sets["IV"]
    context.cache.warm(
        (probe, design, None)
        for design in sets["I"] + sets["II"] + test_designs
        for probe in context.probes
    )
    rows: list[dict[str, object]] = []

    for engine in context.scale.engines:
        setup = context.detection_setup(engine=engine)
        detector = TwoStageDetector(setup)

        start = time.perf_counter()
        detector.prepare()
        training_time = time.perf_counter() - start

        start = time.perf_counter()
        errors: list[float] = []
        for design in test_designs:
            errors.extend(detector.error_vector(design, None).tolist())
        inference_time = time.perf_counter() - start

        error_array = np.asarray(errors)
        rows.append(
            {
                "ML Model": engine,
                "Training (s)": training_time,
                "Inference (s)": inference_time,
                "Average": float(error_array.mean()),
                "Std. Dev.": float(error_array.std()),
                "Median": float(np.median(error_array)),
                "90th Perc.": float(np.percentile(error_array, 90)),
            }
        )

    notes = (
        "Errors use Equation (1) on bug-free Set-IV designs, as in the paper. "
        "Wall-clock times are for the scaled-down probe set on this machine; only "
        "the relative ordering (Lasso/GBT fast, deep networks slow) is meaningful."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes)
