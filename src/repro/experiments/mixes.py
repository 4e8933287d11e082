"""Per-mix detection scorecard over the multi-program workload mixes.

Not a paper table: this experiment widens the memory study's workload
universe with the MPKI-ordered mixes of :mod:`repro.workloads.mixes`.  For
every mix it (a) builds the interleaved stream twice and asserts the content
digests agree — the determinism contract the store relies on — (b) extracts
SimPoint probes from the mix, (c) measures aggregate LLC MPKI on the
reference memory design, and (d) runs the unchanged two-stage detection
methodology with the mix probes standing in for the memory-study probes.
All simulation flows through the shared context engine/caches, so a
``--store`` replay performs zero new simulations.

When the context has a ``--trace-dir``, an extra ``mix-ingest`` row mixes up
to four of the discovered on-disk traces through the same path.

Opt-in: excluded from default ``run_all`` sweeps; select it with
``--mixes`` or ``--only mixes``.
"""

from __future__ import annotations

import numpy as np

from ..detect.detector import TwoStageDetector
from ..detect.probe import Probe, build_mix_probes
from ..simpoint.simpoint import SimPoint
from ..uarch.memory_presets import memory_microarch
from ..workloads.ingest import discover_traces
from ..workloads.mixes import DEFAULT_MIXES, MixSpec, build_mix
from .common import ExperimentContext, ExperimentResult, get_scale

EXPERIMENT_ID = "mixes"
TITLE = "Multi-program mix detection scorecard (mix1-mix7)"

#: Reference design MPKI is measured on (the Set IV running example).
REFERENCE_DESIGN = "Skylake-mem"


def _full_trace_probe(mix) -> Probe:
    """The whole mix as one weight-1.0 probe (exact, not SimPoint-sampled)."""
    bbv = np.bincount(
        [uop.block_id for uop in mix.uops], minlength=mix.num_blocks
    ).astype(float)
    simpoint = SimPoint(
        benchmark=mix.name, index=99, interval_index=0, weight=1.0,
        trace=mix.uops, bbv=bbv,
    )
    return Probe(simpoint=simpoint)


def _mix_llc_mpki(cache, mix, design) -> float:
    """LLC misses per kilo-instruction of the full mix stream on *design*.

    Measured through the shared simulation cache/engine, so the result is
    content-addressed in any attached store and replays without executing.
    """
    probe = _full_trace_probe(mix)
    cache.warm([(probe, design, None)])
    series = cache.get(probe, design).series
    misses = float(series.row("mem.llc.misses").sum())
    instructions = float(series.row("mem.instructions").sum())
    return 1000.0 * misses / max(1.0, instructions)


def _mix_specs(context: ExperimentContext) -> list[MixSpec]:
    """The default mixes, plus a mix of ingested traces when available."""
    specs = list(DEFAULT_MIXES)
    if context.trace_dir is not None:
        names = tuple(
            ingested.name
            for ingested in discover_traces(context.trace_dir, context.trace_format)
        )[:4]
        if names:
            specs.append(
                MixSpec("mix-ingest", names, "discovered on-disk traces interleaved")
            )
    return specs


def run_mix_scorecard(
    context: ExperimentContext, specs: list[MixSpec] | None = None
) -> ExperimentResult:
    """Build, measure and run detection on every mix in *specs*."""
    scale = context.scale
    specs = _mix_specs(context) if specs is None else list(specs)
    reference = memory_microarch(REFERENCE_DESIGN)
    rows: list[dict[str, object]] = []
    for index, spec in enumerate(specs):
        mix = build_mix(
            spec,
            instructions=scale.mix_instructions,
            chunk=scale.mix_chunk,
            seed=scale.seed,
            trace_dir=context.trace_dir,
        )
        rebuilt = build_mix(
            spec,
            instructions=scale.mix_instructions,
            chunk=scale.mix_chunk,
            seed=scale.seed,
            trace_dir=context.trace_dir,
        )
        if mix.digest != rebuilt.digest:  # pragma: no cover - determinism guard
            raise AssertionError(
                f"mix {spec.name!r} is not deterministic: "
                f"{mix.digest} != {rebuilt.digest}"
            )
        probes = build_mix_probes(
            [mix],
            interval_size=max(1, scale.mix_instructions // 4),
            max_simpoints_per_mix=scale.mix_max_simpoints,
            seed=scale.seed + 300 + index,
        )
        mpki = _mix_llc_mpki(context.memory_cache, mix, reference)
        setup = context.memory_detection_setup(probes=probes)
        detection = TwoStageDetector(setup).evaluate()
        rows.append(
            {
                "Mix": mix.name,
                "Components": "+".join(c.name for c in mix.components),
                "Instr": len(mix),
                "Probes": len(probes),
                "LLC MPKI": mpki,
                "FPR": detection.overall.fpr,
                "TPR": detection.overall.tpr,
                "Precision": detection.overall.precision,
            }
        )
    notes = (
        "Mixes are ordered by aggregate memory intensity; LLC MPKI "
        f"(on {REFERENCE_DESIGN}) should rise from mix1 to mix7.  Detection "
        "quality should hold across the intensity range."
    )
    summary = (
        f"mixes={len(rows)} chunk={scale.mix_chunk} "
        f"instructions={scale.mix_instructions} digests=stable"
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes, summary=summary)


def run(scale: str = "smoke", context: ExperimentContext | None = None) -> ExperimentResult:
    """Run the mix scorecard over the default mixes (plus any ingested mix)."""
    context = context or ExperimentContext(get_scale(scale))
    return run_mix_scorecard(context)
