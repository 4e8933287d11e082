"""Roster building: every store key a scale's detection sweeps can produce.

``repro-store gc`` prunes a shared :class:`~repro.runtime.store.ResultStore`
down to the entries *reachable from a roster* — the set of
(config, bug, trace, step) keys the current experiment configuration can
ever ask for.  Store keys are content-addressed digests, so reachability
cannot be inferred from the store itself; it has to be recomputed from the
same inputs the experiments use.  This module is that computation, built
on the very classes the sweeps run through
(:class:`~repro.experiments.common.ExperimentContext`,
:class:`~repro.runtime.job.SimulationJob`), so the roster is consistent
with the sweeps *by construction*: a key an experiment writes is a key the
roster names, as long as both were built from the same scale, trace
directory and design/bug universe.

The roster covers the full cross product — every core design set (I–IV) ×
(bug-free + every bug variant) × every probe at the scale's step, plus the
memory-study counterpart — which is a superset of what any single
table/figure run touches.  GC with a superset roster is safe (it only
keeps more); GC with a *stale* roster (different scale or trace set) is
the operator's deliberate choice to drop those entries.

CLI: ``repro-cluster roster --scale smoke [--trace-dir D] > roster.txt``
then ``repro-store gc STORE --keep roster.txt``.
"""

from __future__ import annotations

from typing import Iterable

from ..bugs.registry import (
    figure1_bug1,
    figure1_bug2,
    tableV_bug1,
    tableV_bug2,
)
from ..runtime.job import CORE_STUDY, MEMORY_STUDY, SimulationJob, job_keys, trace_digest


def _design_universe(sets: "dict[str, list]") -> list:
    designs = []
    seen = set()
    for name in sorted(sets):
        for design in sets[name]:
            marker = getattr(design, "name", repr(design))
            if marker not in seen:
                seen.add(marker)
                designs.append(design)
    return designs


def _bug_universe(suite: "dict[str, list]", named: tuple = ()) -> list:
    bugs: list = [None]  # bug-free runs are part of every sweep
    for bug_type in sorted(suite):
        bugs.extend(suite[bug_type])
    bugs.extend(named)
    return bugs


def _named_core_bugs() -> tuple:
    # The fig1/fig3/fig6/tab5 experiments inject the paper's explicitly
    # named bugs unconditionally, even when the scale's variant limits
    # exclude them from the suite — the roster must cover them too.
    return (figure1_bug1(), figure1_bug2(), tableV_bug1(), tableV_bug2())


def roster_keys(context) -> "list[str]":
    """Every store key the *context*'s core and memory sweeps can produce.

    *context* is an :class:`~repro.experiments.common.ExperimentContext`;
    the scale, trace source, design sets and bug suites are read from it so
    the roster tracks exactly what the experiments would simulate.
    """
    scale = context.scale
    core_bugs = _bug_universe(context.core_bugs(), _named_core_bugs())
    core_digests = [trace_digest(probe.decoded) for probe in context.probes]
    jobs = [
        SimulationJob(
            study=CORE_STUDY,
            config=design,
            bug=bug,
            trace_id=digest,
            step=scale.step_cycles,
        )
        for design in _design_universe(context.core_designs())
        for bug in core_bugs
        for digest in core_digests
    ]
    memory_bugs = _bug_universe(context.memory_bugs())
    memory_digests = [
        trace_digest(probe.decoded) for probe in context.memory_probes
    ]
    jobs.extend(
        SimulationJob(
            study=MEMORY_STUDY,
            config=design,
            bug=bug,
            trace_id=digest,
            step=scale.memory_step_instructions,
        )
        for design in _design_universe(context.memory_designs())
        for bug in memory_bugs
        for digest in memory_digests
    )
    return sorted(set(job_keys(jobs)))


def write_roster(keys: Iterable[str], stream) -> int:
    """Write one key per line (the ``repro-store gc --keep`` format)."""
    count = 0
    for key in keys:
        stream.write(f"{key}\n")
        count += 1
    return count


def read_roster(path: str) -> "set[str]":
    """Read a keep-set written by :func:`write_roster` (``#`` comments ok)."""
    keys: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                keys.add(line)
    return keys
