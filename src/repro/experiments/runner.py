"""Run every table/figure experiment and render a combined report.

Usage::

    python -m repro.experiments.runner --scale smoke
    python -m repro.experiments.runner --scale small --only tab5 tab7
    python -m repro.experiments.runner --scale small --jobs 8 --store .repro-store
    python -m repro.experiments.runner --scale small --backend subprocess:4

``--jobs N`` shards the underlying simulations across N local worker
processes (sugar for ``--backend local:N``); ``--backend SPEC`` selects any
execution backend — ``serial``, ``local:N``, ``subprocess:N`` /
``cluster:N`` (local ``repro-worker`` processes over the stdio frame
protocol, under the cluster scheduler) or ``ssh://hostA:4,hostB:4`` (the
same scheduler, workers over ssh; see ``docs/RUNTIME.md``).  ``--store PATH`` persists every simulated counter
series keyed by content
hash, so a repeat invocation (same scale/experiments) performs zero new
simulations.  ``--trace-dir DIR [--trace-format champsim|gem5|k6]`` swaps the
synthetic workloads for on-disk traces (see ``docs/TRACES.md``): probes are
SimPoint-extracted from the ingested streams and flow through the same
engine, store and detection path.  ``--mixes`` adds the multi-program mix
scorecard (opt-in; also reachable as ``--only mixes``), which renders an
extra ``[mixes]`` bracket line at the end of the report.  The installed
``repro-experiments`` console script is an alias for this module.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable

from .. import blas_threads
from . import (
    fig1_speedup,
    fig3_simpoint_ipc,
    fig4_severity,
    fig5_traces,
    fig6_bug_vs_bugfree,
    fig8_roc,
    fig9_probes,
    fig10_counters,
    fig11_timestep,
    fig12_arch_features,
    fig13_training_archs,
    mixes as mixes_experiment,
    table4_ipc_modeling,
    table5_detection,
    table6_window,
    table7_memory,
)
from .common import ExperimentContext, ExperimentResult, get_scale

#: All experiments in paper order: id -> run callable.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_speedup.run,
    "fig3": fig3_simpoint_ipc.run,
    "fig4": fig4_severity.run,
    "tab4": table4_ipc_modeling.run,
    "fig5": fig5_traces.run,
    "fig6": fig6_bug_vs_bugfree.run,
    "tab5": table5_detection.run,
    "fig8": fig8_roc.run,
    "fig9": fig9_probes.run,
    "fig10": fig10_counters.run,
    "fig11": fig11_timestep.run,
    "tab6": table6_window.run,
    "fig12": fig12_arch_features.run,
    "fig13": fig13_training_archs.run,
    "tab7": table7_memory.run,
    "mixes": mixes_experiment.run,
}

#: Experiments excluded from default sweeps; run via --only or their flag.
OPT_IN = frozenset({"mixes"})


def run_all(
    scale: str = "smoke",
    only: list[str] | None = None,
    context: ExperimentContext | None = None,
    jobs: int | None = None,
    store: str | None = None,
    trace_dir: str | None = None,
    trace_format: str | None = None,
    backend: str | None = None,
    mixes: bool = False,
) -> list[ExperimentResult]:
    """Run the selected experiments, sharing one context, and return results.

    *jobs*, *store*, *trace_dir*, *trace_format* and *backend* configure the
    implicitly created context (see :class:`ExperimentContext`); they are
    ignored when an explicit *context* is passed.  Opt-in experiments (the
    mix scorecard) only run when named in *only* or enabled by *mixes*.
    """
    if not only:
        chosen = [e for e in EXPERIMENTS if e not in OPT_IN or (mixes and e == "mixes")]
    else:
        chosen = [e for e in EXPERIMENTS if e in set(only)]
        if mixes and "mixes" not in chosen:
            chosen.append("mixes")
    unknown = set(only or []) - set(EXPERIMENTS)
    if unknown:
        raise KeyError(f"unknown experiment ids: {sorted(unknown)}")
    context = context or ExperimentContext(
        get_scale(scale), jobs=jobs, store_path=store,
        trace_dir=trace_dir, trace_format=trace_format, backend=backend,
    )
    results = []
    for experiment_id in chosen:
        results.append(EXPERIMENTS[experiment_id](scale=scale, context=context))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke", choices=["smoke", "small", "full"])
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiment ids to run (default: all)")
    parser.add_argument("--output", default=None,
                        help="optional path to write the combined report")
    parser.add_argument("--jobs", type=int, default=None,
                        help="simulation worker processes, sugar for "
                             "--backend local:N "
                             "(default: $REPRO_JOBS or 1 = serial)")
    parser.add_argument("--backend", default=None,
                        help="execution backend spec: serial, local:N, "
                             "subprocess:N, cluster:N or ssh://host:N,host2:N "
                             "(default: $REPRO_BACKEND; see docs/RUNTIME.md)")
    parser.add_argument("--store", default=None,
                        help="directory of a persistent simulation result store; "
                             "repeat runs against it never re-simulate")
    parser.add_argument("--trace-dir", default=None,
                        help="directory of on-disk traces; probes are extracted "
                             "from these instead of from synthetic workloads")
    parser.add_argument("--trace-format", default=None,
                        choices=["champsim", "gem5", "k6"],
                        help="restrict --trace-dir ingestion to one format "
                             "(default: every recognised trace file)")
    parser.add_argument("--mixes", action="store_true",
                        help="also run the multi-program mix scorecard "
                             "(opt-in; equivalent to adding 'mixes' to --only)")
    args = parser.parse_args(argv)
    if args.trace_format is not None and args.trace_dir is None:
        parser.error("--trace-format requires --trace-dir")
    if args.backend is not None and args.jobs is not None:
        parser.error("--jobs and --backend are mutually exclusive "
                     "(--jobs N is sugar for --backend local:N)")

    start = time.time()
    context = ExperimentContext(
        get_scale(args.scale), jobs=args.jobs, store_path=args.store,
        trace_dir=args.trace_dir, trace_format=args.trace_format,
        backend=args.backend,
    )
    results = run_all(scale=args.scale, only=args.only, context=context,
                      mixes=args.mixes)
    report = "\n\n".join(result.to_text() for result in results)
    report += f"\n\nTotal runtime: {time.time() - start:.1f}s at scale '{args.scale}'\n"
    for result in results:
        if result.summary:
            report += f"[{result.experiment_id}] {result.summary}\n"
    if args.trace_dir is not None:
        # Report only probe sets the experiments actually built — forcing a
        # build here would run SimPoint extraction just to print a count.
        built = [
            f"{label}={len(probes)}"
            for label, probes in (
                ("probes", context._probes),
                ("memory_probes", context._memory_probes),
            )
            if probes is not None
        ]
        report += (
            f"[workloads] source=ingested trace_dir={args.trace_dir} "
            f"format={args.trace_format or 'auto'} {' '.join(built) or 'probes=0'}\n"
        )
    stats = context.engine.stats
    report += (
        f"[runtime] backend={context.engine.backend.spec} "
        f"jobs={context.engine.jobs} simulations={stats.jobs} "
        f"executed={stats.executed} store_hits={stats.store_hits} "
        f"batches={stats.batches} blas_threads={blas_threads()}\n"
        f"[scheduler] chunks={stats.chunks} "
        f"pool_creates={stats.pool_creates} pool_reuses={stats.pool_reuses} "
        f"traces_shipped={stats.traces_shipped} trace_deltas={stats.trace_deltas} "
        f"straggler_jobs={stats.straggler_jobs} "
        f"workers={stats.workers_spawned}/{stats.workers_lost}lost"
        f"/{stats.workers_respawned}respawned "
        f"chunks_requeued={stats.chunks_requeued}\n"
    )
    context.close()
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
