"""Gated performance benchmarks for the simulation kernels.

``repro-bench`` (:mod:`repro.bench.perf`) times the optimized scalar
pipeline against the frozen seed pipeline and the compiled native kernel
against the scalar one, and emits ``BENCH_simulation.json``;
:mod:`repro.bench.ratchet` gates both speedups against the previous run.
End-to-end numbers come from ``perfbench/run.py``.
"""
