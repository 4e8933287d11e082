"""Gated performance benchmark for the simulation kernels.

``repro-bench`` (:mod:`repro.bench.perf`) times the compiled native kernel
against the Python fallback and emits ``BENCH_simulation.json``;
:mod:`repro.bench.ratchet` gates that speedup against the previous run.
End-to-end numbers come from ``perfbench/run.py``.
"""
