"""Tracked performance benchmarks for the simulation hot path.

``repro-bench`` (:mod:`repro.bench.perf`) times the three layers every
experiment sits on — single-simulation throughput, job-engine batch
throughput and warm-store replay — and emits ``BENCH_simulation.json`` so
successive PRs leave a comparable perf trajectory.
"""
