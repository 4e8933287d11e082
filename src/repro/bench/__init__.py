"""The perfbench gate.

End-to-end numbers come from ``perfbench/run.py``; :mod:`repro.bench.ratchet`
holds a CI run of it to the previous ``main`` run, as ``BENCHMARK.json``
declares.
"""
