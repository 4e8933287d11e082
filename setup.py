"""Package metadata and installation entry points.

``pip install -e .`` makes the ``repro`` package importable without
``PYTHONPATH`` tricks and installs the console scripts:

* ``repro-experiments`` — the ``python -m repro.experiments.runner`` CLI
  (``--scale``, ``--only``, ``--jobs``, ``--backend``, ``--store``,
  ``--trace-dir``, ``--trace-format``, ``--mixes``);
* ``repro-ingest`` — on-disk trace inspection
  (``python -m repro.workloads.ingest``: lists format
  (ChampSim/gem5/k6-style), instruction count, digest and optional SimPoint
  probes for each trace in a directory);
* ``repro-worker`` — the pool execution worker
  (``python -m repro.runtime.worker``): serves simulation chunks over the
  stdio frame protocol for the cluster scheduler behind the
  ``subprocess:``, ``cluster:`` and ``ssh://`` backends (see
  ``docs/RUNTIME.md``);
* ``repro-store`` — result-store maintenance
  (``python -m repro.runtime.store_cli``: ``merge SRC... DST``, ``info``
  entry and per-shard counts, ``gc --keep`` roster-based pruning);
* ``repro-cluster`` — operate the cluster scheduler's worker pool
  (``python -m repro.cluster.cli``: ``health`` worker liveness probe,
  ``roster`` store-key keep-set for ``repro-store gc``, ``plan`` dry-run
  of the chunk plan for N worker slots; see ``docs/RUNTIME.md``);
* ``repro-serve`` — the detection serving daemon
  (``python -m repro.serve.server``): ``train`` persists a detection model
  to a registry file, ``run`` serves it over a socket at interactive
  latency (see ``docs/SERVING.md``);
* ``repro-client`` — the daemon's client
  (``python -m repro.serve.client``: ``probe``, ``ping``, ``stats``,
  ``shutdown``), including the ``--offline`` reference scoring path CI
  diffs the daemon against;
* ``repro-lint`` — static contract analysis
  (``python -m repro.analysis``): checks the kernels' counter-name
  universe, determinism lints, protocol constants and the native
  ``-Werror`` gate (see ``docs/ANALYSIS.md``).

End-to-end benchmark numbers come from ``perfbench/run.py``, run from a
checkout, and ``python -m repro.bench.ratchet`` gates them in CI.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hpca21-bug-detection",
    version="0.9.0",
    description=(
        "Reproduction of Barboza et al. (HPCA'21): ML-based detection of "
        "performance bugs in microprocessor designs"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The native kernel compiles its C source lazily at runtime, so the
    # source must ship inside the installed package.
    package_data={"repro.coresim.native": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-ingest=repro.workloads.ingest:main",
            "repro-worker=repro.runtime.worker:main",
            "repro-store=repro.runtime.store_cli:main",
            "repro-cluster=repro.cluster.cli:main",
            "repro-serve=repro.serve.server:main",
            "repro-client=repro.serve.client:main",
            "repro-lint=repro.analysis.cli:main",
        ],
    },
)
