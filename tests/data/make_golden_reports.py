"""Regenerate ``golden_reports.json``: one digest per paper experiment.

Each digest covers one experiment's ``smoke``-scale rows and summary line,
with every float as its exact ``repr``.  Table IV's ``Training (s)`` and
``Inference (s)`` columns are left out: they are wall times, the only
timing values any experiment reports.  ``benchmarks/conftest.py``'s
``run_experiment`` fixture checks the digest of every table and figure the
benchmarks regenerate, and ``tests/test_mixes.py`` checks the opt-in
``mixes`` scorecard.

Before writing, the script runs every experiment twice and refuses to write
unless the two runs agree:

* in this process, with the C kernels, each experiment in a fresh
  :class:`~repro.experiments.common.ExperimentContext`, so no digest can
  depend on what ran before it;
* in a subprocess under ``REPRO_NATIVE_CC=`` (no compiler: both simulators
  and the GBT fit run their Python fallbacks), every experiment sharing one
  context in paper order, the way the benchmark session shares one.

Run it ONLY for a deliberate, reviewed change to an experiment's results::

    PYTHONPATH=src python tests/data/make_golden_reports.py

and say in the commit why each changed digest changed.
"""

import hashlib
import json
import numbers
import os
import platform
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden_reports.json"

#: Scale the digests are pinned at.
SCALE = "smoke"

#: Columns left out of an experiment's digest (wall times).
TIMING_COLUMNS = {"tab4": ("Training (s)", "Inference (s)")}


def _canonical(value):
    """A JSON value that states *value* exactly (floats as ``repr``)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if type(value).__name__ == "bool_":  # numpy.bool_
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return repr(float(value))
    raise TypeError(f"cannot pin a report value of type {type(value).__name__}")


def report_payload(result) -> dict:
    """The pinned part of an ``ExperimentResult``: rows and summary."""
    dropped = TIMING_COLUMNS.get(result.experiment_id, ())
    rows = [
        [[key, _canonical(value)] for key, value in row.items() if key not in dropped]
        for row in result.rows
    ]
    return {"rows": rows, "summary": result.summary}


def report_digest(result) -> str:
    """blake2b digest of :func:`report_payload`."""
    text = json.dumps(report_payload(result), separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def golden_digest(experiment_id: str) -> str:
    """The pinned digest of *experiment_id*."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"][experiment_id]


def _digests(shared: bool) -> dict:
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS

    digests = {}
    context = ExperimentContext(SCALE) if shared else None
    for experiment_id, run in EXPERIMENTS.items():
        if shared:
            result = run(scale=SCALE, context=context)
        else:
            with ExperimentContext(SCALE) as fresh:
                result = run(scale=SCALE, context=fresh)
        digests[experiment_id] = report_digest(result)
        print(f"{experiment_id:6s} {digests[experiment_id]}", file=sys.stderr)
    if context is not None:
        context.close()
    return digests


def main(argv: "list[str]") -> int:
    if argv[1:] == ["--shared"]:
        print(json.dumps(_digests(shared=True)))
        return 0
    from repro.coresim import native_available

    if not native_available():
        raise SystemExit("no C compiler found: the native run cannot be verified")
    print("with the compiler, one fresh context per experiment:", file=sys.stderr)
    native = _digests(shared=False)
    print("REPRO_NATIVE_CC= (no compiler), one shared context:", file=sys.stderr)
    env = dict(os.environ, REPRO_NATIVE_CC="")
    output = subprocess.run(
        [sys.executable, __file__, "--shared"], env=env, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout
    fallback = json.loads(output.strip().splitlines()[-1])
    differing = sorted(k for k in native if native[k] != fallback.get(k))
    if differing or set(native) != set(fallback):
        raise SystemExit(f"the two runs disagree on {differing}: not writing")
    import numpy

    payload = {
        "comment": (
            "Digests of each experiment's smoke-scale rows and summary "
            "(floats as exact reprs; Table IV's timing columns dropped). "
            "Regenerate ONLY via make_golden_reports.py."
        ),
        "scale": SCALE,
        "verified": {
            "runs": [
                "C kernels, one fresh context per experiment",
                "REPRO_NATIVE_CC= (Python fallbacks), one shared context "
                "in paper order",
            ],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "dropped_columns": {k: list(v) for k, v in TIMING_COLUMNS.items()},
        "digests": native,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
