"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload has three parts:

* ``setup(mark)`` — the work a user pays before the first result (timed as
  ``setup_s``; the cheap, repeatable part runs :data:`SETUP_REPEATS` times
  and its median counts).  ``mark()`` is called once, when the first repeat
  ends, so a traced run can attribute one build of the set-up;
* ``run_pass()`` — the timed phase, returning a :class:`PassOutcome`;
* ``fresh()`` — untimed reset so a further pass does the same work again;
  when it raises, the next pass fails every operation.

Every duration is read off the workload's clock (``hostclock.py``): in
reference seconds in untraced runs, in plain elapsed seconds in traced ones.
Every pass hashes its outputs for the output check in ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.bugs.registry import core_bug_suite
from repro.coresim.native import native_available
from repro.detect.detector import TwoStageDetector
from repro.experiments import table4_ipc_modeling
from repro.experiments.common import ExperimentContext, ExperimentScale
from repro.runtime import ResultStore
from repro.serve.client import ServeClient
from repro.serve.registry import load_model, save_model, train_model
from repro.serve.server import DetectionServer
from repro.uarch.presets import core_microarch

from hostclock import HostClock

#: Cheap set-up steps are repeated this many times; ``setup_s`` takes the median.
SETUP_REPEATS = 5

#: The benchmark's own scale: equal to ``SMOKE`` when the benchmark was
#: defined, pinned here so editing ``SMOKE`` cannot change the measured work.
BENCH_SCALE = ExperimentScale(
    name="smoke",
    benchmarks=("403.gcc", "458.sjeng"),
    instructions_per_benchmark=15_000,
    interval_size=3_000,
    max_simpoints=3,
    step_cycles=512,
    bug_variants_per_type=1,
    bug_types=(
        "Serialized",
        "IfOldestIssueOnlyX",
        "MispredictDelay",
        "L2LatencyIncrease",
        "RegisterReduction",
    ),
    engines=("Lasso", "GBT-150", "1-MLP-500"),
    default_engine="GBT-150",
    nn_max_epochs=40,
    nn_patience=15,
    train_arch_limit=None,
    stage2_arch_limit=None,
    test_arch_limit=None,
    memory_benchmarks=("403.gcc", "426.mcf"),
    memory_instructions=40_000,
    memory_step_instructions=2_000,
    seed=7,
)

#: serve-stream items: the Set-IV designs, each bug-free and with the first
#: variant of every core bug type (4 x 15 = 60 items).  ``repro-bench``'s
#: serve section sends the same shape: 4 designs x (bug-free + 14 bugs).
SERVE_DESIGNS = ("K8", "K10", "Silvermont", "Skylake")
SERVE_BUG_TYPES = (
    "Serialized", "IssueXOnlyIfOldest", "IfOldestIssueOnlyX", "IfXDependsOnYDelayT",
    "IQPressureDelay", "ROBPressureDelay", "MispredictDelay", "NStoresToLineDelay",
    "NStoresToRegisterDelay", "L2LatencyIncrease", "RegisterReduction",
    "LongBranchDelay", "IfXUsesRegNDelayT", "BPTableReduction",
)
#: serve-stream traffic follows ``repro-bench``'s serve section: one cold
#: round over every item, then this many warm rounds (its
#: ``SERVE_WARM_ROUNDS`` when the benchmark was defined), so 1 request in 6
#: is cold.
SERVE_WARM_ROUNDS = 5


def digest(payload) -> str:
    """Short content hash of a JSON-able payload (floats as exact reprs)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def _exact(value: float) -> str:
    return repr(float(value))


@dataclass
class PassOutcome:
    """What one timed pass produced, for the output check and the metrics."""

    wall_s: float
    #: operation group -> (operations, operations that failed inside the
    #: pass, digest of the group's outputs or None when there are none)
    groups: dict[str, tuple[int, int, "str | None"]]
    latencies_ms: list[float] = field(default_factory=list)
    tpr: float = 0.0
    tnr: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    #: ``wall_s`` and ``latencies_ms`` in plain elapsed time, for the run's
    #: stderr summary.
    elapsed_s: float = 0.0
    elapsed_latencies_ms: list[float] = field(default_factory=list)


class _FoldClock:
    """Records when each leave-one-out fold of a study has its verdicts.

    A batch study answers every verdict of a fold when that fold's
    evaluation returns, so the verdict latency is the time from the start
    of the pass to the end of each fold: one sample per fold.  The folds
    are evaluated last, so these samples end near the pass's wall time.
    """

    def __init__(self) -> None:
        #: perf_counter() at the end of each fold.
        self.ends: list[float] = []
        self._original = TwoStageDetector.evaluate_fold

    def __enter__(self) -> "_FoldClock":
        original, clock = self._original, self

        def timed(detector, bug_type):
            fold = original(detector, bug_type)
            clock.ends.append(time.perf_counter())
            return fold

        TwoStageDetector.evaluate_fold = timed
        return self

    def __exit__(self, *_exc) -> None:
        TwoStageDetector.evaluate_fold = self._original


def _fold_groups(result, order: list[str]) -> dict[str, tuple[int, int, str]]:
    groups = {}
    for bug_type in order:
        fold = result.folds[bug_type]
        groups[f"fold:{bug_type}"] = (
            len(fold.labels),
            0,
            digest([fold.bug_names, fold.labels, fold.predictions,
                    [_exact(s) for s in fold.scores]]),
        )
    return groups


def _rates(labels: list[bool], predictions: list[bool]) -> tuple[float, float]:
    positives = [p for label, p in zip(labels, predictions) if label]
    negatives = [p for label, p in zip(labels, predictions) if not label]
    tpr = sum(positives) / len(positives) if positives else 0.0
    tnr = 1.0 - (sum(negatives) / len(negatives)) if negatives else 0.0
    return tpr, tnr


class _Study:
    """A batch study: one ``ExperimentContext`` per pass, leave-one-out folds."""

    #: Operations besides the fold verdicts (output group -> count).
    extra_operations: dict[str, int] = {}

    def __init__(self, seed: int, clock: HostClock) -> None:
        self.seed = seed
        self.clock = clock
        self.context: ExperimentContext | None = None
        self.fold_order: list[str] = []
        #: Operations per output group, for a pass that raises.
        self.operations: dict[str, int] = {}

    def _build_context(self) -> ExperimentContext:
        raise NotImplementedError

    def _bug_suite(self) -> dict:
        raise NotImplementedError

    def _test_designs(self) -> list:
        raise NotImplementedError

    def _evaluate(self) -> tuple[dict, object]:
        """Run the study; return (extra output groups, EvaluationResult)."""
        raise NotImplementedError

    def setup(self, mark) -> float:
        """Build the context and extract probes; return the median repeat time."""
        times = []
        for repeat in range(SETUP_REPEATS):
            self.close()
            with self.clock.ticking():
                started = time.perf_counter()
                self.context = self._build_context()
                times.append(self.clock.scaled(started, time.perf_counter()))
            if repeat == 0:
                mark()
        suite = self._bug_suite()
        designs = len(self._test_designs())
        self.operations = dict(self.extra_operations)
        self.operations.update({
            f"fold:{bug_type}": designs * (1 + len(variants))
            for bug_type, variants in suite.items()
        })
        self.fold_order = list(suite)
        random.Random(self.seed).shuffle(self.fold_order)
        return statistics.median(times)

    def fresh(self) -> None:
        self.close()
        self.context = self._build_context()

    def close(self) -> None:
        if self.context is not None:
            self.context.close()
            self.context = None

    cleanup = close

    def run_pass(self) -> PassOutcome:
        with self.clock.ticking():
            started = time.perf_counter()
            try:
                with _FoldClock() as folds:
                    groups, result = self._evaluate()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ended = time.perf_counter()
                return PassOutcome(self.clock.scaled(started, ended),
                                   {name: (n, n, None) for name, n in self.operations.items()},
                                   elapsed_s=ended - started)
            ended = time.perf_counter()
        latencies = [self.clock.scaled(started, end) * 1000.0 for end in folds.ends]
        order = sorted(self.fold_order)
        groups.update(_fold_groups(result, order))
        tpr, tnr = _rates(
            [x for t in order for x in result.folds[t].labels],
            [x for t in order for x in result.folds[t].predictions],
        )
        return PassOutcome(self.clock.scaled(started, ended), groups, latencies_ms=latencies,
                           tpr=tpr, tnr=tnr, elapsed_s=ended - started,
                           elapsed_latencies_ms=[(end - started) * 1000.0 for end in folds.ends])


class CoreStudy(_Study):
    """Table IV's stage-1 fits, then Table V's GBT-150 leave-one-out folds."""

    extra_operations = {"table4": len(BENCH_SCALE.engines)}

    def _build_context(self) -> ExperimentContext:
        context = ExperimentContext(BENCH_SCALE, backend="serial")
        context.probes  # SimPoint probe extraction happens here
        return context

    def _bug_suite(self) -> dict:
        return self.context.core_bugs()

    def _test_designs(self) -> list:
        return self.context.core_designs()["IV"]

    def _evaluate(self) -> tuple[dict, object]:
        table4 = table4_ipc_modeling.run(context=self.context)
        result = TwoStageDetector(self.context.detection_setup()).evaluate(
            bug_types=self.fold_order
        )
        rows = [
            {k: (_exact(v) if isinstance(v, float) else v) for k, v in row.items()
             if k not in ("Training (s)", "Inference (s)")}
            for row in table4.rows
        ]
        return {"table4": (len(rows), 0, digest(rows))}, result


class MemoryStudy(_Study):
    """Table VII's GBT-150 AMAT row: leave-one-out folds over memsim runs."""

    def _build_context(self) -> ExperimentContext:
        context = ExperimentContext(BENCH_SCALE, backend="serial")
        context.memory_probes  # SimPoint probe extraction happens here
        return context

    def _bug_suite(self) -> dict:
        return self.context.memory_bugs()

    def _test_designs(self) -> list:
        return self.context.memory_designs()["IV"]

    def _evaluate(self) -> tuple[dict, object]:
        setup = self.context.memory_detection_setup()
        return {}, TwoStageDetector(setup).evaluate(bug_types=self.fold_order)


def serve_items() -> list[tuple]:
    """The 60 named (design, bug-or-None) items serve-stream draws from."""
    suite = core_bug_suite()
    items = []
    for design in SERVE_DESIGNS:
        config = core_microarch(design)
        items.append((config, None))
        items.extend((config, suite[bug_type][0]) for bug_type in SERVE_BUG_TYPES)
    return items


def serve_order(seed: int, items: int) -> list[int]:
    """One cold round over every item, then the warm rounds; each round in
    its own seeded order."""
    rng = random.Random(seed)
    order = []
    for _ in range(1 + SERVE_WARM_ROUNDS):
        round_order = list(range(items))
        rng.shuffle(round_order)
        order.extend(round_order)
    return order


def _verdict_key(row: dict) -> list:
    return [row["config_name"], row["bug_name"], bool(row["detected"]),
            _exact(row["score"]), [_exact(e) for e in row["errors"]]]


class ServeStream:
    """A closed loop of single-item probe_batch requests to an in-process daemon."""

    def __init__(self, seed: int, clock: HostClock, scratch: Path, tracer=None) -> None:
        self.seed = seed
        self.clock = clock
        self.scratch = scratch
        self.tracer = tracer
        self.items = serve_items()
        self.order = serve_order(seed, len(self.items))
        self.model = None
        self.server: DetectionServer | None = None
        self.client: ServeClient | None = None
        self.store_dir: Path | None = None
        self._passes = 0

    def setup(self, mark) -> float:
        """Native load and training once; registry round trip and daemon start
        repeated, returning ``once + median(repeats)`` seconds."""
        clock = self.clock
        with clock.ticking():
            started = time.perf_counter()
            native_available()
            self.store_dir = self.scratch / "store-0"
            with ExperimentContext(BENCH_SCALE, backend="serial",
                                   store_path=str(self.store_dir)) as context:
                model = train_model(context.detection_setup(), name="bench",
                                    provenance={"scale": BENCH_SCALE.name,
                                                "source": "synthetic"})
            once = clock.scaled(started, time.perf_counter())
        times = []
        for repeat in range(SETUP_REPEATS):
            self.close()
            with clock.ticking():
                started = time.perf_counter()
                registry = self.scratch / "model.pkl"
                save_model(model, registry)
                self.model = load_model(registry)
                self._start()
                times.append(clock.scaled(started, time.perf_counter()))
            if repeat == 0:
                mark()
        return once + statistics.median(times)

    def _start(self) -> None:
        with self.clock.shielded():
            self.server = DetectionServer(self.model, store=ResultStore(str(self.store_dir)))
            self.server.start()
        self.client = ServeClient(*self.server.address)
        self.client.ping()

    def fresh(self) -> None:
        """A new daemon on a new, empty store, so the cold items are cold again."""
        self.close()
        self._passes += 1
        self.store_dir = self.scratch / f"store-{self._passes}"
        self._start()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.close()
            self.server = None

    def _request(self, item: tuple) -> "dict | None":
        """One request's verdict row, or None when the request failed."""
        if self.client is None:
            return None  # the daemon took no new connection, or never started
        try:
            rows = list(self.client.probe_batch([item]))
        except Exception as exc:
            # An error frame, a timeout or a dropped connection fails this
            # request; the next one goes over a new connection.  When the
            # daemon takes no new connection, every later request fails.
            print(f"perfbench: request failed: {exc!r}", file=sys.stderr)
            self.client.close()
            try:
                self.client = ServeClient(*self.server.address)
            except Exception:
                self.client = None
            return None
        return rows[0] if len(rows) == 1 else None

    def run_pass(self) -> PassOutcome:
        tracer = self.tracer
        clock = self.clock
        replies: list["dict | None"] = []
        windows: list[tuple[float, float]] = []
        # The daemon's threads do not take the clock's signal (``_start``),
        # so it samples the host on this thread even while a request is in
        # flight; a sample right before each request adds a fresh reading.
        with clock.ticking():
            started = time.perf_counter()
            for request_id, item_index in enumerate(self.order):
                clock.sample()
                span = (tracer.begin("wire", "serve", request_id)
                        if tracer is not None else None)
                if tracer is not None:
                    tracer.request = (request_id, span)
                sent = time.perf_counter()
                row = self._request(self.items[item_index])
                windows.append((sent, time.perf_counter()))
                if tracer is not None:
                    tracer.request = None
                    tracer.end(span)
                replies.append(row)
            ended = time.perf_counter()
        latencies = [clock.scaled(sent, received) * 1000.0 for sent, received in windows]

        first: dict[int, list] = {}
        requests = [0] * len(self.items)
        failed = [0] * len(self.items)
        overlay_hits = 0
        for item_index, row in zip(self.order, replies):
            requests[item_index] += 1
            if row is None:
                failed[item_index] += 1
                continue
            key = _verdict_key(row)
            if item_index not in first:
                first[item_index] = key
            elif key != first[item_index]:
                failed[item_index] += 1
            overlay_hits += row["executed"] == 0
        groups = {}
        for index, (config, bug) in enumerate(self.items):
            label = f"{config.name}/{bug.name if bug is not None else 'bug-free'}"
            verdict = first.get(index)
            groups[label] = (requests[index], failed[index],
                             digest(verdict) if verdict is not None else None)
        tpr, tnr = _rates([self.items[i][1] is not None for i in first],
                          [first[i][2] for i in first])
        return PassOutcome(clock.scaled(started, ended), groups, latencies_ms=latencies,
                           tpr=tpr, tnr=tnr, elapsed_s=ended - started,
                           elapsed_latencies_ms=[(b - a) * 1000.0 for a, b in windows],
                           counts={"serve.requests": len(self.order),
                                   "serve.overlay_hits": overlay_hits})

    def cleanup(self) -> None:
        self.close()
        shutil.rmtree(self.scratch, ignore_errors=True)
