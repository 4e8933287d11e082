"""Outside-in span recorder: times the calls into each layer of ``repro``.

Nothing here edits the program.  :class:`Tracer` replaces a layer's public
entry points with thin wrappers *where their callers look them up* (module
attributes imported by name, class methods), records one span per call and
restores every original on :meth:`Tracer.uninstall`.

A span keeps its name, layer, start, end, parent and (for ``serve-stream``)
the id of the client request it served.  Each thread has its own span stack,
so work done by the daemon's connection thread is credited to the layer that
did it; a root span on a daemon thread is parented to the client request in
flight.  A span's self time is its duration minus the part its child spans
cover, so over a window::

    sum(layer self times) + other == window wall time

where ``other`` is the time no layer span covers: the benchmark's own loop
plus the tracer's fit hashing, which runs in spans of the ``other`` layer.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    thread: str = ""


class Tracer:
    """Spans and counters recorded at layer boundaries, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.enabled = False
        #: (request id, span index) of the client request in flight, so
        #: spans opened on the daemon's threads name the request they serve.
        self.request: tuple[int, int] | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._fit_digests: set[str] = set()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, request: int | None = None) -> int:
        stack = self._stack()
        if request is not None:
            parent = stack[-1] if stack else None
        elif stack:
            parent = stack[-1]
            request = self.spans[parent].request
        elif self.request is not None:
            request, parent = self.request
        else:
            parent = request = None
        span = Span(name, layer, time.perf_counter(), parent=parent,
                    request=request, thread=threading.current_thread().name)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def current(self) -> Span | None:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    # -- patching ----------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        before: "Callable | None" = None,
        after: "Callable | None" = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``before(args)`` runs just before the span opens, while the current
        span is still the caller's; ``after(args, result)`` runs inside it.
        Both count the work the call did.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            index = tracer.begin(name, layer)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tracer.end(index)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every measured entry point of ``repro`` and start recording."""
        _install_layer_wrappers(self)
        self.enabled = True

    def uninstall(self) -> None:
        """Stop recording and restore every wrapped attribute."""
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def note_fit(self, model, arrays) -> None:
        """Count a fit whose inputs and hyper-parameters were all seen before."""
        index = self.begin("fit_digest", "other")
        try:
            hasher = hashlib.blake2b(digest_size=16)
            params = {
                key: value for key, value in sorted(vars(model).items())
                if isinstance(value, (int, float, str, bool, type(None)))
            }
            hasher.update(type(model).__name__.encode())
            hasher.update(json.dumps(params, sort_keys=True).encode())
            for array in arrays:
                data = np.ascontiguousarray(np.asarray(array, dtype=float))
                hasher.update(f"{data.shape}".encode())
                hasher.update(data.tobytes())
            digest = hasher.hexdigest()
            with self._lock:
                repeat = digest in self._fit_digests
                self._fit_digests.add(digest)
            if repeat:
                self.count("ml.repeat_fits")
        finally:
            self.end(index)

    # -- reporting -------------------------------------------------------------------

    def window_times(self, windows: "list[tuple[float, float]]") -> dict[str, float]:
        """Self and inclusive times of the spans that start inside *windows*.

        Keys are ``"<layer>"`` (layer self time, ``other`` included),
        ``"<layer>|<name>"`` (self time per span name), ``"ml|fit_incl"``
        (fits, with the predicts they make) and ``"ml|predict_top"``
        (predicts not made by a fit).
        """
        inside = [
            i for i, span in enumerate(self.spans)
            if any(lo <= span.start < hi for lo, hi in windows)
        ]
        chosen = set(inside)
        child_time = dict.fromkeys(inside, 0.0)
        for i in inside:
            parent = self.spans[i].parent
            if parent in chosen:
                child_time[parent] += self.spans[i].end - self.spans[i].start
        times: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            times[key] = times.get(key, 0.0) + value

        for i in inside:
            span = self.spans[i]
            duration = span.end - span.start
            own = duration - child_time[i]
            add(span.layer, own)
            add(f"{span.layer}|{span.name}", own)
            if span.layer == "ml":
                parent = self.spans[span.parent] if span.parent is not None else None
                in_ml = parent is not None and parent.layer == "ml"
                if span.name == "fit" and not in_ml:
                    add("ml|fit_incl", duration)
                elif span.name == "predict" and not in_ml:
                    add("ml|predict_top", duration)
        return times

    def write_json(self, path: str) -> None:
        """Write every span and counter as JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "counters": self.counters,
            "spans": [
                {
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "request": s.request,
                    "thread": s.thread,
                }
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each measured layer's entry points where its callers find them."""
    import repro.coresim.native as native
    import repro.detect.detector as detector
    import repro.detect.probe as probe
    import repro.runtime.execution as execution
    from repro.detect.stage1 import ProbeModel
    from repro.detect.stage2 import RuleBasedClassifier
    from repro.ml import (
        CNNRegressor,
        GradientBoostedTrees,
        LassoRegressor,
        LSTMRegressor,
        MLPRegressor,
        RegressionTree,
    )
    from repro.runtime import JobEngine, ResultStore
    from repro.serve.registry import RegisteredModel
    from repro.serve.session import ServingSession

    count = tracer.count

    # simpoint: probe extraction calls both selectors by name.
    for attr in ("select_simpoints", "select_simpoints_from_uops"):
        tracer.wrap(probe, attr, "select", "simpoint",
                    after=lambda _a, selection: count("simpoint.probes", len(selection)))

    # coresim / memsim: the runtime imports the simulators by name, and
    # coresim.simulator looks the native kernel up lazily in its package.
    def core_done(_args, results):
        results = results if isinstance(results, list) else [results]
        count("coresim.jobs", len(results))
        count("coresim.instructions", sum(r.instructions for r in results))

    def memory_done(_args, result):
        count("memsim.jobs")
        count("memsim.instructions", result.instructions)

    tracer.wrap(execution, "simulate_trace", "simulate", "coresim", after=core_done)
    tracer.wrap(execution, "simulate_trace_batch", "simulate", "coresim", after=core_done)
    tracer.wrap(native, "simulate_batch_native", "native", "coresim",
                after=lambda _a, results: count("coresim.native_jobs", len(results)))
    tracer.wrap(execution, "simulate_memory_trace", "simulate", "memsim", after=memory_done)

    # runtime: the job engine (jobs it executed) and the result store.
    executed_before: list[int] = []

    def engine_done(args, _results):
        count("runtime.engine_calls")
        count("runtime.executed", args[0].stats.executed - executed_before.pop())

    tracer.wrap(JobEngine, "run", "engine", "runtime",
                before=lambda args: executed_before.append(args[0].stats.executed),
                after=engine_done)
    tracer.wrap(ResultStore, "get", "store_get", "runtime",
                after=lambda *_: count("runtime.store_gets"))
    tracer.wrap(ResultStore, "put", "store_put", "runtime",
                after=lambda *_: count("runtime.store_puts"))

    # ml: every stage-1 engine's fit and predict.  A predict made by a fit
    # (validation loss, early stopping) is part of that fit.
    def fit_before(args):
        count("ml.fits")
        tracer.note_fit(args[0], [a for a in args[1:] if a is not None])

    def fit_after(args, _result):
        trees = getattr(args[0], "_trees", None)
        if trees is not None:
            count("ml.trees_kept", len(trees))

    def predict_before(args):
        caller = tracer.current()
        if caller is None or caller.layer != "ml":
            count("ml.predict_rows", len(args[1]))

    for cls in (GradientBoostedTrees, LassoRegressor, MLPRegressor, CNNRegressor,
                LSTMRegressor):
        tracer.wrap(cls, "fit", "fit", "ml", before=fit_before, after=fit_after)
        tracer.wrap(cls, "predict", "predict", "ml", before=predict_before)
    tracer.wrap(RegressionTree, "fit", "tree_fit", "ml",
                after=lambda *_: count("ml.trees_fitted"))

    # detect: stage 1 around the ml calls, stage 2, counter selection and
    # the error vectors every verdict is built from.
    tracer.wrap(ProbeModel, "fit", "stage1", "detect")
    tracer.wrap(ProbeModel, "predict_series", "stage1", "detect")
    for attr in ("fit", "score", "predict"):
        tracer.wrap(RuleBasedClassifier, attr, "stage2", "detect")
    tracer.wrap(detector, "select_counters", "counter_select", "detect")
    for owner in (detector.TwoStageDetector, RegisteredModel):
        tracer.wrap(owner, "error_vector", "error_vector", "detect",
                    after=lambda *_: count("detect.error_vectors"))

    # serve: the session's per-item request path on the connection thread.
    tracer.wrap(ServingSession, "verdict_for", "session", "serve",
                after=lambda _a, item: count("serve.executed", item.executed))
