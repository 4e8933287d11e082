"""Tests for the detection methodology: counters, stages, metrics, probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coresim.counters import CounterTimeSeries
from repro.detect import (
    MAX_COUNTERS,
    MIN_COUNTERS,
    Probe,
    ProbeModel,
    ProbeModelConfig,
    RuleBasedClassifier,
    SimulationCache,
    build_probes,
    compute_metrics,
    manual_counter_set,
    roc_auc,
    roc_curve,
    select_counters,
)
from repro.uarch import core_microarch


def _series(num_steps, seed=0, extra=None):
    rng = np.random.default_rng(seed)
    ipc = rng.uniform(0.5, 2.0, size=num_steps)
    counters = {
        "c.correlated": ipc * 3.0 + rng.normal(scale=0.01, size=num_steps),
        "c.redundant": ipc * 3.0 + rng.normal(scale=0.01, size=num_steps) + 5.0,
        "c.noise": rng.normal(size=num_steps),
        "c.anticorrelated": -2.0 * ipc + rng.normal(scale=0.01, size=num_steps),
        "commit.instructions": ipc * 512,
        "commit.branches": ipc * 100,
        "bp.lookups": ipc * 100,
        "cycles": np.full(num_steps, 512.0),
    }
    if extra:
        counters.update(extra)
    return _from_mapping(counters, ipc)


def _from_mapping(counters, ipc):
    """A series with a row per entry of the ``{name: values}`` *counters*."""
    return CounterTimeSeries(512, tuple(counters), np.array(list(counters.values())), ipc)


class TestCounterSelection:
    def test_selects_correlated_and_prunes_redundant(self):
        series = [_series(40, seed=s) for s in range(3)]
        chosen = select_counters(series, min_counters=1)
        assert chosen  # at least one strongly correlated counter survives
        assert not ("c.correlated" in chosen and "c.redundant" in chosen)
        assert "commit.instructions" not in chosen  # excluded (it is the target)
        assert "c.noise" not in chosen
        assert 1 <= len(chosen) <= MAX_COUNTERS
        default = select_counters(series)
        assert MIN_COUNTERS <= len(default) <= MAX_COUNTERS

    def test_falls_back_to_top_counters_when_none_pass(self):
        rng = np.random.default_rng(0)
        counters = {f"c.n{i}": rng.normal(size=30) for i in range(6)}
        series = _from_mapping(counters, rng.uniform(0.5, 1.5, 30))
        chosen = select_counters([series])
        assert len(chosen) >= MIN_COUNTERS

    def test_manual_counter_set_subset_of_available(self, skylake, gcc_trace):
        from repro.coresim import simulate_trace
        result = simulate_trace(skylake, gcc_trace[:1500], step_cycles=256)
        manual = manual_counter_set([result.series])
        assert manual
        assert all(name in result.series.names for name in manual)


class TestStage1:
    @staticmethod
    def _fake_probe(counters):
        from types import SimpleNamespace

        simpoint = SimpleNamespace(name="fake/sp01", benchmark="fake", trace=[],
                                   weight=1.0)
        return Probe(simpoint=simpoint, counters=counters)

    def test_probe_model_end_to_end(self):
        probe = self._fake_probe(["c.correlated", "c.anticorrelated"])
        model = ProbeModel(probe=probe,
                           config=ProbeModelConfig(engine="GBT-150",
                                                   use_arch_features=False))
        train = {f"arch{i}": _series(30, seed=i) for i in range(4)}
        val = {"val0": _series(30, seed=10)}
        val_mse = model.fit(train, val)
        assert val_mse < 0.05
        clean_error = model.inference_error(_series(30, seed=20))
        # A series whose counter<->IPC relation is destroyed must error more.
        broken = _series(30, seed=21, extra={
            "c.correlated": np.random.default_rng(5).normal(size=30),
            "c.anticorrelated": np.random.default_rng(6).normal(size=30),
        })
        assert model.inference_error(broken) > clean_error

    def test_requires_counters(self):
        probe = self._fake_probe([])
        model = ProbeModel(probe=probe, config=ProbeModelConfig(use_arch_features=False))
        with pytest.raises(ValueError):
            model.fit({"a": _series(10)}, {})


class TestStage2:
    def _vectors(self, rng, n, scale):
        return [rng.uniform(0.5, 1.5, size=5) * scale for _ in range(n)]

    def test_detects_separated_populations(self):
        rng = np.random.default_rng(0)
        negatives = self._vectors(rng, 8, 1.0)
        positives = self._vectors(rng, 20, 8.0)
        classifier = RuleBasedClassifier().fit(positives, negatives)
        assert classifier.predict(np.full(5, 9.0))
        assert not classifier.predict(np.full(5, 0.8))
        assert classifier.score(np.full(5, 9.0)) > classifier.score(np.full(5, 0.8))

    def test_paper_thresholds_without_calibration(self):
        rng = np.random.default_rng(1)
        negatives = self._vectors(rng, 8, 1.0)
        positives = self._vectors(rng, 20, 40.0)
        classifier = RuleBasedClassifier(calibrate_threshold=False)
        classifier.fit(positives, negatives)
        assert classifier.decision_threshold == 1.0
        assert classifier.predict(np.full(5, 60.0))

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            RuleBasedClassifier().fit([], [np.ones(3)])
        with pytest.raises(ValueError):
            RuleBasedClassifier().fit([np.ones(3)], [np.ones(4)])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RuleBasedClassifier().score(np.ones(3))

    def test_gamma_vectors_exposed(self):
        rng = np.random.default_rng(2)
        classifier = RuleBasedClassifier().fit(self._vectors(rng, 5, 4.0),
                                               self._vectors(rng, 5, 1.0))
        gamma_pos, gamma_neg = classifier.gamma_vectors(np.ones(5))
        assert gamma_pos.shape == gamma_neg.shape == (5,)
        assert np.all(gamma_neg >= gamma_pos)


class TestDetectionMetrics:
    def test_compute_metrics_counts(self):
        labels = [True, True, False, False, True]
        preds = [True, False, False, True, True]
        metrics = compute_metrics(labels, preds, scores=[0.9, 0.4, 0.1, 0.8, 0.7])
        assert metrics.true_positives == 2
        assert metrics.false_negatives == 1
        assert metrics.false_positives == 1
        assert metrics.tpr == pytest.approx(2 / 3)
        assert metrics.fpr == pytest.approx(0.5)
        assert 0.0 <= metrics.roc_auc <= 1.0

    def test_precision_convention_when_nothing_flagged(self):
        metrics = compute_metrics([True, False], [False, False], [0.1, 0.0])
        assert metrics.precision == 1.0

    def test_roc_auc_perfect_and_random(self):
        labels = np.array([True, True, False, False])
        assert roc_auc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 1.0
        assert roc_auc(labels, np.array([0.5, 0.5, 0.5, 0.5])) == 0.5
        assert roc_auc(np.array([True, True]), np.array([1.0, 2.0])) == 0.5

    def test_roc_curve_endpoints(self):
        labels = np.array([True, False, True, False])
        scores = np.array([0.9, 0.3, 0.6, 0.2])
        fpr, tpr = roc_curve(labels, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0, 1)), min_size=2, max_size=30))
    def test_roc_auc_bounded(self, pairs):
        labels = np.array([p[0] for p in pairs])
        scores = np.array([p[1] for p in pairs])
        assert 0.0 <= roc_auc(labels, scores) <= 1.0


class TestProbesAndCache:
    def test_build_probes_and_cache(self, skylake):
        probes = build_probes(["458.sjeng"], instructions_per_benchmark=6000,
                              interval_size=2000, max_simpoints_per_benchmark=2, seed=1)
        assert probes and all(p.benchmark == "458.sjeng" for p in probes)
        cache = SimulationCache(step_cycles=512)
        first = cache.get(probes[0], skylake)
        again = cache.get(probes[0], skylake)
        assert first is again
        assert cache.misses == 1
        assert len(cache) == 1
        assert first.ipc > 0


class TestErrorVectorMemo:
    """Stage 1 is fitted once, in ``prepare()``, so each (design, bug) error
    vector is computed once per detector and every fold reads it."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.experiments.common import ExperimentContext

        with ExperimentContext("smoke") as context:
            yield context.detection_setup(probes=context.probes[:2])

    def test_one_inference_per_probe_design_and_bug(self, setup, monkeypatch):
        from repro.detect.dataset import bug_key
        from repro.detect.detector import TwoStageDetector, evaluation_design_bug_pairs

        types = list(setup.bug_suite)[:3]
        calls = []
        inference_error = ProbeModel.inference_error

        def counted(model, series, features=None):
            calls.append(model.probe.name)
            return inference_error(model, series, features)

        monkeypatch.setattr(ProbeModel, "inference_error", counted)
        memoised = TwoStageDetector(setup)
        result = memoised.evaluate(types)
        pairs = {
            (design.name, bug_key(bug))
            for design, bug in evaluation_design_bug_pairs(setup, types)
        }
        assert len(calls) == len(setup.probes) * len(pairs)
        assert sorted(set(calls)) == sorted(p.name for p in setup.probes)

        class _Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        recomputing = TwoStageDetector(setup)
        recomputing._errors = _Forgetful()
        expected = recomputing.evaluate(types)
        for bug_type in types:
            fold, reference = result.folds[bug_type], expected.folds[bug_type]
            assert fold.bug_names == reference.bug_names
            assert fold.labels == reference.labels
            assert fold.predictions == reference.predictions
            assert [repr(s) for s in fold.scores] == [repr(s) for s in reference.scores]

        design = setup.test_designs[0]
        vector = memoised.error_vector(design)
        vector[:] = -1.0
        assert not np.array_equal(memoised.error_vector(design), vector)
        memoised.prepare()
        assert memoised._errors == {}
