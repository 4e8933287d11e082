"""Tests for the from-scratch ML engines and metrics.

``TestReferenceFuzz`` checks the array-backed CART tree and gradient
boosting bit-for-bit against the frozen object-tree copy in
``tests/ml_reference.py`` over seeded random inputs.  Every GBT case runs
three ways, reference == numpy loop (``fit_numpy``) == ``fit``, which boosts
in the native library when it loads, and predicts three ways too: the
reference, the numpy walk and the C walk.  The seed comes from
``REPRO_FUZZ_SEED`` (CI rotates it per run) and every assertion message names
it, so a failure replays locally with::

    REPRO_FUZZ_SEED=<seed> python -m pytest tests/test_ml.py
"""

import os
import pickle
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ml_reference import GradientBoostedTrees as ReferenceGBT
from ml_reference import RegressionTree as ReferenceTree

import repro.ml.gbt as gbt_module
from repro.coresim.native import NativeKernelUnavailable, load_library
from repro.coresim.native import build as native_build
from repro.ml import (
    Adam,
    CNNRegressor,
    GradientBoostedTrees,
    LassoRegressor,
    LSTMRegressor,
    MLPRegressor,
    RegressionTree,
    StandardScaler,
    TABLE_IV_ENGINES,
    build_model,
    clip_gradients,
    inference_error,
    make_window_dataset,
    mean_squared_error,
    pearson_correlation,
    r_squared,
)


#: Default fuzz seed (deterministic local runs); CI rotates via the env var.
DEFAULT_FUZZ_SEED = 20261018

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "") or DEFAULT_FUZZ_SEED)

#: Seeded random cases per engine in the reference fuzz.
TREE_FUZZ_CASES = 240
GBT_FUZZ_CASES = 60

#: Row spans of the GBT cases after the first GBT_FUZZ_CASES: past 128 and
#: 256 rows numpy's pairwise sum (8 accumulators, blocks of 128) splits into
#: halves, then quarters.
GBT_LARGE_ROW_SPANS = ((129, 257), (129, 257), (257, 301), (257, 301))


def _linear_data(n=300, f=8, noise=0.02, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    w = rng.normal(size=f)
    y = X @ w * 0.2 + 1.0 + rng.normal(scale=noise, size=n)
    return X, y


class TestMetrics:
    def test_mse_and_mae(self):
        assert mean_squared_error([1, 2, 3], [1, 2, 3]) == 0.0
        assert mean_squared_error([0, 0], [1, 1]) == 1.0

    def test_inference_error_matches_equation_one(self):
        y = np.array([1.0, 2.0, 3.0])
        yhat = np.array([1.5, 2.0, 2.0])
        # 0.5*((|e1|+|e2|) + (|e2|+|e3|)) = 0.5*((0.5+0)+(0+1.0)) = 0.75
        assert inference_error(y, yhat) == pytest.approx(0.75)
        assert inference_error([2.0], [1.0]) == pytest.approx(1.0)

    def test_pearson(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)
        assert pearson_correlation(x, np.ones(10)) == 0.0

    def test_r_squared(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(y, y) == pytest.approx(1.0)
        assert r_squared(y, np.full(4, y.mean())) == pytest.approx(0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_squared_error([1, 2], [1, 2, 3])


class TestPreprocessing:
    def test_scaler_round_trip(self):
        X = np.random.default_rng(0).normal(5.0, 3.0, size=(50, 4))
        scaler = StandardScaler()
        Z = scaler.fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_constant_column(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_window_dataset(self):
        features = np.arange(12.0).reshape(6, 2)
        targets = np.arange(6.0)
        X, y = make_window_dataset(features, targets, window=3)
        assert X.shape == (4, 3, 2)
        assert np.array_equal(y, targets[2:])
        assert np.array_equal(X[0], features[0:3])

    def test_window_larger_than_series(self):
        X, y = make_window_dataset(np.zeros((2, 3)), np.zeros(2), window=5)
        assert len(y) == 0

    @settings(max_examples=20, deadline=None)
    @given(window=st.integers(1, 5), steps=st.integers(5, 20))
    def test_window_dataset_sizes(self, window, steps):
        features = np.random.default_rng(0).random((steps, 3))
        targets = np.random.default_rng(1).random(steps)
        X, y = make_window_dataset(features, targets, window)
        assert len(X) == len(y) == max(0, steps - window + 1)


class TestOptim:
    def test_clip_gradients(self):
        grads = [np.full(4, 10.0)]
        clipped = clip_gradients(grads, max_norm=1.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
        assert clip_gradients(grads, max_norm=0.0)[0] is grads[0]

    def test_adam_reduces_quadratic(self):
        params = [np.array([5.0])]
        optimizer = Adam(params, learning_rate=0.1)
        for _ in range(200):
            optimizer.step([2 * params[0]])
        assert abs(params[0][0]) < 0.5


class TestEngines:
    def test_lasso_recovers_sparse_weights(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 10))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 4] + 0.5
        model = LassoRegressor(alpha=0.01)
        model.fit(X, y)
        prediction = model.predict(X)
        assert r_squared(y, prediction) > 0.95
        assert {0, 4}.issubset(set(model.selected_features))

    def test_regression_tree_splits(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert mean_squared_error(y, tree.predict(X)) < 0.01

    def test_gbt_fits_nonlinear_function(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(300, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        model = GradientBoostedTrees(n_estimators=80, max_depth=3)
        model.fit(X, y)
        assert r_squared(y, model.predict(X)) > 0.9

    def test_gbt_early_stopping(self):
        X, y = _linear_data(n=200)
        model = GradientBoostedTrees(n_estimators=300, early_stopping_rounds=10)
        result = model.fit(X[:150], y[:150], X[150:], y[150:])
        # Stopping fired (fewer rounds than asked) and dropped the rounds
        # after the best validation loss (fewer trees kept than fitted).
        assert model.n_trees_fitted < len(result.history) < 300
        reference = ReferenceGBT(n_estimators=300, early_stopping_rounds=10)
        reference.fit(X[:150], y[:150], X[150:], y[150:])
        assert len(reference._trees) == model.n_trees_fitted
        kept_sum = np.full(len(X), reference._base_prediction)
        for tree in reference._trees:
            kept_sum += reference.learning_rate * tree.predict(X)
        assert model.predict(X).tobytes() == kept_sum.tobytes()

    @pytest.mark.parametrize("factory", [
        lambda: MLPRegressor(hidden_layers=1, hidden_size=32, max_epochs=80, patience=30),
        lambda: CNNRegressor(conv_layers=1, filters=16, max_epochs=60, patience=30),
        lambda: LSTMRegressor(layers=1, hidden_size=24, max_epochs=60, patience=30),
    ])
    def test_neural_engines_learn_linear_map(self, factory):
        X, y = _linear_data(n=250, f=6)
        model = factory()
        model.fit(X, y)
        assert r_squared(y, model.predict(X)) > 0.3

    def test_predict_before_fit_raises(self):
        for model in (LassoRegressor(), GradientBoostedTrees(n_estimators=5),
                      MLPRegressor(), CNNRegressor(), LSTMRegressor()):
            with pytest.raises(RuntimeError):
                model.predict(np.zeros((2, 3)))

    def test_empty_training_data_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=5).fit(np.zeros((0, 3)), np.zeros(0))


def _fuzz_features(rng, n, n_features):
    """Random features: some columns rounded into ties, sometimes one constant."""
    X = rng.normal(size=(n, n_features)) * rng.choice([1e-3, 1.0, 1e3])
    tied = rng.random(n_features) < 0.5
    X[:, tied] = np.round(X[:, tied] * rng.integers(1, 4))
    if rng.random() < 0.5:
        X[:, rng.integers(n_features)] = rng.normal()
    return X


def _fuzz_targets(rng, X):
    """Noisy targets driven by one feature, sometimes rounded or constant."""
    y = X[:, rng.integers(X.shape[1])] * rng.normal() + rng.normal(size=len(X))
    if rng.random() < 0.3:
        y = np.round(y)
    if rng.random() < 0.05:
        y = np.full(len(X), 1.5)
    return y


def _assert_same_predictions(got, expected, context):
    assert got.dtype == expected.dtype and got.shape == expected.shape, context
    assert got.tobytes() == expected.tobytes(), context


class TestReferenceFuzz:
    """Array-backed tree, numpy GBT loop and native GBT loop == the frozen
    object-tree reference, bit for bit."""

    def test_tree_matches_reference(self):
        for case in range(TREE_FUZZ_CASES):
            rng = np.random.default_rng([FUZZ_SEED, 0, case])
            n, n_features = int(rng.integers(1, 91)), int(rng.integers(1, 28))
            X = _fuzz_features(rng, n, n_features)
            y = _fuzz_targets(rng, X)
            params = dict(
                max_depth=int(rng.integers(1, 6)),
                min_samples_leaf=int(rng.integers(1, 4)),
                min_samples_split=int(rng.integers(2, 7)),
            )
            context = (f"seed={FUZZ_SEED} tree case={case} n={n} "
                       f"features={n_features} {params} "
                       f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})")
            tree = RegressionTree(**params).fit(X, y)
            expected = ReferenceTree(**params).fit(X, y)
            # Rows sitting exactly on every threshold pin the ``<=`` side.
            on_threshold = np.tile(tree.threshold[:, None], (1, n_features))
            unseen = _fuzz_features(rng, int(rng.integers(0, 30)), n_features)
            for name, rows in (("train", X), ("one-row", X[:1]), ("no-rows", X[:0]),
                               ("thresholds", on_threshold), ("unseen", unseen)):
                _assert_same_predictions(tree.predict(rows), expected.predict(rows),
                                         f"{context} predict={name}")

    def test_overflowing_sse_gives_a_single_leaf(self):
        # Squares of ~1e160 overflow, every candidate SSE is NaN, and the
        # reference skips every feature: the tree is one leaf.
        rng = np.random.default_rng([FUZZ_SEED, 1])
        context = f"seed={FUZZ_SEED} (replay: REPRO_FUZZ_SEED={FUZZ_SEED})"
        X = _fuzz_features(rng, 40, 6)
        y = 1e160 * (1.0 + rng.random(40)) * rng.choice([-1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            tree = RegressionTree(max_depth=3).fit(X, y)
            expected = ReferenceTree(max_depth=3).fit(X, y)
        assert expected._root.is_leaf, context
        assert len(tree.value) == 1, context
        _assert_same_predictions(tree.predict(X), expected.predict(X), context)

    def test_gbt_keeping_no_tree_stays_unfitted(self):
        # A NaN validation loss never improves, so early stopping keeps no
        # tree and the fit's own final predict raises, as in the reference.
        X, y = _linear_data(n=40, f=3)
        for cls in (GradientBoostedTrees, ReferenceGBT):
            model = cls(n_estimators=20, early_stopping_rounds=3)
            with pytest.raises(RuntimeError, match="not been fitted"):
                model.fit(X[:30], y[:30], X[30:], np.full(10, np.nan))

    def test_gbt_matches_reference(self, native_runs, predict_runs):
        row_spans = [(1, 91)] * GBT_FUZZ_CASES + list(GBT_LARGE_ROW_SPANS)
        stopped = 0
        for case, span in enumerate(row_spans):
            rng = np.random.default_rng([FUZZ_SEED, 2, case])
            stopped += _check_gbt_case(rng, int(rng.integers(*span)), case)
        assert stopped >= 3, (
            f"seed={FUZZ_SEED}: early stopping fired in only {stopped} GBT cases")
        _assert_native_ran(native_runs, len(row_spans))
        _assert_predicted_in_c(predict_runs)

    def test_gbt_overflowing_sse_matches_reference(self, native_runs):
        # Every candidate SSE is NaN, so every tree is one leaf, and the
        # squared errors overflow: every loss is inf.
        rng = np.random.default_rng([FUZZ_SEED, 4])
        X = _fuzz_features(rng, 40, 6)
        y = 1e160 * (1.0 + rng.random(40)) * rng.choice([-1.0, 1.0])
        params = dict(n_estimators=12, max_depth=3, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_three_ways(params, (X, y), X, f"seed={FUZZ_SEED} |y|~1e160")
        _assert_native_ran(native_runs, 1)

    def test_gbt_non_finite_feature_falls_back(self, native_runs):
        rng = np.random.default_rng([FUZZ_SEED, 5])
        X = _fuzz_features(rng, 50, 4)
        y = _fuzz_targets(rng, X)
        X[7, 2] = np.nan
        X[11, 0] = np.inf
        params = dict(n_estimators=15, seed=3)
        data = (X[10:], y[10:], X[:10], y[:10])
        _assert_three_ways(params, data, X, f"seed={FUZZ_SEED} non-finite")
        assert native_runs == ["a non-finite training feature"], native_runs

    def test_gbt_threshold_rounded_onto_the_upper_value(self, native_runs):
        # 0.5 * (a + b) rounds to b for adjacent floats a < b = 1.0: every row
        # goes left and the right child is an empty leaf valued NaN, again at
        # every level.  Depth 4 fits the native node slots; depth 12 needs
        # more than a tree whose leaves all hold rows, and falls back.
        X = np.array([[np.nextafter(1.0, 0.0)]] * 4 + [[1.0]] * 4)
        y = np.repeat([0.0, 1.0], 4)
        rows = np.array([[0.0], [1.0], [2.0]])
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            for depth in (4, 12):
                params = dict(n_estimators=3, max_depth=depth, subsample=1.0)
                _assert_three_ways(params, (X, y), rows, f"depth={depth}")
        if load_library() is not None:
            assert native_runs == ["native", "a tree with more nodes than rows allow"]

    def test_gbt_without_a_compiler_matches_native(self, no_compiler, native_runs,
                                                   predict_runs):
        rng = np.random.default_rng([FUZZ_SEED, 6])
        X = _fuzz_features(rng, 60, 5)
        y = _fuzz_targets(rng, X)
        data = (X[12:], y[12:], X[:12], y[:12])
        native = GradientBoostedTrees(n_estimators=20, seed=9)
        native_result = native.fit(*data)
        with no_compiler():
            fallback = GradientBoostedTrees(n_estimators=20, seed=9)
            fallback_result = fallback.fit(*data)
            del predict_runs[:]
            fallback_rows = fallback.predict(X)
            native_rows = native.predict(X)
        context = f"seed={FUZZ_SEED} no compiler"
        _assert_same_fit(fallback_result, native_result, context)
        _assert_same_trees(fallback, native, context)
        assert native_runs[-1] == "native kernel library unavailable", native_runs
        assert predict_runs == ["native kernel library unavailable"] * 2, predict_runs
        _assert_same_predictions(fallback_rows, native.predict(X), context)
        _assert_same_predictions(native_rows, native.predict(X), context)

    def test_gbt_fits_from_threads_match_serial_fits(self, native_runs):
        # The C loop keeps no static state and ctypes drops the GIL, so fits
        # on several threads overlap inside the kernel.  They start where a
        # process's first fits start, before the library is loaded: a thread
        # must wait for another's load, not fall back to numpy.
        rng = np.random.default_rng([FUZZ_SEED, 7])
        X = _fuzz_features(rng, 80, 12)
        y = _fuzz_targets(rng, X)
        data = (X[16:], y[16:], X[:16], y[:16])
        models = [GradientBoostedTrees(n_estimators=60, seed=seed) for seed in range(4)]
        native_build._reset_for_tests()
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda model: model.fit(*data), models))
        for seed, (model, result) in enumerate(zip(models, results)):
            serial = GradientBoostedTrees(n_estimators=60, seed=seed)
            context = f"seed={FUZZ_SEED} thread fit {seed}"
            _assert_same_fit(result, serial.fit(*data), context)
            _assert_same_trees(model, serial, context)
        _assert_native_ran(native_runs, 8)

    def test_gbt_predict_refuses_another_column_count(self, predict_runs):
        X, y = _linear_data(n=60, f=4)
        model = GradientBoostedTrees(n_estimators=5)
        model.fit(X, y)
        del predict_runs[:]
        for columns in (X[:, :3], np.hstack([X, X[:, :1]]), X[:, :0],
                        X.reshape(len(X), 2, 2)[:, :1]):
            for predict in (model.predict, lambda rows: _predict_numpy(model, rows)):
                with pytest.raises(ValueError, match="fitted on 4"):
                    predict(columns)
        assert predict_runs == [], predict_runs
        windows = X.reshape(len(X), 2, 2)
        _assert_same_predictions(model.predict(windows), model.predict(X), "windows")

    def test_gbt_predicts_from_threads_match_serial_predicts(self, predict_runs):
        # The C walk writes only its output rows, and ctypes drops the GIL,
        # so predicts through one forest overlap inside the kernel.  They
        # start on a freshly loaded forest, whose arguments are not yet
        # marshalled, in a process whose library is not yet loaded.
        rng = np.random.default_rng([FUZZ_SEED, 8])
        X = _fuzz_features(rng, 90, 10)
        y = _fuzz_targets(rng, X)
        fitted = GradientBoostedTrees(n_estimators=80, seed=4)
        fitted.fit(X, y)
        model = pickle.loads(pickle.dumps(fitted))
        batches = [_fuzz_features(rng, int(rng.integers(0, 40)), 10) for _ in range(64)]
        native_build._reset_for_tests()
        del predict_runs[:]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(model.predict, batches))
        for index, (rows, predicted) in enumerate(zip(batches, got)):
            _assert_same_predictions(predicted, _predict_numpy(fitted, rows),
                                     f"seed={FUZZ_SEED} thread predict {index}")
        _assert_predicted_in_c(predict_runs, len(batches))

    def test_gbt_pickles_the_same_before_and_after_its_first_predict(self):
        rng = np.random.default_rng([FUZZ_SEED, 9])
        X = _fuzz_features(rng, 70, 6)
        y = _fuzz_targets(rng, X)
        fitted = GradientBoostedTrees(n_estimators=30, seed=2)
        fitted.fit(X, y)
        before = pickle.dumps(fitted)
        model = pickle.loads(before)
        unpredicted = pickle.dumps(model)
        predicted = model.predict(X)
        after = pickle.dumps(model)
        assert unpredicted == before == after == pickle.dumps(fitted)
        context = f"seed={FUZZ_SEED} pickle"
        _assert_same_trees(pickle.loads(after), fitted, context)
        _assert_same_predictions(predicted, fitted.predict(X), context)
        _assert_same_predictions(pickle.loads(after).predict(X), predicted, context)


@pytest.fixture()
def predict_runs(monkeypatch):
    """What each C predict call did: "native", or why it fell back."""
    outcomes = []
    predict_native = gbt_module.predict_native

    def recording(*args):
        try:
            predicted = predict_native(*args)
        except NativeKernelUnavailable as exc:
            outcomes.append(str(exc))
            raise
        outcomes.append("native")
        return predicted

    monkeypatch.setattr(gbt_module, "predict_native", recording)
    return outcomes


def _unavailable(*_args):
    raise NativeKernelUnavailable("the numpy walk, by request")


def _predict_numpy(model, X):
    """``model.predict(X)`` on the numpy walk, the C walk's fallback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbt_module, "predict_native", _unavailable)
        return model.predict(X)


def _assert_predicted_in_c(outcomes, predicts=None):
    """Every predict (at least one; *predicts* of them when given) ran in C,
    unless the library is missing (``REPRO_NATIVE_CC=``), when every one
    fell back."""
    expected = "native" if load_library() is not None else "native kernel library unavailable"
    assert outcomes and set(outcomes) == {expected}, outcomes
    assert predicts is None or len(outcomes) == predicts, outcomes


@pytest.fixture()
def native_runs(monkeypatch):
    """What each native boosting call did: "native", or why it fell back."""
    outcomes = []
    boost_native = gbt_module.boost_native

    def recording(*args):
        try:
            boosted = boost_native(*args)
        except NativeKernelUnavailable as exc:
            outcomes.append(str(exc))
            raise
        outcomes.append("native")
        return boosted

    monkeypatch.setattr(gbt_module, "boost_native", recording)
    return outcomes


def _assert_native_ran(outcomes, fits):
    """Every one of *fits* fits boosted in C, unless the library is missing
    (``REPRO_NATIVE_CC=``), when every one fell back."""
    expected = "native" if load_library() is not None else "native kernel library unavailable"
    assert outcomes == [expected] * fits, outcomes


def _float_bytes(value):
    return None if value is None else np.float64(value).tobytes()


def _assert_same_fit(got, want, context):
    """Every ``FitResult`` field, floats compared by their bits."""
    assert [_float_bytes(v) for v in got.history] == [
        _float_bytes(v) for v in want.history], context
    assert _float_bytes(got.train_loss) == _float_bytes(want.train_loss), context
    assert _float_bytes(got.val_loss) == _float_bytes(want.val_loss), context
    assert got.epochs_run == want.epochs_run, context


def _assert_same_trees(got, want, context):
    """The kept trees' node arrays and depths, by dtype and bytes."""
    assert len(got._trees) == len(want._trees), context
    for index, (tree, expected) in enumerate(zip(got._trees, want._trees)):
        for name in ("feature", "threshold", "left", "right", "value"):
            _assert_same_predictions(getattr(tree, name), getattr(expected, name),
                                     f"{context} tree={index} {name}")
        assert tree.depth == expected.depth, f"{context} tree={index} depth"


def _assert_three_ways(params, data, rows, context):
    """Reference, ``fit_numpy`` and ``fit`` give the same fit, trees and
    predictions on *rows*; returns the reference's ``FitResult``."""
    expected = ReferenceGBT(**params)
    numpy_model = GradientBoostedTrees(**params)
    model = GradientBoostedTrees(**params)
    want = expected.fit(*data)
    for name, got in (("numpy", numpy_model.fit_numpy(*data)), ("fit", model.fit(*data))):
        _assert_same_fit(got, want, f"{context} {name}")
    assert model.n_trees_fitted == expected.n_trees_fitted, context
    _assert_same_trees(model, numpy_model, context)
    # Rows sitting exactly on every threshold pin the ``<=`` side, and NaN
    # and infinite values the side a failed or an infinite comparison takes.
    on_threshold = np.tile(model._forest.threshold[:, None], (1, rows.shape[1]))
    special = np.array([np.nan, np.inf, -np.inf])
    non_finite = rows.copy()
    non_finite.flat[::2] = np.resize(special, non_finite.flat[::2].size)
    non_finite = np.vstack([np.repeat(special[:, None], rows.shape[1], axis=1),
                            non_finite])
    for name, unseen in (("rows", rows), ("one-row", rows[:1]), ("no-rows", rows[:0]),
                         ("thresholds", on_threshold), ("non-finite", non_finite)):
        expected_rows = expected.predict(unseen)
        _assert_same_predictions(numpy_model.predict(unseen), expected_rows,
                                 f"{context} numpy fit, predict={name}")
        _assert_same_predictions(_predict_numpy(model, unseen), expected_rows,
                                 f"{context} numpy predict={name}")
        _assert_same_predictions(model.predict(unseen), expected_rows,
                                 f"{context} predict={name}")
    return want


def _check_gbt_case(rng, n, case):
    """One seeded GBT case three ways, with validation data in odd cases;
    returns whether early stopping fired."""
    n_features = int(rng.integers(1, 28))
    X = _fuzz_features(rng, n, n_features)
    y = _fuzz_targets(rng, X)
    params = dict(
        n_estimators=int(rng.integers(1, 41)),
        learning_rate=float(rng.choice([0.08, 0.3, 1.0])),
        max_depth=int(rng.integers(1, 6)),
        subsample=float(rng.choice([0.5, 0.8, 1.0])),
        min_samples_leaf=int(rng.integers(1, 4)),
        early_stopping_rounds=int(rng.integers(1, 8)),
        seed=int(rng.integers(1 << 16)),
    )
    n_val = int(rng.integers(1, n // 3 + 1)) if case % 2 and n >= 3 else 0
    data = ((X[n_val:], y[n_val:], X[:n_val], y[:n_val]) if n_val else (X, y))
    context = (f"seed={FUZZ_SEED} gbt case={case} n={n} "
               f"features={n_features} validation={n_val} {params} "
               f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})")
    unseen = _fuzz_features(rng, int(rng.integers(0, 30)), n_features)
    want = _assert_three_ways(params, data, np.vstack([X, unseen]), context)
    return len(want.history) < params["n_estimators"]


class TestEngineFactory:
    def test_table_iv_names_parse(self):
        for name in TABLE_IV_ENGINES:
            model = build_model(name, max_epochs=5, patience=2)
            assert model.name.replace("_", "-").lower().startswith(
                name.replace("_", "-").lower()[:3]) or model.name == name

    def test_specific_names(self):
        assert isinstance(build_model("GBT-150"), GradientBoostedTrees)
        assert isinstance(build_model("1-MLP-500"), MLPRegressor)
        assert isinstance(build_model("4-CNN-150"), CNNRegressor)
        assert isinstance(build_model("1-LSTM-250"), LSTMRegressor)
        assert isinstance(build_model("lasso"), LassoRegressor)

    def test_invalid_names(self):
        for name in ("GBT", "5-SVM-100", "GBT-0", "banana"):
            with pytest.raises(ValueError):
                build_model(name)
