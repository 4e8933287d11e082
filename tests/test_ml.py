"""Tests for the from-scratch ML engines and metrics.

``TestReferenceFuzz`` checks the array-backed CART tree and gradient
boosting bit-for-bit against the frozen object-tree copy in
``tests/ml_reference.py`` over seeded random inputs.  The seed comes from
``REPRO_FUZZ_SEED`` (CI rotates it per run) and every assertion message names
it, so a failure replays locally with::

    REPRO_FUZZ_SEED=<seed> python -m pytest tests/test_ml.py
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ml_reference import GradientBoostedTrees as ReferenceGBT
from ml_reference import RegressionTree as ReferenceTree

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
    """Array-backed tree and GBT == the frozen object-tree reference, bit for bit."""

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

    def test_gbt_matches_reference(self):
        stopped = 0
        for case in range(GBT_FUZZ_CASES):
            rng = np.random.default_rng([FUZZ_SEED, 2, case])
            n, n_features = int(rng.integers(1, 91)), int(rng.integers(1, 28))
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
            data = ((X[n_val:], y[n_val:], X[:n_val], y[:n_val]) if n_val
                    else (X, y))
            context = (f"seed={FUZZ_SEED} gbt case={case} n={n} "
                       f"features={n_features} validation={n_val} {params} "
                       f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})")
            model = GradientBoostedTrees(**params)
            expected = ReferenceGBT(**params)
            got, want = model.fit(*data), expected.fit(*data)
            assert got.history == want.history, context
            assert got.train_loss == want.train_loss, context
            assert got.val_loss == want.val_loss, context
            assert got.epochs_run == want.epochs_run, context
            assert model.n_trees_fitted == expected.n_trees_fitted, context
            stopped += len(want.history) < params["n_estimators"]
            unseen = _fuzz_features(rng, int(rng.integers(0, 30)), n_features)
            for name, rows in (("all", X), ("one-row", X[:1]), ("no-rows", X[:0]),
                               ("unseen", unseen)):
                _assert_same_predictions(model.predict(rows), expected.predict(rows),
                                         f"{context} predict={name}")
        assert stopped >= 3, (
            f"seed={FUZZ_SEED}: early stopping fired in only {stopped} GBT cases")


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
