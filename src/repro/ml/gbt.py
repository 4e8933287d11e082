"""Gradient-boosted regression trees (XGBoost stand-in).

Least-squares gradient boosting (Friedman 2001) over the CART trees of
:mod:`repro.ml.tree`, with shrinkage, optional row subsampling and early
stopping on a validation set.  ``GBT-150`` / ``GBT-250`` in the paper's tables
correspond to 150 / 250 boosting rounds.  The boosting loop and predict run
in the native library (:mod:`repro.ml.native`); the numpy loop and walk
are their fallbacks and give the same trees and predictions bit for bit.
A fitted model's whole state is one :class:`~repro.ml.tree.Forest`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from .base import FitResult, Regressor, validate_training_inputs
from .metrics import mean_squared_error
from .native import NativeKernelUnavailable, boost_native, predict_native
from .preprocessing import flatten_windows
from .tree import Forest, RegressionTree


class GradientBoostedTrees(Regressor):
    """Least-squares gradient boosting with CART weak learners."""

    def __init__(
        self,
        n_estimators: int = 250,
        learning_rate: float = 0.08,
        max_depth: int = 4,
        subsample: float = 0.8,
        min_samples_leaf: int = 2,
        early_stopping_rounds: int = 50,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self.name = f"GBT-{n_estimators}"
        self._forest: Optional[Forest] = None

    def fit(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> FitResult:
        """Boost in the native library (:mod:`repro.ml.native`), or in numpy
        where it cannot run; both loops give the same trees bit for bit."""
        return self._fit(X_train, y_train, X_val, y_val, native=True)

    def fit_numpy(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> FitResult:
        """:meth:`fit` on the numpy boosting loop, the native loop's fallback."""
        return self._fit(X_train, y_train, X_val, y_val, native=False)

    def _fit(self, X_train, y_train, X_val, y_val, native: bool) -> FitResult:
        X = flatten_windows(X_train)
        y = np.asarray(y_train, dtype=float)
        validate_training_inputs(X, y)

        has_val = X_val is not None and y_val is not None and len(y_val) > 0
        X_validation = flatten_windows(X_val) if has_val else None
        y_validation = np.asarray(y_val, dtype=float) if has_val else None

        self._forest = None
        base = float(y.mean())
        boosted = None
        if native:
            try:
                boosted = boost_native(self, base, X, y, X_validation, y_validation)
            except NativeKernelUnavailable:
                pass
        if boosted is None:
            boosted = self._boost_numpy(base, X, y, X_validation, y_validation)
        # Early stopping keeps no tree (no forest) when no validation loss
        # was finite.
        self._forest, history = boosted
        final_pred = self.predict(X)
        train_loss = mean_squared_error(y, final_pred)
        val_loss = (
            mean_squared_error(y_validation, self.predict(X_validation))
            if has_val
            else None
        )
        return FitResult(
            train_loss=train_loss,
            val_loss=val_loss,
            epochs_run=self.n_trees_fitted,
            history=history,
        )

    def _boost_numpy(
        self,
        base: float,
        X: np.ndarray,
        y: np.ndarray,
        X_validation: Optional[np.ndarray],
        y_validation: Optional[np.ndarray],
    ) -> tuple[Optional[Forest], list[float]]:
        """The forest of kept trees (None when none is kept) and the
        per-round train losses, boosted in numpy from *base*."""
        rng = np.random.default_rng(self.seed)
        has_val = X_validation is not None
        trees: list[RegressionTree] = []
        predictions = np.full(len(y), base)
        val_predictions = np.full(len(y_validation), base) if has_val else None

        history: list[float] = []
        best_val = np.inf
        best_round = 0
        rounds_without_improvement = 0
        n_samples = len(y)
        sample_count = max(2, int(round(self.subsample * n_samples)))

        for round_index in range(self.n_estimators):
            residuals = y - predictions
            if self.subsample < 1.0 and n_samples > sample_count:
                chosen = rng.choice(n_samples, size=sample_count, replace=False)
            else:
                chosen = np.arange(n_samples)
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[chosen], residuals[chosen])
            trees.append(tree)
            predictions += self.learning_rate * tree.predict(X)
            train_loss = mean_squared_error(y, predictions)
            history.append(train_loss)

            if has_val:
                val_predictions += self.learning_rate * tree.predict(X_validation)
                val_loss = mean_squared_error(y_validation, val_predictions)
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    best_round = round_index + 1
                    rounds_without_improvement = 0
                else:
                    rounds_without_improvement += 1
                    if rounds_without_improvement >= self.early_stopping_rounds:
                        trees = trees[:best_round]
                        break
        if not trees:
            return None, history
        return Forest.from_trees(trees, X.shape[1], base, self.learning_rate), history

    def predict(self, X: np.ndarray) -> np.ndarray:
        forest = self._forest
        if forest is None:
            raise RuntimeError("model has not been fitted")
        X = flatten_windows(X)
        if X.shape[1] != forest.features:
            raise ValueError(f"X has {X.shape[1]} features per row, but the model "
                             f"was fitted on {forest.features}")
        X = np.ascontiguousarray(X, dtype=np.float64)
        try:
            return predict_native(forest, X)
        except NativeKernelUnavailable:
            return forest.predict_numpy(X)

    @property
    def _trees(self) -> "_ForestTrees":
        """The kept trees, each sliced out of the forest on demand."""
        return _ForestTrees(self)

    @property
    def n_trees_fitted(self) -> int:
        return 0 if self._forest is None else len(self._forest)


class _ForestTrees(Sequence):
    """A read-only view of a model's kept trees, each a
    :class:`RegressionTree`."""

    def __init__(self, model: GradientBoostedTrees) -> None:
        self._forest = model._forest
        self._params = dict(max_depth=model.max_depth,
                            min_samples_leaf=model.min_samples_leaf)

    def __len__(self) -> int:
        return 0 if self._forest is None else len(self._forest)

    def __getitem__(self, index: int) -> RegressionTree:
        if not -len(self) <= index < len(self):
            raise IndexError("tree index out of range")
        return self._forest.tree(index % len(self), **self._params)
