"""Gradient-boosted regression trees (XGBoost stand-in).

Least-squares gradient boosting (Friedman 2001) over the CART trees of
:mod:`repro.ml.tree`, with shrinkage, optional row subsampling and early
stopping on a validation set.  ``GBT-150`` / ``GBT-250`` in the paper's tables
correspond to 150 / 250 boosting rounds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import FitResult, Regressor, validate_training_inputs
from .metrics import mean_squared_error
from .preprocessing import flatten_windows
from .tree import RegressionTree, descend


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
        self._trees: list[RegressionTree] = []
        self._base_prediction = 0.0
        self._forest: Optional[_Forest] = None

    def fit(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> FitResult:
        X = flatten_windows(X_train)
        y = np.asarray(y_train, dtype=float)
        validate_training_inputs(X, y)
        rng = np.random.default_rng(self.seed)

        has_val = X_val is not None and y_val is not None and len(y_val) > 0
        X_validation = flatten_windows(X_val) if has_val else None
        y_validation = np.asarray(y_val, dtype=float) if has_val else None

        self._trees = []
        self._forest = None
        self._base_prediction = float(y.mean())
        predictions = np.full(len(y), self._base_prediction)
        val_predictions = (
            np.full(len(y_validation), self._base_prediction) if has_val else None
        )

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
            self._trees.append(tree)
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
                        self._trees = self._trees[:best_round]
                        break

        # Early stopping keeps no tree when no validation loss was finite.
        self._forest = _Forest(self._trees) if self._trees else None
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
            epochs_run=len(self._trees),
            history=history,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._forest is None:
            raise RuntimeError("model has not been fitted")
        X = flatten_windows(X)
        leaves = self._forest.leaf_values(X)
        # Sequential accumulation adds the trees left to right, as a loop of
        # ``prediction += learning_rate * tree.predict(X)`` would; np.sum
        # would add pairwise and round differently.
        terms = np.vstack([np.full((1, len(X)), self._base_prediction),
                           self.learning_rate * leaves])
        return np.cumsum(terms, axis=0)[-1]

    @property
    def n_trees_fitted(self) -> int:
        return len(self._trees)


class _Forest:
    """The kept trees' node arrays concatenated and walked all at once.

    Each tree's child indices are shifted by its offset in the concatenated
    arrays, so one gather per step advances every tree on every row.
    """

    def __init__(self, trees: list[RegressionTree]) -> None:
        offsets = np.cumsum([0] + [len(tree.value) for tree in trees[:-1]])
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.left = np.concatenate([tree.left + o for tree, o in zip(trees, offsets)])
        self.right = np.concatenate([tree.right + o for tree, o in zip(trees, offsets)])
        self.value = np.concatenate([tree.value for tree in trees])
        self.roots = offsets[:, None]
        self.depth = max(tree.depth for tree in trees)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(T, n)`` leaf value of every tree for every row of ``X``."""
        roots = np.repeat(self.roots, len(X), axis=1)
        return self.value[descend(self, X, roots, self.depth)]
