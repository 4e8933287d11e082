"""Frozen reference copy of the seed CART tree and gradient boosting.

``RegressionTree`` (with ``_Node``, the per-feature ``_best_split`` loop and
the row-at-a-time ``_predict_one``) and ``GradientBoostedTrees`` (with its
tree-by-tree ``predict`` loop) are the object-tree implementations that
``repro.ml.tree`` and ``repro.ml.gbt`` replaced with node arrays, a split
search over all features at once and a whole-forest walk.  The bit-identity
fuzz in ``tests/test_ml.py`` checks the array-backed code against this copy.

**Never optimise, fix or restyle this file.**  Its value is that it is the
original code; a change here moves the oracle with the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import FitResult, Regressor, validate_training_inputs
from repro.ml.metrics import mean_squared_error
from repro.ml.preprocessing import flatten_windows


@dataclass
class _Node:
    """One tree node; leaves have ``value`` set and no children."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """Exact-split CART regression tree minimising squared error."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self._root: _Node | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and the same length")
        self._root = self._build(X, y, depth=0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        X = np.asarray(X, dtype=float)
        return np.array([self._predict_one(row) for row in X])

    def _predict_one(self, row: np.ndarray) -> float:
        node = self._root
        while node is not None and not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value if node is not None else 0.0

    # -- construction -----------------------------------------------------------

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node_value = float(y.mean())
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or np.ptp(y) < 1e-12
        ):
            return _Node(value=node_value)

        feature, threshold = self._best_split(X, y)
        if feature < 0:
            return _Node(value=node_value)

        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1)
        right = self._build(X[~mask], y[~mask], depth + 1)
        return _Node(value=node_value, feature=feature, threshold=threshold,
                     left=left, right=right)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float]:
        """Return the (feature, threshold) minimising weighted child variance."""
        n_samples, n_features = X.shape
        best_feature = -1
        best_threshold = 0.0
        best_score = np.inf
        min_leaf = self.min_samples_leaf

        for feature in range(n_features):
            order = np.argsort(X[:, feature], kind="stable")
            x_sorted = X[order, feature]
            y_sorted = y[order]
            if x_sorted[0] == x_sorted[-1]:
                continue
            # Prefix sums for O(1) variance evaluation of every split point.
            cumsum = np.cumsum(y_sorted)
            cumsum_sq = np.cumsum(y_sorted ** 2)
            total_sum = cumsum[-1]
            total_sq = cumsum_sq[-1]
            counts = np.arange(1, n_samples + 1, dtype=float)

            left_sum = cumsum[:-1]
            left_sq = cumsum_sq[:-1]
            left_n = counts[:-1]
            right_n = n_samples - left_n
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq

            sse = (left_sq - left_sum ** 2 / left_n) + (
                right_sq - right_sum ** 2 / right_n
            )
            # Disallow splits between equal feature values and tiny leaves.
            valid = (x_sorted[:-1] != x_sorted[1:])
            valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
            if not np.any(valid):
                continue
            sse = np.where(valid, sse, np.inf)
            index = int(np.argmin(sse))
            if sse[index] < best_score:
                best_score = float(sse[index])
                best_feature = feature
                best_threshold = float(
                    0.5 * (x_sorted[index] + x_sorted[index + 1])
                )
        return best_feature, best_threshold


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
        if not self._trees:
            raise RuntimeError("model has not been fitted")
        X = flatten_windows(X)
        prediction = np.full(len(X), self._base_prediction)
        for tree in self._trees:
            prediction += self.learning_rate * tree.predict(X)
        return prediction

    @property
    def n_trees_fitted(self) -> int:
        return len(self._trees)
