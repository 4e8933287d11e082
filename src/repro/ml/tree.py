"""CART regression tree used as the weak learner for gradient boosting."""

from __future__ import annotations

import numpy as np


def descend(nodes, X: np.ndarray, node: np.ndarray, steps: int) -> np.ndarray:
    """Move each row's entries of *node* *steps* levels down *nodes*.

    *nodes* has ``feature``, ``threshold``, ``left`` and ``right`` arrays
    indexed by node; ``node[..., i]`` is a node reached by row ``i`` of
    ``X``.  A row goes left when its feature value is ``<=`` the threshold.
    """
    rows = np.arange(len(X))
    for _ in range(steps):
        node = np.where(X[rows, nodes.feature[node]] <= nodes.threshold[node],
                        nodes.left[node], nodes.right[node])
    return node


class RegressionTree:
    """Exact-split CART regression tree minimising squared error.

    A fitted tree is five flat node arrays in preorder (``feature``,
    ``threshold``, ``left``, ``right``, ``value``).  A leaf points both
    children at itself, so :meth:`predict` walks every row the same fixed
    number of steps and rows that reach a leaf early stay on it.
    """

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
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        #: Depth of the deepest leaf: the steps :meth:`predict` takes.
        self.depth = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and the same length")
        nodes: list[list] = []
        self.depth = 0
        self._build(X, y, 0, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("tree has not been fitted")
        X = np.asarray(X, dtype=float)
        root = np.zeros(len(X), dtype=np.intp)
        return self.value[descend(self, X, root, self.depth)]

    # -- construction -----------------------------------------------------------

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int,
               nodes: list[list]) -> int:
        """Append the subtree for ``(X, y)`` to *nodes*; return its root index."""
        index = len(nodes)
        nodes.append([0, 0.0, index, index, float(y.mean())])
        self.depth = max(self.depth, depth)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or np.ptp(y) < 1e-12
        ):
            return index

        feature, threshold = self._best_split(X, y)
        if feature < 0:
            return index

        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1, nodes)
        right = self._build(X[~mask], y[~mask], depth + 1, nodes)
        nodes[index][:4] = [feature, threshold, left, right]
        return index

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float]:
        """Return the (feature, threshold) minimising weighted child variance.

        Every feature is searched at once: column ``f`` of each ``(n - 1, F)``
        array below is the split-point scan of feature ``f``.  A column-wise
        stable sort and cumulative sum give each column the permutation and
        the sums a 1-D search of that feature alone would.  The winner is the
        first feature with the lowest SSE; a feature whose best SSE is NaN
        never wins, and ``(-1, 0.0)`` means no split is valid.
        """
        n_samples, n_features = X.shape
        min_leaf = self.min_samples_leaf
        columns = np.arange(n_features)
        order = np.argsort(X, axis=0, kind="stable")
        x_sorted = X[order, columns]
        left_n = np.arange(1, n_samples, dtype=float)[:, None]
        right_n = n_samples - left_n
        # Disallow splits between equal feature values and tiny leaves.
        valid = x_sorted[:-1] != x_sorted[1:]
        valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            return -1, 0.0

        # Prefix sums for O(1) variance evaluation of every split point.
        y_sorted = y[order]
        cumsum = np.cumsum(y_sorted, axis=0)
        cumsum_sq = np.cumsum(y_sorted ** 2, axis=0)
        left_sum = cumsum[:-1]
        left_sq = cumsum_sq[:-1]
        right_sum = cumsum[-1] - left_sum
        right_sq = cumsum_sq[-1] - left_sq

        sse = (left_sq - left_sum ** 2 / left_n) + (
            right_sq - right_sum ** 2 / right_n
        )
        sse = np.where(valid, sse, np.inf)
        index = np.argmin(sse, axis=0)
        best = sse[index, columns]
        best[np.isnan(best)] = np.inf
        feature = int(np.argmin(best))
        if not best[feature] < np.inf:
            return -1, 0.0
        split = index[feature]
        return feature, float(
            0.5 * (x_sorted[split, feature] + x_sorted[split + 1, feature])
        )
