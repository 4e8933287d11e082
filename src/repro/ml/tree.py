"""CART regression tree used as the weak learner for gradient boosting, and
the fitted forest of them that a boosted model predicts with."""

from __future__ import annotations

from types import SimpleNamespace

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


class Forest:
    """A fitted boosting ensemble: its trees' node arrays, one after another.

    Tree ``k`` is slots ``offsets[k]:offsets[k + 1]`` of ``feature``,
    ``threshold``, ``left``, ``right`` and ``value``, numbered as in a
    :class:`RegressionTree` (child indices local to the tree), and
    ``depths[k]`` deep.  A row's prediction is ``base`` plus
    ``learning_rate`` times each tree's leaf value, added tree by tree.
    ``features`` is the column count the trees were fitted on.  ``native``
    holds the C predict's marshalled arguments (:mod:`repro.ml.native`),
    made at the first C predict and never pickled.
    """

    def __init__(self, nodes, offsets, depths, features: int, base: float,
                 learning_rate: float) -> None:
        self.feature, self.threshold, self.left, self.right, self.value = nodes
        self.offsets = offsets
        self.depths = depths
        self.features = features
        self.base = base
        self.learning_rate = learning_rate
        self.native = None

    @classmethod
    def from_trees(cls, trees: "list[RegressionTree]", features: int, base: float,
                   learning_rate: float) -> "Forest":
        """The forest of fitted *trees*, in order."""
        nodes = tuple(
            np.concatenate([getattr(tree, name) for tree in trees]).astype(dtype)
            for name, dtype in (("feature", np.int64), ("threshold", np.float64),
                                ("left", np.int64), ("right", np.int64),
                                ("value", np.float64)))
        offsets = np.cumsum([0] + [len(tree.value) for tree in trees], dtype=np.int64)
        depths = np.array([tree.depth for tree in trees], dtype=np.int64)
        return cls(nodes, offsets, depths, features, base, learning_rate)

    def __len__(self) -> int:
        return len(self.depths)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "native": None}

    def tree(self, index: int, **params) -> RegressionTree:
        """Tree *index* as a :class:`RegressionTree` (built with *params*)
        whose node arrays are read-only views of the forest's."""
        start, end = self.offsets[index], self.offsets[index + 1]
        tree = RegressionTree(**params)
        nodes = []
        for array in (self.feature, self.threshold, self.left, self.right, self.value):
            view = array[start:end]
            view.flags.writeable = False
            nodes.append(view)
        tree.feature, tree.threshold, tree.left, tree.right, tree.value = nodes
        tree.depth = int(self.depths[index])
        return tree

    def predict_numpy(self, X: np.ndarray) -> np.ndarray:
        """The predictions for the rows of *X*, every tree walked at once.

        Each tree's child indices are shifted by its offset, so one gather
        per level advances every tree on every row.  Sequential accumulation
        adds the trees left to right, as a loop of ``prediction +=
        learning_rate * tree.predict(X)`` would; np.sum would add pairwise
        and round differently.
        """
        shift = np.repeat(self.offsets[:-1], np.diff(self.offsets))
        flat = SimpleNamespace(feature=self.feature, threshold=self.threshold,
                               left=self.left + shift, right=self.right + shift)
        roots = np.repeat(self.offsets[:-1, None], len(X), axis=1)
        leaves = self.value[descend(flat, X, roots, int(self.depths.max()))]
        terms = np.vstack([np.full((1, len(X)), self.base),
                           self.learning_rate * leaves])
        return np.cumsum(terms, axis=0)[-1]
