"""ctypes marshalling for the native (C) gradient-boosting loop and predict.

:func:`boost_native` runs every round of
:meth:`~repro.ml.gbt.GradientBoostedTrees.fit` through ``repro_gbt_fit``, the
C port of the numpy boosting loop that ``repro/coresim/native/_gbt.c`` adds
to the native kernel library (one shared object, built and cached by
:mod:`repro.coresim.native.build`).  Each round's rows are drawn here with
the fit's own ``rng.choice``; the draws after an early stop go unused, and
the generator is local to the fit.  The kept trees come back as node
arrays, packed as they are into one :class:`~repro.ml.tree.Forest`, so the
trees, the losses and early stopping are bit-identical to the numpy loop's.
:func:`predict_native` walks that forest in ``repro_gbt_predict`` and adds
the leaves in the order the numpy walk's ``np.cumsum`` adds them.

Inputs the kernel does not take raise
:class:`~repro.coresim.native.NativeKernelUnavailable`, and ``fit`` runs the
numpy loop instead: no library, a build whose ``GbtParams`` layout differs
from this module's, a non-finite training feature (numpy sorts
NaN last), targets that are not one per row (the numpy loop broadcasts or
rejects them), a non-integer tree or round parameter, or a tree that needs
more nodes than one whose leaves all hold rows.  Predict takes every row
its caller checked the width of; only a missing or skewed library sends it
to the numpy walk.
"""

from __future__ import annotations

import ctypes
import operator

import numpy as np

from ..coresim.native import NativeKernelUnavailable
from ..coresim.native.build import Unit, bind
from .tree import Forest, RegressionTree

__all__ = ["NativeKernelUnavailable", "boost_native", "predict_native"]


class _GbtParams(ctypes.Structure):
    """``GbtParams`` of ``_gbt.c``, checked against its layout report."""

    _fields_ = [
        ("rows", ctypes.c_int64),
        ("features", ctypes.c_int64),
        ("val_rows", ctypes.c_int64),
        ("rounds", ctypes.c_int64),
        ("sample_rows", ctypes.c_int64),
        ("node_capacity", ctypes.c_int64),
        ("max_depth", ctypes.c_int64),
        ("min_samples_leaf", ctypes.c_int64),
        ("min_samples_split", ctypes.c_int64),
        ("early_stopping_rounds", ctypes.c_int64),
        ("learning_rate", ctypes.c_double),
        ("base", ctypes.c_double),
    ]


_i64 = ctypes.POINTER(ctypes.c_int64)
_f64 = ctypes.POINTER(ctypes.c_double)

_UNIT = Unit(
    "gbt",
    _GbtParams,
    {},
    "repro_gbt_fit",
    [
        ctypes.POINTER(_GbtParams),
        _f64, _f64, _f64, _f64,  # X, y, X_val, y_val
        _i64,                    # draws (NULL: every row, in order)
        _i64, _f64, _i64, _i64, _f64,  # feature, threshold, left, right, value
        _i64, _i64,              # tree_nodes, tree_depth
        _f64,                    # history
        _i64,                    # out_counts
    ],
)

_PREDICT = Unit(
    "gbt",
    _GbtParams,
    {},
    "repro_gbt_predict",
    [
        ctypes.POINTER(_GbtParams),
        _i64,                          # the trees' offsets
        _i64, _f64, _i64, _i64, _f64,  # feature, threshold, left, right, value
        _f64, ctypes.c_int64, _f64,    # X, rows, out
    ],
)


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise NativeKernelUnavailable(f"a non-integer {what}") from None


def _pointer(array: "np.ndarray | None", kind):
    return None if array is None else array.ctypes.data_as(kind)


def boost_native(
    model,
    base: float,
    X: np.ndarray,
    y: np.ndarray,
    X_val: "np.ndarray | None",
    y_val: "np.ndarray | None",
) -> "tuple[Forest | None, list[float]]":
    """The forest of kept trees (None when none is kept) and the per-round
    train losses of *model*'s boosting loop from *base* on validated
    inputs, run in C.

    *model* is the :class:`~repro.ml.gbt.GradientBoostedTrees` being fit.
    Raises :class:`NativeKernelUnavailable` when the library is missing or
    skewed or the inputs are past a kernel limit (see the module docstring).
    """
    # The numpy loop's first round builds this tree, and raises its errors.
    template = RegressionTree(max_depth=model.max_depth,
                              min_samples_leaf=model.min_samples_leaf)
    rounds = _integer(model.n_estimators, "round count")
    max_depth = _integer(template.max_depth, "tree depth")
    min_leaf = _integer(template.min_samples_leaf, "leaf size")
    patience = _integer(model.early_stopping_rounds, "early-stopping patience")
    if not np.isfinite(X).all():
        raise NativeKernelUnavailable("a non-finite training feature")
    n_rows, n_features = X.shape
    if y.ndim != 1 or (X_val is not None and (
            X_val.shape[1] != n_features or y_val.shape != (len(X_val),))):
        raise NativeKernelUnavailable("data shaped unlike one row per target")
    lib = bind(_UNIT)

    sample_count = max(2, int(round(model.subsample * n_rows)))
    draws = None
    if model.subsample < 1.0 and n_rows > sample_count:
        rng = np.random.default_rng(model.seed)
        draws = np.array([rng.choice(n_rows, size=sample_count, replace=False)
                          for _ in range(rounds)], dtype=np.int64)
    sample_rows = sample_count if draws is not None else n_rows
    # A tree whose leaves all hold rows has at most 2 * rows - 1 nodes.
    capacity = min(2 * sample_rows - 1, (1 << min(max_depth + 1, 62)) - 1)

    params = _GbtParams()
    params.rows = n_rows
    params.features = n_features
    params.val_rows = 0 if X_val is None else len(X_val)
    params.rounds = rounds
    params.sample_rows = sample_rows
    params.node_capacity = capacity
    params.max_depth = max_depth
    params.min_samples_leaf = min(min_leaf, sample_rows + 1)
    params.min_samples_split = min(template.min_samples_split, sample_rows + 1)
    params.early_stopping_rounds = min(max(patience, 1), rounds + 1)
    params.learning_rate = model.learning_rate
    params.base = base

    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X_val is not None:
        X_val = np.ascontiguousarray(X_val, dtype=np.float64)
        y_val = np.ascontiguousarray(y_val, dtype=np.float64)
    slots = rounds * capacity
    feature, left, right = (np.empty(slots, dtype=np.int64) for _ in range(3))
    threshold, value = (np.empty(slots, dtype=np.float64) for _ in range(2))
    tree_nodes = np.empty(rounds, dtype=np.int64)
    tree_depth = np.empty(rounds, dtype=np.int64)
    history = np.empty(rounds, dtype=np.float64)
    counts = np.zeros(2, dtype=np.int64)
    rc = lib.repro_gbt_fit(
        ctypes.byref(params),
        _pointer(X, _f64), _pointer(y, _f64),
        _pointer(X_val, _f64), _pointer(y_val, _f64),
        _pointer(draws, _i64),
        _pointer(feature, _i64), _pointer(threshold, _f64),
        _pointer(left, _i64), _pointer(right, _i64), _pointer(value, _f64),
        _pointer(tree_nodes, _i64), _pointer(tree_depth, _i64),
        _pointer(history, _f64),
        _pointer(counts, _i64),
    )
    if rc == 2:
        raise MemoryError("native GBT fit could not allocate its work arrays")
    if rc == 3:
        raise NativeKernelUnavailable("a tree with more nodes than rows allow")
    if rc != 0:
        raise RuntimeError(f"native GBT kernel failed (rc={rc})")

    rounds_run, kept = (int(v) for v in counts)
    if not kept:
        return None, history[:rounds_run].tolist()
    offsets = np.zeros(kept + 1, dtype=np.int64)
    np.cumsum(tree_nodes[:kept], out=offsets[1:])
    # The kept trees' nodes, copied out so the slot arrays are freed.
    nodes = tuple(array[:offsets[-1]].copy()
                  for array in (feature, threshold, left, right, value))
    forest = Forest(nodes, offsets, tree_depth[:kept].copy(), n_features, base,
                    model.learning_rate)
    return forest, history[:rounds_run].tolist()


def predict_native(forest: Forest, X: np.ndarray) -> np.ndarray:
    """*forest*'s predictions for the rows of *X*, computed in C.

    *X* is C-contiguous float64 with ``forest.features`` columns (the
    caller checks).  The forest's arguments are marshalled at its first C
    predict and kept on it: the arrays they point into never change, and
    the C walk writes only its output, so threads may share them.  Raises
    :class:`NativeKernelUnavailable` when the library is missing or skewed.
    """
    lib = bind(_PREDICT)
    arguments = forest.native
    if arguments is None:
        params = _GbtParams(features=forest.features, rounds=len(forest),
                            learning_rate=forest.learning_rate, base=forest.base)
        arguments = forest.native = (
            ctypes.byref(params), _pointer(forest.offsets, _i64),
            _pointer(forest.feature, _i64), _pointer(forest.threshold, _f64),
            _pointer(forest.left, _i64), _pointer(forest.right, _i64),
            _pointer(forest.value, _f64))
    out = np.empty(len(X))
    lib.repro_gbt_predict(*arguments, _pointer(X, _f64), len(X), _pointer(out, _f64))
    return out
