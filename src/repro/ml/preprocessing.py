"""Feature preprocessing shared by the ML engines."""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Zero-mean, unit-variance feature scaling with constant-column safety."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("StandardScaler expects a 2-D array")
        if len(X) == 0:
            raise ValueError("cannot fit a scaler on an empty array")
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler has not been fitted")
        X = np.asarray(X, dtype=float)
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def flatten_windows(X: np.ndarray) -> np.ndarray:
    """Flatten a (samples, window, features) tensor into (samples, w*f).

    2-D input passes through unchanged, so engines accept either layout.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        return X
    if X.ndim == 3:
        return X.reshape(X.shape[0], -1)
    raise ValueError(f"expected 2-D or 3-D features, got shape {X.shape}")


def as_windows(X: np.ndarray) -> np.ndarray:
    """Ensure the (samples, window, features) layout (window=1 for 2-D input)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 3:
        return X
    if X.ndim == 2:
        return X[:, None, :]
    raise ValueError(f"expected 2-D or 3-D features, got shape {X.shape}")


def make_window_dataset(
    features: np.ndarray, targets: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Build sliding-window samples from one probe's time series.

    Following Section III-C, the model input at time step ``t_i`` is the
    feature data of steps ``t_{i-w+1} ... t_i`` and the target is the IPC at
    ``t_i``.  The first ``w - 1`` steps cannot form a full window and are
    dropped.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be (steps, num_features)")
    if len(features) != len(targets):
        raise ValueError("features and targets must have the same length")
    if window <= 0:
        raise ValueError("window must be positive")
    steps = len(features)
    if steps < window:
        return np.empty((0, window, features.shape[1])), np.empty((0,))
    windows = np.lib.stride_tricks.sliding_window_view(features, window, axis=0)
    X = np.ascontiguousarray(windows.transpose(0, 2, 1))
    y = targets[window - 1 :].copy()
    return X, y
