"""Stage 1: per-probe performance (IPC/AMAT) modelling (Section III-C).

One regression model is trained *per probe* on bug-free legacy designs.  The
model maps the probe's selected performance counters (optionally augmented
with static microarchitecture design-parameter features) sampled per time
step to the target metric of that step.  Applying the model to a new design
yields a time series of inferred values whose Equation-(1) error against the
simulated values is the probe's stage-1 output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..coresim.counters import CounterTimeSeries
from ..ml.engines import build_model
from ..ml.metrics import inference_error, mean_squared_error
from ..ml.preprocessing import make_window_dataset
from .probe import Probe


@dataclass
class ProbeModelConfig:
    """Hyper-parameters of a per-probe stage-1 model."""

    engine: str = "GBT-250"
    window: int = 1
    use_arch_features: bool = True
    max_epochs: int | None = 150
    patience: int | None = 50
    seed: int = 0


@dataclass
class ProbeModel:
    """The stage-1 IPC/AMAT model of one probe."""

    probe: Probe
    config: ProbeModelConfig = field(default_factory=ProbeModelConfig)
    _model: object | None = None
    feature_names: list[str] = field(default_factory=list)

    def _build_features(
        self,
        series: CounterTimeSeries,
        arch_features: dict[str, float] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-step feature windows and targets for one design's series:
        the probe's counter rows gathered from the series, then the design's
        sorted static features (:meth:`_resolve_feature_names`) at every step."""
        names = self.feature_names
        static = arch_features if self.config.use_arch_features and arch_features else {}
        split = len(names)
        while split and names[split - 1] in static:
            split -= 1
        matrix = np.empty((series.num_steps, len(names)))
        matrix[:, :split] = series.matrix(names[:split])
        matrix[:, split:] = [static[name] for name in names[split:]]
        targets = series.ipc
        if len(targets) < self.config.window and len(targets) > 0:
            # Short probes on fast designs can have fewer steps than the
            # window; pad by repeating the first step so one sample exists.
            pad = self.config.window - len(targets)
            matrix = np.vstack([np.repeat(matrix[:1], pad, axis=0), matrix])
            targets = np.concatenate([np.repeat(targets[:1], pad), targets])
        return make_window_dataset(matrix, targets, self.config.window)

    def _resolve_feature_names(self, arch_features: dict[str, float] | None) -> None:
        names = list(self.probe.counters)
        if not names:
            raise ValueError(
                f"probe {self.probe.name} has no selected counters; run counter "
                "selection before training stage 1"
            )
        if self.config.use_arch_features and arch_features:
            names = names + sorted(arch_features)
        self.feature_names = names

    def fit(
        self,
        train_series: dict[str, CounterTimeSeries],
        val_series: dict[str, CounterTimeSeries],
        arch_features: dict[str, dict[str, float]] | None = None,
    ) -> float:
        """Train on bug-free series of the training/validation designs.

        Parameters
        ----------
        train_series:
            ``{design name: bug-free series}`` for the Set-I designs.
        val_series:
            Same for the Set-II designs (early-stopping validation).
        arch_features:
            ``{design name: static feature dict}``; required when
            ``use_arch_features`` is enabled.

        Returns the validation MSE (or training MSE when no validation data).
        """
        if not train_series:
            raise ValueError("stage-1 training requires at least one design")
        arch_features = arch_features or {}
        sample_arch = next(iter(train_series))
        self._resolve_feature_names(arch_features.get(sample_arch))

        def assemble(series_map: dict[str, CounterTimeSeries]):
            xs, ys = [], []
            for name, series in series_map.items():
                X, y = self._build_features(series, arch_features.get(name))
                if len(y):
                    xs.append(X)
                    ys.append(y)
            if not xs:
                return np.empty((0, self.config.window, len(self.feature_names))), np.empty(0)
            return np.concatenate(xs), np.concatenate(ys)

        X_train, y_train = assemble(train_series)
        X_val, y_val = assemble(val_series)
        if len(y_train) == 0:
            raise ValueError("no stage-1 training samples were produced")

        self._model = build_model(
            self.config.engine,
            seed=self.config.seed,
            max_epochs=self.config.max_epochs,
            patience=self.config.patience,
        )
        self._model.fit(X_train, y_train, X_val if len(y_val) else None,
                        y_val if len(y_val) else None)
        if len(y_val):
            return mean_squared_error(y_val, self._model.predict(X_val))
        return mean_squared_error(y_train, self._model.predict(X_train))

    def predict_series(
        self,
        series: CounterTimeSeries,
        arch_features: dict[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (simulated, inferred) target series for one design."""
        if self._model is None:
            raise RuntimeError("stage-1 model has not been trained")
        X, y = self._build_features(series, arch_features)
        if len(y) == 0:
            raise ValueError(
                f"series for probe {self.probe.name} is shorter than the window"
            )
        return y, self._model.predict(X)

    def inference_error(
        self,
        series: CounterTimeSeries,
        arch_features: dict[str, float] | None = None,
    ) -> float:
        """Equation-(1) error of the model on one design's series."""
        simulated, inferred = self.predict_series(series, arch_features)
        return inference_error(simulated, inferred)

    def mse(
        self,
        series: CounterTimeSeries,
        arch_features: dict[str, float] | None = None,
    ) -> float:
        """Plain MSE of the model on one design's series (used by Fig. 11)."""
        simulated, inferred = self.predict_series(series, arch_features)
        return mean_squared_error(simulated, inferred)
