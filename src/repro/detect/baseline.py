"""The naive single-stage baseline detector (Section II).

For every probe, a supervised classifier is trained directly on aggregated
probe features — the mean of each selected counter over the whole probe, the
probe's overall IPC, and the design's static parameters — with a bug /
no-bug label.  A design under test is classified by every probe and flagged
buggy when the fraction of positive probe votes ``rho`` reaches a threshold
``theta``.  The classifier is a gradient-boosted-trees regressor on {0, 1}
targets (the paper's best-performing single-stage engine is GBT-250).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..ml.gbt import GradientBoostedTrees
from .counter_selection import select_counters
from .detector import (
    DetectionSetup,
    EvaluationResult,
    FoldResult,
    _tpr_by_severity,
    evaluation_design_bug_pairs,
)
from .metrics import compute_metrics
from .probe import Probe


@dataclass
class SingleStageBaseline:
    """Voting ensemble of per-probe bug/no-bug classifiers."""

    setup: DetectionSetup
    n_estimators: int = 250
    theta_grid: tuple[float, ...] = tuple(np.round(np.arange(0.1, 0.91, 0.05), 3))
    max_fpr: float = 0.25
    theta: float = 0.5
    _classifiers: dict[str, GradientBoostedTrees] = field(default_factory=dict)
    _prepared: bool = False

    # -- feature construction -----------------------------------------------------

    def _probe_features(self, probe: Probe, design, bug=None) -> np.ndarray:
        observation = self.setup.cache.get(probe, design, bug)
        series = observation.series
        # A counter that never fired on this design is simply absent from the
        # sampled series and reads as a zero row, as on the stage-1 path.
        values = [float(row.mean()) for row in series.rows(probe.counters)]
        values.append(float(series.ipc.mean()))
        if self.setup.model_config.use_arch_features:
            features = design.feature_vector()
            values.extend(features[k] for k in sorted(features))
        return np.asarray(values, dtype=float)

    def _ensure_counters(self, probe: Probe) -> None:
        if probe.counters:
            return
        series = [
            self.setup.cache.get(probe, d, self.setup.presumed_bugfree_bug).series
            for d in self.setup.train_designs + self.setup.val_designs
        ]
        probe.counters = select_counters(series)

    # -- training --------------------------------------------------------------------

    def _training_samples(
        self, probe: Probe, excluded_bug_type: str
    ) -> tuple[np.ndarray, np.ndarray]:
        rows: list[np.ndarray] = []
        labels: list[float] = []
        presumed = self.setup.presumed_bugfree_bug
        for design in self.setup.stage2_designs:
            rows.append(self._probe_features(probe, design, presumed))
            labels.append(0.0)
            for bug_type, variants in self.setup.bug_suite.items():
                if bug_type == excluded_bug_type:
                    continue
                for bug in variants:
                    rows.append(self._probe_features(probe, design, bug))
                    labels.append(1.0)
        return np.vstack(rows), np.asarray(labels)

    def _fit_fold(self, excluded_bug_type: str) -> None:
        self._classifiers = {}
        vote_matrix: list[np.ndarray] = []
        labels: list[float] = []
        for probe in self.setup.probes:
            self._ensure_counters(probe)
            X, y = self._training_samples(probe, excluded_bug_type)
            # zlib.crc32, not hash(): str hashing is salted per interpreter
            # run, which made baseline results differ between invocations.
            model = GradientBoostedTrees(
                n_estimators=self.n_estimators, max_depth=3,
                seed=zlib.crc32(probe.name.encode("utf-8")) % (2**31),
            )
            model.fit(X, y)
            self._classifiers[probe.name] = model
            vote_matrix.append((model.predict(X) > 0.5).astype(float))
            labels = list(y)
        # Tune theta on the training votes: highest TPR subject to the FPR bound.
        votes = np.vstack(vote_matrix)  # probes x samples
        rho = votes.mean(axis=0)
        label_arr = np.asarray(labels, dtype=bool)
        best_theta = self.theta_grid[0]
        best_tpr = -1.0
        for theta in self.theta_grid:
            predictions = rho >= theta
            positives = label_arr.sum()
            negatives = (~label_arr).sum()
            tpr = float(np.sum(predictions & label_arr)) / positives if positives else 0.0
            fpr = float(np.sum(predictions & ~label_arr)) / negatives if negatives else 0.0
            if fpr <= self.max_fpr and tpr > best_tpr:
                best_tpr = tpr
                best_theta = theta
        self.theta = float(best_theta)
        self._prepared = True

    # -- inference ----------------------------------------------------------------------

    def vote_fraction(self, design, bug=None) -> float:
        """rho: fraction of probes whose classifier flags (design, bug)."""
        if not self._prepared:
            raise RuntimeError("baseline has not been trained for a fold yet")
        votes = []
        for probe in self.setup.probes:
            features = self._probe_features(probe, design, bug)[None, :]
            votes.append(float(self._classifiers[probe.name].predict(features)[0] > 0.5))
        return float(np.mean(votes))

    def predict(self, design, bug=None) -> bool:
        return self.vote_fraction(design, bug) >= self.theta

    # -- evaluation ------------------------------------------------------------------------

    def evaluate_fold(self, bug_type: str) -> FoldResult:
        self._fit_fold(bug_type)
        labels: list[bool] = []
        predictions: list[bool] = []
        scores: list[float] = []
        bug_names: list[str] = []
        for design in self.setup.test_designs:
            rho = self.vote_fraction(design, None)
            labels.append(False)
            predictions.append(rho >= self.theta)
            scores.append(rho)
            bug_names.append("bug-free")
            for bug in self.setup.bug_suite[bug_type]:
                rho = self.vote_fraction(design, bug)
                labels.append(True)
                predictions.append(rho >= self.theta)
                scores.append(rho)
                bug_names.append(bug.name)
        return FoldResult(
            bug_type=bug_type,
            labels=labels,
            predictions=predictions,
            scores=scores,
            bug_names=bug_names,
            metrics=compute_metrics(labels, predictions, scores),
        )

    def _warm(self, types: list[str]) -> None:
        """Batch-simulate the full working set of :meth:`evaluate` up front."""
        warm = getattr(self.setup.cache, "warm", None)
        if warm is None:
            return
        setup = self.setup
        # Counter selection reads bug-free train/val series, then the folds
        # read the same evaluation set as the two-stage detector.
        pairs: list[tuple] = [
            (d, setup.presumed_bugfree_bug)
            for d in setup.train_designs + setup.val_designs
        ]
        pairs.extend(evaluation_design_bug_pairs(setup, types))
        warm((probe, design, bug) for design, bug in pairs for probe in setup.probes)

    def evaluate(self, bug_types: Optional[Iterable[str]] = None) -> EvaluationResult:
        """Leave-one-bug-type-out evaluation mirroring the two-stage detector."""
        types = list(bug_types) if bug_types is not None else list(self.setup.bug_suite)
        self._warm(types)
        folds = {bug_type: self.evaluate_fold(bug_type) for bug_type in types}

        all_labels: list[bool] = []
        all_predictions: list[bool] = []
        all_scores: list[float] = []
        for fold in folds.values():
            all_labels.extend(fold.labels)
            all_predictions.extend(fold.predictions)
            all_scores.extend(fold.scores)
        overall = compute_metrics(all_labels, all_predictions, all_scores)

        # Severity is a property of the bug/simulator, not of the detector;
        # reuse the same measurement as the two-stage pipeline.
        from .detector import TwoStageDetector

        measurer = TwoStageDetector(self.setup)
        severity_of_bug = {}
        for bug_type in types:
            for bug in self.setup.bug_suite[bug_type]:
                severity_of_bug[bug.name] = measurer.measure_bug_severity(bug)
        tpr_by_severity = _tpr_by_severity(folds, severity_of_bug)
        return EvaluationResult(
            folds=folds,
            overall=overall,
            tpr_by_severity=tpr_by_severity,
            severity_of_bug=severity_of_bug,
        )
