"""End-to-end two-stage bug detector and its evaluation protocol.

This module wires the pieces of the methodology together:

* simulate every probe, bug-free, on the stage-1 training (Set I) and
  validation (Set II) designs,
* select per-probe counters from that bug-free data,
* train one stage-1 model per probe,
* compute Equation-(1) error vectors for arbitrary (design, bug) pairs,
* train/evaluate the stage-2 rule-based classifier under the paper's
  leave-one-bug-type-out protocol (Figure 7), reporting TPR / FPR /
  precision / ROC-AUC overall, per bug type and per severity band (Table V).

The detector is generic over the substrate: it works identically for the core
study (``SimulationCache`` + ``MicroarchConfig`` + core bugs) and the memory
study (``MemorySimulationCache`` + ``MemoryHierarchyConfig`` + memory bugs),
because both expose the same small interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..bugs.base import Severity
from .counter_selection import manual_counter_set, select_counters
from .dataset import bug_key
from .metrics import DetectionMetrics, compute_metrics
from .probe import Probe
from .stage1 import ProbeModel, ProbeModelConfig
from .stage2 import RuleBasedClassifier


@dataclass
class DetectionSetup:
    """Everything the detector needs: probes, designs, bugs and model config."""

    probes: list[Probe]
    train_designs: list  # Set I
    val_designs: list  # Set II
    stage2_designs: list  # Sets II + III
    test_designs: list  # Set IV
    bug_suite: dict[str, list]
    cache: object
    model_config: ProbeModelConfig = field(default_factory=ProbeModelConfig)
    counter_selection: str = "auto"  # "auto" or "manual"
    target_higher_is_better: bool = True  # True for IPC, False for AMAT
    presumed_bugfree_bug: object | None = None

    def __post_init__(self) -> None:
        if not self.probes:
            raise ValueError("at least one probe is required")
        if not self.train_designs or not self.test_designs:
            raise ValueError("training and test design sets must be non-empty")
        if self.counter_selection not in ("auto", "manual"):
            raise ValueError("counter_selection must be 'auto' or 'manual'")
        if not self.bug_suite:
            raise ValueError("bug_suite must not be empty")


@dataclass
class FoldResult:
    """Evaluation of one leave-one-bug-type-out fold."""

    bug_type: str
    labels: list[bool]
    predictions: list[bool]
    scores: list[float]
    bug_names: list[str]
    metrics: DetectionMetrics


@dataclass
class EvaluationResult:
    """Aggregate of all leave-one-bug-type-out folds."""

    folds: dict[str, FoldResult]
    overall: DetectionMetrics
    tpr_by_severity: dict[Severity, float]
    severity_of_bug: dict[str, Severity]

    def summary_row(self) -> dict[str, float]:
        """The Table-V style row for this configuration."""
        row = {
            "FPR": self.overall.fpr,
            "TPR": self.overall.tpr,
            "ROC AUC": self.overall.roc_auc,
            "Precision": self.overall.precision,
        }
        for severity in Severity:
            row[f"TPR {severity.value}"] = self.tpr_by_severity.get(severity, float("nan"))
        return row


class TwoStageDetector:
    """The paper's two-stage methodology, end to end."""

    def __init__(self, setup: DetectionSetup) -> None:
        self.setup = setup
        self.models: dict[str, ProbeModel] = {}
        self._prepared = False
        #: Error vectors by (design name, bug key), the pair the simulation
        #: caches key observations by; the stage-1 models are fitted once,
        #: so every fold reads the same vectors.
        self._errors: dict[tuple[str, str], np.ndarray] = {}

    # -- helpers -------------------------------------------------------------------

    def _design_features(self, design) -> dict[str, float]:
        return design.feature_vector() if self.setup.model_config.use_arch_features else {}

    def _bugfree_bug(self):
        """Bug injected into designs presumed bug-free (None in the normal case)."""
        return self.setup.presumed_bugfree_bug

    def _observe(self, probe: Probe, design, bug=None):
        return self.setup.cache.get(probe, design, bug)

    def _warm(self, designs_and_bugs: Iterable[tuple]) -> None:
        """Batch-simulate (design, bug) pairs for every probe via the cache.

        Caches that expose ``warm`` (both bundled caches do) receive the
        whole working set as one batch, letting the job engine shard it
        across workers; other cache objects fall back to lazy ``get`` calls.
        """
        warm = getattr(self.setup.cache, "warm", None)
        if warm is None:
            return
        warm(
            (probe, design, bug)
            for design, bug in designs_and_bugs
            for probe in self.setup.probes
        )

    # -- preparation -----------------------------------------------------------------

    def prepare(self) -> None:
        """Collect bug-free training data, select counters, fit stage-1 models."""
        setup = self.setup
        presumed = self._bugfree_bug()
        self._errors.clear()
        self._warm((d, presumed) for d in setup.train_designs + setup.val_designs)
        for probe in setup.probes:
            train_series = {
                d.name: self._observe(probe, d, presumed).series for d in setup.train_designs
            }
            val_series = {
                d.name: self._observe(probe, d, presumed).series for d in setup.val_designs
            }
            all_series = list(train_series.values()) + list(val_series.values())
            if setup.counter_selection == "auto":
                probe.counters = select_counters(all_series)
            else:
                probe.counters = manual_counter_set(all_series)

            model = ProbeModel(probe=probe, config=setup.model_config)
            arch_features = {
                d.name: self._design_features(d)
                for d in setup.train_designs + setup.val_designs
            }
            model.fit(train_series, val_series, arch_features)
            self.models[probe.name] = model
        self._prepared = True

    # -- stage-1 errors -----------------------------------------------------------------

    def error_vector(self, design, bug=None) -> np.ndarray:
        """Equation-(1) errors of every probe for one (design, bug) pair,
        computed once per pair and returned as a copy."""
        if not self._prepared:
            raise RuntimeError("call prepare() before computing error vectors")
        key = (design.name, bug_key(bug))
        errors = self._errors.get(key)
        if errors is None:
            features = self._design_features(design)
            errors = np.asarray(
                [
                    self.models[probe.name].inference_error(
                        self._observe(probe, design, bug).series, features
                    )
                    for probe in self.setup.probes
                ],
                dtype=float,
            )
            self._errors[key] = errors
        return errors.copy()

    # -- severity --------------------------------------------------------------------------

    def measure_bug_severity(self, bug) -> Severity:
        """Severity band of *bug*: mean relative target degradation on test designs."""
        impacts = []
        for design in self.setup.test_designs:
            for probe in self.setup.probes:
                clean = self._observe(probe, design, None).target_metric
                buggy = self._observe(probe, design, bug).target_metric
                if clean <= 0:
                    continue
                if self.setup.target_higher_is_better:
                    impacts.append(max(0.0, (clean - buggy) / clean))
                else:
                    impacts.append(max(0.0, (buggy - clean) / clean))
        average = float(np.mean(impacts)) if impacts else 0.0
        return Severity.from_impact(average)

    # -- evaluation -------------------------------------------------------------------------

    def _stage2_training_errors(
        self, excluded_bug_type: str
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Positive/negative stage-2 training error vectors (Sets II + III)."""
        setup = self.setup
        presumed = self._bugfree_bug()
        positives: list[np.ndarray] = []
        negatives: list[np.ndarray] = []
        for design in setup.stage2_designs:
            negatives.append(self.error_vector(design, presumed))
            for bug_type, variants in setup.bug_suite.items():
                if bug_type == excluded_bug_type:
                    continue
                for bug in variants:
                    positives.append(self.error_vector(design, bug))
        return positives, negatives

    def _warm_for_evaluation(self, types: list[str]) -> None:
        """Pre-simulate exactly the observations :meth:`evaluate` will read.

        One big batch covers stage-2 training (Sets II + III, presumed
        bug-free plus every non-excluded bug variant), the Set-IV test rows
        and the severity measurement — the same set the lazy path would
        simulate one at a time, so cache miss counts are unchanged.
        """
        self._warm(evaluation_design_bug_pairs(self.setup, types))

    def evaluate_fold(self, bug_type: str) -> FoldResult:
        """Train stage 2 without *bug_type* and test on Set IV with it."""
        if bug_type not in self.setup.bug_suite:
            raise KeyError(f"unknown bug type {bug_type!r}")
        positives, negatives = self._stage2_training_errors(bug_type)
        classifier = RuleBasedClassifier()
        classifier.fit(positives, negatives)

        labels: list[bool] = []
        predictions: list[bool] = []
        scores: list[float] = []
        bug_names: list[str] = []
        for design in self.setup.test_designs:
            clean_errors = self.error_vector(design, None)
            labels.append(False)
            predictions.append(classifier.predict(clean_errors))
            scores.append(classifier.score(clean_errors))
            bug_names.append("bug-free")
            for bug in self.setup.bug_suite[bug_type]:
                errors = self.error_vector(design, bug)
                labels.append(True)
                predictions.append(classifier.predict(errors))
                scores.append(classifier.score(errors))
                bug_names.append(bug.name)
        metrics = compute_metrics(labels, predictions, scores)
        return FoldResult(
            bug_type=bug_type,
            labels=labels,
            predictions=predictions,
            scores=scores,
            bug_names=bug_names,
            metrics=metrics,
        )

    def evaluate(self, bug_types: Optional[Iterable[str]] = None) -> EvaluationResult:
        """Run every leave-one-bug-type-out fold and aggregate the metrics."""
        if not self._prepared:
            self.prepare()
        types = list(bug_types) if bug_types is not None else list(self.setup.bug_suite)
        self._warm_for_evaluation(types)
        folds = {bug_type: self.evaluate_fold(bug_type) for bug_type in types}

        all_labels: list[bool] = []
        all_predictions: list[bool] = []
        all_scores: list[float] = []
        for fold in folds.values():
            all_labels.extend(fold.labels)
            all_predictions.extend(fold.predictions)
            all_scores.extend(fold.scores)
        overall = compute_metrics(all_labels, all_predictions, all_scores)

        severity_of_bug: dict[str, Severity] = {}
        for bug_type in types:
            for bug in self.setup.bug_suite[bug_type]:
                severity_of_bug[bug.name] = self.measure_bug_severity(bug)

        tpr_by_severity = _tpr_by_severity(folds, severity_of_bug)
        return EvaluationResult(
            folds=folds,
            overall=overall,
            tpr_by_severity=tpr_by_severity,
            severity_of_bug=severity_of_bug,
        )


def evaluation_design_bug_pairs(
    setup: DetectionSetup, types: list[str]
) -> list[tuple]:
    """(design, bug) pairs a leave-one-bug-type-out evaluation reads.

    Shared by the two-stage detector and the single-stage baseline so their
    batch pre-warming stays in lockstep with the fold protocol: stage-2
    training designs with the presumed-bug-free bug plus every bug variant
    of each non-excluded type, then Set-IV test designs bug-free and with
    the evaluated types' variants (which also covers severity measurement).
    """
    presumed = setup.presumed_bugfree_bug
    pairs: list[tuple] = []
    # Stage-2 training: a bug type is needed whenever some evaluated fold
    # does not exclude it.
    stage2_types = [bt for bt in setup.bug_suite if any(t != bt for t in types)]
    for design in setup.stage2_designs:
        pairs.append((design, presumed))
        for bug_type in stage2_types:
            pairs.extend((design, bug) for bug in setup.bug_suite[bug_type])
    for design in setup.test_designs:
        pairs.append((design, None))
        for bug_type in types:
            pairs.extend((design, bug) for bug in setup.bug_suite[bug_type])
    return pairs


def _tpr_by_severity(
    folds: dict[str, FoldResult], severity_of_bug: dict[str, Severity]
) -> dict[Severity, float]:
    """True-positive rate broken down by measured severity band."""
    detected = {band: 0 for band in Severity}
    totals = {band: 0 for band in Severity}
    for fold in folds.values():
        for label, prediction, bug_name in zip(
            fold.labels, fold.predictions, fold.bug_names
        ):
            if not label:
                continue
            band = severity_of_bug.get(bug_name)
            if band is None:
                continue
            totals[band] += 1
            if prediction:
                detected[band] += 1
    return {
        band: (detected[band] / totals[band]) if totals[band] else float("nan")
        for band in Severity
    }
