"""Model registry: train a detection engine once, persist it, serve forever.

Offline, every experiment retrains the two-stage detector from scratch:
stage-1 models are fitted per probe on bug-free legacy designs, then the
stage-2 rule classifier is trained on labelled error vectors.  A service
answering probe→verdict queries cannot afford that — it needs the trained
state *resident*.  This module packages exactly that state:

* :class:`RegisteredModel` — the probes (with their selected counters), the
  trained per-probe stage-1 models, the trained stage-2 classifier, and the
  sampling step, in one picklable object;
* :class:`ModelSchema` — the feature/counter schema the model was trained
  with (per-probe counter sets, per-probe stage-1 feature name lists, step
  size, ML engine).  The schema is recorded **next to** the payload when
  saving and recomputed **from** the payload when loading; any mismatch
  (tampered file, drifted code) refuses to load with :class:`RegistryError`
  rather than silently serving wrong verdicts;
* provenance — the content digest of the training job keys (the
  :class:`~repro.runtime.ResultStore` keys the training data occupies),
  design/bug rosters, and creation time, so a served verdict can always be
  traced back to the data that trained the model;
* :func:`train_model` / :func:`save_model` / :func:`load_model` — the
  train-once / load-many lifecycle, plus :func:`offline_verdicts`, the
  reference scoring path used by tests and ``repro-client --offline`` to
  pin the daemon bit-identical to the offline experiment path.

Unlike the leave-one-bug-type-out *evaluation* protocol (which exists to
measure generalisation), a served model trains stage 2 on **every** bug type:
in production you want the best detector you can build, not a held-out fold.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..detect.detector import DetectionSetup, TwoStageDetector
from ..detect.probe import Probe
from ..detect.stage1 import ProbeModel
from ..detect.stage2 import RuleBasedClassifier
from ..runtime import SimulationJob, job_keys, trace_digest

#: On-disk registry format; bump on incompatible layout changes.  Format 3:
#: the record holds only builtins, the model one pickled blob in it, and a
#: fitted GBT is one packed forest.  Format 2 pickled the model into the
#: record itself, with per-tree node arrays beside the forest; format 1
#: pickled ``_Node`` trees.
REGISTRY_FORMAT_VERSION = 3


class RegistryError(RuntimeError):
    """A registry file could not be loaded: corrupt, wrong format, or the
    recorded schema disagrees with the payload."""


@dataclass(frozen=True)
class ModelSchema:
    """The feature/counter schema a registered model was trained with.

    Serving feeds counter series through the stage-1 models by *name*; a
    model whose recorded schema disagrees with its payload would read the
    wrong columns and emit confidently wrong verdicts, so the schema is the
    load-time integrity check.
    """

    step_cycles: int
    ml_engine: str
    use_arch_features: bool
    counters: dict[str, tuple[str, ...]]  # probe name -> selected counters
    feature_names: dict[str, tuple[str, ...]]  # probe name -> stage-1 features

    def to_payload(self) -> dict:
        """JSON-friendly dict (stable ordering) for recording and digests."""
        return {
            "step_cycles": self.step_cycles,
            "ml_engine": self.ml_engine,
            "use_arch_features": self.use_arch_features,
            "counters": {name: list(c) for name, c in sorted(self.counters.items())},
            "feature_names": {
                name: list(f) for name, f in sorted(self.feature_names.items())
            },
        }

    def digest(self) -> str:
        encoded = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class Verdict:
    """One served probe→verdict answer."""

    config_name: str
    bug_name: str
    detected: bool
    score: float
    errors: tuple[float, ...]

    def row(self) -> dict:
        """Picklable/printable flattening (wire + CLI representation)."""
        return {
            "config_name": self.config_name,
            "bug_name": self.bug_name,
            "detected": self.detected,
            "score": self.score,
            "errors": self.errors,
        }


@dataclass
class RegisteredModel:
    """A trained detection engine plus everything needed to serve it."""

    name: str
    schema: ModelSchema
    provenance: dict
    probes: list[Probe]
    models: dict[str, ProbeModel]  # probe name -> trained stage-1 model
    classifier: RuleBasedClassifier
    use_arch_features: bool = True

    def computed_schema(self) -> ModelSchema:
        """Recompute the schema from the live payload (load-time check)."""
        return ModelSchema(
            step_cycles=self.schema.step_cycles,
            ml_engine=self.schema.ml_engine,
            use_arch_features=self.use_arch_features,
            counters={p.name: tuple(p.counters) for p in self.probes},
            feature_names={
                name: tuple(model.feature_names)
                for name, model in sorted(self.models.items())
            },
        )

    # -- scoring ---------------------------------------------------------------

    def _features(self, config) -> dict[str, float]:
        return config.feature_vector() if self.use_arch_features else {}

    def error_vector(self, series_by_probe: dict, config) -> np.ndarray:
        """Equation-(1) errors of every probe from pre-simulated series."""
        features = self._features(config)
        errors = []
        for probe in self.probes:
            series = series_by_probe[probe.name]
            errors.append(self.models[probe.name].inference_error(series, features))
        return np.asarray(errors, dtype=float)

    def verdict(self, series_by_probe: dict, config, bug=None) -> Verdict:
        """Score one design-under-test from its per-probe counter series."""
        errors = self.error_vector(series_by_probe, config)
        score = self.classifier.score(errors)
        return Verdict(
            config_name=getattr(config, "name", "?"),
            bug_name=getattr(bug, "name", "bug-free") if bug is not None else "bug-free",
            detected=bool(score > 1.0),
            score=float(score),
            errors=tuple(float(e) for e in errors),
        )


# -- training ----------------------------------------------------------------


def training_job_keys(setup: DetectionSetup, step_cycles: int) -> list[str]:
    """Store keys of every simulation the training protocol consumes.

    Stage 1 reads (train ∪ val designs) bug-free; stage 2 reads the stage-2
    designs presumed-bug-free plus every bug variant of every type.  The
    sorted key list content-addresses the training data, which is exactly
    what the provenance digest must pin.
    """
    presumed = setup.presumed_bugfree_bug
    pairs = [(design, presumed) for design in setup.train_designs + setup.val_designs]
    for design in setup.stage2_designs:
        pairs.append((design, presumed))
        for variants in setup.bug_suite.values():
            pairs.extend((design, bug) for bug in variants)
    jobs = [
        SimulationJob(
            study=setup.cache.study,
            config=design,
            bug=bug,
            trace_id=trace_digest(probe.decoded),
            step=step_cycles,
        )
        for design, bug in pairs
        for probe in setup.probes
    ]
    return sorted(set(job_keys(jobs)))


def _training_digest(keys: list[str]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for key in keys:
        hasher.update(key.encode("ascii"))
    return hasher.hexdigest()


def train_model(
    setup: DetectionSetup,
    name: str = "default",
    provenance: dict | None = None,
) -> RegisteredModel:
    """Train the full two-stage detection engine once, for serving.

    Runs the standard :meth:`TwoStageDetector.prepare` (counter selection +
    stage-1 fits on bug-free data), then fits the stage-2 classifier on
    labelled error vectors from **all** bug types — no fold is held out.
    Every simulation goes through ``setup.cache`` (and therefore through its
    engine and store), so training a model warms the same store the daemon
    later serves from.
    """
    step_cycles = int(getattr(setup.cache, "step_cycles"))
    detector = TwoStageDetector(setup)
    detector.prepare()
    detector._warm(
        (design, bug)
        for design in setup.stage2_designs
        for bug in [setup.presumed_bugfree_bug]
        + [bug for variants in setup.bug_suite.values() for bug in variants]
    )

    positives: list[np.ndarray] = []
    negatives: list[np.ndarray] = []
    for design in setup.stage2_designs:
        negatives.append(detector.error_vector(design, setup.presumed_bugfree_bug))
        for variants in setup.bug_suite.values():
            positives.extend(detector.error_vector(design, bug) for bug in variants)
    classifier = RuleBasedClassifier()
    classifier.fit(positives, negatives)

    keys = training_job_keys(setup, step_cycles)
    schema = ModelSchema(
        step_cycles=step_cycles,
        ml_engine=setup.model_config.engine,
        use_arch_features=setup.model_config.use_arch_features,
        counters={p.name: tuple(p.counters) for p in setup.probes},
        feature_names={
            probe_name: tuple(model.feature_names)
            for probe_name, model in sorted(detector.models.items())
        },
    )
    recorded_provenance = {
        "training_jobs": len(keys),
        "training_digest": _training_digest(keys),
        "train_designs": sorted(d.name for d in setup.train_designs),
        "val_designs": sorted(d.name for d in setup.val_designs),
        "stage2_designs": sorted(d.name for d in setup.stage2_designs),
        "bug_types": sorted(setup.bug_suite),
        "probes": [p.name for p in setup.probes],
        "created_unix": time.time(),
    }
    recorded_provenance.update(provenance or {})
    return RegisteredModel(
        name=name,
        schema=schema,
        provenance=recorded_provenance,
        probes=setup.probes,
        models=dict(detector.models),
        classifier=classifier,
        use_arch_features=setup.model_config.use_arch_features,
    )


# -- persistence --------------------------------------------------------------


def save_model(model: RegisteredModel, path: "str | os.PathLike") -> None:
    """Persist *model* atomically (temp file + ``os.replace``).

    The file is one pickled dict of builtins only: a format version, the
    schema recorded as plain JSON-able data (checkable without trusting the
    payload), its digest, and the model payload pickled into a bytes blob.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    schema = model.computed_schema()
    record = {
        "format": REGISTRY_FORMAT_VERSION,
        "schema": schema.to_payload(),
        "schema_digest": schema.digest(),
        "model": pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL),
    }
    tmp = target.with_suffix(target.suffix + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, target)
    finally:
        if tmp.exists():  # pragma: no cover - only on write failure
            try:
                tmp.unlink()
            except OSError:
                pass


class _ClassInRecord(pickle.UnpicklingError):
    """The record names a class: it predates format 3."""


class _BuiltinsOnly(pickle.Unpickler):
    """Reads a registry record without importing or calling anything."""

    def find_class(self, module: str, name: str):
        raise _ClassInRecord(f"{module}.{name}")


def load_model(path: "str | os.PathLike") -> RegisteredModel:
    """Load a registry file, refusing anything corrupt or schema-mismatched.

    The record's format is read before any class is unpickled, so a file
    from another format is refused as such, even one that names a class
    this build lacks.

    Raises
    ------
    RegistryError
        If the file cannot be unpickled (truncated, garbage), carries an
        unknown format version, or its recorded schema does not match the
        schema recomputed from the payload (tampering or code drift since
        training — serving such a model would read wrong feature columns).
    """
    unsupported = "registry format {} unsupported (this build reads format {})"
    try:
        with open(Path(path), "rb") as handle:
            record = _BuiltinsOnly(handle).load()
    except OSError:
        raise
    except _ClassInRecord as exc:
        raise RegistryError(
            unsupported.format(f"before {REGISTRY_FORMAT_VERSION}", REGISTRY_FORMAT_VERSION)
            + f": its record names {exc}") from None
    except Exception as exc:
        raise RegistryError(f"corrupt registry file {path}: {exc}") from exc
    if not isinstance(record, dict) or "model" not in record:
        raise RegistryError(f"not a model registry file: {path}")
    version = record.get("format")
    if version != REGISTRY_FORMAT_VERSION:
        raise RegistryError(unsupported.format(repr(version), REGISTRY_FORMAT_VERSION))
    try:
        model = pickle.loads(record["model"])
    except Exception as exc:
        raise RegistryError(f"corrupt registry file {path}: {exc}") from exc
    if not isinstance(model, RegisteredModel):
        raise RegistryError(
            f"registry payload is {type(model).__name__}, expected RegisteredModel"
        )
    recorded = record.get("schema")
    computed = model.computed_schema()
    if recorded != computed.to_payload():
        raise RegistryError(
            f"schema mismatch in {path}: recorded feature/counter schema does "
            "not match the model payload (tampered file or drifted code); "
            "retrain the model"
        )
    if record.get("schema_digest") != computed.digest():
        raise RegistryError(f"schema digest mismatch in {path}; retrain the model")
    return model


# -- the offline reference path ----------------------------------------------


def offline_verdicts(
    model: RegisteredModel, cache, requests: "list[tuple]"
) -> list[Verdict]:
    """Score *requests* through a :class:`~repro.detect.dataset.SimulationCache`.

    This is the offline experiment path — the exact substrate
    :class:`~repro.experiments.common.ExperimentContext` uses — applied to a
    registered model: every (probe, config, bug) observation comes from the
    cache (and its engine/store), then flows through the same stage-1/stage-2
    scoring as the daemon.  Tests and CI diff the daemon against this
    function; the two must agree bit-for-bit.
    """
    cache.warm(
        (probe, config, bug) for config, bug in requests for probe in model.probes
    )
    verdicts = []
    for config, bug in requests:
        series_by_probe = {
            probe.name: cache.get(probe, config, bug).series for probe in model.probes
        }
        verdicts.append(model.verdict(series_by_probe, config, bug))
    return verdicts
