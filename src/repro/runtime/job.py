"""Pure-data simulation job specs and content-addressed job identity.

A :class:`SimulationJob` describes one simulator invocation — which study
(core pipeline or memory hierarchy), which design, which injected bug, which
probe trace and which sampling step — without holding the trace itself.
Traces are referenced by a content digest (``trace_id``) and shipped to
worker processes once per batch, so job objects stay small and picklable.

The :meth:`SimulationJob.key` content hash is the identity used by the
persistent :class:`~repro.runtime.store.ResultStore`: two jobs with
identical (config, bug, trace, step) content share a key even across
interpreter sessions, different probe names, or different machines.
:func:`job_keys` computes the keys of a batch, fingerprinting each design
and bug once instead of once per job.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..workloads.decoded import DecodedTrace
from ..workloads.isa import MicroOp

#: A trace in any of the forms the runtime accepts: a plain micro-op list or
#: the pre-decoded representation (preferred — it ships to workers as compact
#: column arrays instead of pickled object lists).
TraceLike = "list[MicroOp] | DecodedTrace"

#: Study kinds understood by the engine workers.
CORE_STUDY = "core"
MEMORY_STUDY = "memory"

#: Canonical spelling for "no injected bug" in fingerprints.
BUG_FREE_FINGERPRINT = "bug-free"


#: Types :func:`_canonical` returns as they are.  Exact types only: a str
#: or int subclass (an IntEnum among them) takes the branches below.
_PRIMITIVES = frozenset({str, int, float, bool, type(None)})

#: Per type seen: its instances' dataclass field names, in declaration
#: order, or None when they are not dataclass instances.
_FIELD_NAMES: "dict[type, tuple[str, ...] | None]" = {}


def _canonical(value: object) -> object:
    """Reduce *value* to JSON-serialisable primitives, deterministically."""
    kind = type(value)
    if kind in _PRIMITIVES:
        return value
    try:
        names = _FIELD_NAMES[kind]
    except KeyError:
        names = _FIELD_NAMES[kind] = (
            tuple(f.name for f in dataclasses.fields(value))
            if dataclasses.is_dataclass(value) and not isinstance(value, type) else None)
    if names is not None:
        return [kind.__name__, {name: _canonical(getattr(value, name)) for name in names}]
    if isinstance(value, enum.Enum):
        return [kind.__name__, value.name]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {kind.__name__} for job hashing")


def _digest(payload: object) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()


def config_fingerprint(config) -> str:
    """Content hash of a (frozen dataclass) design configuration."""
    return _digest(_canonical(config))


def bug_fingerprint(bug) -> str:
    """Content hash of an injected bug, or ``"bug-free"`` for ``None``.

    Bugs expose their full parameterisation either through ``.info.params``
    (the :class:`~repro.bugs.base.BugInfo` carried by every concrete bug) or,
    failing that, through their unique ``.name``.
    """
    if bug is None:
        return BUG_FREE_FINGERPRINT
    info = getattr(bug, "info", None)
    if info is not None:
        payload = [type(bug).__name__, info.bug_type, _canonical(info.params)]
    else:
        payload = [type(bug).__name__, getattr(bug, "name", repr(bug))]
    return _digest(payload)


def trace_digest(trace: "Iterable[MicroOp] | DecodedTrace") -> str:
    """Content hash of a dynamic instruction trace.

    A :class:`~repro.workloads.decoded.DecodedTrace` returns its cached
    digest (identical to hashing its micro-op list) without re-hashing.
    """
    if isinstance(trace, DecodedTrace):
        return trace.digest
    hasher = hashlib.blake2b(digest_size=16)
    for uop in trace:
        hasher.update(
            (
                f"{uop.opcode.value},{uop.srcs},{uop.dest},{uop.pc},"
                f"{uop.address},{uop.taken},{uop.target};"
            ).encode("ascii")
        )
    return hasher.hexdigest()


@dataclass(frozen=True)
class SimulationJob:
    """One independent simulator invocation, as pure picklable data.

    Attributes
    ----------
    study:
        ``"core"`` (O3 pipeline, samples by cycles) or ``"memory"``
        (cache-hierarchy simulator, samples by instructions).
    config:
        The design to simulate (:class:`~repro.uarch.config.MicroarchConfig`
        or :class:`~repro.uarch.config.MemoryHierarchyConfig`).
    bug:
        Injected bug model, or ``None`` for the bug-free design.
    trace_id:
        Content digest of the probe trace (see :func:`trace_digest`); the
        trace itself travels to workers once per batch, keyed by this id.
    step:
        Sampling step: cycles per time step for the core study,
        instructions per time step for the memory study.
    """

    study: str
    config: object
    bug: object | None
    trace_id: str
    step: int

    def __post_init__(self) -> None:
        if self.study not in (CORE_STUDY, MEMORY_STUDY):
            raise ValueError(f"unknown study kind {self.study!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def key(self) -> str:
        """Stable content hash identifying this job's result."""
        return self._key(config_fingerprint(self.config), bug_fingerprint(self.bug))

    def _key(self, config_print: str, bug_print: str) -> str:
        """:meth:`key`, given the config's and the bug's fingerprints."""
        return _digest([self.study, config_print, bug_print, self.trace_id, self.step])

    def describe(self) -> str:
        """Short human-readable identity for logs and error messages."""
        bug_name = getattr(self.bug, "name", BUG_FREE_FINGERPRINT) if self.bug else BUG_FREE_FINGERPRINT
        config_name = getattr(self.config, "name", "?")
        return (
            f"{self.study}:{config_name}:{bug_name}:"
            f"{self.trace_id[:8]}@{self.step}"
        )


class Fingerprints:
    """Config and bug fingerprints, each distinct object hashed once.

    A batch names one design and one bug object in many jobs, and
    canonicalising the design config is most of a key's cost.  The memo is
    keyed by object identity, never by equality: ``1 == 1.0 == True``, so
    two configs that compare equal can still differ in canonical JSON, and
    so in fingerprint.  Each entry holds its object, so no id is reused
    while the memo lives; make one per batch, not one per process.
    """

    def __init__(self) -> None:
        self._configs: dict[int, tuple[object, str]] = {}
        self._bugs: dict[int, tuple[object, str]] = {}

    @staticmethod
    def _memoised(memo: dict, value, fingerprint) -> str:
        object_id = id(value)
        known = memo.get(object_id)
        if known is None:
            known = (value, fingerprint(value))
            memo[object_id] = known
        return known[1]

    def config(self, config) -> str:
        """:func:`config_fingerprint` of *config*."""
        return self._memoised(self._configs, config, config_fingerprint)

    def bug(self, bug) -> str:
        """:func:`bug_fingerprint` of *bug*."""
        return self._memoised(self._bugs, bug, bug_fingerprint)

    def key(self, job: SimulationJob) -> str:
        """Equal to ``job.key()``."""
        return job._key(self.config(job.config), self.bug(job.bug))


def job_keys(jobs: Iterable[SimulationJob]) -> list[str]:
    """``[job.key() for job in jobs]``, hashing each design and bug once."""
    fingerprints = Fingerprints()
    return [fingerprints.key(job) for job in jobs]


class TraceRegistry:
    """Content-addressed table of traces shared with worker processes.

    Digesting a multi-thousand-instruction trace is not free, so the digest
    of each distinct trace object is memoised by object identity.  Traces may
    be registered either as plain micro-op lists or as
    :class:`~repro.workloads.decoded.DecodedTrace` objects; the decoded form
    is what the engine prefers to ship to workers (compact column arrays,
    pre-decoded scalars on arrival).
    """

    def __init__(self) -> None:
        self._traces: dict[str, object] = {}
        # id -> (trace, digest): the strong reference to the trace pins its
        # object id, so a garbage-collected trace can never alias a stale
        # memo entry onto a recycled id.
        self._by_object: dict[int, tuple[object, str]] = {}

    def register(self, trace) -> str:
        """Register *trace* and return its content digest."""
        object_id = id(trace)
        known = self._by_object.get(object_id)
        if known is not None:
            return known[1]
        digest = trace_digest(trace)
        self._by_object[object_id] = (trace, digest)
        # A decoded trace supersedes a previously registered plain list of
        # the same content (same digest, cheaper to ship).
        existing = self._traces.get(digest)
        if existing is None or (
            isinstance(trace, DecodedTrace) and not isinstance(existing, DecodedTrace)
        ):
            self._traces[digest] = trace
        return digest

    @property
    def traces(self) -> Mapping[str, object]:
        """The ``{trace_id: trace}`` table to hand to a :class:`JobEngine`."""
        return self._traces

    def __len__(self) -> int:
        return len(self._traces)
