"""MPKI-ordered multi-program workload mixes (mix1–mix7).

Multi-program *mixes* are the standard way memory-system studies widen their
scenario space: several programs share the memory hierarchy, and the mixes
are ordered by aggregate memory intensity so "mix1" is cache-friendly and
"mix7" thrashes.  This module builds such mixes deterministically from the
workload universe this reproduction already has — the synthetic SPEC-like
programs, the :mod:`repro.workloads.memsynth` memory-behavior archetypes and
on-disk ingested traces — and hands each mix to the rest of the system as an
ordinary micro-op stream (dense block ids, content-addressed digest), so the
unchanged SimPoint → engine → store → detection path applies.

Construction is a *chunked round-robin interleave*: each component
contributes ``chunk`` consecutive instructions per turn, emulating
fine-grained SMT-style sharing while preserving each program's spatial
locality within a chunk.  Components are relocated into disjoint address and
code regions (component *i* shifted by ``i * COMPONENT_ADDRESS_STRIDE`` /
``i * COMPONENT_PC_STRIDE``), as separate processes would be, and block ids
are renumbered densely over the merged stream.  Per-component provenance is
recorded both as summaries (:class:`MixComponent`) and as the exact
run-length interleave schedule (``MixedTrace.provenance``).

Everything is a pure function of ``(spec, instructions, chunk, seed)`` —
two builds of the same mix are bit-identical, digests included.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .decoded import DecodedTrace
from .isa import MicroOp
from .memsynth import MEMSYNTH_WORKLOADS, memsynth_trace
from .spec2006 import SPEC2006_BENCHMARKS, workload
from .synth import build_program
from .trace import TraceGenerator

#: Address-space slot carved out per mix component (addresses, then pcs):
#: large enough that no two components' data or code regions can overlap.
COMPONENT_ADDRESS_STRIDE = 0x4000_0000
COMPONENT_PC_STRIDE = 0x0400_0000

#: Default instructions each component contributes per interleave turn.
DEFAULT_CHUNK = 64


@dataclass(frozen=True)
class MixSpec:
    """Declarative recipe for one mix: a name and its component workloads.

    Components may be SPEC-like benchmark names, memsynth archetype names,
    trace file paths, or (with a ``trace_dir``) discovered trace names.
    """

    name: str
    components: tuple[str, ...]
    description: str = ""


#: The standard mixes, ordered by aggregate memory intensity as *measured*
#: on the reference memory design: mix1 is cache-resident, mix7 combines the
#: highest-MPKI components (LLC MPKI rises strictly from mix1 to mix7).
DEFAULT_MIXES: tuple[MixSpec, ...] = (
    MixSpec("mix1", ("high-reuse", "462.libquantum", "monotonic-leak", "web-server"),
            "cache-resident services and prefetch-friendly streams"),
    MixSpec("mix2", ("high-reuse", "436.cactusADM", "433.milc", "web-server"),
            "scientific compute sharing with reuse-heavy services"),
    MixSpec("mix3", ("462.libquantum", "444.namd", "433.milc", "458.sjeng"),
            "balanced scientific/integer compute blend"),
    MixSpec("mix4", ("436.cactusADM", "401.bzip2", "400.perlbench", "444.namd"),
            "integer/FP compute with moderate cache pressure"),
    MixSpec("mix5", ("458.sjeng", "403.gcc", "kv-store", "400.perlbench"),
            "branchy integer codes plus a hot-key store"),
    MixSpec("mix6", ("401.bzip2", "403.gcc", "kv-store", "450.soplex"),
            "large-footprint codes contending with the store"),
    MixSpec("mix7", ("403.gcc", "kv-store", "450.soplex", "426.mcf"),
            "cache-hostile: the most memory-intensive codes combined"),
)


@dataclass(frozen=True)
class MixComponent:
    """Provenance summary for one component of a built mix."""

    name: str
    kind: str  # "synthetic" | "memsynth" | "ingested"
    instructions: int


class MixedTrace:
    """One built multi-program mix, ready for SimPoint/engine consumption."""

    def __init__(
        self,
        spec: MixSpec,
        uops: list[MicroOp],
        num_blocks: int,
        components: list[MixComponent],
        provenance: list[tuple[int, int]],
        chunk: int,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.uops = uops
        self.num_blocks = num_blocks
        #: Per-component summaries, in spec order.
        self.components = components
        #: Exact interleave schedule as run-length pairs
        #: ``(component_index, instructions)`` covering the whole stream.
        self.provenance = provenance
        self.chunk = chunk
        self._decoded: DecodedTrace | None = None

    @property
    def decoded(self) -> DecodedTrace:
        """The mix as a pre-decoded trace (computed once)."""
        if self._decoded is None:
            self._decoded = DecodedTrace.from_uops(self.uops)
        return self._decoded

    @property
    def digest(self) -> str:
        """Content digest of the interleaved stream (the runtime trace id)."""
        return self.decoded.digest

    def __len__(self) -> int:
        return len(self.uops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = "+".join(c.name for c in self.components)
        return f"<MixedTrace {self.name} [{names}] {len(self.uops)} instrs>"


def _component_uops(
    name: str, instructions: int, seed: int, trace_dir: str | Path | None
) -> tuple[str, list[MicroOp]]:
    """Materialise one component's micro-op stream (kind, fresh uops)."""
    if name in MEMSYNTH_WORKLOADS:
        return "memsynth", memsynth_trace(name, instructions, seed=seed)
    if name in SPEC2006_BENCHMARKS:
        program = build_program(workload(name), seed=seed)
        return "synthetic", TraceGenerator(program, seed=seed).generate(instructions)
    path = Path(name)
    if not path.is_file() and trace_dir is not None:
        candidates = sorted(
            p for p in Path(trace_dir).iterdir()
            if p.is_file() and (p.name == name or p.name.startswith(name + "."))
        )
        if candidates:
            path = candidates[0]
    if not path.is_file():
        raise KeyError(
            f"unknown mix component {name!r}: not a SPEC-like workload, not "
            f"a memsynth archetype ({list(MEMSYNTH_WORKLOADS)}) and no trace "
            f"file of that name exists"
        )
    # Imported on use, like every import of .ingest in this package, so
    # ``python -m repro.workloads.ingest`` does not find its own module
    # already imported.
    from .ingest import ingest_trace

    return "ingested", list(ingest_trace(path).decoded.uops[:instructions])


def _relocate(uop: MicroOp, index: int, block_base: int) -> MicroOp:
    """Fresh copy of *uop* shifted into component *index*'s address slot."""
    address_offset = index * COMPONENT_ADDRESS_STRIDE
    pc_offset = index * COMPONENT_PC_STRIDE
    return MicroOp(
        opcode=uop.opcode,
        srcs=uop.srcs,
        dest=uop.dest,
        pc=uop.pc + pc_offset,
        address=uop.address + address_offset if uop.address is not None else None,
        taken=uop.taken,
        target=uop.target + pc_offset if uop.target is not None else None,
        indirect=uop.indirect,
        size=uop.size,
        block_id=block_base + uop.block_id,
    )


def build_mix(
    spec: MixSpec,
    instructions: int,
    chunk: int = DEFAULT_CHUNK,
    seed: int = 0,
    trace_dir: str | Path | None = None,
) -> MixedTrace:
    """Build *spec* into a :class:`MixedTrace` of about *instructions* ops.

    Each component is generated (or read) at ``ceil(instructions / n)``
    length, relocated into its own address/code slot, and interleaved
    round-robin in *chunk*-instruction turns.  A component shorter than its
    share (a short ingested file) simply drops out of the rotation when
    exhausted, so the result can be shorter than *instructions* but its
    content never depends on anything except ``(spec, instructions, chunk,
    seed)`` and the referenced files.
    """
    if not spec.components:
        raise ValueError(f"mix {spec.name!r} has no components")
    if instructions <= 0:
        raise ValueError(f"instructions must be positive, got {instructions}")
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    per_component = -(-instructions // len(spec.components))  # ceil division
    streams: list[list[MicroOp]] = []
    kinds: list[str] = []
    block_base = 0
    for index, name in enumerate(spec.components):
        kind, raw = _component_uops(
            name, per_component, seed=seed + index, trace_dir=trace_dir
        )
        streams.append([_relocate(uop, index, block_base) for uop in raw])
        kinds.append(kind)
        block_base += max(uop.block_id for uop in raw) + 1 if raw else 0

    uops: list[MicroOp] = []
    provenance: list[tuple[int, int]] = []
    cursors = [0] * len(streams)
    contributed = [0] * len(streams)
    while len(uops) < instructions:
        progressed = False
        for index, stream in enumerate(streams):
            if len(uops) >= instructions:
                break
            cursor = cursors[index]
            if cursor >= len(stream):
                continue
            take = min(chunk, len(stream) - cursor, instructions - len(uops))
            uops.extend(stream[cursor:cursor + take])
            cursors[index] = cursor + take
            contributed[index] += take
            provenance.append((index, take))
            progressed = True
        if not progressed:
            break  # every stream exhausted before the target length

    from .ingest import densify_blocks

    num_blocks = densify_blocks(uops)
    components = [
        MixComponent(name=spec.components[i], kind=kinds[i],
                     instructions=contributed[i])
        for i in range(len(streams))
    ]
    return MixedTrace(spec, uops, num_blocks, components, provenance, chunk)


def build_mixes(
    specs: Sequence[MixSpec] = DEFAULT_MIXES,
    instructions: int = 12_000,
    chunk: int = DEFAULT_CHUNK,
    seed: int = 0,
    trace_dir: str | Path | None = None,
) -> list[MixedTrace]:
    """Build every mix in *specs* (see :func:`build_mix`)."""
    return [
        build_mix(spec, instructions=instructions, chunk=chunk, seed=seed,
                  trace_dir=trace_dir)
        for spec in specs
    ]
