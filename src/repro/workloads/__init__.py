"""Synthetic workload generation (SPEC CPU2006 stand-in).

This package provides the instruction-set model, the declarative synthetic
program specs, ten SPEC CPU2006-like benchmark presets and a deterministic
dynamic-trace generator.  Together they replace the SPEC binaries + gem5
trace capture used in the paper.  On top of those it layers on-disk trace
ingestion (ChampSim/gem5/k6 formats, :mod:`repro.workloads.ingest`),
synthetic memory-behavior generators (:mod:`repro.workloads.memsynth`) and
MPKI-ordered multi-program mixes (:mod:`repro.workloads.mixes`).
"""

from .decoded import DecodedTrace, as_uops, decode_trace
from .isa import (
    NUM_ARCH_REGS,
    NUM_FP_REGS,
    NUM_INT_REGS,
    MicroOp,
    OpClass,
    Opcode,
    opcode_class,
)
from .program import BlockSpec, PhaseSpec, WorkloadSpec
from .memsynth import MEMSYNTH_WORKLOADS, memsynth_num_blocks, memsynth_trace
from .mixes import (
    DEFAULT_MIXES,
    MixComponent,
    MixedTrace,
    MixSpec,
    build_mix,
    build_mixes,
)
from .spec2006 import SPEC2006_BENCHMARKS, all_workloads, workload
from .synth import StaticBlock, StaticInstr, SyntheticProgram, build_program
from .trace import TraceGenerator, split_into_intervals

#: Re-exported from :mod:`repro.workloads.ingest`, which loads on first use
#: so ``python -m repro.workloads.ingest`` does not find its own module
#: already imported by this package.
_INGEST_NAMES = frozenset({
    "TRACE_FORMATS",
    "IngestedTrace",
    "TraceFormat",
    "TraceIngestError",
    "densify_blocks",
    "discover_traces",
    "ingest_trace",
    "read_champsim",
    "read_gem5",
    "read_k6",
    "trace_format",
    "write_champsim",
    "write_gem5",
    "write_k6",
})


def __getattr__(name: str):
    if name in _INGEST_NAMES:
        from . import ingest

        return getattr(ingest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DecodedTrace",
    "decode_trace",
    "as_uops",
    "TRACE_FORMATS",
    "IngestedTrace",
    "TraceFormat",
    "TraceIngestError",
    "discover_traces",
    "ingest_trace",
    "trace_format",
    "densify_blocks",
    "read_champsim",
    "read_gem5",
    "read_k6",
    "write_champsim",
    "write_gem5",
    "write_k6",
    "MEMSYNTH_WORKLOADS",
    "memsynth_trace",
    "memsynth_num_blocks",
    "DEFAULT_MIXES",
    "MixSpec",
    "MixComponent",
    "MixedTrace",
    "build_mix",
    "build_mixes",
    "MicroOp",
    "OpClass",
    "Opcode",
    "opcode_class",
    "NUM_ARCH_REGS",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "BlockSpec",
    "PhaseSpec",
    "WorkloadSpec",
    "SPEC2006_BENCHMARKS",
    "workload",
    "all_workloads",
    "SyntheticProgram",
    "StaticBlock",
    "StaticInstr",
    "build_program",
    "TraceGenerator",
    "split_into_intervals",
]
