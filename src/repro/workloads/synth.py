"""Materialisation of :class:`~repro.workloads.program.WorkloadSpec` objects.

``build_program`` turns the declarative block/phase specs into a
:class:`SyntheticProgram`: a set of static basic blocks whose instructions
have concrete opcodes, register operands and program-counter values.  The
dynamic behaviour (branch outcomes, memory addresses, phase interleaving) is
produced later by :mod:`repro.workloads.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .isa import (
    DEFAULT_INSTR_BYTES,
    NUM_FP_REGS,
    NUM_INT_REGS,
    Opcode,
    is_branch,
    is_floating_point,
    is_memory,
)
from .program import BlockSpec, PhaseSpec, WorkloadSpec

#: Virtual-address spacing between the code regions of consecutive blocks.
_CODE_REGION_STRIDE = 0x1000
#: Base virtual address of the code segment.
_CODE_BASE = 0x0040_0000
#: Base virtual address of the data segment.
_DATA_BASE = 0x1000_0000
#: Virtual-address spacing between the data regions of consecutive blocks.
_DATA_REGION_STRIDE = 0x40_0000


@dataclass(frozen=True)
class StaticInstr:
    """One static instruction inside a :class:`StaticBlock`."""

    opcode: Opcode
    srcs: tuple[int, ...]
    dest: Optional[int]
    pc: int
    size: int = DEFAULT_INSTR_BYTES

    @property
    def is_mem(self) -> bool:
        return is_memory(self.opcode)

    @property
    def is_branch(self) -> bool:
        return is_branch(self.opcode)


@dataclass
class StaticBlock:
    """A materialised basic block: spec plus concrete static instructions."""

    block_id: int
    spec: BlockSpec
    instrs: list[StaticInstr]
    code_base: int
    data_base: int

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class SyntheticProgram:
    """A fully materialised synthetic benchmark."""

    spec: WorkloadSpec
    phases: list[tuple[PhaseSpec, list[StaticBlock]]]
    seed: int
    blocks_by_id: dict[int, StaticBlock] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.blocks_by_id:
            self.blocks_by_id = {
                b.block_id: b for _, blocks in self.phases for b in blocks
            }

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_blocks(self) -> int:
        return len(self.blocks_by_id)

    def block(self, block_id: int) -> StaticBlock:
        return self.blocks_by_id[block_id]

    def all_blocks(self) -> list[StaticBlock]:
        return [b for _, blocks in self.phases for b in blocks]


def _pick_sources(
    rng: np.random.Generator,
    history: list[int],
    fallback_pool: tuple[int, int],
    dep_distance: float,
    count: int,
) -> tuple[int, ...]:
    """Pick *count* source registers, preferring recently written ones.

    The producer-consumer distance is drawn from a geometric distribution with
    mean ``dep_distance`` which controls how much instruction-level
    parallelism the block exposes.
    """
    srcs = []
    lo, hi = fallback_pool
    for _ in range(count):
        if history and rng.random() < 0.85:
            distance = int(rng.geometric(1.0 / max(dep_distance, 1.0)))
            idx = max(0, len(history) - distance)
            srcs.append(history[idx])
        else:
            srcs.append(int(rng.integers(lo, hi)))
    return tuple(srcs)


def _dest_register(rng: np.random.Generator, opcode: Opcode) -> Optional[int]:
    """Choose a destination register appropriate for *opcode*."""
    if opcode is Opcode.STORE or is_branch(opcode) or opcode is Opcode.NOP:
        return None
    if is_floating_point(opcode):
        return int(rng.integers(NUM_INT_REGS, NUM_INT_REGS + NUM_FP_REGS))
    return int(rng.integers(0, NUM_INT_REGS))


def _build_block(
    block_id: int, spec: BlockSpec, rng: np.random.Generator
) -> StaticBlock:
    """Materialise one basic block from its spec."""
    code_base = _CODE_BASE + block_id * _CODE_REGION_STRIDE
    data_base = _DATA_BASE + block_id * _DATA_REGION_STRIDE

    opcodes = list(spec.mix.keys())
    weights = np.array([spec.mix[op] for op in opcodes], dtype=float)
    weights /= weights.sum()

    int_history: list[int] = []
    fp_history: list[int] = []
    instrs: list[StaticInstr] = []
    pc = code_base

    body_ops = rng.choice(len(opcodes), size=spec.length, p=weights)
    for choice in body_ops:
        opcode = opcodes[int(choice)]
        if is_branch(opcode):
            # Control flow inside the body is folded into the terminating
            # branch; represent it as a compare feeding that branch instead.
            opcode = Opcode.CMP
        if is_floating_point(opcode):
            history, pool = fp_history, (NUM_INT_REGS, NUM_INT_REGS + NUM_FP_REGS)
        else:
            history, pool = int_history, (0, NUM_INT_REGS)
        n_src = 1 if opcode in (Opcode.MOV, Opcode.LOAD, Opcode.POPCNT) else 2
        srcs = _pick_sources(rng, history, pool, spec.dep_distance, n_src)
        dest = _dest_register(rng, opcode)
        if dest is not None:
            history.append(dest)
        instrs.append(StaticInstr(opcode=opcode, srcs=srcs, dest=dest, pc=pc))
        pc += DEFAULT_INSTR_BYTES

    if spec.has_branch:
        srcs = _pick_sources(rng, int_history, (0, NUM_INT_REGS), spec.dep_distance, 1)
        instrs.append(StaticInstr(opcode=Opcode.BRANCH, srcs=srcs, dest=None, pc=pc))

    return StaticBlock(
        block_id=block_id,
        spec=spec,
        instrs=instrs,
        code_base=code_base,
        data_base=data_base,
    )


def build_program(spec: WorkloadSpec, seed: int = 0) -> SyntheticProgram:
    """Materialise *spec* into a :class:`SyntheticProgram`.

    The same ``(spec, seed)`` pair always yields an identical program.
    """
    rng = np.random.default_rng(seed)
    phases: list[tuple[PhaseSpec, list[StaticBlock]]] = []
    block_id = 0
    for phase in spec.phases:
        blocks = []
        for block_spec in phase.blocks:
            blocks.append(_build_block(block_id, block_spec, rng))
            block_id += 1
        phases.append((phase, blocks))
    return SyntheticProgram(spec=spec, phases=phases, seed=seed)
