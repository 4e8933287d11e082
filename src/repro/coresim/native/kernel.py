"""ctypes marshalling for the native (C) simulation kernel.

:func:`simulate_batch_native` runs probe traces through the compiled cycle
loop in ``_core.c``: the :class:`~repro.workloads.decoded.DecodedTrace`
columns go in as flat zero-copy-widened arrays, one cumulative counter row
per sampling boundary comes back out, and the rows are replayed through the
real :class:`~repro.coresim.counters.TimeSeriesSampler` so the resulting
:class:`~repro.coresim.simulator.SimulationResult` is **bit-identical** to
the scalar pipeline (same cycles, same counter name sets, same values —
pinned by the differential oracle).

Every core bug model runs here.  Its structural hooks
(``on_simulation_start``, ``register_reduction``, ``bp_table_entries``) are
evaluated in Python before the C call, in the order the scalar
``O3Pipeline.__init__`` evaluates them, and its
:class:`~repro.coresim.hooks.BugRecord` goes in as one flag byte per uop,
one extra-delay column and a few ``SimParams`` scalars.  Only a
configuration past a kernel limit raises :class:`NativeKernelUnavailable`.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from ...uarch.config import MicroarchConfig
from ...workloads.decoded import DecodedTrace, decode_trace
from ...workloads.isa import NUM_ARCH_REGS, MicroOp, OpClass
from ..counters import TimeSeriesSampler
from ..hooks import BUG_FREE, BugRecord, CoreBugModel
from ..pipeline import BASE_REDIRECT_PENALTY, MAX_CYCLES_PER_INSTRUCTION, PipelineError
from .build import load_library

_NUM_CLASSES = len(OpClass)
_MAX_LEVELS = 3

#: Counter-row layout shared with ``_core.c`` (slot order must match the
#: ``S_*`` enum there).  Slots 0..38 mirror the scalar pipeline's lazily
#: populated counter dict: they enter the cumulative sample only when
#: nonzero (cumulative values are monotonic, so nonzero-now == ever-nonzero,
#: which reproduces the scalar name sets exactly).
_LAZY_SLOT_NAMES = (
    "commit.instructions",
    "commit.register_writes",
    "commit.branches",
    "commit.loads",
    "commit.stores",
    "commit.fp_instructions",
    "commit.idle_cycles",
    "commit.max_width_cycles",
    "writeback.instructions",
    "issue.instructions",
    "issue.empty_cycles",
    "issue.stall_cycles",
    "issue.max_width_cycles",
    "issue.port_conflicts",
    "dispatch.instructions",
    "dispatch.stall_cycles",
    "dispatch.serializing_stalls",
    "dispatch.serialized_instructions",
    "dispatch.stall_rob_full",
    "dispatch.stall_iq_full",
    "dispatch.stall_lsq_full",
    "rename.stall_cycles_regs",
    "bug.extra_delay_cycles",
    "fetch.instructions",
    "fetch.branches",
    "fetch.mispredicted_branches",
    "fetch.stall_cycles",
    "fetch.cycles_active",
    "lsq.forwarded_loads",
) + tuple(f"issue.class.{op_class.name}" for op_class in OpClass)

#: Slots 39..48: always present in every cumulative sample.
_ALWAYS_SLOT_NAMES = (
    "rob.occupancy_sum",
    "iq.occupancy_sum",
    "lsq.occupancy_sum",
    "bp.lookups",
    "bp.mispredicts",
    "bp.direction_mispredicts",
    "bp.indirect_lookups",
    "bp.indirect_mispredicts",
    "bp.btb_lookups",
    "bp.btb_hits",
)

_N_LAZY = len(_LAZY_SLOT_NAMES)          # 39
_N_ALWAYS = len(_ALWAYS_SLOT_NAMES)      # 10
_S_L1_ACC = _N_LAZY + _N_ALWAYS          # 49
NUM_SLOTS = _S_L1_ACC + 2 * _MAX_LEVELS  # 55


class NativeKernelUnavailable(RuntimeError):
    """The native kernel cannot run this request (caller falls back)."""


class _SimParams(ctypes.Structure):
    """Mirror of ``SimParams`` in ``_core.c`` (field order must match)."""

    _fields_ = [
        ("total", ctypes.c_int64),
        ("width", ctypes.c_int64),
        ("rob_size", ctypes.c_int64),
        ("iq_size", ctypes.c_int64),
        ("lsq_size", ctypes.c_int64),
        ("fetch_capacity", ctypes.c_int64),
        ("free_regs", ctypes.c_int64),
        ("num_regs", ctypes.c_int64),
        ("step_cycles", ctypes.c_int64),
        ("max_cycles", ctypes.c_int64),
        ("warmup", ctypes.c_int64),
        ("num_ports", ctypes.c_int64),
        ("num_levels", ctypes.c_int64),
        ("memory_latency", ctypes.c_int64),
        ("l1_line_size", ctypes.c_int64),
        ("bp_table_entries", ctypes.c_int64),
        ("btb_entries", ctypes.c_int64),
        ("indirect_sets", ctypes.c_int64),
        ("redirect_penalty", ctypes.c_int64),
        ("iq_free_below", ctypes.c_int64),
        ("iq_delay", ctypes.c_int64),
        ("rob_free_below", ctypes.c_int64),
        ("rob_delay", ctypes.c_int64),
        ("dep_delay", ctypes.c_int64),
        ("wake_span", ctypes.c_int64),
        ("latency_by_class", ctypes.c_int64 * _NUM_CLASSES),
        ("cp_offset", ctypes.c_int64 * (_NUM_CLASSES + 1)),
        ("cache_sets", ctypes.c_int64 * _MAX_LEVELS),
        ("cache_assoc", ctypes.c_int64 * _MAX_LEVELS),
        ("cache_line_shift", ctypes.c_int64 * _MAX_LEVELS),
        ("cache_latency", ctypes.c_int64 * _MAX_LEVELS),
    ]


def native_available() -> bool:
    """True when the compiled kernel library is loadable (builds lazily)."""
    return load_library() is not None


_u8 = ctypes.POINTER(ctypes.c_uint8)
_i8 = ctypes.POINTER(ctypes.c_int8)
_i32 = ctypes.POINTER(ctypes.c_int32)
_i64 = ctypes.POINTER(ctypes.c_int64)

_configured_libs: "set[int]" = set()


def _configure(lib: ctypes.CDLL) -> None:
    if id(lib) in _configured_libs:
        return
    lib.repro_simulate.restype = ctypes.c_int
    lib.repro_simulate.argtypes = [
        ctypes.POINTER(_SimParams),
        _u8, _i64,    # bug_flags, extra_delay
        _u8, _u8, _i32, _u8, _i64, _i8, _i64, _i64, _u8, _u8,  # trace columns
        _i32, _i32,   # srcs_flat, srcs_offset
        _i32,         # class_ports_flat
        _i64,         # out_rows
        ctypes.c_int64,
        _i64,         # out_scalars
    ]
    _configured_libs.add(id(lib))


_OPCLASS_BY_OPCODE = None


def _opclass_table() -> np.ndarray:
    global _OPCLASS_BY_OPCODE
    if _OPCLASS_BY_OPCODE is None:
        from ...workloads.decoded import _OPCODE_TO_CLASS_INT

        table = np.zeros(max(int(op) for op in _OPCODE_TO_CLASS_INT) + 1, np.int8)
        for opcode, op_class in _OPCODE_TO_CLASS_INT.items():
            table[int(opcode)] = op_class
        _OPCLASS_BY_OPCODE = table
    return _OPCLASS_BY_OPCODE


class _NativeTrace:
    """Per-trace columns widened to the exact C dtypes, content-cached."""

    __slots__ = (
        "n",
        "op_class",
        "has_dest",
        "dest",
        "has_address",
        "address",
        "taken",
        "pc",
        "target",
        "has_target",
        "indirect",
        "srcs_flat",
        "srcs_offset",
        "num_regs",
    )


def _build_native_trace(decoded: DecodedTrace) -> _NativeTrace:
    columns = decoded.columns
    n = int(columns["opcode"].shape[0])
    t = _NativeTrace()
    t.n = n
    opcode = columns["opcode"].astype(np.int64)
    t.op_class = np.ascontiguousarray(_opclass_table()[opcode].astype(np.uint8))
    t.has_dest = np.ascontiguousarray(columns["has_dest"].astype(np.uint8))
    t.dest = np.ascontiguousarray(
        np.where(t.has_dest.astype(bool), columns["dest"].astype(np.int32), 0)
    )
    t.has_address = np.ascontiguousarray(columns["has_address"].astype(np.uint8))
    t.address = np.ascontiguousarray(
        np.where(t.has_address.astype(bool), columns["address"].astype(np.int64), 0)
    )
    t.taken = np.ascontiguousarray(columns["taken"].astype(np.int8))
    t.pc = np.ascontiguousarray(columns["pc"].astype(np.int64))
    t.has_target = np.ascontiguousarray(columns["has_target"].astype(np.uint8))
    t.target = np.ascontiguousarray(
        np.where(t.has_target.astype(bool), columns["target"].astype(np.int64), 0)
    )
    t.indirect = np.ascontiguousarray(columns["indirect"].astype(np.uint8))
    t.srcs_flat = np.ascontiguousarray(columns["srcs_flat"].astype(np.int32))
    t.srcs_offset = np.ascontiguousarray(columns["srcs_offset"].astype(np.int32))
    max_reg = NUM_ARCH_REGS - 1
    if t.srcs_flat.size:
        max_reg = max(max_reg, int(t.srcs_flat.max()))
    if n and t.has_dest.any():
        max_reg = max(max_reg, int(t.dest.max()))
    t.num_regs = max_reg + 1
    return t


#: Bounded digest-keyed memo of marshalled traces.
_TRACE_MEMO: "dict[str, _NativeTrace]" = {}
_TRACE_MEMO_MAX = 256


def _native_trace_for(decoded: DecodedTrace) -> _NativeTrace:
    key = decoded.digest
    hit = _TRACE_MEMO.get(key)
    if hit is not None:
        return hit
    try:
        native = _build_native_trace(decoded)
    except OverflowError:
        # The int64 columns cannot hold the value (ChampSim addresses are
        # unsigned 64-bit; gem5 and k6 addresses are unbounded).
        raise NativeKernelUnavailable(
            "a trace value outside the native kernel's int64 range "
            "[-2**63, 2**63)"
        ) from None
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = native
    return native


def _ptr(array: np.ndarray, ctype) -> ctypes.POINTER:
    return array.ctypes.data_as(ctypes.POINTER(ctype))


def _row_to_cumulative(row: "list[int]", has_l3: bool) -> "dict[str, float]":
    cumulative: dict[str, float] = {}
    for index in range(_N_LAZY):
        value = row[index]
        if value:
            cumulative[_LAZY_SLOT_NAMES[index]] = float(value)
    for offset in range(_N_ALWAYS):
        cumulative[_ALWAYS_SLOT_NAMES[offset]] = float(row[_N_LAZY + offset])
    cumulative["cache.l1d.accesses"] = float(row[_S_L1_ACC])
    cumulative["cache.l1d.misses"] = float(row[_S_L1_ACC + 1])
    cumulative["cache.l2.accesses"] = float(row[_S_L1_ACC + 2])
    cumulative["cache.l2.misses"] = float(row[_S_L1_ACC + 3])
    if has_l3:
        cumulative["cache.l3.accesses"] = float(row[_S_L1_ACC + 4])
        cumulative["cache.l3.misses"] = float(row[_S_L1_ACC + 5])
    return cumulative


def _bug_columns(
    record: BugRecord, decoded: DecodedTrace, n: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The record's per-uop flag byte (``F_*`` bits of ``_core.c``) and
    extra-delay column; the C loop indexes both by uop, so their lengths
    are checked here."""
    columns = (
        record.serialize,
        record.issue_only_if_oldest,
        record.oldest_blocks_others,
        record.extra_delay,
    )
    if any(column is not None and len(column) != n for column in columns):
        raise ValueError(f"bug record columns must hold one entry per uop ({n})")
    flags = np.zeros(n, dtype=np.uint8)
    for bit, column in zip((1, 2, 4), columns):
        if column is not None:
            flags |= np.where(column, bit, 0).astype(np.uint8)
    if record.dependency is not None:
        consumer, producer, _delay = record.dependency
        opcode = decoded.columns["opcode"]
        flags |= np.where(opcode == consumer, 8, 0).astype(np.uint8)
        flags |= np.where(opcode == producer, 16, 0).astype(np.uint8)
    extra = record.extra_delay
    if extra is None:
        extra = np.zeros(n, dtype=np.int64)
    return flags, np.ascontiguousarray(extra, dtype=np.int64)


def _fill_params(
    config: MicroarchConfig,
    bug: CoreBugModel,
    record: BugRecord,
    native: _NativeTrace,
    extra: np.ndarray,
    step_cycles: int,
    warmup: bool,
) -> "tuple[_SimParams, np.ndarray]":
    """SimParams + flat class->ports array for one run.

    Structural bug hooks are evaluated here in the scalar pipeline's
    construction order (``on_simulation_start`` was already called by the
    caller, matching ``O3Pipeline.__init__`` running it first).
    """
    num_ports = config.ports.num_ports
    if num_ports > 63:
        raise NativeKernelUnavailable(
            f"{num_ports} issue ports exceed the native kernel's 63-port mask"
        )
    if config.btb_entries < 1:
        raise NativeKernelUnavailable("btb_entries must be >= 1")

    params = _SimParams()
    params.total = native.n
    params.width = config.width
    params.rob_size = config.rob_size
    params.iq_size = config.iq_size
    params.lsq_size = config.lsq_size
    params.fetch_capacity = config.fetch_buffer
    reduction = max(0, bug.register_reduction())
    params.free_regs = max(1, config.num_phys_regs - NUM_ARCH_REGS - reduction)
    params.num_regs = native.num_regs
    params.step_cycles = step_cycles
    params.max_cycles = native.n * MAX_CYCLES_PER_INSTRUCTION + 10_000
    params.warmup = 1 if warmup else 0
    params.num_ports = num_ports
    params.memory_latency = max(30, int(round(60.0 * config.clock_ghz)))
    params.l1_line_size = config.l1.line_size
    params.bp_table_entries = max(4, bug.bp_table_entries(config.bp_table_entries))
    params.btb_entries = config.btb_entries
    params.indirect_sets = max(4, config.indirect_predictor_sets)
    params.redirect_penalty = BASE_REDIRECT_PENALTY + record.mispredict_penalty
    params.iq_free_below = record.iq_free_below
    params.iq_delay = record.iq_delay
    params.rob_free_below = record.rob_free_below
    params.rob_delay = record.rob_delay
    params.dep_delay = record.dependency[2] if record.dependency else 0
    params.wake_span = 2 + max(0, int(extra.max())) + sum(
        max(0, delay) for delay in (params.iq_delay, params.rob_delay, params.dep_delay)
    )
    if params.wake_span > params.max_cycles:
        raise NativeKernelUnavailable(
            f"an extra issue delay of {params.wake_span} cycles exceeds the "
            "native kernel's wake calendar"
        )

    latency_of = {
        OpClass.INT_ALU: 1,
        OpClass.INT_MULT: config.mult_latency,
        OpClass.INT_DIV: config.div_latency,
        OpClass.FP_ALU: config.fp_latency,
        OpClass.FP_MULT: config.fp_latency,
        OpClass.FP_DIV: config.div_latency,
        OpClass.VECTOR: config.fp_latency,
        OpClass.LOAD: 0,
        OpClass.STORE: 1,
        OpClass.BRANCH: 1,
    }
    for op_class in OpClass:
        params.latency_by_class[int(op_class)] = latency_of[op_class]

    flat_ports: list[int] = []
    for op_class in OpClass:
        params.cp_offset[int(op_class)] = len(flat_ports)
        flat_ports.extend(p.index for p in config.ports.ports_for(op_class))
    params.cp_offset[_NUM_CLASSES] = len(flat_ports)
    class_ports_flat = np.ascontiguousarray(np.asarray(flat_ports, dtype=np.int32))

    levels = [config.l1, config.l2]
    if config.l3 is not None:
        levels.append(config.l3)
    params.num_levels = len(levels)
    for index, level in enumerate(levels):
        params.cache_sets[index] = level.num_sets
        params.cache_assoc[index] = level.associativity
        params.cache_line_shift[index] = level.line_size.bit_length() - 1
        params.cache_latency[index] = level.latency
    params.cache_latency[1] += record.l2_extra_latency
    return params, class_ports_flat


def _simulate_one(
    lib: ctypes.CDLL,
    config: MicroarchConfig,
    decoded: DecodedTrace,
    bug: CoreBugModel,
    step_cycles: int,
    warmup: bool,
):
    from ..simulator import SimulationResult  # imported lazily: module cycle

    native = _native_trace_for(decoded)
    if native.n == 0:
        raise ValueError("cannot simulate an empty trace")
    record = bug.compile(decoded)
    flags, extra = _bug_columns(record, decoded, native.n)
    params, class_ports_flat = _fill_params(
        config, bug, record, native, extra, step_cycles, warmup
    )
    max_rows = params.max_cycles // step_cycles + 2
    out_rows = np.zeros((max_rows + 1, NUM_SLOTS), dtype=np.int64)
    out_scalars = np.zeros(4, dtype=np.int64)

    rc = lib.repro_simulate(
        ctypes.byref(params),
        _ptr(flags, ctypes.c_uint8),
        _ptr(extra, ctypes.c_int64),
        _ptr(native.op_class, ctypes.c_uint8),
        _ptr(native.has_dest, ctypes.c_uint8),
        _ptr(native.dest, ctypes.c_int32),
        _ptr(native.has_address, ctypes.c_uint8),
        _ptr(native.address, ctypes.c_int64),
        _ptr(native.taken, ctypes.c_int8),
        _ptr(native.pc, ctypes.c_int64),
        _ptr(native.target, ctypes.c_int64),
        _ptr(native.has_target, ctypes.c_uint8),
        _ptr(native.indirect, ctypes.c_uint8),
        _ptr(native.srcs_flat, ctypes.c_int32),
        _ptr(native.srcs_offset, ctypes.c_int32),
        _ptr(class_ports_flat, ctypes.c_int32),
        _ptr(out_rows, ctypes.c_int64),
        ctypes.c_int64(max_rows),
        _ptr(out_scalars, ctypes.c_int64),
    )
    if rc == 1:
        raise PipelineError(
            f"pipeline exceeded {params.max_cycles} cycles for {native.n} "
            f"instructions on {config.name} with bug {bug.name!r}"
        )
    if rc != 0:
        raise RuntimeError(f"native simulation kernel failed (rc={rc})")

    cycle, committed, last_sample, nrows = (int(v) for v in out_scalars)
    has_l3 = config.l3 is not None
    sampler = TimeSeriesSampler(step_cycles)
    rows = out_rows[: nrows + 1].tolist()
    for index in range(nrows):
        sampler.sample(_row_to_cumulative(rows[index], has_l3))
    sampler.finalize(_row_to_cumulative(rows[nrows], has_l3), cycle - last_sample)
    return SimulationResult(
        config_name=config.name,
        bug_name=bug.name,
        instructions=committed,
        cycles=cycle,
        series=sampler.build(),
    )


def simulate_batch_native(
    config: MicroarchConfig,
    traces: "Sequence[list[MicroOp] | DecodedTrace]",
    bug: "CoreBugModel | None" = None,
    step_cycles: int = 2048,
    warmup: bool = True,
):
    """Simulate *traces* on *config* through the compiled kernel.

    Results are in input order and bit-identical to the scalar pipeline.
    Raises :class:`NativeKernelUnavailable` when the library is missing or
    the configuration exceeds a kernel limit — callers (the ``simulate_trace``
    seam) treat that as "use the scalar kernel".
    """
    lib = load_library()
    if lib is None:
        raise NativeKernelUnavailable("native kernel library unavailable")
    _configure(lib)
    bug = bug if bug is not None else BUG_FREE
    results = []
    for trace in traces:
        bug.on_simulation_start(config)
        results.append(
            _simulate_one(lib, config, decode_trace(trace), bug, step_cycles, warmup)
        )
    return results
