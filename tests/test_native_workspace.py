"""Pooled native workspaces: tables kept across calls, never shared.

Both C simulators keep their cache tables (and the memsim its SPP tables)
in a workspace that outlives the call, and read a way as empty by its tick
rather than by clearing the table (``repro.coresim.native.workspace``).
The differential fuzzes run one design after another on one workspace, but
no fuzz forces the orders below: a table that shrinks and grows again, an
SPP page table grown by one run and reused by a short one, a level that
one design lacks between two that have it, and a call that stops half way.
Each result here must equal the Python fallback's bit for bit.
"""

import dataclasses
import hashlib
import multiprocessing
import resource
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.bugs.core_bugs import SerializeOpcode
from repro.bugs.memory_bugs import EvictMRU, SPPSignatureReset
from repro.coresim import simulate_batch_scalar
from repro.coresim._reference import PipelineError
from repro.coresim.native import kernel, load_library, native_available, workspace
from repro.coresim.native.build import sanitize_mode
from repro.memsim import native as memsim_native
from repro.memsim import simulate_memory_python
from repro.uarch import CacheConfig, core_microarch, memory_microarch
from repro.workloads import TraceGenerator, build_program, decode_trace, workload
from repro.workloads.isa import Opcode


@pytest.fixture(scope="module")
def lib():
    if not native_available():
        pytest.skip("no C compiler on this host")
    return load_library()


@pytest.fixture()
def one_workspace(lib):
    """An empty pool, so the test's calls share one fresh workspace."""
    workspace.reset()
    yield
    assert workspace.counts()["core"][1] == workspace.counts()["memsim"][1] == 0


def _trace(name, seed, length):
    program = build_program(workload(name), seed=seed)
    return decode_trace(TraceGenerator(program, seed=seed + 1).generate(length))


@pytest.fixture(scope="module")
def mcf():
    return _trace("426.mcf", 3, 12_000)


@pytest.fixture(scope="module")
def gcc():
    return _trace("403.gcc", 5, 3_000)


def _bits(values):
    """Digest of an array's bytes: exact, and cheap to show in a failure."""
    return hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()


def _memory_observations(result):
    series = result.series
    return (
        result.instructions, repr(result.cycles), repr(result.amat),
        {name: _bits(values) for name, values in series.counters.items()},
        list(series.counters), _bits(series.ipc),
    )


def _core_observations(result):
    series = result.series
    return (
        result.instructions, result.cycles,
        {name: _bits(values) for name, values in series.counters.items()},
        _bits(series.ipc),
    )


def _memsim(config, trace, bug=None, step=1_000):
    return _memory_observations(memsim_native.simulate_memory_native(
        config, trace, bug=bug, step_instructions=step
    ))


def _memsim_fallback(config, trace, bug=None, step=1_000):
    return _memory_observations(
        simulate_memory_python(config, trace, bug=bug, step_instructions=step)
    )


def _core(config, trace, bug=None, step=512, warmup=True):
    (result,) = kernel.simulate_batch_native(
        config, [trace], bug=bug, step_cycles=step, warmup=warmup
    )
    return _core_observations(result)


def _core_fallback(config, trace, bug=None, step=512, warmup=True):
    (result,) = simulate_batch_scalar(
        config, [trace], bug=bug, step_cycles=step, warmup=warmup
    )
    return _core_observations(result)


def _llc(name, megabytes):
    config = memory_microarch(name)
    return dataclasses.replace(
        config, llc=dataclasses.replace(config.llc, size=megabytes << 20)
    )


class TestOrders:
    def test_memsim_llc_shrinks_then_grows(self, one_workspace, mcf):
        for config in (_llc("Ryzen7-mem", 16), _llc("Ryzen7-mem", 2),
                       memory_microarch("MemArtificial2"), _llc("Ryzen7-mem", 16)):
            assert _memsim(config, mcf) == _memsim_fallback(config, mcf), config.name
        assert workspace.counts()["memsim"] == (1, 0)

    def test_spp_page_table_grown_then_reused_by_a_short_run(self, one_workspace, mcf):
        # Accesses over 2,169 pages: the page table starts with 1,024 slots
        # and doubles when half full, so this run grows it three times.
        spread = decode_trace([
            dataclasses.replace(
                uop, address=4096 * ((7 * index) % 2400) + 64 * (index % 64)
            )
            if uop.address is not None else uop
            for index, uop in enumerate(mcf.uops)
        ])
        pages = {uop.address // 4096 for uop in spread.uops if uop.address is not None}
        assert len(pages) > 2048
        short = decode_trace(mcf.uops[:600])
        config = memory_microarch("Ryzen7-mem")
        assert config.prefetcher == "spp"
        for trace, bug in ((spread, None), (short, None), (short, SPPSignatureReset()),
                           (spread, EvictMRU("llc"))):
            assert _memsim(config, trace, bug, step=200) == _memsim_fallback(
                config, trace, bug, step=200
            )

    def test_core_three_levels_then_two_then_three(self, one_workspace, gcc):
        # A warm-up pass over the whole trace hides most ways that wrongly
        # read as valid, so the runs go with and without one, on
        # hierarchies that hold 4, 8 and 16 KB of the trace's 18 KB.
        def small(name, l3_ways):
            config = core_microarch(name)
            return dataclasses.replace(
                config,
                l1=dataclasses.replace(config.l1, size=4 << 10, associativity=2),
                l2=dataclasses.replace(config.l2, size=8 << 10, associativity=4),
                l3=CacheConfig(size=16 << 10, associativity=l3_ways, latency=40)
                if l3_ways else None,
            )

        designs = (core_microarch("Skylake"), small("Skylake", 8), small("K8", 0),
                   small("Skylake", 8), core_microarch("K8"), small("Skylake", 4),
                   core_microarch("Skylake"))
        assert [config.l3 is None for config in designs] == [
            False, False, True, False, True, False, False
        ]
        for config in designs:
            for warmup in (True, False):
                assert _core(config, gcc, warmup=warmup) == _core_fallback(
                    config, gcc, warmup=warmup
                ), (config.name, warmup)
        assert workspace.counts()["core"] == (1, 0)

    def test_core_run_stopped_half_way_then_a_clean_one(
        self, one_workspace, gcc, monkeypatch
    ):
        config = core_microarch("Skylake")
        fill_params = kernel._fill_params

        def short_budget(*args):
            params, ports = fill_params(*args)
            params.max_cycles = 600
            return params, ports

        monkeypatch.setattr(kernel, "_fill_params", short_budget)
        with pytest.raises(PipelineError):
            _core(config, gcc)
        monkeypatch.undo()
        assert _core(config, gcc) == _core_fallback(config, gcc)

    def test_a_call_that_raises_holding_its_workspace(
        self, one_workspace, lib, mcf, monkeypatch
    ):
        class Interrupted(Exception):
            pass

        config = memory_microarch("MemArtificial3")
        expected = _memsim_fallback(config, mcf)
        assert _memsim(config, mcf) == expected
        real = lib.repro_memsim

        def interrupted(*args):
            real(*args)
            raise Interrupted

        monkeypatch.setattr(lib, "repro_memsim", interrupted)
        with pytest.raises(Interrupted):
            _memsim(config, mcf)
        monkeypatch.undo()
        assert workspace.counts()["memsim"] == (1, 0)
        assert _memsim(config, mcf) == expected


class TestSharing:
    def test_two_threads_never_share_a_workspace(self, one_workspace, lib, mcf, gcc,
                                                 monkeypatch):
        calls = [
            ("memsim", _llc("Ryzen7-mem", 16), mcf, None),
            ("core", core_microarch("Skylake"), gcc, None),
            ("memsim", memory_microarch("MemArtificial2"), mcf, EvictMRU("l2")),
            ("core", core_microarch("K8"), gcc, SerializeOpcode(Opcode.LOAD)),
            ("memsim", memory_microarch("Ryzen7-mem"), mcf, SPPSignatureReset()),
            ("core", core_microarch("Artificial3"), gcc, None),
        ]

        def sequence():
            return [
                (_memsim if kind == "memsim" else _core)(config, trace, bug)
                for kind, config, trace, bug in calls
            ]

        serial = sequence()
        busy, shared, lock = set(), [], threading.Lock()

        def tracked(real):
            def call(*args):
                handle = args[-1].value
                with lock:
                    if handle in busy:
                        shared.append(handle)
                    busy.add(handle)
                try:
                    return real(*args)
                finally:
                    with lock:
                        busy.discard(handle)
            return call

        for name in ("repro_memsim", "repro_simulate"):
            monkeypatch.setattr(lib, name, tracked(getattr(lib, name)))
        start = threading.Barrier(2)
        results = [None, None]

        def worker(slot):
            start.wait()
            results[slot] = sequence()

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not shared
        assert results == [serial, serial]
        for kind in workspace.KINDS:
            idle, lent = workspace.counts()[kind]
            assert 1 <= idle <= 2 and lent == 0

    def test_reset_frees_idle_workspaces_and_one_lent_on_return(self, lib, monkeypatch):
        workspace.reset()
        freed = []
        real_free = lib.repro_memsim_workspace_free
        monkeypatch.setattr(
            lib, "repro_memsim_workspace_free", lambda handle: (freed.append(handle),
                                                                real_free(handle))
        )
        with workspace.checkout(lib, "memsim") as first:
            with workspace.checkout(lib, "memsim") as second:
                pass
            assert workspace.counts()["memsim"] == (1, 1)
            workspace.reset()
            assert freed == [second]
        assert freed == [second, first]
        assert workspace.counts()["memsim"] == (0, 0)

    def test_a_forked_child_starts_with_an_empty_pool(self, one_workspace, mcf):
        config = memory_microarch("Skylake-mem")
        expected = _memsim(config, mcf)
        assert workspace.counts()["memsim"] == (1, 0)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            assert pool.submit(workspace.counts).result() == {
                kind: (0, 0) for kind in workspace.KINDS
            }
            assert pool.submit(_memsim, config, mcf).result() == expected


class TestOutputBuffers:
    def test_buffers_are_fully_written_by_the_kernels(self, lib, mcf, gcc, monkeypatch):
        memory_config = memory_microarch("Ryzen7-mem")
        core_config = core_microarch("Skylake")
        expected = (_memsim(memory_config, mcf), _core(core_config, gcc))
        memsim_buffers = memsim_native._output_buffers
        core_buffers = kernel._output_buffers

        def poisoned(make):
            def buffers(max_rows):
                arrays = make(max_rows)
                for array in arrays:
                    array.fill(np.nan if array.dtype.kind == "f" else -1)
                return arrays
            return buffers

        monkeypatch.setattr(memsim_native, "_output_buffers", poisoned(memsim_buffers))
        monkeypatch.setattr(kernel, "_output_buffers", poisoned(core_buffers))
        assert (_memsim(memory_config, mcf), _core(core_config, gcc)) == expected
        assert expected == (
            _memsim_fallback(memory_config, mcf), _core_fallback(core_config, gcc)
        )


@pytest.mark.skipif(
    sanitize_mode() is not None, reason="the sanitizer runtime allocates on its own"
)
class TestFaults:
    """A warm workspace faults in nothing: a second identical call takes
    at most a few minor faults (Python's own allocations)."""

    MAX_FAULTS = 16

    @pytest.fixture(autouse=True)
    def settled_allocator(self):
        # glibc raises its mmap threshold the first time it frees a block
        # above it, and the heap blocks of the next call then move once.
        # Freeing a 4 MB block settles that up front, as any process that
        # has freed a large array already has; otherwise the core's second
        # call can take ~20 faults of heap pages (its third takes none).
        np.empty(4 << 20, dtype=np.uint8)

    @staticmethod
    def _faults(call):
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        call()
        return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

    def test_memsim_16mb_llc(self, one_workspace, mcf):
        config = _llc("Ryzen7-mem", 16)
        assert config.llc.size == 16 << 20
        self._faults(lambda: _memsim(config, mcf))
        assert self._faults(lambda: _memsim(config, mcf)) <= self.MAX_FAULTS

    def test_core_three_levels(self, one_workspace, gcc):
        config = core_microarch("Ivybridge")
        assert config.l3 is not None and config.l3.size == 16 << 20
        self._faults(lambda: _core(config, gcc))
        assert self._faults(lambda: _core(config, gcc)) <= self.MAX_FAULTS
