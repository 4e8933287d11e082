"""Tests for the parallel simulation job engine and persistent result store."""

import os

import numpy as np
import pytest

from repro.bugs.core_bugs import SerializeOpcode
from repro.coresim.hooks import CoreBugModel
from repro.detect.dataset import MemorySimulationCache, SimulationCache
from repro.detect.probe import build_probes
from repro.runtime import (
    JobEngine,
    JobFailedError,
    ResultStore,
    SimulationJob,
    TraceRegistry,
    bug_fingerprint,
    config_fingerprint,
    default_jobs,
    trace_digest,
)
from repro.runtime.store import StoredResult
from repro.uarch import core_microarch, memory_microarch
from repro.workloads import TraceGenerator, build_program, workload
from repro.workloads.isa import Opcode


class ExplodingBug(CoreBugModel):
    """Picklable bug model that fails as soon as simulation starts."""

    name = "exploding"

    def on_simulation_start(self, config) -> None:
        raise RuntimeError("boom at simulation start")


@pytest.fixture(scope="module")
def tiny_trace():
    program = build_program(workload("403.gcc"), seed=11)
    return TraceGenerator(program, seed=12).generate(1500)


@pytest.fixture(scope="module")
def registry(tiny_trace):
    registry = TraceRegistry()
    registry.register(tiny_trace)
    return registry


def _core_jobs(registry, tiny_trace, step=256):
    trace_id = registry.register(tiny_trace)
    jobs = []
    for config_name in ("Skylake", "K8"):
        config = core_microarch(config_name)
        for bug in (None, SerializeOpcode(Opcode.XOR)):
            jobs.append(
                SimulationJob(
                    study="core", config=config, bug=bug, trace_id=trace_id, step=step
                )
            )
    return jobs


def _assert_results_equal(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.instructions == b.instructions
        assert a.cycles == b.cycles
        assert np.array_equal(a.ipc, b.ipc)
        assert set(a.counters) == set(b.counters)
        for name in a.counters:
            assert np.array_equal(a.counters[name], b.counters[name]), name


class TestJobIdentity:
    def test_key_is_content_based(self, registry, tiny_trace):
        trace_id = registry.register(tiny_trace)
        job = SimulationJob(
            study="core", config=core_microarch("Skylake"), bug=None,
            trace_id=trace_id, step=256,
        )
        # A structurally equal job built from fresh objects shares the key.
        clone = SimulationJob(
            study="core", config=core_microarch("Skylake"), bug=None,
            trace_id=trace_digest(list(tiny_trace)), step=256,
        )
        assert job.key() == clone.key()

    def test_key_distinguishes_every_component(self, registry, tiny_trace):
        trace_id = registry.register(tiny_trace)
        base = SimulationJob(
            study="core", config=core_microarch("Skylake"), bug=None,
            trace_id=trace_id, step=256,
        )
        variants = [
            SimulationJob(study="core", config=core_microarch("K8"), bug=None,
                          trace_id=trace_id, step=256),
            SimulationJob(study="core", config=core_microarch("Skylake"),
                          bug=SerializeOpcode(Opcode.XOR), trace_id=trace_id, step=256),
            SimulationJob(study="core", config=core_microarch("Skylake"), bug=None,
                          trace_id=trace_id, step=512),
            SimulationJob(study="memory", config=memory_microarch("Skylake-mem"),
                          bug=None, trace_id=trace_id, step=256),
        ]
        keys = {base.key()}
        for variant in variants:
            assert variant.key() not in keys
            keys.add(variant.key())

    def test_bug_fingerprint_separates_variants(self):
        assert bug_fingerprint(None) == "bug-free"
        xor = bug_fingerprint(SerializeOpcode(Opcode.XOR))
        sub = bug_fingerprint(SerializeOpcode(Opcode.SUB))
        assert xor != sub
        assert bug_fingerprint(SerializeOpcode(Opcode.XOR)) == xor

    def test_config_fingerprint_tracks_content(self):
        assert config_fingerprint(core_microarch("Skylake")) == config_fingerprint(
            core_microarch("Skylake")
        )
        assert config_fingerprint(core_microarch("Skylake")) != config_fingerprint(
            core_microarch("K8")
        )

    def test_trace_digest_is_stable_and_content_sensitive(self, tiny_trace):
        assert trace_digest(tiny_trace) == trace_digest(list(tiny_trace))
        assert trace_digest(tiny_trace[:-1]) != trace_digest(tiny_trace)

    def test_registry_memo_retains_objects(self, tiny_trace):
        registry = TraceRegistry()
        duplicate = list(tiny_trace)
        digest = registry.register(duplicate)
        assert registry.register(tiny_trace) == digest
        assert registry.register(duplicate) == digest
        assert len(registry) == 1
        # The memo must hold strong references: a freed trace's recycled
        # object id could otherwise alias a stale digest.
        assert any(entry[0] is duplicate for entry in registry._by_object.values())

    def test_rejects_unknown_study_and_step(self, registry, tiny_trace):
        trace_id = registry.register(tiny_trace)
        with pytest.raises(ValueError):
            SimulationJob(study="quantum", config=core_microarch("Skylake"),
                          bug=None, trace_id=trace_id, step=256)
        with pytest.raises(ValueError):
            SimulationJob(study="core", config=core_microarch("Skylake"),
                          bug=None, trace_id=trace_id, step=0)


class TestChunking:
    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            JobEngine(jobs=2, chunk_size=0)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_JOBS", "-3")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()


class TestEngine:
    def test_serial_and_parallel_are_identical(self, registry, tiny_trace):
        """Determinism regression: same batch, same counters/IPC, any jobs."""
        jobs = _core_jobs(registry, tiny_trace)
        serial = JobEngine(jobs=1).run(jobs, registry.traces)
        parallel = JobEngine(jobs=2, chunk_size=1).run(jobs, registry.traces)
        _assert_results_equal(serial, parallel)
        assert all(r.ipc.min() > 0 for r in serial)

    def test_duplicate_jobs_simulated_once(self, registry, tiny_trace):
        jobs = _core_jobs(registry, tiny_trace)
        engine = JobEngine(jobs=1)
        results = engine.run(jobs + jobs, registry.traces)
        assert engine.stats.jobs == 2 * len(jobs)
        assert engine.stats.executed == len(jobs)
        _assert_results_equal(results[: len(jobs)], results[len(jobs):])

    def test_progress_callback_reaches_total(self, registry, tiny_trace):
        seen = []
        jobs = _core_jobs(registry, tiny_trace)
        engine = JobEngine(jobs=1, progress=lambda done, total: seen.append((done, total)))
        engine.run(jobs, registry.traces)
        assert seen[-1] == (len(jobs), len(jobs))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_unknown_trace_id_rejected(self, registry, tiny_trace):
        job = SimulationJob(study="core", config=core_microarch("Skylake"),
                            bug=None, trace_id="deadbeef", step=256)
        with pytest.raises(KeyError):
            JobEngine(jobs=1).run([job], registry.traces)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_failure_propagates(self, registry, tiny_trace, jobs):
        trace_id = registry.register(tiny_trace)
        batch = [
            SimulationJob(study="core", config=core_microarch("Skylake"),
                          bug=None, trace_id=trace_id, step=256),
            SimulationJob(study="core", config=core_microarch("Skylake"),
                          bug=ExplodingBug(), trace_id=trace_id, step=256),
        ]
        with pytest.raises(JobFailedError) as excinfo:
            JobEngine(jobs=jobs, chunk_size=1).run(batch, registry.traces)
        assert "boom at simulation start" in str(excinfo.value)
        assert "exploding" in excinfo.value.description


class TestResultStore:
    def test_round_trip_is_bit_exact(self, registry, tiny_trace, tmp_path):
        jobs = _core_jobs(registry, tiny_trace)
        store = ResultStore(tmp_path / "store")
        computed = JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        loaded = [store.get(job.key()) for job in jobs]
        assert all(entry is not None for entry in loaded)
        _assert_results_equal(computed, loaded)

    def test_second_run_hits_store_only(self, registry, tiny_trace, tmp_path):
        jobs = _core_jobs(registry, tiny_trace)
        store = ResultStore(tmp_path / "store")
        first = JobEngine(jobs=1, store=store)
        first.run(jobs, registry.traces)
        assert first.stats.executed == len(jobs)
        assert first.stats.store_hits == 0
        second = JobEngine(jobs=1, store=store)
        results = second.run(jobs, registry.traces)
        assert second.stats.executed == 0
        assert second.stats.store_hits == len(jobs)
        _assert_results_equal(results, [store.get(job.key()) for job in jobs])

    def test_truncated_entry_recomputes_instead_of_crashing(
        self, registry, tiny_trace, tmp_path
    ):
        jobs = _core_jobs(registry, tiny_trace)[:1]
        store = ResultStore(tmp_path / "store")
        engine = JobEngine(jobs=1, store=store)
        intact = engine.run(jobs, registry.traces)
        entry = store._entry_path(jobs[0].key())
        entry.write_bytes(entry.read_bytes()[:20])

        assert store.get(jobs[0].key()) is None
        assert store.stats.corrupt == 1
        assert not entry.exists()

        recomputed = JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        _assert_results_equal(intact, recomputed)
        assert store.get(jobs[0].key()) is not None

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        (store.path / "nonsense.npz").write_bytes(b"not a zip archive")
        assert store.get("nonsense") is None
        assert store.stats.corrupt == 1

    def test_eviction_keeps_newest(self, registry, tiny_trace, tmp_path):
        jobs = _core_jobs(registry, tiny_trace)
        store = ResultStore(tmp_path / "store", max_entries=2)
        results = JobEngine(jobs=1).run(jobs, registry.traces)
        for index, (job, result) in enumerate(zip(jobs, results)):
            store.put(job.key(), result)
            path = store._entry_path(job.key())
            os.utime(path, (index + 1, index + 1))
        assert len(store) == 2
        assert store.stats.evicted == len(jobs) - 2
        assert jobs[-1].key() in store
        assert jobs[0].key() not in store

    def test_no_eviction_below_capacity(self, registry, tiny_trace, tmp_path):
        jobs = _core_jobs(registry, tiny_trace)
        store = ResultStore(tmp_path / "store", max_entries=len(jobs) + 1)
        results = JobEngine(jobs=1).run(jobs, registry.traces)
        for job, result in zip(jobs, results):
            store.put(job.key(), result)
        assert len(store) == len(jobs)
        assert store.stats.evicted == 0
        assert all(job.key() in store for job in jobs)

    def test_rejects_bad_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store", max_entries=0)

    @staticmethod
    def _tiny_result():
        return StoredResult(
            study="core", config_name="X", bug_name="bug-free",
            instructions=8, cycles=16.0, amat=0.0, step=256,
            counters={"c": np.arange(4.0)}, ipc=np.ones(4),
        )

    def test_evict_excludes_fresh_key_on_mtime_tie(self, tmp_path):
        """Regression: on coarse-mtime filesystems the freshly written entry
        can tie with older ones, and its hex name sorting first must not get
        it evicted by the very put() that wrote it."""
        writer = ResultStore(tmp_path / "store")  # no capacity: no eviction yet
        # "00fresh" sorts before both older keys on a full (mtime, name) tie.
        for key in ("aa0", "bb1", "00fresh"):
            writer.put(key, self._tiny_result())
        now = 1_000_000
        for key in ("aa0", "bb1", "00fresh"):
            os.utime(writer._entry_path(key), (now, now))
        store = ResultStore(tmp_path / "store", max_entries=2)
        store._evict(fresh=store._entry_path("00fresh"))
        assert "00fresh" in store
        assert len(store) == 2

    def test_put_never_evicts_what_it_just_wrote(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_entries=2)
        store.put("aa0", self._tiny_result())
        store.put("bb1", self._tiny_result())
        # Push the old entries into the future so the fresh entry would sort
        # strictly oldest — the worst case of the mtime-tie bug.
        future = 4_000_000_000
        os.utime(store._entry_path("aa0"), (future, future))
        os.utime(store._entry_path("bb1"), (future, future))
        store.put("00fresh", self._tiny_result())
        assert "00fresh" in store
        assert store.get("00fresh") is not None
        assert len(store) == 2

    def test_stale_tmp_files_swept_on_init(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        first.put("aa0", self._tiny_result())
        # Simulate writers killed mid-put long ago: orphaned <key>.tmp<pid>
        # files with old mtimes.
        ancient = 1_000_000
        for name in ("deadbeef.tmp4242", "cafe.tmp99"):
            stale = first.path / name
            stale.write_bytes(b"partial")
            os.utime(stale, (ancient, ancient))
        # A *young* temp file may belong to a live writer in another process
        # sharing the store and must survive the sweep.
        live = first.path / "beef.tmp123"
        live.write_bytes(b"in flight")
        # Non-temp foreign files are never touched either.
        foreign = first.path / "notes.txt"
        foreign.write_text("keep me")
        second = ResultStore(tmp_path / "store")
        assert second.stats.tmp_swept == 2
        assert not (second.path / "deadbeef.tmp4242").exists()
        assert not (second.path / "cafe.tmp99").exists()
        assert live.exists()
        assert foreign.exists()
        assert len(second) == 1
        assert second.get("aa0") is not None

    def test_warm_store_writes_without_rescanning(self, tmp_path):
        """Regression: every put used to glob the whole directory, making N
        writes O(N^2); the count is now tracked incrementally."""
        store = ResultStore(tmp_path / "store", max_entries=5_000)
        result = self._tiny_result()
        for index in range(1_000):
            store.put(f"k{index:04d}", result)
        assert store.scans == 1  # the __init__ scan, nothing per-put
        assert len(store) == 1_000

        warm = ResultStore(tmp_path / "store")
        assert warm.scans == 1
        assert len(warm) == 1_000
        warm.put("extra", result)
        assert warm.scans == 1
        assert len(warm) == 1_001

    def test_count_resyncs_after_corrupt_entry(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("aa0", self._tiny_result())
        # An external writer drops in a garbage entry the counter missed.
        (store.path / "garbage.npz").write_bytes(b"junk")
        assert store.get("garbage") is None
        assert not (store.path / "garbage.npz").exists()
        assert len(store) == 1  # resynced from disk, not guessed


class TestShardedStore:
    """The ``shard=XX/`` layout: detection, migration, GC and coexistence."""

    @staticmethod
    def _tiny_result():
        return StoredResult(
            study="core", config_name="X", bug_name="bug-free",
            instructions=8, cycles=16.0, amat=0.0, step=256,
            counters={"c": np.arange(4.0)}, ipc=np.ones(4),
        )

    def test_sharded_entries_land_in_shard_dirs(self, tmp_path):
        store = ResultStore(tmp_path / "store", layout="sharded")
        for key in ("aa00", "aa01", "bb02"):
            store.put(key, self._tiny_result())
        assert store._entry_path("aa00").parent.name == "shard=aa"
        assert (store.path / "shard=aa" / "aa00.npz").exists()
        assert (store.path / "shard=bb" / "bb02.npz").exists()
        assert store.shard_counts() == {"aa": 2, "bb": 1}
        assert len(store) == 3
        assert store.get("aa01") is not None

    def test_layout_marker_survives_reopen(self, tmp_path):
        ResultStore(tmp_path / "store", layout="sharded").put(
            "aa00", self._tiny_result()
        )
        reopened = ResultStore(tmp_path / "store")  # no layout argument
        assert reopened.layout == "sharded"
        assert reopened.get("aa00") is not None

    def test_bad_layout_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store", layout="hashed")

    def test_reshard_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        keys = [f"{prefix}{index}" for prefix in ("aa", "bb") for index in range(2)]
        for key in keys:
            store.put(key, self._tiny_result())
        assert store.layout == "flat"

        assert store.reshard("sharded") == len(keys)
        assert store.layout == "sharded"
        assert sorted(store.keys()) == sorted(keys)
        assert ResultStore(tmp_path / "store").layout == "sharded"
        assert all(store.get(key) is not None for key in keys)

        assert store.reshard("flat") == len(keys)
        assert store.layout == "flat"
        assert not list((store.path).glob("shard=*"))  # empty shards pruned
        assert all(store.get(key) is not None for key in keys)

    def test_locate_tolerates_mid_migration_entries(self, tmp_path):
        # A flat entry written before an interrupted reshard must stay
        # readable from a store opened as sharded (and vice versa).
        flat = ResultStore(tmp_path / "store")
        flat.put("aa00", self._tiny_result())
        sharded = ResultStore(tmp_path / "store", layout="sharded")
        sharded.put("bb01", self._tiny_result())
        assert sharded.get("aa00") is not None  # flat leftover, found anyway
        assert "aa00" in sharded
        assert sorted(sharded.keys()) == ["aa00", "bb01"]

    def test_gc_prunes_outside_roster(self, tmp_path):
        store = ResultStore(tmp_path / "store", layout="sharded")
        for key in ("aa00", "aa01", "bb02", "cc03"):
            store.put(key, self._tiny_result())

        preview = store.gc({"aa00", "bb02"}, dry_run=True)
        assert preview == ["aa01", "cc03"]
        assert len(store) == 4  # dry run touched nothing

        removed = store.gc({"aa00", "bb02"})
        assert removed == ["aa01", "cc03"]
        assert store.stats.gc_removed == 2
        assert sorted(store.keys()) == ["aa00", "bb02"]
        assert store.get("aa00") is not None
        assert not (store.path / "shard=cc").exists()  # emptied shard pruned

    def test_gc_with_superset_roster_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("aa00", self._tiny_result())
        assert store.gc({"aa00", "never-computed"}) == []
        assert store.get("aa00") is not None

    def test_cross_layout_merge(self, tmp_path):
        sharded = ResultStore(tmp_path / "sharded", layout="sharded")
        sharded.put("aa00", self._tiny_result())
        flat = ResultStore(tmp_path / "flat")
        flat.put("bb01", self._tiny_result())

        assert flat.merge_from(sharded) == 1
        assert sorted(flat.keys()) == ["aa00", "bb01"]
        assert flat.layout == "flat"

        other = ResultStore(tmp_path / "sharded2", layout="sharded")
        assert other.merge_from(flat) == 2
        assert sorted(other.keys()) == ["aa00", "bb01"]
        assert (other.path / "shard=aa" / "aa00.npz").exists()

    def test_cli_reshard_info_and_gc(self, tmp_path, capsys):
        from repro.runtime.store_cli import main as store_main

        store = ResultStore(tmp_path / "store")
        for key in ("aa00", "aa01", "bb02"):
            store.put(key, self._tiny_result())

        assert store_main(["reshard", str(tmp_path / "store")]) == 0
        assert "flat -> sharded, 3 entries moved" in capsys.readouterr().out

        assert store_main(["info", str(tmp_path / "store")]) == 0
        output = capsys.readouterr().out
        assert "layout=sharded" in output
        assert "2 shards occupied" in output
        assert "shard=aa: 2" in output

        roster = tmp_path / "roster.txt"
        roster.write_text("# keep these\naa00\nbb02\n")
        assert store_main([
            "gc", str(tmp_path / "store"), "--keep", str(roster), "--dry-run",
        ]) == 0
        assert "would remove 1/3" in capsys.readouterr().out
        assert store_main([
            "gc", str(tmp_path / "store"), "--keep", str(roster),
        ]) == 0
        assert "removed 1/3" in capsys.readouterr().out
        assert sorted(ResultStore(tmp_path / "store").keys()) == ["aa00", "bb02"]

    def test_cli_gc_refuses_empty_roster(self, tmp_path, capsys):
        from repro.runtime.store_cli import main as store_main

        store = ResultStore(tmp_path / "store")
        store.put("aa00", self._tiny_result())
        roster = tmp_path / "empty.txt"
        roster.write_text("# nothing\n")
        code = store_main(["gc", str(tmp_path / "store"), "--keep", str(roster)])
        assert code == 2
        assert "refusing" in capsys.readouterr().out
        assert store.get("aa00") is not None

    def test_cli_gc_missing_roster_fails(self, tmp_path, capsys):
        from repro.runtime.store_cli import main as store_main

        ResultStore(tmp_path / "store").put("aa00", self._tiny_result())
        code = store_main([
            "gc", str(tmp_path / "store"), "--keep", str(tmp_path / "nope"),
        ])
        assert code == 2
        assert "cannot read roster" in capsys.readouterr().out

    def test_sharded_store_backs_an_engine_run(self, registry, tiny_trace, tmp_path):
        jobs = _core_jobs(registry, tiny_trace)
        store = ResultStore(tmp_path / "store", layout="sharded")
        JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        replay = JobEngine(jobs=1, store=store)
        replay.run(jobs, registry.traces)
        assert replay.stats.executed == 0
        assert replay.stats.store_hits == len(jobs)


class TestResumableBatches:
    """A mid-batch failure must not discard finished work (store-backed)."""

    def _good_jobs(self, registry, tiny_trace, configs=("Skylake", "K8", "Cedarview")):
        trace_id = registry.register(tiny_trace)
        return [
            SimulationJob(study="core", config=core_microarch(name), bug=None,
                          trace_id=trace_id, step=256)
            for name in configs
        ]

    def test_serial_rerun_executes_only_unfinished_jobs(
        self, registry, tiny_trace, tmp_path
    ):
        trace_id = registry.register(tiny_trace)
        good = self._good_jobs(registry, tiny_trace)
        boom = SimulationJob(study="core", config=core_microarch("Skylake"),
                             bug=ExplodingBug(), trace_id=trace_id, step=256)
        store = ResultStore(tmp_path / "store")
        # Serial execution preserves input order: good[0], good[1] finish
        # (and are persisted immediately), then the third job explodes.
        with pytest.raises(JobFailedError):
            JobEngine(jobs=1, store=store).run(
                [good[0], good[1], boom, good[2]], registry.traces
            )
        assert good[0].key() in store
        assert good[1].key() in store
        assert good[2].key() not in store

        rerun = JobEngine(jobs=1, store=store)
        results = rerun.run(good, registry.traces)
        assert rerun.stats.store_hits == 2
        assert rerun.stats.executed == 1  # only the unfinished job
        fresh = JobEngine(jobs=1).run(good, registry.traces)
        _assert_results_equal(results, fresh)

    def test_parallel_partial_chunk_results_survive_failure(
        self, registry, tiny_trace, tmp_path
    ):
        trace_id = registry.register(tiny_trace)
        good = self._good_jobs(registry, tiny_trace)
        boom = SimulationJob(study="core", config=core_microarch("Skylake"),
                             bug=ExplodingBug(), trace_id=trace_id, step=256)
        store = ResultStore(tmp_path / "store")
        # One chunk holds everything: the jobs completed before the failing
        # one must still be persisted from the partial chunk outcome.
        with pytest.raises(JobFailedError):
            JobEngine(jobs=2, chunk_size=8, store=store).run(
                good + [boom] + self._good_jobs(registry, tiny_trace, ("Broadwell",)),
                registry.traces,
            )
        assert all(job.key() in store for job in good)

        rerun = JobEngine(jobs=2, chunk_size=8, store=store)
        results = rerun.run(good, registry.traces)
        assert rerun.stats.store_hits == len(good)
        assert rerun.stats.executed == 0
        fresh = JobEngine(jobs=1).run(good, registry.traces)
        _assert_results_equal(results, fresh)

    def test_parallel_rerun_consistency_after_failure(
        self, registry, tiny_trace, tmp_path
    ):
        trace_id = registry.register(tiny_trace)
        good = self._good_jobs(registry, tiny_trace) + self._good_jobs(
            registry, tiny_trace, ("Broadwell",)
        )
        boom = SimulationJob(study="core", config=core_microarch("Skylake"),
                             bug=ExplodingBug(), trace_id=trace_id, step=256)
        store = ResultStore(tmp_path / "store")
        with JobEngine(jobs=2, chunk_size=1, store=store) as engine:
            with pytest.raises(JobFailedError):
                engine.run(good + [boom], registry.traces)
        # Chunk completion order is nondeterministic, but whatever finished
        # was persisted, and the re-run executes exactly the remainder.
        rerun = JobEngine(jobs=1, store=store)
        results = rerun.run(good, registry.traces)
        assert rerun.stats.store_hits + rerun.stats.executed == len(good)
        assert rerun.stats.executed <= len(good)
        fresh = JobEngine(jobs=1).run(good, registry.traces)
        _assert_results_equal(results, fresh)


class TestStoreMerge:
    @staticmethod
    def _tiny_result():
        return StoredResult(
            study="core", config_name="X", bug_name="bug-free",
            instructions=8, cycles=16.0, amat=0.0, step=256,
            counters={"c": np.arange(4.0)}, ipc=np.ones(4),
        )

    def test_merge_disjoint_stores_then_replay_executes_zero(
        self, registry, tiny_trace, tmp_path
    ):
        jobs = _core_jobs(registry, tiny_trace)
        first_half, second_half = jobs[:2], jobs[2:]
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        JobEngine(jobs=1, store=store_a).run(first_half, registry.traces)
        JobEngine(jobs=1, store=store_b).run(second_half, registry.traces)

        merged = ResultStore(tmp_path / "merged")
        assert merged.merge_from(store_a) == len(first_half)
        assert merged.merge_from(store_b) == len(second_half)
        assert len(merged) == len(jobs)

        replay = JobEngine(jobs=1, store=merged)
        results = replay.run(jobs, registry.traces)
        assert replay.stats.executed == 0
        assert replay.stats.store_hits == len(jobs)
        _assert_results_equal(results, JobEngine(jobs=1).run(jobs, registry.traces))

    def test_merge_skips_corrupt_and_existing_entries(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        source.put("aa0", self._tiny_result())
        source.put("bb1", self._tiny_result())
        (source.path / "cc2.npz").write_bytes(b"not a zip archive")
        destination = ResultStore(tmp_path / "dst")
        destination.put("aa0", self._tiny_result())  # already present

        merged = destination.merge_from(source)
        assert merged == 1  # bb1 only: aa0 existed, cc2 was corrupt
        assert source.stats.corrupt == 1
        assert sorted(destination.keys()) == ["aa0", "bb1"]

    def test_merge_honours_eviction_limit(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        for index in range(4):
            source.put(f"k{index}", self._tiny_result())
        destination = ResultStore(tmp_path / "dst", max_entries=2)
        destination.merge_from(source)
        assert len(destination) == 2
        assert destination.stats.evicted == 2

    def test_merge_into_itself_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        other = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.merge_from(other)

    def test_cli_merge_and_info(self, registry, tiny_trace, tmp_path, capsys):
        from repro.runtime.store_cli import main as store_main

        jobs = _core_jobs(registry, tiny_trace)
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        JobEngine(jobs=1, store=store_a).run(jobs[:2], registry.traces)
        JobEngine(jobs=1, store=store_b).run(jobs[2:], registry.traces)

        code = store_main([
            "merge", str(tmp_path / "a"), str(tmp_path / "b"),
            str(tmp_path / "merged"),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert f"merged 2/2" in output

        replay = JobEngine(jobs=1, store=ResultStore(tmp_path / "merged"))
        replay.run(jobs, registry.traces)
        assert replay.stats.executed == 0

        assert store_main(["info", str(tmp_path / "merged")]) == 0
        assert "4 entries" in capsys.readouterr().out

    def test_cli_merge_missing_source_fails(self, tmp_path, capsys):
        from repro.runtime.store_cli import main as store_main

        code = store_main(["merge", str(tmp_path / "nope"), str(tmp_path / "dst")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().out

    def test_cli_merge_into_itself_fails_cleanly(self, tmp_path, capsys):
        from repro.runtime.store_cli import main as store_main

        store = ResultStore(tmp_path / "store")
        store.put("aa0", self._tiny_result())
        code = store_main(["merge", str(tmp_path / "store"), str(tmp_path / "store")])
        assert code == 2
        assert "cannot merge a store into itself" in capsys.readouterr().out


class TestCacheIntegration:
    def test_warm_parallel_matches_serial_observations(self):
        probes = build_probes(["458.sjeng"], instructions_per_benchmark=4000,
                              interval_size=2000, max_simpoints_per_benchmark=2, seed=3)
        designs = [core_microarch("Skylake"), core_microarch("K8")]
        bugs = [None, SerializeOpcode(Opcode.SUB)]
        requests = [(p, d, b) for p in probes for d in designs for b in bugs]

        serial = SimulationCache(step_cycles=256)
        serial.warm(requests)
        parallel = SimulationCache(
            step_cycles=256, engine=JobEngine(jobs=2, chunk_size=1)
        )
        dispatched = parallel.warm(requests)
        assert dispatched == len(requests)
        assert parallel.misses == serial.misses == len(requests)

        for probe, design, bug in requests:
            a = serial.get(probe, design, bug)
            b = parallel.get(probe, design, bug)
            assert a.ipc == b.ipc
            assert np.array_equal(a.series.ipc, b.series.ipc)
            for name in a.series.counters:
                assert np.array_equal(a.series.counters[name], b.series.counters[name])
        # Everything was warmed: the gets above added no misses.
        assert parallel.misses == len(requests)

    def test_store_shared_between_cache_instances(self, tmp_path):
        probes = build_probes(["458.sjeng"], instructions_per_benchmark=4000,
                              interval_size=2000, max_simpoints_per_benchmark=1, seed=3)
        design = core_microarch("Skylake")
        store = ResultStore(tmp_path / "store")

        first = SimulationCache(step_cycles=256, engine=JobEngine(jobs=1, store=store))
        first.get(probes[0], design)
        assert first.engine.stats.executed == 1

        second = SimulationCache(step_cycles=256, engine=JobEngine(jobs=1, store=store))
        observation = second.get(probes[0], design)
        assert second.engine.stats.executed == 0
        assert second.engine.stats.store_hits == 1
        assert observation.ipc == first.get(probes[0], design).ipc

    def test_memory_cache_targets_through_engine(self, tmp_path):
        probes = build_probes(["426.mcf"], instructions_per_benchmark=6000,
                              interval_size=3000, max_simpoints_per_benchmark=1, seed=5)
        design = memory_microarch("Skylake-mem")
        store = ResultStore(tmp_path / "store")
        amat_cache = MemorySimulationCache(
            step_instructions=500, target_metric="amat",
            engine=JobEngine(jobs=1, store=store),
        )
        ipc_cache = MemorySimulationCache(
            step_instructions=500, target_metric="ipc",
            engine=JobEngine(jobs=1, store=store),
        )
        amat_obs = amat_cache.get(probes[0], design)
        ipc_obs = ipc_cache.get(probes[0], design)
        # Same underlying simulation served from the store the second time...
        assert ipc_cache.engine.stats.store_hits == 1
        assert ipc_cache.engine.stats.executed == 0
        # ... but each cache derives its own target metric.
        assert amat_obs.target_metric > 1.0  # AMAT is at least the L1 latency
        assert ipc_obs.target_metric == ipc_obs.ipc
