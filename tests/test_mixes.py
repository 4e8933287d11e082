"""Tests for memsynth generators, multi-program mixes and the scorecard."""

import importlib.util
from pathlib import Path

import pytest

from repro.detect.probe import MemsynthProbeSource, build_mix_probes
from repro.memsim import llc_mpki, simulate_memory_trace
from repro.runtime import trace_digest
from repro.uarch import memory_microarch
from repro.workloads.memsynth import (
    MEMSYNTH_WORKLOADS,
    memsynth_num_blocks,
    memsynth_trace,
)
from repro.workloads.mixes import (
    COMPONENT_ADDRESS_STRIDE,
    COMPONENT_PC_STRIDE,
    DEFAULT_MIXES,
    MixSpec,
    build_mix,
    build_mixes,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

#: A memsynth-only spec: cheap to build and free of file dependencies.
SYNTH_SPEC = MixSpec("synthmix", MEMSYNTH_WORKLOADS, "all four archetypes")


class TestMemsynth:
    def test_every_archetype_generates(self):
        for name in MEMSYNTH_WORKLOADS:
            uops = memsynth_trace(name, 2_000, seed=5)
            assert len(uops) == 2_000
            ids = {u.block_id for u in uops}
            assert ids == set(range(memsynth_num_blocks(uops)))
            assert any(u.is_mem for u in uops)

    def test_deterministic_per_seed(self):
        for name in MEMSYNTH_WORKLOADS:
            a = memsynth_trace(name, 1_500, seed=9)
            b = memsynth_trace(name, 1_500, seed=9)
            assert a == b
            assert trace_digest(a) == trace_digest(b)
            c = memsynth_trace(name, 1_500, seed=10)
            assert trace_digest(c) != trace_digest(a)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown memsynth workload"):
            memsynth_trace("cache-blender", 100)

    def test_non_positive_length_raises(self):
        with pytest.raises(ValueError, match="positive"):
            memsynth_trace("kv-store", 0)

    def test_intensity_extremes(self):
        """high-reuse must sit far below monotonic-leak on the same design."""
        design = memory_microarch("Skylake-mem")
        reuse = llc_mpki(simulate_memory_trace(
            design, memsynth_trace("high-reuse", 6_000, seed=1)))
        leak = llc_mpki(simulate_memory_trace(
            design, memsynth_trace("monotonic-leak", 6_000, seed=1)))
        assert reuse < leak

    def test_probe_source(self):
        probes = MemsynthProbeSource(
            workloads=("kv-store", "web-server"),
            instructions_per_workload=6_000,
            interval_size=2_000,
            max_simpoints_per_workload=2,
            seed=0,
        ).build()
        assert {p.benchmark for p in probes} == {"kv-store", "web-server"}
        for benchmark in ("kv-store", "web-server"):
            weights = [p.weight for p in probes if p.benchmark == benchmark]
            assert weights and abs(sum(weights) - 1.0) < 1e-9


class TestMixBuild:
    def test_deterministic_digests(self):
        first = build_mix(SYNTH_SPEC, instructions=4_000, seed=3)
        second = build_mix(SYNTH_SPEC, instructions=4_000, seed=3)
        assert first.uops == second.uops
        assert first.digest == second.digest

    def test_all_default_mixes_build(self):
        for mix in build_mixes(DEFAULT_MIXES, instructions=2_000):
            assert len(mix) == 2_000
            assert len(mix.components) == 4
            ids = {u.block_id for u in mix.uops}
            assert ids == set(range(mix.num_blocks))

    def test_provenance_covers_stream_in_chunks(self):
        chunk = 32
        mix = build_mix(SYNTH_SPEC, instructions=4_000, chunk=chunk, seed=1)
        assert sum(count for _, count in mix.provenance) == len(mix)
        assert all(1 <= count <= chunk for _, count in mix.provenance)
        per_component = [0] * len(SYNTH_SPEC.components)
        for index, count in mix.provenance:
            per_component[index] += count
        assert per_component == [c.instructions for c in mix.components]

    def test_components_relocated_into_disjoint_slots(self):
        mix = build_mix(SYNTH_SPEC, instructions=4_000, seed=2)
        cursor = 0
        for index, count in mix.provenance:
            for uop in mix.uops[cursor:cursor + count]:
                assert uop.pc // COMPONENT_PC_STRIDE == index
                if uop.address is not None:
                    assert uop.address // COMPONENT_ADDRESS_STRIDE == index
            cursor += count

    def test_ingested_component(self):
        spec = MixSpec("filemix", ("kvstore", "high-reuse"))
        mix = build_mix(spec, instructions=2_000, seed=0, trace_dir=DATA_DIR)
        kinds = {c.name: c.kind for c in mix.components}
        assert kinds == {"kvstore": "ingested", "high-reuse": "memsynth"}
        assert len(mix) == 2_000

    def test_unknown_component_raises(self):
        spec = MixSpec("badmix", ("no-such-workload",))
        with pytest.raises(KeyError, match="unknown mix component"):
            build_mix(spec, instructions=1_000)

    def test_validation(self):
        with pytest.raises(ValueError, match="no components"):
            build_mix(MixSpec("empty", ()), instructions=1_000)
        with pytest.raises(ValueError, match="instructions"):
            build_mix(SYNTH_SPEC, instructions=0)
        with pytest.raises(ValueError, match="chunk"):
            build_mix(SYNTH_SPEC, instructions=100, chunk=0)

    def test_short_component_drops_out(self):
        """A short ingested file exhausts; the mix still fills from the rest."""
        spec = MixSpec("lopsided", ("high-reuse",))
        mix = build_mix(spec, instructions=1_000, seed=0)
        assert len(mix) == 1_000

    def test_mpki_ordering_endpoints(self):
        """mix1 (cache-resident) must sit far below mix7 (cache-hostile)."""
        design = memory_microarch("Skylake-mem")
        mix1 = build_mix(DEFAULT_MIXES[0], instructions=6_000, seed=7)
        mix7 = build_mix(DEFAULT_MIXES[-1], instructions=6_000, seed=7)
        mpki1 = llc_mpki(simulate_memory_trace(design, mix1.decoded))
        mpki7 = llc_mpki(simulate_memory_trace(design, mix7.decoded))
        assert mpki1 < mpki7


class TestMixProbes:
    def test_probe_shapes(self):
        mixes = build_mixes(DEFAULT_MIXES[:2], instructions=6_000)
        probes = build_mix_probes(mixes, interval_size=2_000,
                                  max_simpoints_per_mix=2, seed=0)
        assert {p.benchmark for p in probes} == {"mix1", "mix2"}
        for name in ("mix1", "mix2"):
            weights = [p.weight for p in probes if p.benchmark == name]
            assert weights and abs(sum(weights) - 1.0) < 1e-9
        assert all(len(p.trace) == 2_000 for p in probes)


class TestMixScorecard:
    def test_runner_registration(self):
        from repro.experiments import runner

        assert "mixes" in runner.EXPERIMENTS
        assert "mixes" in runner.OPT_IN  # excluded from default sweeps

    def test_scale_knobs_exist(self):
        from repro.experiments.common import get_scale

        for scale in ("smoke", "small", "full"):
            s = get_scale(scale)
            assert s.mix_instructions > 0
            assert s.mix_chunk > 0
            assert s.mix_max_simpoints > 0

    def test_scorecard_rows_are_stable(self):
        """Two runs on one context agree row-for-row (and hit the caches)."""
        from repro.experiments.common import ExperimentContext
        from repro.experiments.mixes import run_mix_scorecard

        specs = [SYNTH_SPEC]
        with ExperimentContext("smoke") as context:
            first = run_mix_scorecard(context, specs=specs)
            jobs_after_first = context.engine.stats.jobs
            second = run_mix_scorecard(context, specs=specs)
        assert first.rows == second.rows
        assert context.engine.stats.jobs == jobs_after_first  # all cached
        (row,) = first.rows
        assert row["Mix"] == "synthmix"
        assert row["Instr"] == context.scale.mix_instructions
        assert row["LLC MPKI"] > 0
        assert 0.0 <= row["FPR"] <= 1.0 and 0.0 <= row["TPR"] <= 1.0
        assert first.summary.startswith("mixes=1 ")

    def test_smoke_report_matches_golden(self):
        """The default smoke scorecard's rows and summary are pinned in
        ``golden_reports.json``, as every benchmarked experiment is."""
        from repro.experiments import mixes
        from repro.experiments.common import ExperimentContext

        spec = importlib.util.spec_from_file_location(
            "make_golden_reports", DATA_DIR / "make_golden_reports.py"
        )
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        with ExperimentContext("smoke") as context:
            result = mixes.run(scale="smoke", context=context)
        assert golden.report_digest(result) == golden.golden_digest("mixes")
