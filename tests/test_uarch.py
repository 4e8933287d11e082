"""Tests for microarchitecture configurations, ports and presets."""

import dataclasses

import pytest

from repro.uarch import (
    CacheConfig,
    CORE_MICROARCHES,
    MEMORY_MICROARCHES,
    all_core_microarches,
    core_microarch,
    core_set,
    kb,
    mb,
    make_ports,
    memory_microarch,
    memory_set,
)
from repro.uarch.ports import A, BR, LD, ST, UnitType
from repro.workloads import OpClass


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig(size=kb(32), associativity=8, latency=4)
        assert cache.num_sets == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size=0, associativity=8, latency=4)
        with pytest.raises(ValueError):
            CacheConfig(size=1000, associativity=8, latency=4)  # not multiple of line
        with pytest.raises(ValueError):
            CacheConfig(size=kb(1), associativity=7, latency=1)  # 16 lines not 7-way


class TestPorts:
    def test_every_core_preset_can_execute_every_class(self):
        for config in all_core_microarches():
            for op_class in OpClass:
                assert config.ports.ports_for(op_class), (config.name, op_class)

    def test_make_ports_rejects_uncovered_classes(self):
        with pytest.raises(ValueError):
            make_ports([A, BR])  # no load/store/FP units anywhere

    def test_port_capability(self):
        ports = make_ports([A, BR], [LD], [ST], [UnitType.FP_UNIT, UnitType.INT_MULT,
                                                 UnitType.DIVIDER, UnitType.VECTOR,
                                                 UnitType.FP_MULT])
        assert ports.ports[1].can_execute(OpClass.LOAD)
        assert not ports.ports[1].can_execute(OpClass.STORE)
        histogram = ports.capability_histogram()
        assert histogram[OpClass.INT_ALU] == 1


class TestPresets:
    def test_twenty_core_presets_partitioned(self):
        assert len(CORE_MICROARCHES) == 20
        assert len(core_set("I")) == 10
        assert len(core_set("II")) == 3
        assert len(core_set("III")) == 3
        assert len(core_set("IV")) == 4
        assert all(cfg.is_real for cfg in core_set("IV"))

    def test_table2_spot_checks(self):
        skylake = core_microarch("Skylake")
        assert skylake.clock_ghz == 4.0
        assert skylake.rob_size == 256
        assert skylake.l2.size == kb(256) and skylake.l2.associativity == 4
        assert skylake.l3 is not None and skylake.l3.size == mb(8)
        k8 = core_microarch("K8")
        assert k8.l3 is None and k8.width == 3 and k8.rob_size == 24
        cedarview = core_microarch("Cedarview")
        assert cedarview.div_latency == 30

    def test_feature_vector_contains_knobs(self):
        features = core_microarch("Broadwell").feature_vector()
        assert features["uarch.width"] == 4.0
        assert features["uarch.l1_size_kb"] == 32.0
        assert features["uarch.l3_size_kb"] == 64 * 1024.0

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            core_microarch("Pentium4")
        with pytest.raises(KeyError):
            memory_microarch("nope")
        with pytest.raises(ValueError):
            core_set("V")

    def test_memory_presets(self):
        assert len(MEMORY_MICROARCHES) == 12
        assert len(memory_set("IV")) == 2
        sky = memory_microarch("Skylake-mem")
        assert sky.prefetcher == "spp"
        assert "mem.llc_size_kb" in sky.feature_vector()

    def test_derived_structure_sizes(self):
        cfg = core_microarch("Skylake")
        assert cfg.iq_size >= 12 and cfg.lsq_size >= 8
        assert cfg.num_phys_regs > cfg.rob_size

    def test_empty_btb_rejected(self):
        # An empty BTB has no entry for the replacement path to evict.
        with pytest.raises(ValueError, match="BTB"):
            dataclasses.replace(core_microarch("K8"), btb_entries=0)
        assert dataclasses.replace(core_microarch("K8"), btb_entries=1).btb_entries == 1

    def test_memory_issue_width_and_prefetch_degree_rejected(self):
        # The memsim divides by the issue width, and its next-line
        # prefetcher builds prefetch_degree requests per access.  Both
        # memsims ran a degree below 1 as 1, while feature_vector() reported
        # the raw value: one design under several design features.
        base = memory_microarch("K10-mem")
        lines = base.l1d.size // base.l1d.line_size
        for width in (0, -2):
            with pytest.raises(ValueError, match="issue width"):
                dataclasses.replace(base, issue_width=width)
        for degree in (lines + 1, 1 << 60, 0, -3):
            with pytest.raises(ValueError, match="prefetch degree"):
                dataclasses.replace(base, prefetch_degree=degree)
        assert dataclasses.replace(base, prefetch_degree=lines).prefetch_degree == lines
        assert dataclasses.replace(base, prefetch_degree=1).prefetch_degree == 1
