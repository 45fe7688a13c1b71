"""FaultType/FaultConfig: parsing, validation, and lowering to ChaosOps."""

import json
import math
import os

import pytest

from repro.runtime.chaos import (
    POINT_KINDS,
    WINDOW_KINDS,
    WINDOW_TYPES,
    ChaosScript,
    FaultConfig,
    FaultType,
    parse_fault_flag,
)

GOLDEN_PRESETS = os.path.join(
    os.path.dirname(__file__), "..", "corpus", "golden_chaos_presets.json"
)


class TestFaultType:
    def test_parse_accepts_values_names_and_members(self):
        assert FaultType.parse("loss") is FaultType.LOSS
        assert FaultType.parse("node-crash") is FaultType.NODE_CRASH
        assert FaultType.parse("NODE_CRASH") is FaultType.NODE_CRASH
        assert FaultType.parse(FaultType.WEDGE) is FaultType.WEDGE

    def test_parse_rejects_unknown_with_catalog(self):
        with pytest.raises(ValueError, match="unknown fault type") as exc:
            FaultType.parse("gremlins")
        assert "loss" in str(exc.value)
        assert "wedge" in str(exc.value)

    def test_taxonomy_covers_every_runtime_primitive(self):
        """Every ChaosOp kind is reachable from some fault type."""
        kinds = set()
        for fault_type in FaultType:
            for op in FaultConfig(fault_type).compile(n=6):
                kinds.add(op.kind)
        assert set(WINDOW_KINDS) <= kinds
        assert set(POINT_KINDS) <= kinds


class TestFaultConfig:
    def test_severity_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            FaultConfig(FaultType.LOSS, severity=1.5)

    def test_window_faults_need_positive_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            FaultConfig(FaultType.PARTITION, duration=0.0)
        # Point faults don't care.
        FaultConfig(FaultType.NODE_CRASH, duration=0.0)

    @pytest.mark.parametrize("field", ["at", "duration"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_timing_rejected(self, field, value):
        """An infinite onset or window would put the director to sleep
        for good."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FaultConfig(FaultType.LOSS, **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FaultConfig.from_json({"type": "node-crash", field: value})

    def test_params_the_lowering_never_reads_rejected(self):
        """``rate`` is not loss's knob (``p`` is): refuse it rather than
        run at the default probability."""
        with pytest.raises(ValueError, match="rate"):
            FaultConfig(FaultType.LOSS, params={"rate": 0.6})
        with pytest.raises(ValueError, match="edge"):
            FaultConfig(FaultType.PARTITION, params={"edge": [(0, 1)]})
        FaultConfig(FaultType.LOSS, params={"p": 0.6})

    def test_loss_lowering_uses_severity_as_probability(self):
        (op,) = FaultConfig(
            FaultType.LOSS, at=0.2, duration=0.4, severity=0.7
        ).compile(n=4)
        assert (op.at, op.kind, op.duration) == (0.2, "loss", 0.4)
        assert op.params == {"p": 0.7}

    def test_partition_edges_validated_against_ring_size(self):
        with pytest.raises(ValueError, match="outside the 3-ring"):
            FaultConfig(
                FaultType.PARTITION, params={"edges": [(0, 7)]}
            ).compile(n=3)

    def test_partition_severity_picks_cut_width(self):
        (single,) = FaultConfig(
            FaultType.PARTITION, severity=0.2
        ).compile(n=6)
        (bisect,) = FaultConfig(
            FaultType.PARTITION, severity=0.9
        ).compile(n=6)
        assert len(single.params["edges"]) == 1
        assert len(bisect.params["edges"]) == 2

    def test_wedge_and_crash_target_nodes_stay_in_ring(self):
        for fault_type in (FaultType.NODE_CRASH, FaultType.WEDGE):
            (op,) = FaultConfig(
                fault_type, params={"node": 11}
            ).compile(n=4)
            assert 0 <= op.params["node"] < 4

    def test_cache_corruption_defaults_match_named_script(self):
        """The default volley IS the cache_scramble script, op for op
        (as frozen before the named scripts became presets)."""
        ops = FaultConfig(FaultType.CACHE_CORRUPTION, at=0.5).compile(n=6)
        with open(GOLDEN_PRESETS) as fh:
            golden = json.load(fh)["cache_scramble"]["6"]["ops"]
        assert [op.to_json() for op in ops] == golden

    def test_compile_is_deterministic(self):
        for fault_type in FaultType:
            config = FaultConfig(fault_type)
            first = [op.to_json() for op in config.compile(n=5)]
            again = [op.to_json() for op in config.compile(n=5)]
            assert first == again

    def test_json_roundtrip(self):
        config = FaultConfig(
            FaultType.REORDER, at=1.5, duration=2.0, severity=0.25,
            params={"jitter": 0.1},
        )
        assert FaultConfig.from_json(config.to_json()) == config

    def test_from_json_requires_type(self):
        with pytest.raises(ValueError, match="'type'"):
            FaultConfig.from_json({"at": 0.5})

    def test_every_fault_compiles_into_a_valid_script(self):
        """Compiled ops always satisfy ChaosScript/ChaosOp invariants."""
        for fault_type in FaultType:
            for n in (1, 2, 3, 8):
                ops = FaultConfig(fault_type).compile(n=n)
                script = ChaosScript(name="x", ops=ops)
                assert script.duration >= 0.0


class TestParseFaultFlag:
    def test_type_only(self):
        config = parse_fault_flag("wedge")
        assert config.fault_type is FaultType.WEDGE
        assert config.severity == 0.5

    def test_type_severity_duration(self):
        config = parse_fault_flag("loss:0.8:1.5")
        assert config.fault_type is FaultType.LOSS
        assert config.severity == 0.8
        assert config.duration == 1.5

    def test_empty_segments_keep_defaults(self):
        config = parse_fault_flag("partition::0.4")
        assert config.severity == 0.5
        assert config.duration == 0.4

    def test_too_many_segments_rejected(self):
        with pytest.raises(ValueError, match="--fault takes"):
            parse_fault_flag("loss:0.5:1.0:extra")

    @pytest.mark.parametrize("flag", ["loss:0.5:inf", "loss:0.5:nan"])
    def test_non_finite_duration_rejected(self, flag):
        with pytest.raises(ValueError, match="duration must be finite"):
            parse_fault_flag(flag)

    def test_slug_distinguishes_severity_for_window_types(self):
        assert parse_fault_flag("loss:0.8").slug == "loss-0.8"
        assert parse_fault_flag("node-crash").slug == "node-crash"
        assert FaultType.PARTITION in WINDOW_TYPES
        assert parse_fault_flag("partition:0.9").slug == "partition"
