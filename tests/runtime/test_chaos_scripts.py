"""Property tests (hypothesis) for the named chaos presets.

The presets in :data:`repro.runtime.chaos.PRESETS` are fault plans that
:func:`~repro.runtime.chaos.build_script` compiles for a ring size; these
properties pin what every preset must guarantee for *any* ring size,
including the degenerate n=1 and n=2 rings the hand-written tests never
touched:

* determinism — the same ``(name, n)`` always builds the same ops
  (replayability is the whole point of scripted chaos);
* partitions heal — every cut edge stays inside the ring and every
  partition window closes (finite duration), so a partition can never
  wedge a run forever;
* structural validity — ops stay inside the declared kind taxonomy and
  the script timeline is well-formed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.chaos import (
    POINT_KINDS,
    PRESETS,
    WINDOW_KINDS,
    FaultConfig,
    FaultType,
    build_script,
    ring_cut_edges,
)

script_names = st.sampled_from(sorted(PRESETS))
ring_sizes = st.integers(min_value=1, max_value=64)


@given(name=script_names, n=ring_sizes)
@settings(max_examples=60)
def test_presets_compile_deterministically(name, n):
    first = build_script(name, n)
    again = build_script(name, n)
    assert first.to_json() == again.to_json()


@given(name=script_names, n=ring_sizes)
@settings(max_examples=60)
def test_ops_are_well_formed_for_any_ring_size(name, n):
    script = build_script(name, n)
    assert script.ops, f"{name} built an empty script"
    for op in script.ops:
        assert op.kind in WINDOW_KINDS + POINT_KINDS
        assert op.at >= 0.0
        if op.kind in WINDOW_KINDS:
            assert op.duration > 0.0
        if "node" in op.params:
            assert 0 <= op.params["node"] < n
        if "neighbor" in op.params:
            assert 0 <= op.params["neighbor"] < n
    assert script.duration >= script.last_disturbance >= 0.0


@given(n=ring_sizes)
@settings(max_examples=60)
def test_partitions_always_heal(n):
    """Every partition window has in-ring edges and a finite close."""
    for name in sorted(PRESETS):
        script = build_script(name, n)
        for op in script.ops:
            if op.kind != "partition":
                continue
            assert op.duration > 0.0  # the window closes: the cut heals
            for src, dst in op.params["edges"]:
                assert 0 <= src < n
                assert 0 <= dst < n


@given(n=ring_sizes, bisect=st.booleans())
@settings(max_examples=60)
def test_ring_cut_edges_stay_in_ring_and_deduplicate(n, bisect):
    edges = ring_cut_edges(n, bisect=bisect)
    assert len(edges) == len(set(edges))
    for src, dst in edges:
        assert 0 <= src < n
        assert 0 <= dst < n
    if n < 2:
        assert edges == []  # a 1-ring has no channels to cut
    else:
        assert (0, 1) in edges


def test_degenerate_rings_build_every_script():
    """n=1 and n=2 were the historical out-of-range crashes: node ids
    must stay in range and partition edges must stay in the ring."""
    for n in (1, 2):
        for name in sorted(PRESETS):
            script = build_script(name, n)
            for op in script.ops:
                for key in ("node", "neighbor"):
                    if key in op.params:
                        assert 0 <= op.params[key] < n
                if op.kind == "partition":
                    for src, dst in op.params["edges"]:
                        assert 0 <= src < n and 0 <= dst < n


@given(
    fault_type=st.sampled_from(sorted(FaultType, key=lambda f: f.value)),
    n=ring_sizes,
    severity=st.floats(min_value=0.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False),
)
@settings(max_examples=80)
def test_fault_config_lowering_replays_for_any_ring(
    fault_type, n, severity,
):
    """Every typed fault, not only the presets' settings, compiles
    deterministically to in-taxonomy, in-ring ops."""
    config = FaultConfig(fault_type, severity=severity)
    first = [op.to_json() for op in config.compile(n)]
    again = [op.to_json() for op in config.compile(n)]
    assert first == again
    for op in config.compile(n):
        assert op.kind in WINDOW_KINDS + POINT_KINDS
        for key in ("node", "neighbor"):
            if key in op.params:
                assert 0 <= op.params[key] < n
        if op.kind == "partition":
            for src, dst in op.params["edges"]:
                assert 0 <= src < n and 0 <= dst < n
