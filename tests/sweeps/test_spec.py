"""SweepSpec: validation, enumeration order, identity."""

import pytest

from repro.sweeps.spec import KIND_AXES, SweepSpec


def test_default_spec_enumerates_in_grid_order():
    spec = SweepSpec(name="s", n_values=(5, 8), seeds=(0, 1, 2))
    cells = spec.cells()
    assert spec.total_cells() == len(cells) == 6
    assert [c.index for c in cells] == list(range(6))
    assert cells[0].key == "n=5/daemon=bernoulli:0.5/seed=0"
    assert cells[-1].params == {"n": 8, "daemon": "bernoulli:0.5",
                               "seed": 2}
    assert all(c.seed == c.params["seed"] for c in cells)


def test_des_axes():
    spec = SweepSpec(
        name="d", kind="des", n_values=(4,), seeds=(0,),
        loss_rates=(0.0, 0.25), delay_scales=(1.0, 2.0),
        duplication_rates=(0.0, 0.1),
    )
    assert [a for a, _ in spec.axes()] == list(KIND_AXES["des"])
    assert spec.total_cells() == 8
    assert "loss=0.25" in spec.cells()[-1].key


def test_group_params_excludes_seed():
    cell = SweepSpec(name="s").cells()[0]
    assert dict(cell.group_params()) == {"n": 8,
                                         "daemon": "bernoulli:0.5"}


@pytest.mark.parametrize("kwargs", [
    {"name": ""},
    {"name": "a/b"},
    {"name": ".hidden"},
    {"name": "s", "kind": "mystery"},
    {"name": "s", "kind": "convergence", "algorithm": "dijkstra"},
    {"name": "s", "n_values": ()},
    {"name": "s", "seeds": ()},
    {"name": "s", "n_values": (2,)},
    {"name": "s", "daemons": ("lottery",)},
    # Foreign axes must stay at defaults.
    {"name": "s", "kind": "convergence", "loss_rates": (0.5,)},
    {"name": "s", "kind": "des", "daemons": ("central",)},
    # Values a cell would only fail on (or hang on) after the sweep's
    # spec and store row are written.
    {"name": "s", "kind": "des", "loss_rates": (1.5,)},
    {"name": "s", "kind": "des", "loss_rates": (1.0,)},
    {"name": "s", "kind": "des", "loss_rates": (-0.1,)},
    {"name": "s", "kind": "des", "duplication_rates": (2.0,)},
    {"name": "s", "kind": "des", "delay_scales": (0.0,)},
    {"name": "s", "kind": "des", "delay_scales": (-1.0,)},
    {"name": "s", "max_steps": -1},
    {"name": "s", "kind": "des", "slice_duration": 0.0},
    {"name": "s", "kind": "des", "max_time": 0.0},
    {"name": "s", "kind": "des", "gap_duration": -5.0},
    # A repeated axis value enumerates one cell key twice.
    {"name": "d", "n_values": (6, 6), "seeds": (1, 1, 2)},
    {"name": "s", "seeds": (0, 1, 2, 3, 2)},
    {"name": "s", "daemons": ("central", "central")},
    {"name": "s", "kind": "des", "loss_rates": (0.1, 0.1)},
    {"name": "s", "kind": "des", "loss_rates": (0.1, 0.1000001)},
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


def test_json_roundtrip_and_unknown_fields():
    spec = SweepSpec(name="s", n_values=[5, 8], seeds=[0, 1])
    clone = SweepSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.n_values == (5, 8)  # lists normalize to tuples
    with pytest.raises(ValueError):
        SweepSpec.from_json({"name": "s", "bogus": 1})


def test_grid_hash_tracks_the_grid():
    a = SweepSpec(name="s", seeds=(0, 1))
    b = SweepSpec(name="s", seeds=(0, 1))
    c = SweepSpec(name="s", seeds=(0, 2))
    assert a.grid_hash() == b.grid_hash()
    assert a.grid_hash() != c.grid_hash()
