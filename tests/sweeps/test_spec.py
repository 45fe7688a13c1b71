"""SweepSpec: validation, enumeration order, identity."""

from itertools import product

import pytest

from repro.sweeps.spec import KIND_AXES, CellSpec, SweepSpec, _fmt


def test_default_spec_enumerates_in_grid_order():
    spec = SweepSpec(name="s", n_values=(5, 8), seeds=(0, 1, 2))
    cells = spec.cells()
    assert spec.total_cells() == len(cells) == 6
    assert [c.index for c in cells] == list(range(6))
    assert cells[0].key == "n=5/daemon=bernoulli:0.5/seed=0"
    assert cells[-1].params == {"n": 8, "daemon": "bernoulli:0.5",
                               "seed": 2}
    assert all(c.seed == c.params["seed"] for c in cells)


def cells_cell_by_cell(spec):
    """The cells as a key-per-cell loop formats them (the reference)."""
    axes = spec.axes()
    names = [axis for axis, _ in axes]
    out = []
    for index, combo in enumerate(product(*(v for _, v in axes))):
        params = dict(zip(names, combo))
        key = "/".join(f"{k}={_fmt(v)}" for k, v in params.items())
        out.append(CellSpec(index=index, key=key, params=params,
                            seed=int(params["seed"])))
    return out


@pytest.mark.parametrize("spec", [
    SweepSpec(name="c", n_values=(5, 8, 13),
              daemons=("central", "bernoulli:0.25", "synchronous"),
              seeds=tuple(range(-3, 40))),
    SweepSpec(name="d", kind="des", algorithm="dijkstra", n_values=(5, 8),
              loss_rates=(0.0, 0.1, 0.3), delay_scales=(1.0, 2.5),
              duplication_rates=(0.0, 0.2), seeds=(0, 1, 7)),
], ids=["convergence", "des"])
def test_cells_equal_the_cell_by_cell_keys(spec):
    assert spec.cells() == cells_cell_by_cell(spec)


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


def test_grid_hash_is_pinned():
    # Recorded sweep directories are resumed by this hash: a change to
    # the spec's JSON form would orphan every existing checkpoint.
    conv = SweepSpec(name="pinned", n_values=(5, 8), seeds=(0, 1, 2),
                     daemons=("central", "bernoulli:0.5"), max_steps=500)
    des = SweepSpec(name="pinned-des", kind="des", algorithm="dijkstra",
                    n_values=(4,), seeds=(-1, 3), loss_rates=(0.0, 0.25),
                    delay_scales=(1.5,), duplication_rates=(0.1,),
                    gap_duration=50.0)
    assert conv.grid_hash() == "41f3ad6744cb3e3a"
    assert des.grid_hash() == "319390a62a3280f3"
    assert SweepSpec.from_json(conv.to_json()).grid_hash() == conv.grid_hash()
