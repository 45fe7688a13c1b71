"""Repository consistency gates.

The registry, DESIGN.md's per-experiment index and EXPERIMENTS.md
describe the same set of experiments from three angles; these tests keep
them synchronized as the repository grows.
"""

import pathlib

from repro.experiments import list_experiments

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_experiment_indexed_in_design():
    design = (ROOT / "DESIGN.md").read_text()
    missing = [eid for eid in list_experiments() if f"| {eid} |" not in design]
    assert not missing, f"experiments missing from DESIGN.md index: {missing}"


def test_every_example_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    missing = [
        p.name
        for p in (ROOT / "examples").glob("*.py")
        if p.name not in readme
    ]
    assert not missing, f"examples not mentioned in README.md: {missing}"


def test_experiments_md_exists_and_covers_registry():
    path = ROOT / "EXPERIMENTS.md"
    assert path.exists(), "run `python -m repro report -o EXPERIMENTS.md`"
    text = path.read_text()
    missing = [eid for eid in list_experiments() if f"## {eid} " not in text]
    assert not missing, f"EXPERIMENTS.md missing sections: {missing}"
