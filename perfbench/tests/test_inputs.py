import json
import subprocess
import sys
from pathlib import Path

import pytest

import decks
from prepare import build_inputs

HERE = Path(__file__).resolve().parent.parent


def test_probe_imports_nothing_from_the_program():
    code = (
        "import sys; import probe; probe.ReferenceProbe()(); "
        "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": ""})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("workload, n_ops", [("flat", 2), ("hier", 3), ("fleet", 2), ("train", 2)])
def test_same_seed_same_bytes(workload, n_ops):
    first = json.dumps(build_inputs(workload, 5, n_ops))
    assert json.dumps(build_inputs(workload, 5, n_ops)) == first
    # The training set is fixed; every other workload follows the seed.
    other = json.dumps(build_inputs(workload, 6, n_ops))
    assert (other == first) == (workload == "train")


def test_flat_decks_are_distinct_and_sized_by_index_alone():
    a = [decks.flat_deck(1, i) for i in range(3)]
    b = [decks.flat_deck(2, i) for i in range(3)]
    assert len({d.text for d in a + b}) == 6
    for x, y in zip(a, b):
        lo, hi = decks.FLAT_DEVICES
        assert lo <= x.n_devices and lo <= y.n_devices
        assert abs(x.n_devices - y.n_devices) < 60 or max(x.n_devices, y.n_devices) < hi


def test_hier_decks_instantiate_library_cells():
    library = decks.hier_library(0)
    deck = decks.hier_deck(0, 0, library)
    lo, hi = decks.HIER_INSTANCES
    assert 2 <= len(deck.cells) <= 4
    assert lo <= sum(deck.cells.values()) <= hi
    assert deck.text.count(".subckt") == len(deck.cells)
    sizes = {cell.circuit.name: len(cell.circuit.devices) for cell in library}
    inside = sum(sizes[name] * count for name, count in deck.cells.items())
    assert sum("/" in name for name in deck.labels) == inside


def test_fleet_batches_hold_distinct_small_decks():
    inputs = build_inputs("fleet", 0, 2)
    batches = inputs["ops"] + [inputs["warmup"]]
    bodies = [decks.body(d["text"]) for batch in batches for d in batch]
    assert len(set(bodies)) == len(bodies) == decks.FLEET_BATCH * 3
    lo, hi = decks.FLEET_DEVICES
    assert all(lo <= len(d["labels"]) <= hi for batch in batches for d in batch)
