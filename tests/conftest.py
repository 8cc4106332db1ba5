"""Shared fixtures: canonical decks, graphs, the example-netlist
corpus, and a session-scoped quick-trained annotator (so expensive
training happens once)."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.graph.bipartite import CircuitGraph
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist

#: The shipped example decks, shared by every sweep that used to glob
#: this directory itself (spice/core/primitives test modules).
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples" / "netlists"
EXAMPLE_DECK_PATHS = tuple(sorted(EXAMPLES_DIR.glob("*.sp")))


def example_deck_id(path: Path) -> str:
    return path.stem


@pytest.fixture(params=EXAMPLE_DECK_PATHS, ids=example_deck_id)
def example_deck_path(request) -> Path:
    """One shipped example deck path (parametrized over all of them)."""
    return request.param


@pytest.fixture(params=["strict", "lenient"])
def parse_mode(request) -> str:
    """Both parser modes — combine with ``example_deck_path`` for the
    deck × mode product."""
    return request.param


@pytest.fixture
def wide_rails(monkeypatch):
    """Call to widen ``SUPPLY_NET_RE`` so the ``vb*`` bias nets read as
    supplies; the stock regex (and an empty rail memo) is restored
    after the test."""
    import re

    from repro.spice import netlist

    def widen():
        monkeypatch.setattr(
            netlist,
            "SUPPLY_NET_RE",
            re.compile(r"^(vdd|vcc|avdd|dvdd|vddd|vdda|vb\w*)[!]?\d*$", re.IGNORECASE),
        )

    yield widen
    monkeypatch.undo()
    netlist.reset_power_net_memo()


@pytest.fixture(autouse=True)
def _fresh_worker_pools():
    """Tear down warm executor pools after every test.

    Pool reuse is great in production but hazardous across tests: a
    forked worker snapshots the parent's (possibly monkeypatched)
    module state at pool creation, so a cached pool could leak one
    test's patches into the next.  Within a single test, reuse still
    happens — that's what the pool-registry tests exercise.
    """
    yield
    from repro.runtime.parallel import shutdown_pools

    shutdown_pools()


@pytest.fixture(scope="session", autouse=True)
def _isolated_model_cache(tmp_path_factory):
    """Point the trained-model cache at a session tmp dir.

    Keeps the suite hermetic (never touches ``~/.cache/gana``) while
    still exercising the cache code paths: repeated pretrains within
    one session hit the session-local cache.
    """
    cache_dir = tmp_path_factory.mktemp("gana-model-cache")
    previous = os.environ.get("GANA_CACHE_DIR")
    os.environ["GANA_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("GANA_CACHE_DIR", None)
    else:
        os.environ["GANA_CACHE_DIR"] = previous

#: The Fig. 3 differential OTA (simplified, no body terminals shown in
#: the paper; bodies default to the rails here).
DIFF_OTA_DECK = """
* differential ota (paper fig. 3)
m0 n1 n1 gnd! gnd! nmos w=1u l=100n
m1 id n1 gnd! gnd! nmos w=1u l=100n
m2 voutn vinp id gnd! nmos w=2u l=100n
m3 voutp vinn id gnd! nmos w=2u l=100n
m4 voutn vbp vdd! vdd! pmos w=4u l=100n
m5 voutp vbp vdd! vdd! pmos w=4u l=100n
.end
"""

#: The Fig. 2 two-transistor NMOS current mirror.
CURRENT_MIRROR_DECK = """
* nmos current mirror (paper fig. 2)
m0 d1 d1 s gnd! nmos w=1u l=100n
m1 d2 d1 s gnd! nmos w=1u l=100n
.end
"""

HIERARCHICAL_DECK = """
* hierarchical deck exercising flattening
.global vdd! gnd!
.subckt inverter in out
mn out in gnd! gnd! nmos w=1u l=100n
mp out in vdd! vdd! pmos w=2u l=100n
.ends
.subckt buffer in out
x1 in mid inverter
x2 mid out inverter
.ends
xbuf a b buffer
rload b gnd! 10k
.end
"""


@pytest.fixture()
def diff_ota_graph() -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(DIFF_OTA_DECK)))


@pytest.fixture()
def current_mirror_graph() -> CircuitGraph:
    return CircuitGraph.from_circuit(flatten(parse_netlist(CURRENT_MIRROR_DECK)))


#: Stable names for the canonical graph cases — safe to use in
#: ``@pytest.mark.parametrize`` at collect time (building the graphs
#: themselves is deferred to the session fixture below).
CANONICAL_GRAPH_NAMES = (
    "diff_ota",
    "current_mirror",
    "hierarchical",
    "switched_cap_filter",
    "sample_and_hold",
    "phased_array_2ch",
)


def build_canonical_graphs() -> dict[str, CircuitGraph]:
    """The canonical CircuitGraph menagerie: the three paper decks plus
    the three generated system benchmarks."""
    from repro.datasets.systems import (
        phased_array,
        sample_and_hold,
        switched_cap_filter,
    )

    return {
        "diff_ota": CircuitGraph.from_circuit(
            flatten(parse_netlist(DIFF_OTA_DECK))
        ),
        "current_mirror": CircuitGraph.from_circuit(
            flatten(parse_netlist(CURRENT_MIRROR_DECK))
        ),
        "hierarchical": CircuitGraph.from_circuit(
            flatten(parse_netlist(HIERARCHICAL_DECK))
        ),
        "switched_cap_filter": CircuitGraph.from_circuit(
            switched_cap_filter().circuit
        ),
        "sample_and_hold": CircuitGraph.from_circuit(
            sample_and_hold().circuit
        ),
        "phased_array_2ch": CircuitGraph.from_circuit(
            phased_array(n_channels=2).circuit
        ),
    }


@pytest.fixture(scope="session")
def canonical_graphs() -> dict[str, CircuitGraph]:
    return build_canonical_graphs()


@pytest.fixture(scope="session")
def quick_ota_annotator():
    """A small but usable OTA annotator, trained once per session."""
    from repro.datasets.synth import pretrain_annotator

    return pretrain_annotator("ota", quick=True, train_size=150, seed=0)


@pytest.fixture(scope="session")
def quick_rf_annotator():
    """A small but usable RF annotator, trained once per session."""
    from repro.datasets.synth import pretrain_annotator

    return pretrain_annotator("rf", quick=True, train_size=150, seed=0)
