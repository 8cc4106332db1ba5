import sys
import types

import pytest

from layers import aggregate
from spans import Span, Target, Tracer, install
from stats import self_times


@pytest.fixture
def fixture_module():
    """A stand-in program module (its name starts with ``repro`` so
    the wrappers treat it like the real thing)."""
    module = types.ModuleType("repro_perfbench_fixture")
    exec(
        "def depth(n):\n"
        "    return 0 if n == 0 else 1 + depth(n - 1)\n"
        "class Shape:\n"
        "    def area(self, k):\n"
        "        return 2 * depth(k)\n"
        "    @classmethod\n"
        "    def unit(cls):\n"
        "        return cls()\n",
        module.__dict__,
    )
    user = types.ModuleType("repro_perfbench_fixture_user")
    user.depth = module.depth
    sys.modules[module.__name__] = module
    sys.modules[user.__name__] = user
    yield module, user
    del sys.modules[module.__name__], sys.modules[user.__name__]


def test_recursive_calls_nest_and_self_times_add_up(fixture_module):
    module, user = fixture_module
    tracer = Tracer()
    inst = install([Target("fx.depth", "repro_perfbench_fixture:depth")], tracer)
    try:
        assert user.depth(3) == 3
    finally:
        inst.remove()
    spans = tracer.spans
    assert [s.name for s in spans] == ["fx.depth"] * 4
    assert [s.parent for s in spans] == [-1, 0, 1, 2]
    own = self_times([(s.parent, s.start, s.end) for s in spans])
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(spans[0].end - spans[0].start)
    # Both the defining module and the importer got their binding back.
    assert module.depth is user.depth
    assert not hasattr(module.depth, "__wrapped__")


def test_methods_classmethods_values_and_absent_targets(fixture_module):
    module, _user = fixture_module
    tracer = Tracer()
    inst = install(
        [
            Target("fx.area", "repro_perfbench_fixture:Shape.area",
                   value=lambda result, args, kwargs: result),
            Target("fx.unit", "repro_perfbench_fixture:Shape.unit"),
            Target("fx.gone", "repro_perfbench_fixture:Shape.removed_later"),
            Target("fx.gone", "repro_perfbench_fixture_deleted:anything"),
        ],
        tracer,
    )
    try:
        shape = module.Shape.unit()
        assert shape.area(5) == 10
    finally:
        inst.remove()
    assert [s.name for s in tracer.spans] == ["fx.unit", "fx.area"]
    assert tracer.spans[1].value == 10
    assert inst.absent == [
        "repro_perfbench_fixture:Shape.removed_later",
        "repro_perfbench_fixture_deleted:anything",
    ]
    assert isinstance(vars(module.Shape)["unit"], classmethod)
    assert not hasattr(vars(module.Shape)["area"], "__wrapped__")


def test_opaque_span_hides_nested_calls(fixture_module):
    module, user = fixture_module
    tracer = Tracer()
    inst = install(
        [
            Target("fx.outer", "repro_perfbench_fixture:Shape.area", opaque=True),
            Target("fx.depth", "repro_perfbench_fixture:depth"),
        ],
        tracer,
    )
    try:
        module.Shape().area(2)
        user.depth(1)
    finally:
        inst.remove()
    assert [s.name for s in tracer.spans] == ["fx.outer", "fx.depth", "fx.depth"]
    assert [s.parent for s in tracer.spans] == [-1, -1, 1]


def test_exception_closes_the_span_and_keeps_nesting():
    tracer = Tracer()
    root = tracer.open("op")
    inner = tracer.open("inner")
    tracer.open("leaked")  # never closed: an exception skipped it
    tracer.close(inner)
    nxt = tracer.open("next")
    tracer.close(nxt)
    tracer.close(root)
    assert tracer.spans[nxt].parent == root


def test_aggregate_assigns_worker_spans_to_ops_by_time():
    parent = [
        Span("op", 0.0, 1.0, -1, 0),
        Span("runtime.map", 0.1, 0.9, 0, 0, 100),
        Span("op", 2.0, 3.0, -1, 1),
        Span("runtime.map", 2.1, 2.9, 2, 1, 300),
    ]
    worker = [
        Span("runtime.task", 0.2, 0.8, -1, None),
        Span("spice.parse", 0.3, 0.4, 0, None),
        Span("primitives.vf2", 0.5, 0.6, 0, None, 1),
        Span("primitives.vf2", 0.6, 0.7, 0, None, 0),
        Span("runtime.task", 2.2, 2.6, -1, None),
        Span("spice.parse", 2.3, 2.5, 4, None),
        Span("spice.parse", 5.0, 6.0, -1, None),  # outside every op
    ]
    windows = [(0.0, 1.0, 0), (2.0, 3.0, 1)]
    out = aggregate([parent, worker], windows, scale={0: 1.0, 1: 2.0}, workers=2)
    assert out["spice.parse_s"] == pytest.approx((0.1 + 0.2 * 2.0) / 2)
    assert out["runtime.map_s"] == pytest.approx((0.8 + 0.8 * 2.0) / 2)
    assert out["primitives.launches"] == 1.0
    assert out["primitives.yield"] == 0.5
    assert out["runtime.ipc_bytes"] == 200.0
    assert out["runtime.worker_idle_share"] == pytest.approx(1 - (0.6 + 0.4) / (2 * 1.6))
    assert out["gcn.cheb_s"] == 0.0
