"""Span self times and wrapper installation."""

import importlib
import sys

import pytest

from perfbench.spans import (
    CLASS_LAYERS,
    LAYER_TARGETS,
    ROOT,
    SpanRecorder,
    installed,
    layer_totals,
    self_times,
)
from perfbench.workloads import SmallCalls


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        [ROOT, 0, 100, -1, 0],
        ["rpcl", 10, 30, 0, 0],  # back to back with the next child
        ["oncrpc.client", 30, 50, 0, 0],
        ["oncrpc.record", 12, 20, 1, 0],  # nested one level down
        ["gpu", 60, 70, 0, 0],
    ]
    assert self_times(spans) == [100 - 20 - 20 - 10, 20 - 8, 20, 8, 10]


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        ["a", 0, 50, -1, 0],
        ["b", 10, 30, 0, 0],
        ["c", 20, 40, 0, 0],
        ["d", 45, 80, 0, 0],  # runs past its parent's end
    ]
    assert self_times(spans)[0] == 50 - 30 - 5


def test_layer_self_times_add_up_to_the_root_span():
    spans = [
        [ROOT, 0, 100, -1, 0],
        ["rpcl", 10, 90, 0, 0],
        ["oncrpc.client", 20, 80, 1, 0],
        [ROOT, 200, 260, -1, 1],
        ["oncrpc.server", 210, 250, 3, 1],
        ["resilience.simulation.checker", 300, 400, -1, -1],
    ]
    inside, outside, root_ns, roots = layer_totals(spans)
    assert roots == 2 and root_ns == 160
    assert sum(inside.values()) == root_ns
    assert outside["resilience.simulation.checker"] == 100


def test_recorder_opens_one_op_per_root_call():
    ticks = iter(range(1000))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    recorder.run(ROOT, lambda: recorder.run("rpcl", lambda: None, (), {}), (), {})
    recorder.run("gpu", lambda: None, (), {})
    recorder.run(ROOT, lambda: None, (), {})
    assert [(s[0], s[3], s[4]) for s in recorder.spans] == [
        (ROOT, -1, 0), ("rpcl", 0, 0), ("gpu", -1, -1), (ROOT, -1, 1),
    ]


def _targets():
    """Every attribute the tracer patches, with the object found there now."""
    found = {}
    for module, owner, prefix in CLASS_LAYERS.values():
        cls = getattr(importlib.import_module(module), owner)
        for name, value in vars(cls).items():
            if not name.startswith("_") and name.startswith(prefix):
                found[(cls, name)] = value
    for targets in LAYER_TARGETS.values():
        for module, owner, attr in targets:
            mod = importlib.import_module(module)
            if owner is None:
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and hasattr(other, attr):
                        found[(other, attr)] = vars(other)[attr]
            else:
                cls = getattr(mod, owner)
                found[(cls, attr)] = vars(cls)[attr]
    return found


def test_no_wrapper_is_left_installed_after_a_traced_run():
    before = _targets()
    recorder = SpanRecorder()
    with installed(recorder):
        assert _targets() != before
        workload = SmallCalls(seed=0)
        workload.build()
        recorder.clear()
        for cls in ("get_device_count", "malloc_free", "launch"):
            workload.call(cls)
        workload.close()
    assert len(recorder.spans) > 4
    assert _targets() == before


def test_wrappers_are_restored_when_the_run_raises():
    before = _targets()
    with pytest.raises(RuntimeError):
        with installed(SpanRecorder()):
            raise RuntimeError("boom")
    assert _targets() == before
