"""In-memory span recording around each layer's public entry points.

The benchmark wraps functions of the program from the outside: no code
under ``src/`` knows it is being traced.  :func:`installed` patches the
entry points listed in :data:`LAYER_TARGETS` for the duration of a
``with`` block and puts every original object back on exit, even when the
block raises.

A span is ``(layer, start_ns, end_ns, parent_index, op_id)``.  The root
layer (``cricket.client``) opens one op per call made with no span open;
a span opened with no op active (the history checker, schedule
generation) gets op id ``-1``.  A layer's *self time* is its span's
duration minus the part of that interval its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Iterable

ROOT = "cricket.client"

#: layer -> entry points, as ``(module, owner, attribute)``.  ``owner`` is a
#: class name, or ``None`` for a module-level function (which is then
#: patched in every ``repro`` module that imported it by name).
LAYER_TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "rpcl": [
        ("repro.rpcl.stubgen", "ClientStub", "__getattr__"),
    ],
    "oncrpc.client": [
        ("repro.oncrpc.client", "RpcClient", "call_raw"),
    ],
    "oncrpc.record": [
        ("repro.oncrpc.record", None, "encode_record"),
        ("repro.oncrpc.record", "RecordReader", "read_record"),
    ],
    "oncrpc.transport": [
        ("repro.oncrpc.transport", "LoopbackTransport", "send_record"),
        ("repro.oncrpc.transport", "LoopbackTransport", "recv_record"),
        ("repro.oncrpc.transport", "ChecksummedTransport", "send_record"),
        ("repro.oncrpc.transport", "ChecksummedTransport", "recv_record"),
    ],
    "oncrpc.server": [
        ("repro.oncrpc.server", "RpcServer", "dispatch_record"),
    ],
    "gpu": [
        ("repro.gpu.device", "GpuDevice", "alloc"),
        ("repro.gpu.device", "GpuDevice", "free"),
        ("repro.gpu.device", "GpuDevice", "memcpy_h2d"),
        ("repro.gpu.device", "GpuDevice", "memcpy_d2h"),
        ("repro.gpu.device", "GpuDevice", "launch"),
        ("repro.gpu.memory", "DeviceAllocator", "alloc"),
        ("repro.gpu.memory", "DeviceAllocator", "free"),
        ("repro.gpu.memory", "DeviceAllocator", "write"),
        ("repro.gpu.memory", "DeviceAllocator", "read"),
    ],
    "unikernel": [
        ("repro.unikernel.platform", "PlatformMeter", "on_send"),
        ("repro.unikernel.platform", "PlatformMeter", "on_recv"),
    ],
    "cricket.replication": [
        ("repro.cricket.replication", "ReplicationLink", "_on_executed"),
        ("repro.cricket.replication", "ReplicationLink", "_apply_pending"),
    ],
    "resilience.failover": [
        ("repro.resilience.reconnect", "ReconnectingTransport", "send_record"),
        ("repro.resilience.reconnect", "ReconnectingTransport", "recv_record"),
        ("repro.resilience.reconnect", "ReconnectingTransport", "reconnect"),
        ("repro.resilience.faults", "FaultInjectingTransport", "send_record"),
        ("repro.resilience.faults", "FaultInjectingTransport", "recv_record"),
        ("repro.resilience.faults", "SlowTransport", "send_record"),
        ("repro.resilience.faults", "SlowTransport", "recv_record"),
    ],
    "resilience.simulation.checker": [
        ("repro.resilience.simulation.checker", "HistoryChecker", "check"),
    ],
    "resilience.simulation.schedule": [
        ("repro.resilience.simulation.nemesis", None, "generate_schedule"),
    ],
}

#: classes whose public methods (and ``rpc_*`` handlers) form a layer
CLASS_LAYERS: dict[str, tuple[str, str, str]] = {
    ROOT: ("repro.cricket.client", "CricketClient", ""),
    "cricket.server": ("repro.cricket.server", "CricketImplementation", "rpc_"),
}

#: every layer the recorder can report, root first
LAYERS: tuple[str, ...] = (ROOT, "cricket.server", *LAYER_TARGETS)


class SpanRecorder:
    """Keeps spans in memory; wrappers call :meth:`run`."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: ``[layer, start_ns, end_ns, parent, op_id]`` per span
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._next_op = 0
        #: virtual ns the ops of metered clients advanced their clock by
        self.virtual_ns = 0
        #: bytes moved through the device allocator
        self.gpu_bytes = 0
        #: record-marking fragments encoded
        self.fragments = 0

    def clear(self) -> None:
        """Drop everything recorded so far (set-up work before the loop)."""
        if self._stack:
            raise RuntimeError("cannot clear while spans are open")
        self.spans.clear()
        self.virtual_ns = 0
        self.gpu_bytes = 0
        self.fragments = 0

    def run(self, layer: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
            virtual_clock: Any = None) -> Any:
        """Call ``fn`` inside a span of ``layer``.

        When the span opens an op and ``virtual_clock`` is given, the
        virtual time the op advanced that clock by is added up too.
        """
        stack = self._stack
        before = None
        if stack:
            parent = stack[-1]
            op = self.spans[parent][4]
        else:
            parent = -1
            op = -1
            if layer == ROOT:
                op = self._next_op
                self._next_op += 1
                if virtual_clock is not None:
                    before = virtual_clock.now_ns
        span = [layer, 0, 0, parent, op]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self._clock()
            stack.pop()
            if before is not None:
                self.virtual_ns += virtual_clock.now_ns - before


def write_spans(path: str, spans: list[list[Any]]) -> None:
    """Write spans out as JSON, one list per span."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["layer", "start_ns", "end_ns", "parent", "op"],
                   "spans": spans}, fh, separators=(",", ":"))


def self_times(spans: list[list[Any]]) -> list[int]:
    """Per-span self time: duration minus the union of direct children.

    Children are clipped to the parent's interval and merged, so
    back-to-back and overlapping children are never counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(end - start - covered)
    return result


def layer_totals(spans: list[list[Any]]) -> tuple[dict[str, int], dict[str, int], int, int]:
    """Self ns per layer inside ops and outside them; root ns and root count.

    Inside an op, the layers' self times add up to the root spans' time.
    """
    inside = {layer: 0 for layer in LAYERS}
    outside = {layer: 0 for layer in LAYERS}
    root_ns = 0
    roots = 0
    for span, own in zip(spans, self_times(spans)):
        (inside if span[4] >= 0 else outside)[span[0]] += own
        if span[3] < 0 and span[0] == ROOT:
            root_ns += span[2] - span[1]
            roots += 1
    return inside, outside, root_ns, roots


# -- installing wrappers ---------------------------------------------------------


def _span_wrapper(recorder: SpanRecorder, layer: str, fn: Callable[..., Any]):
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.run(layer, fn, args, kwargs)

    return wrapper


def _root_wrapper(recorder: SpanRecorder, fn: Callable[..., Any]):
    """Root span that also adds up the virtual time a metered client charged."""

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        metered = getattr(self, "meter", None) is not None
        return recorder.run(ROOT, fn, (self, *args), kwargs, self.clock if metered else None)

    return wrapper


def _stub_getattr_wrapper(recorder: SpanRecorder, fn: Callable[..., Any]):
    """``ClientStub.__getattr__`` returns per-procedure closures; wrap those."""

    @functools.wraps(fn)
    def wrapper(self: Any, name: str) -> Any:
        invoke = fn(self, name)
        return _span_wrapper(recorder, "rpcl", invoke)

    return wrapper


def _layer_wrapper(recorder: SpanRecorder, layer: str, attr: str, fn: Callable[..., Any]):
    """Span wrapper for ``attr``; also counts fragments or device bytes."""
    if layer == "oncrpc.record" and attr == "encode_record":

        def encode(record: Any, fragment_size: int = 1 << 20) -> Any:
            recorder.fragments += max(1, -(-len(record) // fragment_size))
            return recorder.run(layer, fn, (record, fragment_size), {})

        return functools.wraps(fn)(encode)
    if layer == "gpu" and attr in ("write", "read"):

        def moved(self: Any, addr: int, data_or_size: Any) -> Any:
            size = data_or_size if attr == "read" else memoryview(data_or_size).nbytes
            recorder.gpu_bytes += size
            return recorder.run(layer, fn, (self, addr, data_or_size), {})

        return functools.wraps(fn)(moved)
    if attr == "__getattr__":
        return _stub_getattr_wrapper(recorder, fn)
    return _span_wrapper(recorder, layer, fn)


class Patches:
    """Patched attributes and the originals to put back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name``, which ``owner`` itself must define."""
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _public_methods(cls: type, prefix: str) -> Iterable[str]:
    for name, value in vars(cls).items():
        if name.startswith("_") or not callable(value):
            continue
        if isinstance(value, (classmethod, staticmethod, type)):
            continue
        if prefix and not name.startswith(prefix):
            continue
        yield name


def install(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer's entry points, noting each patch in ``patches``."""
    module, cls_name, _ = CLASS_LAYERS[ROOT]
    cls = getattr(importlib.import_module(module), cls_name)
    for name in _public_methods(cls, ""):
        patches.set(cls, name, _root_wrapper(recorder, vars(cls)[name]))
    module, cls_name, prefix = CLASS_LAYERS["cricket.server"]
    cls = getattr(importlib.import_module(module), cls_name)
    for name in _public_methods(cls, prefix):
        patches.set(cls, name, _span_wrapper(recorder, "cricket.server", vars(cls)[name]))
    for layer, targets in LAYER_TARGETS.items():
        for module_name, owner_name, attr in targets:
            module_obj = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module_obj, attr)
                wrapped = _layer_wrapper(recorder, layer, attr, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                        patches.set(mod, attr, wrapped)
                continue
            owner = getattr(module_obj, owner_name)
            original = vars(owner)[attr]
            patches.set(owner, attr, _layer_wrapper(recorder, layer, attr, original))


class installed:
    """``with installed(recorder) as tracing:`` -- wrappers live in the block.

    ``tracing.patches`` takes further patches that are undone on exit too.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.patches = Patches()

    def __enter__(self) -> "installed":
        try:
            install(self.recorder, self.patches)
        except BaseException:
            self.patches.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.patches.restore()
