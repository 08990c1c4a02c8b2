"""Deterministic passes, run apart from every timed loop.

* :func:`count_calls` counts Python function calls with ``sys.setprofile``
  and attributes each to a layer by the module of the frame it opens.
* :func:`peak_alloc_per_byte` measures the ``tracemalloc`` peak of one call
  above what was allocated before it, per payload byte.
* :class:`StatsCapture` collects the counter objects the program creates
  (``ResilienceStats``, ``ServerStats``) so a traced run can report their
  deltas without reaching into the workload.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Any, Callable, Iterable

#: ``repro`` subpackages reported as layers; everything else is ``other``
PY_CALL_LAYERS: tuple[str, ...] = (
    "xdr", "oncrpc", "rpcl", "cricket", "gpu", "unikernel", "net",
    "resilience", "cuda", "core",
)


def layer_of(module: str) -> str | None:
    """Layer a module's calls count toward; ``None`` for the benchmark's own."""
    if module.startswith("perfbench"):
        return None
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in PY_CALL_LAYERS:
        return parts[1]
    return "other"


def count_calls(ops: Iterable[Callable[[], int]]) -> tuple[dict[str, int], int]:
    """Python calls per layer while running ``ops``, and the calls they made.

    Each op returns how many API calls (or simulator ops) it made.  Only
    ``call`` events of Python frames are counted, generator resumptions
    included; builtins (``c_call``) are not.
    """
    counts = {layer: 0 for layer in (*PY_CALL_LAYERS, "other")}
    module_layers: dict[str, str | None] = {}

    def profile(frame: Any, event: str, _arg: Any) -> None:
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        layer = module_layers.get(module, "")
        if layer == "":
            layer = module_layers[module] = layer_of(module)
        if layer is not None:
            counts[layer] += 1

    api_calls = 0
    for op in ops:
        sys.setprofile(profile)
        try:
            made = op()
        finally:
            sys.setprofile(None)
        api_calls += made
    return counts, api_calls


def peak_alloc_per_byte(call: Callable[[], Any], payload: int, repeats: int = 3) -> float:
    """Median over ``repeats`` of (traced peak during ``call`` - before) / payload.

    The call runs once untraced first, so lazily built state is not counted.
    """
    call()
    ratios = []
    tracemalloc.start()
    try:
        for _ in range(repeats):
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
            del result
            ratios.append((peak - before) / payload)
    finally:
        tracemalloc.stop()
    return sorted(ratios)[len(ratios) // 2]


#: ``ServerStats`` fields that count a call refused without executing
SHED_FIELDS: tuple[str, ...] = (
    "paused_rejections",
    "fencing_not_leader_sheds",
    "brownout_sheds",
    "overload_shed",
    "deadline_expired_in_queue",
)


class StatsCapture:
    """Collect every ``ResilienceStats``/``ServerStats`` created while active."""

    def __init__(self) -> None:
        self.client_stats: list[Any] = []
        self.server_stats: list[Any] = []
        self._baseline: dict[int, dict[str, int]] = {}

    def install(self, patches: Any) -> None:
        """Patch both classes' ``__init__`` to record new instances."""
        from repro.resilience.stats import ResilienceStats, ServerStats

        for cls, sink in ((ResilienceStats, self.client_stats),
                          (ServerStats, self.server_stats)):
            patches.set(cls, "__init__", _recording_init(vars(cls)["__init__"], sink))

    def mark(self) -> None:
        """Remember current values; :meth:`delta` counts from here."""
        self._baseline = {
            id(obj): dict(vars(obj)) for obj in (*self.client_stats, *self.server_stats)
        }

    def delta(self, field: str) -> int:
        """Growth of ``field`` summed over every captured counter object."""
        total = 0
        for obj in (*self.client_stats, *self.server_stats):
            if hasattr(obj, field):
                total += getattr(obj, field) - self._baseline.get(id(obj), {}).get(field, 0)
        return total


def _recording_init(init: Callable[..., None], sink: list[Any]) -> Callable[..., None]:
    def recording(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        sink.append(self)

    return recording
