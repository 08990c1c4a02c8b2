"""The benchmark's three closed-loop workloads.

Each workload is driven by one client in one thread: a call is issued only
after the previous one returned, as a CUDA caller waits for every reply.
All traffic stays in the process: ``LoopbackTransport`` frames and
reassembles every request record exactly as the TCP path does, but no
socket is opened.

A workload's inputs come only from its seed.  The seed shuffles a fixed
block of operations and draws the bytes copied, so every seed runs the
same mix; only the order and the data change.

Every call is classed by the direction its API payload travels, with the
payload's size in bytes: the data of a memcpy, the parameter block of a
launch, the pointer passed to ``cudaFree``, the pointer or count a call
returns.  The ``h2d``/``d2h`` bandwidth metrics divide each direction's
payload by the time spent in the calls of that direction.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

MIB = 1 << 20
KIB = 1 << 10

#: one block of the ``small-calls`` mix; ``malloc_free`` issues two calls
SMALL_BLOCK: tuple[str, ...] = (
    "get_device_count",
    "get_device_count",
    "malloc_free",
    "launch",
    "launch",
)
#: blocks per measurement window of ``small-calls``
SMALL_WINDOW_BLOCKS = 50
#: ``cudaMalloc`` size of the ``small-calls`` pair
SMALL_ALLOC = 4 * KIB
#: matrixMul geometry of the CUDA sample (hA = wA = 320, wB = 640)
MATMUL_WA, MATMUL_HA, MATMUL_WB = 320, 320, 640
MATMUL_BLOCK = 32
#: parameter block of ``matrixMulCUDA(float*, float*, float*, int, int)``
LAUNCH_PARAM_BYTES = 3 * 8 + 2 * 4

#: one block of the ``bulk-copy`` sizes: size -> copies per block.  Each
#: copy is one ``memcpy_h2d`` followed by one ``memcpy_d2h``.
BULK_BLOCK: dict[int, int] = {256 * KIB: 8, 1 * MIB: 16, 16 * MIB: 2, 64 * MIB: 1}
#: largest random offset into the payload pool, so successive copies of
#: one size carry different bytes
BULK_SHIFT = 1 * MIB

#: API payload of each call class: (direction, bytes)
SMALL_PAYLOAD: dict[str, tuple[str, int]] = {
    "get_device_count": ("d2h", 4),
    "malloc": ("d2h", 8),
    "free": ("h2d", 8),
    "launch": ("h2d", LAUNCH_PARAM_BYTES),
}
#: simulation seeds per ``nemesis`` block, each run on both topologies
NEMESIS_BLOCK = 20
#: the simulator's payload per op (``SimulationPlan`` default: 256 B reads
#: and writes of a 4 KiB allocation)
NEMESIS_PAYLOAD: dict[str, tuple[str, int]] = {
    "malloc": ("d2h", 8),
    "h2d": ("h2d", 256),
    "d2h": ("d2h", 256),
    "free": ("h2d", 8),
    "ping": ("h2d", 0),
}


@dataclass
class LoopResult:
    """What one timed loop observed."""

    wall_ns: int = 0
    #: per-call latency (ns), in issue order
    latencies: list[int] = field(default_factory=list)
    #: payload bytes and busy ns per direction ("h2d", "d2h")
    payload: dict[str, int] = field(default_factory=lambda: {"h2d": 0, "d2h": 0})
    busy_ns: dict[str, int] = field(default_factory=lambda: {"h2d": 0, "d2h": 0})
    #: failed calls or checks, with a description of the first few
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: simulator outcomes by kind (nemesis only)
    outcomes: dict[str, int] = field(default_factory=dict)
    simulations: int = 0
    #: per window: (wall ns, calls, h2d bytes, h2d busy ns, d2h bytes, d2h busy ns)
    windows: list[tuple[int, ...]] = field(default_factory=list)
    _mark: tuple[int, ...] = (0, 0, 0, 0, 0, 0)

    @property
    def calls(self) -> int:
        """Calls completed in the loop."""
        return len(self.latencies)

    def note(self, latency_ns: int, direction: str, nbytes: int) -> None:
        """Record one completed call."""
        self.latencies.append(latency_ns)
        self.payload[direction] += nbytes
        self.busy_ns[direction] += latency_ns

    def close_window(self, now_ns: int) -> None:
        """End the current window at ``now_ns`` (windows tile the loop)."""
        totals = (now_ns, self.calls, self.payload["h2d"], self.busy_ns["h2d"],
                  self.payload["d2h"], self.busy_ns["d2h"])
        self.windows.append(tuple(a - b for a, b in zip(totals, self._mark)))
        self._mark = totals

    def fail(self, message: str) -> None:
        """Record one failed call or check."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


# -- seeded inputs -------------------------------------------------------------


def small_calls_plan(seed: int) -> Iterator[str]:
    """Endless call classes: each block of :data:`SMALL_BLOCK` shuffled."""
    rng = random.Random(f"small-calls/{seed}")
    while True:
        block = list(SMALL_BLOCK)
        rng.shuffle(block)
        yield from block


def bulk_copy_plan(seed: int) -> Iterator[tuple[int, int]]:
    """Endless ``(size, offset)`` copies: each block of sizes shuffled.

    ``offset`` picks the copy's bytes out of the payload pool; it never
    repeats the previous offset of the same size, so a copy that moved no
    bytes cannot pass the readback check on stale device memory.
    """
    rng = random.Random(f"bulk-copy/{seed}")
    last: dict[int, int] = {}
    while True:
        block = [size for size, count in BULK_BLOCK.items() for _ in range(count)]
        rng.shuffle(block)
        for size in block:
            offset = rng.randrange(BULK_SHIFT)
            while offset == last.get(size):
                offset = rng.randrange(BULK_SHIFT)
            last[size] = offset
            yield size, offset


def bulk_pool(seed: int) -> bytes:
    """Random bytes every copy of a run slices its payload from."""
    return random.Random(f"bulk-pool/{seed}").randbytes(max(BULK_BLOCK) + BULK_SHIFT)


def nemesis_plan(seed: int) -> Iterator[int]:
    """Endless simulation seeds: each block of :data:`NEMESIS_BLOCK` shuffled.

    Every seed runs on both topologies, so each block is the same set of
    simulations and the tail of the op latencies (ops that met a failover
    or a migration) stays comparable between runs.
    """
    rng = random.Random(f"nemesis/{seed}")
    while True:
        block = list(range(NEMESIS_BLOCK))
        rng.shuffle(block)
        yield from block


# -- workloads -------------------------------------------------------------------


class SmallCalls:
    """``small-calls``: the three Fig 6 call classes over ``GpuSession``."""

    name = "small-calls"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plan = small_calls_plan(seed)

    def build(self) -> None:
        """Stand up the session, the module and matrixMul's buffers."""
        from repro.harness.runner import make_session
        from repro.unikernel.presets import rustyhermit

        self.session = make_session(rustyhermit())
        self.client = self.session.client
        self.module = self.session.load_builtin_module(["matrixMulCUDA"])
        self.kernel = self.module.function("matrixMulCUDA")
        self.a = self.session.alloc(4 * MATMUL_HA * MATMUL_WA)
        self.b = self.session.alloc(4 * MATMUL_WA * MATMUL_WB)
        self.c = self.session.alloc(4 * MATMUL_HA * MATMUL_WB)
        self.grid = (MATMUL_WB // MATMUL_BLOCK, MATMUL_HA // MATMUL_BLOCK, 1)
        self.block = (MATMUL_BLOCK, MATMUL_BLOCK, 1)

    def call(self, cls: str, result: LoopResult | None = None) -> None:
        """Issue one class of :data:`SMALL_BLOCK`, timing each call."""
        clock = time.perf_counter_ns
        if cls == "get_device_count":
            start = clock()
            count = self.client.get_device_count()
            end = clock()
            if result is not None:
                result.note(end - start, *SMALL_PAYLOAD[cls])
                if count != 1:
                    result.fail(f"cudaGetDeviceCount returned {count}, expected 1")
        elif cls == "malloc_free":
            start = clock()
            ptr = self.client.malloc(SMALL_ALLOC)
            middle = clock()
            self.client.free(ptr)
            end = clock()
            if result is not None:
                result.note(middle - start, *SMALL_PAYLOAD["malloc"])
                result.note(end - middle, *SMALL_PAYLOAD["free"])
        else:
            start = clock()
            self.kernel.launch(
                self.grid, self.block, self.c, self.a, self.b, MATMUL_WA, MATMUL_WB
            )
            end = clock()
            if result is not None:
                result.note(end - start, *SMALL_PAYLOAD[cls])

    def warm_up(self) -> None:
        """One unshuffled block: lazy state fills before timing."""
        for cls in SMALL_BLOCK:
            self.call(cls)

    def run(self, seconds: float) -> LoopResult:
        """Closed loop over the seeded mix for ``seconds`` of wall time."""
        result = LoopResult()
        start = time.perf_counter_ns()
        result.close_window(start)
        result.windows.clear()
        deadline = start + int(seconds * 1e9)
        call, plan = self.call, self.plan
        now = start
        while now < deadline:
            for _ in range(SMALL_WINDOW_BLOCKS * len(SMALL_BLOCK)):
                call(next(plan), result)
            now = time.perf_counter_ns()
            result.close_window(now)
        result.wall_ns = now - start
        return result

    def canonical(self, blocks: int = 4) -> Iterator[Callable[[], int]]:
        """Seed-free blocks for the counting pass; each returns its calls."""

        def block() -> int:
            for cls in SMALL_BLOCK:
                self.call(cls)
            return len(SMALL_BLOCK) + SMALL_BLOCK.count("malloc_free")

        for _ in range(blocks):
            yield block

    def alloc_probes(self) -> dict[str, tuple[Callable[[], Any], int]]:
        """Per direction: the call whose peak allocation is measured."""
        return {
            "h2d": (lambda: self.call("launch"), LAUNCH_PARAM_BYTES),
            "d2h": (lambda: self.call("get_device_count"), SMALL_PAYLOAD["get_device_count"][1]),
        }

    def check(self, result: LoopResult) -> None:
        """Tear down and require device memory to return to zero."""
        self.c.free()
        self.b.free()
        self.a.free()
        self.module.unload()
        used = self.session.server.device.allocator.used_bytes
        if used != 0:
            result.fail(f"device used_bytes is {used} after teardown, expected 0")

    def close(self) -> None:
        """Close the session."""
        self.session.close()


class BulkCopy:
    """``bulk-copy``: seeded h2d/d2h copies with byte-exact readback."""

    name = "bulk-copy"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plan = bulk_copy_plan(seed)

    def build(self) -> None:
        """Server, metered loopback client, one device buffer per size."""
        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer
        from repro.gpu.catalog import A100
        from repro.gpu.device import GpuDevice
        from repro.net.simclock import SimClock
        from repro.unikernel.presets import rustyhermit

        device_bytes = 2 * sum(BULK_BLOCK)
        device = GpuDevice(A100, execute=False, mem_bytes=device_bytes)
        self.server = CricketServer([device], clock=SimClock())
        self.client = CricketClient.loopback(
            self.server, platform=rustyhermit(), fragment_size=1 * MIB
        )
        self.pool = bulk_pool(self.seed)
        self.buffers = {size: self.client.malloc(size) for size in BULK_BLOCK}

    def copy(self, size: int, offset: int, result: LoopResult | None = None) -> None:
        """One ``memcpy_h2d`` then one ``memcpy_d2h`` of ``size`` bytes."""
        data = self.pool[offset : offset + size]
        ptr = self.buffers[size]
        clock = time.perf_counter_ns
        start = clock()
        self.client.memcpy_h2d(ptr, data)
        middle = clock()
        back = self.client.memcpy_d2h(ptr, size)
        end = clock()
        if result is not None:
            result.note(middle - start, "h2d", size)
            result.note(end - middle, "d2h", size)
            if back != data:
                result.fail(f"{size}-byte readback differs from what was written")

    def warm_up(self) -> None:
        """One copy of each size."""
        for size in BULK_BLOCK:
            self.copy(size, 0)

    def run(self, seconds: float) -> LoopResult:
        """Closed loop over whole blocks of sizes for ``seconds``."""
        result = LoopResult()
        per_block = sum(BULK_BLOCK.values())
        start = time.perf_counter_ns()
        result.close_window(start)
        result.windows.clear()
        deadline = start + int(seconds * 1e9)
        now = start
        while now < deadline:
            for _ in range(per_block):
                self.copy(*next(self.plan), result)
            now = time.perf_counter_ns()
            result.close_window(now)
        result.wall_ns = now - start
        return result

    def canonical(self) -> Iterator[Callable[[], int]]:
        """One h2d and one d2h copy of every size; each returns its calls."""

        def copy(size: int) -> int:
            self.copy(size, 0)
            return 2

        for size in BULK_BLOCK:
            yield functools.partial(copy, size)

    def alloc_probes(self) -> dict[str, tuple[Callable[[], Any], int]]:
        """16 MiB copies in each direction."""
        size = 16 * MIB
        ptr = self.buffers[size]
        data = self.pool[:size]
        return {
            "h2d": (lambda: self.client.memcpy_h2d(ptr, data), size),
            "d2h": (lambda: self.client.memcpy_d2h(ptr, size), size),
        }

    def check(self, result: LoopResult) -> None:
        """Free the buffers; device memory must return to zero."""
        for ptr in self.buffers.values():
            self.client.free(ptr)
        used = self.server.device.allocator.used_bytes
        if used != 0:
            result.fail(f"device used_bytes is {used} after teardown, expected 0")

    def close(self) -> None:
        """Close the client."""
        self.client.close()


class Nemesis:
    """``nemesis``: default simulations, seeds 0-19 on both topologies."""

    name = "nemesis"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plan = nemesis_plan(seed)
        #: (topology, seed, fingerprint) of the loop's first simulation
        self.first: tuple[str, int, str] | None = None

    def build(self) -> None:
        """Import the simulator (every simulation builds its own cluster)."""
        from repro.resilience import simulation

        self.sim = simulation

    def simulate(self, topology: str, seed: int) -> Any:
        """One default simulation run."""
        return self.sim.run_simulation(
            self.sim.SimulationPlan(topology=topology, seed=seed)
        )

    def warm_up(self) -> None:
        """One short run outside the block."""
        self.sim.run_simulation(self.sim.SimulationPlan(topology="ha_pair", seed=-1, steps=8))

    def run(self, seconds: float, blocks: int | None = None) -> LoopResult:
        """Whole blocks of simulations until ``seconds`` pass, or ``blocks`` ran.

        A window is one seed on both topologies.  Per-op latency is taken
        between the history recorder's ``invoke`` and ``complete`` of each
        client operation, the one per-op hook the simulator has; it costs
        two clock reads per op.  Non-``ok`` outcomes count as calls but
        move no payload.
        """
        from repro.resilience.simulation.history import OUTCOME_OK, HistoryRecorder

        from perfbench.spans import Patches

        result = LoopResult()
        clock = time.perf_counter_ns
        started: dict[int, int] = {}
        invoke, complete = HistoryRecorder.invoke, HistoryRecorder.complete

        def timed_invoke(recorder: Any, node: str, op: str, **args: Any) -> int:
            op_id = invoke(recorder, node, op, **args)
            started[op_id] = clock()
            return op_id

        def timed_complete(recorder: Any, op_id: int, node: str, op: str,
                           outcome: str, **kwargs: Any) -> None:
            end = clock()
            complete(recorder, op_id, node, op, outcome, **kwargs)
            direction, nbytes = NEMESIS_PAYLOAD[op]
            result.note(end - started.pop(op_id), direction,
                        nbytes if outcome == OUTCOME_OK else 0)
            result.outcomes[outcome] = result.outcomes.get(outcome, 0) + 1

        patches = Patches()
        patches.set(HistoryRecorder, "invoke", timed_invoke)
        patches.set(HistoryRecorder, "complete", timed_complete)
        try:
            start = now = clock()
            result.close_window(start)
            result.windows.clear()
            deadline = start + int(seconds * 1e9)
            done = 0
            while now < deadline if blocks is None else done < blocks:
                for _ in range(NEMESIS_BLOCK):
                    seed = next(self.plan)
                    for topology in self.sim.TOPOLOGIES:
                        started.clear()
                        outcome = self.simulate(topology, seed)
                        result.simulations += 1
                        if self.first is None:
                            self.first = (topology, seed, outcome.fingerprint)
                        for violation in outcome.violations:
                            result.fail(f"{topology} seed {seed}: {violation.kind}")
                    now = clock()
                    result.close_window(now)
                done += 1
            result.wall_ns = now - start
        finally:
            patches.restore()
        return result

    def canonical(self) -> Iterator[Callable[[], int]]:
        """Seed-free simulations; each returns the ops it completed."""
        for topology in self.sim.TOPOLOGIES:
            yield lambda topology=topology: sum(self.simulate(topology, 0).outcomes.values())

    def alloc_probes(self) -> dict[str, tuple[Callable[[], Any], int]]:
        """256-byte copies over the simulator's client stack, no faults."""
        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer
        from repro.gpu.catalog import A100
        from repro.gpu.device import GpuDevice
        from repro.net.simclock import SimClock
        from repro.resilience.failover import LoopbackEndpoint
        from repro.resilience.retry import RetryPolicy

        server = CricketServer([GpuDevice(A100, execute=True)], clock=SimClock())
        client = CricketClient.failover(
            [LoopbackEndpoint(server)],
            retry_policy=RetryPolicy(max_attempts=30, deadline_s=None),
        )
        plan = self.sim.SimulationPlan()
        ptr = client.malloc(plan.alloc_bytes)
        data = bytes(range(256))
        return {
            "h2d": (lambda: client.memcpy_h2d(ptr, data), NEMESIS_PAYLOAD["h2d"][1]),
            "d2h": (lambda: client.memcpy_d2h(ptr, len(data)), NEMESIS_PAYLOAD["d2h"][1]),
        }

    def check(self, result: LoopResult) -> None:
        """Re-run the loop's first simulation: its fingerprint must repeat."""
        if self.first is None:
            result.fail("no simulation completed")
            return
        topology, seed, fingerprint = self.first
        again = self.simulate(topology, seed).fingerprint
        if again != fingerprint:
            result.fail(f"{topology} seed {seed}: fingerprint changed on re-run")

    def close(self) -> None:
        """Nothing to close: each simulation tears its cluster down."""


WORKLOADS: dict[str, type] = {
    cls.name: cls for cls in (SmallCalls, BulkCopy, Nemesis)
}
