"""Chaos harnesses not yet folded into the nemesis simulator.

Each harness is a seeded Plan/Result/Harness triple that tests, a CI
soak step and a demo run as the identical scenario:

* :class:`OverloadChaosHarness` -- open-loop storms at a multiple of
  server capacity: fair shedding, bounded queues, no expired execution;
* :class:`SanitizerChaosHarness` -- one buggy tenant beside healthy
  ones: every bug detected, contained and healed without a restart;
* :class:`GrayFailureChaosHarness` -- limplocks (slow endpoint,
  throttled GPU, slow fsync, limping standby) detected within a budget.

Client kills and session-leak accounting live in the simulator
(:mod:`repro.resilience.simulation`: the ``kill_client`` event and its
session-leak audit).  Everything is deterministic: same seed, same
counters.  Imports of :mod:`repro.cricket` stay inside functions --
resilience is a lower layer and must not import the Cricket stack at
module load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.resilience.scaffold import (
    PayloadPattern,
    advance_past_grace,
    detection_window,
    draw_free_candidate,
)


# -- overload chaos: more offered load than the server can execute ---------


@dataclass
class OverloadChaosPlan:
    """Seeded description of one open-loop overload run.

    Tenants offer calls at ``load_factor`` times the server's execution
    capacity (``1 / service_ns`` calls per nanosecond), with seeded
    arrival jitter, mixed priorities and a seeded fraction of tight
    deadlines that cannot survive a saturated queue.  The acceptance bar:

    * **zero executions of already-expired calls** -- expired work is
      refused at admission or dropped at dequeue, never dispatched;
    * **bounded queue**: the peak depth never exceeds ``max_queue_depth``;
    * **bounded accepted latency**: any call that executes finishes within
      its deadline slack plus one service time of its arrival;
    * **fairness**: with equal weights, max/min per-tenant goodput stays
      within 2x even when tenant 0 offers ``hot_tenant_factor`` times the
      load of everyone else;
    * shed calls surface as ``RPC_BUSY`` (typed, retryable) and a
      cancelled xid retransmitted later gets the cached ``CALL_CANCELLED``
      reply instead of re-executing.
    """

    #: concurrent client identities
    tenants: int = 3
    #: offered load as a multiple of server capacity (1x, 2x, 5x, ...)
    load_factor: float = 5.0
    #: baseline offered calls per tenant (tenant 0 scaled by the hot factor)
    calls_per_tenant: int = 60
    #: tenant 0 offers this multiple of everyone else's load
    hot_tenant_factor: float = 1.0
    #: virtual execution time per call
    service_ns: int = 1_000_000
    #: admission queue bound (the asserted peak-depth ceiling)
    max_queue_depth: int = 16
    #: per-tenant queue bound; 0 = auto (an equal share of the total).
    #: Without it a hot tenant fills the shared queue and reject-newest
    #: sheds everyone else -- WFQ only orders what was admitted.
    max_queue_depth_per_client: int = 0
    #: shed policy under that bound
    shed_policy: str = "reject-newest"
    #: WFQ weights keyed by tenant name ("tenant0", ...); empty = equal
    weights: dict[str, float] = field(default_factory=dict)
    #: calls get a seeded priority in [0, priorities)
    priorities: int = 3
    #: seeded fraction of calls given a deadline too tight for a full queue
    tight_deadline_fraction: float = 0.2
    #: RNG seed driving arrivals, priorities and deadlines
    seed: int = 0
    #: also probe the data channel with this many non-draining readers
    slow_readers: int = 1

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.load_factor <= 0:
            raise ValueError("load_factor must be > 0")
        if self.calls_per_tenant < 1:
            raise ValueError("need at least one call per tenant")
        if self.priorities < 1:
            raise ValueError("need at least one priority level")

    @property
    def default_slack_ns(self) -> int:
        """Deadline slack for normal calls: survives a full queue."""
        return (self.max_queue_depth + 2) * self.service_ns

    @property
    def tight_slack_ns(self) -> int:
        """Deadline slack for tight calls: dies in a saturated queue."""
        return 2 * self.service_ns

    @property
    def latency_bound_ns(self) -> int:
        """Worst accepted-call latency: start before deadline, then run."""
        return self.default_slack_ns + self.service_ns


@dataclass
class OverloadChaosResult:
    """Outcome of an overload chaos run, ready for assertions."""

    #: calls offered per tenant
    offered: dict[str, int]
    #: calls executed to SUCCESS per tenant (goodput)
    goodput: dict[str, int]
    #: calls shed with a busy refusal (bounds, policy or rate limit)
    shed_busy: int
    #: calls refused or dropped because their deadline passed in queue
    expired_in_queue: int
    #: calls that *executed* after their deadline passed (must be 0)
    executed_expired: int
    #: high-water mark of queue depth during the run
    peak_queue_depth: int
    #: the configured bound it must respect
    queue_bound: int
    #: worst arrival-to-completion latency among executed calls
    max_accepted_latency_ns: int
    #: the bound it must respect (deadline slack + one service time)
    latency_bound_ns: int
    #: max/min per-tenant goodput (inf when a tenant got nothing)
    fairness_ratio: float
    #: a call shed by a saturated server came back as RPC_BUSY
    busy_reply_typed: bool
    #: retransmitting a cancelled xid hit the cached CALL_CANCELLED reply
    cancel_replay_ok: bool
    #: data-channel peers disconnected for not draining their window
    slow_reader_disconnects: int
    #: ``ServerStats.as_dict()`` at the end of the run
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every overload-control invariant held."""
        return (
            self.executed_expired == 0
            and self.peak_queue_depth <= self.queue_bound
            and self.max_accepted_latency_ns <= self.latency_bound_ns
            and self.fairness_ratio <= 2.0
            and self.busy_reply_typed
            and self.cancel_replay_ok
        )


class OverloadChaosHarness:
    """Run an :class:`OverloadChaosPlan` in deterministic virtual time.

    A single-threaded event loop models a saturated single-slot server:
    arrivals go through a real
    :class:`~repro.resilience.overload.OverloadQueue` (bounds, shedding,
    WFQ, deadlines) and each admitted call is dispatched through a real
    :meth:`~repro.oncrpc.server.RpcServer.dispatch_record` with the
    tenant's ``AUTH_CLIENT_TOKEN`` credential and its remaining budget in
    an ``AUTH_CALL_META`` verifier -- so the server-side expiry checks,
    reply cache and counters under test are the production ones, while
    time is virtual and every schedule replays bit-for-bit from its seed.
    """

    def __init__(self, plan: OverloadChaosPlan | None = None) -> None:
        self.plan = plan if plan is not None else OverloadChaosPlan()
        self.server: Any = None

    def run(self) -> OverloadChaosResult:
        """Execute the plan; returns the overload accounting."""
        import random

        from repro.cricket.server import CricketServer
        from repro.cricket.spec import CRICKET_PROG_NAME, CRICKET_SPEC, CRICKET_VERS
        from repro.net.simclock import SimClock
        from repro.oncrpc import message as msg
        from repro.oncrpc.auth import call_meta_auth, client_token_auth
        from repro.resilience.overload import OverloadConfig, OverloadQueue, Refusal
        from repro.rpcl.stubgen import ProgramInterface

        plan = self.plan
        rng = random.Random(plan.seed)
        server = CricketServer(clock=SimClock())
        self.server = server
        clock = server.clock
        iface = ProgramInterface.from_source(
            CRICKET_SPEC, CRICKET_PROG_NAME, CRICKET_VERS
        )

        tenant_names = [f"tenant{i}" for i in range(plan.tenants)]
        tokens = {name: name.encode("ascii") for name in tenant_names}
        identities = {name: f"token:{tokens[name].hex()}" for name in tenant_names}
        weights = {
            identities[name]: weight
            for name, weight in plan.weights.items()
            if name in identities
        }
        per_client = plan.max_queue_depth_per_client
        if per_client <= 0:
            per_client = max(1, -(-plan.max_queue_depth // plan.tenants))
        queue = OverloadQueue(
            OverloadConfig(
                max_concurrency=1,
                max_queue_depth=plan.max_queue_depth,
                max_queue_depth_per_client=per_client,
                shed_policy=plan.shed_policy,
                weights=weights,
            ),
            stats=server.server_stats,
        )

        # -- seeded open-loop arrival schedule -----------------------------
        counts = {
            name: max(
                1,
                round(
                    plan.calls_per_tenant
                    * (plan.hot_tenant_factor if i == 0 else 1.0)
                ),
            )
            for i, name in enumerate(tenant_names)
        }
        total_calls = sum(counts.values())
        horizon_ns = max(1, int(total_calls * plan.service_ns / plan.load_factor))
        events = []  # (arrival_ns, xid, tenant, priority, deadline_ns)
        xid = 0
        for name in tenant_names:
            gap = horizon_ns / counts[name]
            t = 0.0
            for _ in range(counts[name]):
                t += gap * rng.uniform(0.5, 1.5)
                xid += 1
                tight = rng.random() < plan.tight_deadline_fraction
                slack = plan.tight_slack_ns if tight else plan.default_slack_ns
                events.append(
                    (int(t), xid, name, rng.randrange(plan.priorities), int(t) + slack)
                )
        events.sort(key=lambda e: (e[0], e[1]))
        by_xid = {e[1]: e for e in events}

        offered = {name: 0 for name in tenant_names}
        goodput = {name: 0 for name in tenant_names}
        executed_expired = 0
        max_latency = 0
        shed_busy = 0
        expired_refused = 0

        def dispatch(xid: int, start_ns: int) -> None:
            nonlocal executed_expired, max_latency
            arrival, _, tenant, priority, deadline = by_xid[xid]
            remaining = max(0, deadline - clock.now_ns)
            call = msg.CallBody(
                prog=iface.prog_number,
                vers=iface.vers_number,
                proc=1,  # rpc_cudaGetDeviceCount: void args, cheap, countable
                cred=client_token_auth(tokens[tenant]),
                verf=call_meta_auth(remaining, priority),
            )
            reply = server.dispatch_record(msg.RpcMessage(xid, call).encode())
            assert reply is not None
            stat = msg.RpcMessage.decode(reply).body.stat
            if stat == msg.SUCCESS:
                if start_ns >= deadline:
                    executed_expired += 1  # the invariant this harness exists for
                goodput[tenant] += 1
                max_latency = max(
                    max_latency, start_ns + plan.service_ns - arrival
                )

        # -- single-slot virtual-time event loop ---------------------------
        busy_until = 0

        def serve_until(limit_ns: int | None) -> None:
            """Run queued calls while the server frees up before ``limit_ns``."""
            nonlocal busy_until
            while limit_ns is None or busy_until <= limit_ns:
                clock.advance_to_ns(max(clock.now_ns, busy_until))
                ticket, _dropped = queue.pop_next(clock.now_ns)
                if ticket is None:
                    break
                start = clock.now_ns
                dispatch(ticket.xid, start)
                busy_until = start + plan.service_ns

        for arrival, call_xid, tenant, priority, deadline in events:
            serve_until(arrival)
            clock.advance_to_ns(max(clock.now_ns, arrival))
            offered[tenant] += 1
            if busy_until <= arrival and not len(queue):
                dispatch(call_xid, arrival)
                busy_until = arrival + plan.service_ns
                continue
            outcome = queue.offer(
                identities[tenant],
                call_xid,
                clock.now_ns,
                priority=priority,
                expires_at_ns=deadline,
            )
            if isinstance(outcome, Refusal):
                if outcome.kind == "busy":
                    shed_busy += 1
                else:
                    expired_refused += 1
            shed_busy += len(queue.take_evicted())
        serve_until(None)  # drain the backlog

        # -- typed-refusal probe: a saturated server answers RPC_BUSY ------
        busy_reply_typed = self._probe_busy_reply()

        # -- cancel x reply cache: retransmit never re-executes ------------
        cancel_replay_ok = self._probe_cancel_replay(server, iface)

        # -- real slow readers against the data channel --------------------
        slow_disconnects = self._probe_slow_readers(server)

        # Max-min fairness: a tenant whose demand was fully served cannot be
        # a fairness victim (or culprit) -- at 1x load a hot tenant *should*
        # get 3x the goodput if there is capacity for everyone.  The ratio
        # is judged among tenants that still had unmet demand.
        # "Unmet" means materially unmet: losing a couple of tight-deadline
        # calls out of dozens does not make a tenant a contention victim.
        contended = [
            goodput[name]
            for name in tenant_names
            if goodput[name] < 0.9 * offered[name]
        ]
        if len(contended) < 2:
            ratio = 1.0
        elif min(contended) > 0:
            ratio = max(contended) / min(contended)
        else:
            ratio = float("inf")
        return OverloadChaosResult(
            offered=offered,
            goodput=goodput,
            shed_busy=shed_busy,
            expired_in_queue=server.server_stats.deadline_expired_in_queue,
            executed_expired=executed_expired,
            peak_queue_depth=server.server_stats.queue_peak_depth,
            queue_bound=plan.max_queue_depth,
            max_accepted_latency_ns=max_latency,
            latency_bound_ns=plan.latency_bound_ns,
            fairness_ratio=ratio,
            busy_reply_typed=busy_reply_typed,
            cancel_replay_ok=cancel_replay_ok,
            slow_reader_disconnects=slow_disconnects,
            counters=server.server_stats.as_dict(),
        )

    def _probe_busy_reply(self) -> bool:
        """Saturate a real controller-backed server; expect ``RPC_BUSY``."""
        from repro.cricket.server import CricketServer
        from repro.net.simclock import SimClock
        from repro.oncrpc import message as msg
        from repro.oncrpc.auth import client_token_auth
        from repro.resilience.overload import OverloadConfig

        probe = CricketServer(
            clock=SimClock(),
            overload=OverloadConfig(max_concurrency=1, max_queue_depth=1),
        )
        assert probe.overload is not None
        # Occupy the only slot and the only queue seat, single-threaded:
        # the next arrival must be refused immediately, not block.
        outcome, _token = probe.overload.acquire("token:holder", 1)
        assert outcome == probe.overload.ADMITTED
        probe.overload.queue.offer("token:waiter", 2, probe.clock.now_ns)
        call = msg.CallBody(
            prog=0x20000199,
            vers=1,
            proc=1,
            cred=client_token_auth(b"probe"),
        )
        reply = probe.dispatch_record(msg.RpcMessage(3, call).encode())
        probe.overload.release()
        if reply is None:
            return False
        return msg.RpcMessage.decode(reply).body.stat == msg.RPC_BUSY

    def _probe_cancel_replay(self, server: Any, iface: Any) -> bool:
        """A cancelled xid retransmitted later must replay, not re-execute."""
        from repro.oncrpc import message as msg
        from repro.oncrpc.auth import client_token_auth

        token = b"tenant0"
        identity = f"token:{token.hex()}"
        xid = 1 << 20  # far above any simulated xid
        cached = server.record_cancelled(identity, xid)
        hits_before = server.server_stats.reply_cache_hits
        call = msg.CallBody(
            prog=iface.prog_number,
            vers=iface.vers_number,
            proc=10,  # rpc_cudaMalloc: re-execution would allocate memory
            cred=client_token_auth(token),
            args=(1 << 12).to_bytes(8, "big"),
        )
        used_before = sum(d.allocator.used_bytes for d in server.devices)
        # direct no-execution evidence: the handler tap must stay silent
        executions: list[int] = []
        tap = lambda _i, _x, _p, _s, _r: executions.append(_x)  # noqa: E731
        server.execution_taps.append(tap)
        try:
            reply = server.dispatch_record(msg.RpcMessage(xid, call).encode())
        finally:
            server.execution_taps.remove(tap)
        used_after = sum(d.allocator.used_bytes for d in server.devices)
        return (
            reply == cached
            and msg.RpcMessage.decode(reply).body.stat == msg.CALL_CANCELLED
            and server.server_stats.reply_cache_hits == hits_before + 1
            and used_after == used_before
            and not executions
        )

    def _probe_slow_readers(self, server: Any) -> int:
        """Real sockets: readers that never drain must be disconnected."""
        import socket
        import time

        from repro.cricket.data_channel import (
            _HEADER,
            DIR_READ,
            DataChannelServer,
        )

        plan = self.plan
        if plan.slow_readers <= 0:
            return 0
        device = server.devices[0]
        total = 8 << 20  # large enough to overflow kernel socket buffers
        dptr = device.alloc(total)
        channel = DataChannelServer(
            device,
            window_bytes=64 << 10,
            drain_timeout_s=0.05,
            stats=server.server_stats,
        )
        conns = []
        try:
            for _ in range(plan.slow_readers):
                conn = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                conn.connect(channel.address)
                conn.sendall(_HEADER.pack(DIR_READ, 0, 1, 64 << 10, dptr, total))
                conns.append(conn)  # ...and never read a byte
            deadline = time.monotonic() + 10.0
            while (
                channel.slow_readers_disconnected < plan.slow_readers
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            return channel.slow_readers_disconnected
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass
            channel.close()
            device.free(dptr)


# -- sanitizer chaos: one buggy tenant beside healthy neighbours ----------


#: every bug the harness knows how to inject (and must detect)
SANITIZER_BUG_KINDS = (
    "oob-write",
    "oob-read",
    "double-free",
    "use-after-free",
    "wild-write",
    "hang",
    "leak",
)


@dataclass
class SanitizerChaosPlan:
    """Seeded description of one buggy-tenant chaos run.

    The acceptance bar (mirrors the issue): a deliberately buggy tenant
    runs beside healthy ones on a sanitized, watchdog-armed server and

    * **100% detection** -- every injected bug (out-of-bounds write and
      read, double free, use-after-free, wild kernel write, hung kernel,
      leak) is caught with a typed sanitizer/watchdog verdict;
    * **zero cross-tenant impact** -- healthy tenants complete every call
      without an error and read back exactly the bytes they wrote;
    * **ladder convergence** -- the recovery ladder returns every device
      to healthy without a server restart.
    """

    #: healthy loopback clients running beside the buggy one
    healthy_clients: int = 3
    #: allocate/verify rounds (one bug fires per round, schedule seeded)
    rounds: int = 7
    #: allocations each healthy client makes per round
    allocs_per_round: int = 2
    #: size of each healthy allocation
    alloc_bytes: int = 1 << 16
    #: bugs to inject, one per round (order shuffled by the seed)
    bugs: tuple = SANITIZER_BUG_KINDS
    #: RNG seed for the bug schedule and payload patterns
    seed: int = 0
    #: server lease interval (virtual seconds) -- drives leak reclamation
    lease_s: float = 1.0
    #: orphan grace period (virtual seconds)
    grace_s: float = 0.5

    def __post_init__(self) -> None:
        if self.healthy_clients < 1:
            raise ValueError("need at least one healthy client")
        unknown = set(self.bugs) - set(SANITIZER_BUG_KINDS)
        if unknown:
            raise ValueError(f"unknown bug kinds: {sorted(unknown)}")
        if self.rounds < len(self.bugs):
            raise ValueError("need at least one round per bug")


@dataclass
class SanitizerChaosResult:
    """Outcome of a sanitizer chaos run, ready for assertions."""

    #: bug kinds in the order they were injected
    injected: list[str]
    #: bug kind -> whether it was detected with a typed verdict
    detected: dict[str, bool]
    #: server-side identity of the buggy tenant
    buggy_identity: str
    #: healthy-tenant calls that returned an error (must be 0)
    healthy_failed_calls: int
    #: healthy allocations whose read-back bytes mismatched (must be 0)
    lost_allocations: int
    #: leak-report entries attributed to the buggy tenant
    leaks_attributed: int
    #: every device healthy when the run ended
    devices_healthy: bool
    #: recovery-ladder rungs taken (sum over all five)
    ladder_rungs_taken: int
    #: final ``ServerStats.as_dict()``
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every bug was caught and no healthy tenant noticed."""
        return (
            all(self.detected.values())
            and self.healthy_failed_calls == 0
            and self.lost_allocations == 0
            and self.devices_healthy
        )


class SanitizerChaosHarness:
    """Run a :class:`SanitizerChaosPlan` against a sanitized server."""

    def __init__(self, plan: SanitizerChaosPlan | None = None) -> None:
        self.plan = plan if plan is not None else SanitizerChaosPlan()
        #: the server of the most recent run (inspection/debugging)
        self.server: Any = None

    def run(self) -> SanitizerChaosResult:
        """Execute the plan; returns the detection/containment accounting."""
        import random

        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer
        from repro.cuda.errors import CudaError
        from repro.gpu.catalog import A100
        from repro.gpu.device import GpuDevice
        from repro.net.simclock import SimClock

        plan = self.plan
        rng = random.Random(plan.seed)
        # device 1 is the idle same-model spare the ladder's failover rung
        # migrates onto when a sticky poison lands amid co-tenants
        server = CricketServer(
            [GpuDevice(A100), GpuDevice(A100)],
            clock=SimClock(),
            lease_s=plan.lease_s,
            grace_s=plan.grace_s,
            sanitizer=True,
            watchdog=True,
        )
        self.server = server
        healthy = [
            CricketClient.loopback(server) for _ in range(plan.healthy_clients)
        ]
        buggy = CricketClient.loopback(server)
        buggy_id = ""

        schedule = list(plan.bugs)
        rng.shuffle(schedule)
        detected = {kind: False for kind in plan.bugs}
        healthy_failed = 0
        # expected contents of every healthy allocation: ptr -> bytes
        expected: dict[int, bytes] = {}
        leaked_ptrs: list[int] = []
        pattern = PayloadPattern()

        def violation_kinds() -> set:
            return {kind for kind, _owner, _site, _addr in server.violations}

        for rnd in range(plan.rounds):
            bug = schedule[rnd] if rnd < len(schedule) else None
            if bug == "leak":
                # allocate and never free; detection happens when the
                # buggy session's ledger is released after the run
                leaked_ptrs.append(buggy.malloc(plan.alloc_bytes))
            elif bug == "hang":
                hangs_before = server.server_stats.watchdog_hangs
                server.devices[0].inject_hang(
                    kind="spin" if rng.random() < 0.5 else "fused"
                )
                # the next dispatched call -- whoever sends it -- trips
                # the ladder; detection shows up in the hang counter
            elif bug == "wild-write":
                # a kernel scribbling through a wild pointer: corrupt the
                # buggy tenant's own guard band server-side, then let the
                # periodic sweep find it
                ptr = buggy.malloc(plan.alloc_bytes)
                server.devices[0].allocator.wild_write(
                    ptr + plan.alloc_bytes, b"\xff" * 8
                )
                server.sweep_now()
                if "redzone-corruption" in violation_kinds():
                    detected["wild-write"] = True
            elif bug is not None:
                try:
                    if bug == "oob-write":
                        ptr = buggy.malloc(plan.alloc_bytes)
                        buggy.memcpy_h2d(ptr, b"\xee" * (plan.alloc_bytes + 64))
                    elif bug == "oob-read":
                        ptr = buggy.malloc(plan.alloc_bytes)
                        buggy.memcpy_d2h(ptr, plan.alloc_bytes + 64)
                    elif bug == "double-free":
                        ptr = buggy.malloc(plan.alloc_bytes)
                        buggy.free(ptr)
                        buggy.free(ptr)
                    elif bug == "use-after-free":
                        ptr = buggy.malloc(plan.alloc_bytes)
                        buggy.free(ptr)
                        buggy.memcpy_h2d(ptr, b"\xdd" * 64)
                except CudaError:
                    if bug in violation_kinds():
                        detected[bug] = True
            if not buggy_id:
                buggy_id = buggy.session_identity

            # healthy tenants carry on, blind to their neighbour's bugs
            for client in healthy:
                try:
                    for _ in range(plan.allocs_per_round):
                        payload = pattern.next_payload(plan.alloc_bytes)
                        ptr = client.malloc(plan.alloc_bytes)
                        client.memcpy_h2d(ptr, payload)
                        expected[ptr] = payload
                    dead = draw_free_candidate(rng, expected, 0.3)
                    if dead is not None:
                        client.free(dead)
                        del expected[dead]
                except CudaError:
                    healthy_failed += 1

            if bug == "hang" and (
                server.server_stats.watchdog_hangs > hangs_before
            ):
                detected["hang"] = True

        # The buggy tenant "crashes": stops heartbeating, its lease and
        # grace lapse, and the reaper's ledger release files the leak
        # report for everything it never freed.
        advance_past_grace(
            server.clock,
            plan.lease_s,
            plan.grace_s,
            on_tick=lambda: [c.renew_lease() for c in healthy],
        )
        server.reap_sessions()
        leaks = sum(1 for r in server.leak_reports if r["owner"] == buggy_id)
        if "leak" in plan.bugs and leaks >= len(leaked_ptrs) > 0:
            detected["leak"] = True

        # verification: healthy data intact, every device healed in place
        lost = 0
        for ptr, payload in expected.items():
            try:
                got = healthy[0].memcpy_d2h(ptr, len(payload))
            except Exception:
                got = None
            if got != payload:
                lost += 1
        stats = server.server_stats
        rungs = (
            stats.ladder_cooperative_cancels
            + stats.ladder_stream_aborts
            + stats.ladder_context_resets
            + stats.ladder_device_failovers
            + stats.ladder_session_reclaims
        )
        return SanitizerChaosResult(
            injected=schedule,
            detected=detected,
            buggy_identity=buggy_id,
            healthy_failed_calls=healthy_failed,
            lost_allocations=lost,
            leaks_attributed=leaks,
            devices_healthy=all(d.healthy for d in server.devices),
            ladder_rungs_taken=rungs,
            counters=stats.as_dict(),
        )


# -- gray-failure (limplock) chaos -------------------------------------------


#: the four limplock topologies the gray-failure harness exercises
GRAY_TOPOLOGIES = (
    "slow_endpoint",
    "throttled_gpu",
    "slow_fsync",
    "limping_standby",
)


@dataclass
class GrayFailureChaosPlan:
    """Seeded description of one gray-failure chaos run.

    Every topology follows the same three-phase script over virtual
    time: a healthy **baseline** phase establishes the latency
    distribution, a **faulted** phase injects a limplock (nothing ever
    *fails* -- everything just gets slow) and waits for the matching
    detector to react, and a **recovery** phase measures the tail after
    the reaction.  Acceptance is uniform: the limplock is detected
    within the virtual-time budget, nothing healthy is ejected, the
    brownout never flaps, and the recovery-phase p99 sits within 2x the
    healthy baseline.

    ``topology`` picks the limplock and the detector:

    * ``slow_endpoint`` -- one of three Cricket servers limps behind a
      :class:`~repro.resilience.faults.SlowEndpoint`; hedged probe
      rounds feed the :class:`~repro.resilience.health.OutlierEjector`
      until the limper leaves rotation.
    * ``throttled_gpu`` -- a thermally throttled device (soft fault,
      still "healthy") is preemptively failed over to the clean spare
      by the recovery ladder's rung 0.
    * ``slow_fsync`` -- the checkpoint disk stalls on fsync; the
      checkpoint-latency SLO drives the server into brownout (shedding
      low-priority work, stretching checkpoint cadence) and back out
      after repair.
    * ``limping_standby`` -- the replication standby acknowledges
      slowly; the ship-RTT SLO demotes the synchronous link to
      async-lagged so the primary's latency recovers.
    """

    topology: str = "slow_endpoint"
    #: RNG seed (victim choice, jitter stream)
    seed: int = 0
    #: operations in the healthy warm-up phase
    baseline_ops: int = 24
    #: operation rounds while the limplock is active
    faulted_ops: int = 24
    #: operations after detection/repair
    recovery_ops: int = 24
    #: injected stall per limping operation (virtual seconds)
    limp_s: float = 0.02
    #: throttle multiplier for the throttled-GPU topology
    throttle: float = 4.0
    #: virtual seconds from injection within which detection must land
    detect_budget_s: float = 10.0

    def __post_init__(self) -> None:
        if self.topology not in GRAY_TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; pick one of {GRAY_TOPOLOGIES}"
            )
        if self.limp_s <= 0:
            raise ValueError("limp_s must be positive")
        if self.throttle <= 1.0:
            raise ValueError("throttle must exceed 1.0")


@dataclass
class GrayFailureChaosResult:
    """Outcome of a gray-failure chaos run, ready for assertions."""

    topology: str
    #: the limplock was detected (ejected / preempted / browned-out /
    #: demoted) while the fault was active
    detected: bool
    #: virtual ns from injection to detection (-1 when undetected)
    detection_latency_ns: int
    #: healthy components ejected by mistake (must be empty)
    false_ejections: tuple[str, ...] = ()
    #: p99 of the measured operation during the healthy baseline
    baseline_p99_ns: int = 0
    #: p99 of the same operation after detection/repair
    recovery_p99_ns: int = 0
    #: brownout entries over the whole run (hysteresis: at most one)
    brownout_entries: int = 0
    #: brownout exits over the whole run (at most one)
    brownout_exits: int = 0
    #: low-priority calls shed with RPC_BUSY while browned out
    sheds: int = 0
    #: rung-0 preemptive device failovers taken
    preemptive_failovers: int = 0
    #: sync -> async replication demotions taken
    demotions: int = 0
    #: endpoint ejections / readmissions over the run
    ejections: int = 0
    readmissions: int = 0
    #: limping_standby only: primary/standby state diverged after the
    #: final flush (must stay False -- demotion trades latency for lag,
    #: never for correctness)
    state_divergence: bool = False
    #: final ``ServerStats.as_dict()`` of the server under test
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when the limplock was caught without collateral damage."""
        return (
            self.detected
            and self.detection_latency_ns >= 0
            and not self.false_ejections
            and self.recovery_p99_ns <= 2 * max(self.baseline_p99_ns, 1)
            and self.brownout_entries <= 1
            and self.brownout_exits <= 1
            and not self.state_divergence
        )


class GrayFailureChaosHarness:
    """Run a :class:`GrayFailureChaosPlan` against the matching topology."""

    def __init__(self, plan: GrayFailureChaosPlan | None = None) -> None:
        self.plan = plan if plan is not None else GrayFailureChaosPlan()
        #: the server (or primary) of the most recent run
        self.server: Any = None

    def run(self) -> GrayFailureChaosResult:
        """Execute the plan; returns the detection/containment accounting."""
        runner = getattr(self, f"_run_{self.plan.topology}")
        return runner()

    # -- topology: one limping endpoint among three ---------------------------

    def _run_slow_endpoint(self) -> GrayFailureChaosResult:
        import random

        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer
        from repro.net.simclock import SimClock
        from repro.resilience.failover import LoopbackEndpoint
        from repro.resilience.faults import SlowEndpoint, SlowFaultPlan
        from repro.resilience.health import LatencyHistogram, OutlierEjector
        from repro.resilience.retry import RetryPolicy

        plan = self.plan
        rng = random.Random(plan.seed)
        clock = SimClock()
        servers = [CricketServer(clock=clock) for _ in range(3)]
        self.server = servers[0]
        limper = rng.randrange(len(servers))
        limper_name = f"server{limper}"
        endpoints: list[Any] = [
            LoopbackEndpoint(s, name=f"server{i}") for i, s in enumerate(servers)
        ]
        slow = SlowEndpoint(
            endpoints[limper],
            SlowFaultPlan(
                base_delay_s=plan.limp_s,
                jitter_s=plan.limp_s / 4,
                seed=plan.seed,
            ),
            clock=clock,
            active=False,
        )
        endpoints[limper] = slow
        ejector = OutlierEjector(clock=clock, probation_s=5.0)
        client = CricketClient.failover(
            endpoints, retry_policy=RetryPolicy(max_attempts=8), ejector=ejector
        )
        transport = client.failover_transport

        def measured_op(hist: LatencyHistogram) -> None:
            started = clock.now_ns
            client.get_device_count()
            hist.record(clock.now_ns - started)

        all_ejected: set[str] = set()

        def note_round(decision) -> None:
            if decision is not None:
                all_ejected.update(decision.ejected)

        baseline = LatencyHistogram()
        for i in range(plan.baseline_ops):
            measured_op(baseline)
            # sparse baseline probing: enough samples to qualify every
            # endpoint without drowning the post-injection signal
            if i % 4 == 0:
                note_round(transport.probe_endpoints())

        slow.set_active(True)
        injected_ns = clock.now_ns
        detected_ns = -1
        for _ in range(plan.faulted_ops):
            measured_op(LatencyHistogram())  # faulted-phase latency, unscored
            note_round(transport.probe_endpoints())
            if detected_ns < 0 and ejector.is_ejected(limper_name):
                detected_ns = clock.now_ns
                break

        # repair the limper; it stays ejected until probation expires,
        # so recovery traffic runs on the healthy majority
        slow.set_active(False)
        # unscored settling ops: the first call after ejection pays the
        # one-time reconnect away from the ejected endpoint, which is not
        # part of the steady-state tail the acceptance criterion bounds
        for _ in range(2):
            measured_op(LatencyHistogram())
        recovery = LatencyHistogram()
        for _ in range(plan.recovery_ops):
            measured_op(recovery)

        detection_latency, within_budget = detection_window(
            injected_ns, detected_ns, plan.detect_budget_s
        )
        return GrayFailureChaosResult(
            topology=plan.topology,
            detected=within_budget,
            detection_latency_ns=detection_latency,
            false_ejections=tuple(sorted(all_ejected - {limper_name})),
            baseline_p99_ns=baseline.p99,
            recovery_p99_ns=recovery.p99,
            ejections=ejector.ejections,
            readmissions=ejector.readmissions,
            counters=servers[0].server_stats.as_dict(),
        )

    # -- topology: thermally throttled GPU, clean spare available -------------

    def _run_throttled_gpu(self) -> GrayFailureChaosResult:
        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer
        from repro.cubin import build_cubin_for_registry
        from repro.cubin.metadata import KernelMeta
        from repro.gpu.catalog import A100
        from repro.gpu.device import GpuDevice
        from repro.net.simclock import SimClock
        from repro.resilience.health import LatencyHistogram

        plan = self.plan
        clock = SimClock()
        # device 1 is the clean same-model spare rung 0 preempts onto
        server = CricketServer(
            [GpuDevice(A100), GpuDevice(A100)], clock=clock, auto_recover=True
        )
        self.server = server
        client = CricketClient.loopback(server)
        cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
        module = client.module_load(cubin)
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        fn = client.get_function(module, "vectorAdd", meta)
        n = 1 << 16
        a, b, c = (client.malloc(4 * n) for _ in range(3))

        def measured_op(hist: LatencyHistogram) -> None:
            started = clock.now_ns
            client.launch_kernel(fn, (n // 256, 1, 1), (256, 1, 1), (a, b, c, n))
            client.device_synchronize()
            hist.record(clock.now_ns - started)

        baseline = LatencyHistogram()
        for _ in range(plan.baseline_ops):
            measured_op(baseline)
        # a preemption before any fault exists would be a false positive
        baseline_preempts = server.server_stats.ladder_preemptive_failovers

        server.devices[0].inject_soft_fault("throttle", plan.throttle)
        injected_ns = clock.now_ns
        detected_ns = -1
        faulted = LatencyHistogram()
        for _ in range(plan.faulted_ops):
            measured_op(faulted)
            if (
                detected_ns < 0
                and server.server_stats.ladder_preemptive_failovers > 0
            ):
                detected_ns = clock.now_ns
                break

        recovery = LatencyHistogram()
        for _ in range(plan.recovery_ops):
            measured_op(recovery)

        # the serving slot must hold clean silicon again
        slot_degraded = server.devices[0].degraded or not server.devices[0].healthy
        detection_latency, within_budget = detection_window(
            injected_ns, detected_ns, plan.detect_budget_s
        )
        return GrayFailureChaosResult(
            topology=plan.topology,
            detected=within_budget and not slot_degraded,
            detection_latency_ns=detection_latency,
            false_ejections=("device0",) if baseline_preempts else (),
            baseline_p99_ns=baseline.p99,
            recovery_p99_ns=recovery.p99,
            preemptive_failovers=server.server_stats.ladder_preemptive_failovers,
            counters=server.server_stats.as_dict(),
        )

    # -- topology: checkpoint disk stalls on fsync -> brownout ----------------

    def _run_slow_fsync(self) -> GrayFailureChaosResult:
        import tempfile

        from repro.cricket.ckptstore import CheckpointStore, FileStorage
        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer
        from repro.net.simclock import SimClock
        from repro.oncrpc.errors import RpcBusyError
        from repro.resilience.faults import FaultyStorage, StorageFaultPlan
        from repro.resilience.health import LatencyHistogram, LatencySLO

        plan = self.plan
        clock = SimClock()
        # fsync SLO at 3/4 of the injected stall: the stall breaches it
        # (one histogram bucket up still lands below the stage-2 ratio)
        slo = LatencySLO(
            target_p99_ns=int(plan.limp_s * 0.75 * 1e9), min_samples=4
        )
        server = CricketServer(clock=clock, brownout=True, checkpoint_slo=slo)
        self.server = server
        high = CricketClient.loopback(server, priority=3)
        low = CricketClient.loopback(server, priority=0)

        def measured_op(hist: LatencyHistogram) -> None:
            started = clock.now_ns
            high.get_device_count()
            hist.record(clock.now_ns - started)

        sheds = 0

        def low_op() -> None:
            nonlocal sheds
            try:
                low.get_device_count()
            except RpcBusyError:
                sheds += 1

        with tempfile.TemporaryDirectory() as tmpdir:
            clean_storage = FileStorage(f"{tmpdir}/ckpt")
            faulty = FaultyStorage(
                clean_storage,
                StorageFaultPlan(
                    slow_fsync_rate=1.0,
                    slow_fsync_s=plan.limp_s,
                    seed=plan.seed,
                ),
                clock=clock,
            )
            store = CheckpointStore(
                storage=clean_storage, clock=clock, stats=server.server_stats
            )
            server.attach_checkpoint_health(store.write_latency)

            high.malloc(1 << 16)  # some state worth checkpointing
            baseline = LatencyHistogram()
            for i in range(plan.baseline_ops):
                measured_op(baseline)
                low_op()
                if i % 4 == 0:
                    store.save(server)

            store.storage = faulty  # the disk starts limping
            injected_ns = clock.now_ns
            detected_ns = -1
            stretched = False
            for _ in range(plan.faulted_ops):
                store.save(server)
                measured_op(LatencyHistogram())
                low_op()
                if detected_ns < 0 and server.brownout.active:
                    detected_ns = clock.now_ns
                if server.brownout.active:
                    stretched = (
                        stretched or server.checkpoint_interval_factor > 1
                    )

            # repair: swap the disk back and clear the tracker's history
            # (fresh hardware is judged on fresh samples, exactly like an
            # ejected endpoint readmitted from probation)
            store.storage = clean_storage
            store.write_latency.reset()
            recovery = LatencyHistogram()
            for i in range(plan.recovery_ops):
                clock.advance_s(0.05)  # let the calm dwell accumulate
                measured_op(recovery)
                low_op()
                if i % 4 == 0:
                    store.save(server)

        detection_latency, within_budget = detection_window(
            injected_ns, detected_ns, plan.detect_budget_s
        )
        stats = server.server_stats
        return GrayFailureChaosResult(
            topology=plan.topology,
            detected=within_budget and stretched,
            detection_latency_ns=detection_latency,
            baseline_p99_ns=baseline.p99,
            recovery_p99_ns=recovery.p99,
            brownout_entries=stats.brownout_entries,
            brownout_exits=stats.brownout_exits,
            sheds=sheds,
            counters=stats.as_dict(),
        )

    # -- topology: standby acknowledges slowly -> sync link demoted -----------

    def _run_limping_standby(self) -> GrayFailureChaosResult:
        from repro.cricket.client import CricketClient
        from repro.cricket.replication import ReplicationLink, state_fingerprint
        from repro.cricket.server import CricketServer
        from repro.net.simclock import SimClock
        from repro.resilience.health import LatencyHistogram, LatencySLO

        plan = self.plan
        primary = CricketServer(clock=SimClock())
        standby = CricketServer(clock=SimClock())
        self.server = primary
        link = ReplicationLink(
            primary,
            standby,
            max_lag=0,
            ship_slo=LatencySLO(
                target_p99_ns=int(plan.limp_s * 0.25 * 1e9), min_samples=4
            ),
        )
        client = CricketClient.loopback(primary)
        clock = primary.clock
        pattern = PayloadPattern()

        def measured_op(hist: LatencyHistogram) -> None:
            started = clock.now_ns
            ptr = client.malloc(1 << 12)
            client.memcpy_h2d(ptr, pattern.next_payload(64))
            hist.record(clock.now_ns - started)

        baseline = LatencyHistogram()
        for _ in range(plan.baseline_ops):
            measured_op(baseline)

        link.ship_delay_s = plan.limp_s  # the standby starts limping
        injected_ns = clock.now_ns
        detected_ns = -1
        for _ in range(plan.faulted_ops):
            measured_op(LatencyHistogram())
            if detected_ns < 0 and link.demoted:
                detected_ns = clock.now_ns
                break

        # post-demotion: the standby still limps, but the primary no
        # longer waits for it on every mutation
        recovery = LatencyHistogram()
        for _ in range(plan.recovery_ops):
            measured_op(recovery)

        link.flush()  # drain the (bounded) lag, then compare state
        diverged = state_fingerprint(primary) != state_fingerprint(standby)
        detection_latency, within_budget = detection_window(
            injected_ns, detected_ns, plan.detect_budget_s
        )
        return GrayFailureChaosResult(
            topology=plan.topology,
            detected=within_budget and link.lag <= link.demoted_max_lag,
            detection_latency_ns=detection_latency,
            baseline_p99_ns=baseline.p99,
            recovery_p99_ns=recovery.p99,
            demotions=primary.server_stats.replication_demotions,
            state_divergence=diverged,
            counters=primary.server_stats.as_dict(),
        )
