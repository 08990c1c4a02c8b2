"""Deterministic cluster simulation: topology + workload + nemesis + oracle.

One virtual-time event loop drives everything: a pre-generated client
workload (mallocs, writes, readbacks, frees, checkpoints) interleaved
with a pre-generated nemesis schedule (partitions, primary kills, GPU
faults, limplocks, transport-fault storms, torn checkpoint storage,
drain/restore, live migration).  All randomness is drawn *before* the
run starts, from RNGs derived independently for the nemesis and the
workload streams, so

* a run is a pure function of ``(topology, workload, seed)`` -- two
  runs of one plan produce byte-identical normalized histories -- and
* substituting an arbitrary subsequence of the nemesis schedule (the
  shrinker's move) leaves the workload stream untouched.

The history recorder observes every client-edge operation and every
server-side handler execution; :func:`run_simulation` finishes by
healing all faults, converging the clients and handing the history to
the :class:`~repro.resilience.simulation.checker.HistoryChecker`, then
audits the live cluster (split-brain, stale leader, convergence and,
after a ``kill_client`` event, session leaks) without adding to the
history.  Every completed migration is audited the same way at cutover
(target state and reply cache must equal the source's).

Everything Cricket-flavored is imported inside the builder/run
functions, keeping this module importable from the resilience layer
without the Cricket stack (the chaos.py convention).
"""

from __future__ import annotations

import random
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.scaffold import advance_past_grace
from repro.resilience.simulation.checker import (
    MIGRATION_DIVERGENCE,
    NOT_CONVERGED,
    SESSION_LEAK,
    SPLIT_BRAIN,
    STALE_LEADER,
    HistoryChecker,
    Violation,
)
from repro.resilience.simulation.events import (
    BUG_DOUBLE_EXECUTE,
    DRAIN_RESTORE,
    GPU_FAULT,
    GPU_THROTTLE,
    KILL_CLIENT,
    KILL_PRIMARY,
    LIMP_ENDPOINT,
    MIGRATE,
    PARTITION,
    STORAGE_SLOW,
    STORAGE_TORN,
    TRANSPORT_FAULTS,
    NemesisEvent,
)
from repro.resilience.simulation.history import (
    OUTCOME_OK,
    HistoryEvent,
    HistoryRecorder,
    classify_outcome,
)
from repro.resilience.simulation.nemesis import generate_schedule

#: supported topologies
TOPOLOGIES = ("single", "ha_pair")

#: derivation constants separating the nemesis and workload RNG streams
_NEMESIS_STREAM = 0x4E656D65
_WORKLOAD_STREAM = 0x576F726B

#: mutating probes the stale-leader audit sends each live non-leader
_STALE_PROBES = 3

#: ``migrate`` fault params (none: the fault-free in-memory migration)
_MIGRATE_FAULTS = ("disconnect_before", "corrupt_sends", "kill_target", "torn_journal")


@dataclass(frozen=True)
class SimulationPlan:
    """Seeded description of one deterministic simulation run."""

    #: "single" (one server, operational events) or "ha_pair" (fenced
    #: primary/standby behind a witness, partition/kill events)
    topology: str = "ha_pair"
    #: master seed; nemesis and workload streams derive from it
    seed: int = 0
    #: concurrent workload clients
    clients: int = 2
    #: workload steps spread over the horizon
    steps: int = 60
    #: nemesis events drawn for the schedule
    nemesis_events: int = 6
    #: size of each allocation
    alloc_bytes: int = 4096
    #: virtual-seconds horizon the schedule and workload spread over
    horizon_s: float = 12.0
    #: witness lease (ha_pair only)
    lease_s: float = 0.2

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; pick one of {TOPOLOGIES}"
            )
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.steps < 1:
            raise ValueError("need at least one workload step")
        if self.horizon_s <= 0:
            raise ValueError("the horizon must be positive")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "topology": self.topology,
            "seed": self.seed,
            "clients": self.clients,
            "steps": self.steps,
            "nemesis_events": self.nemesis_events,
            "alloc_bytes": self.alloc_bytes,
            "horizon_s": self.horizon_s,
            "lease_s": self.lease_s,
        }

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "SimulationPlan":
        return cls(
            topology=str(data["topology"]),
            seed=int(data["seed"]),
            clients=int(data["clients"]),
            steps=int(data["steps"]),
            nemesis_events=int(data["nemesis_events"]),
            alloc_bytes=int(data["alloc_bytes"]),
            horizon_s=float(data["horizon_s"]),
            lease_s=float(data["lease_s"]),
        )


@dataclass
class SimulationResult:
    """Outcome of one simulation run: history, verdicts, accounting."""

    plan: SimulationPlan
    #: the nemesis schedule that actually ran (post-shrinking input)
    schedule: list[NemesisEvent]
    #: checker verdicts (empty = history is explainable by a correct GPU)
    violations: list[Violation]
    #: SHA-256 over the normalized history -- the bit-reproducibility handle
    fingerprint: str
    #: full recorded history (client edge + server edge + audit)
    events: list[HistoryEvent] = field(repr=False, default_factory=list)
    #: endpoint name of the live leader at the end ("" = nobody)
    final_leader: str = ""
    #: every client finished on the last fenced leader's endpoint at its
    #: epoch (that leader may since have been killed; see final_leader)
    converged: bool = True
    #: tally of client-edge outcomes by type ("ok", "busy", ...)
    outcomes: dict[str, int] = field(default_factory=dict)
    #: nemesis events applied, in firing order (kind strings)
    applied: list[str] = field(default_factory=list)
    #: final leader's ServerStats counters
    counters: dict[str, int] = field(default_factory=dict)
    #: ResilienceStats counters summed over every workload client
    client_counters: dict[str, int] = field(default_factory=dict)
    #: per fenced server: epochs it executed mutations under (ha_pair)
    epochs_served: dict[str, list[int]] = field(default_factory=dict)
    #: connectivity checks the partition oracle blocked (ha_pair)
    links_blocked: int = 0
    #: one MigrationReport per completed ``migrate`` event, in order
    migrations: list[Any] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def violation_kinds(self) -> tuple[str, ...]:
        return tuple(sorted({v.kind for v in self.violations}))


class _Cluster:
    """Handles to one built topology plus the nemesis appliers."""

    def __init__(self, plan: SimulationPlan, recorder: HistoryRecorder, clock):
        self.plan = plan
        self.recorder = recorder
        self.clock = clock
        self.clients: list[Any] = []
        self.client_names: list[str] = []
        #: per client: innermost LoopbackEndpoints (for server swaps)
        self.loopbacks: dict[str, list[Any]] = {}
        #: per client: FaultyEndpoint wrappers (transport-fault windows)
        self.faulty: dict[str, list[Any]] = {}
        #: per client: SlowEndpoint wrappers (limplock windows)
        self.slow: dict[str, list[Any]] = {}
        self.servers: dict[str, Any] = {}
        self.state = None  # PartitionState (ha_pair)
        self.witness = None
        self.fences: dict[str, Any] = {}
        self.link = None
        self.store = None  # CheckpointStore over FaultyStorage
        self.store_faults = None  # the FaultyStorage wrapper
        #: (heal_at_s, wrapper-kind, client) for open windowed faults
        self.pending_heals: list[tuple[float, str, str]] = []
        self.checkpoints_taken = 0
        self.checkpoint_failures = 0
        #: MigrationReports of completed migrations
        self.migrations: list[Any] = []
        #: end-of-migration audit findings (no history event)
        self.migration_violations: list[Violation] = []
        #: indices of killed workload clients (they issue no more calls)
        self.killed: set[int] = set()

    # -- leadership ---------------------------------------------------------

    def leader(self) -> tuple[str, Any]:
        """Name and server of the node currently accepting mutations."""
        if self.plan.topology == "single":
            return "server", self.servers["server"]
        for name in ("standby", "primary"):
            fence = self.fences.get(name)
            if fence is not None and fence.is_leader:
                return name, self.servers[name]
        return "", self.servers["primary"]

    # -- end-of-run fence audits ---------------------------------------------

    def fence_violations(self, leader: str, index: int) -> list[Violation]:
        """Split-brain and stale-leader audits of the fenced servers.

        Run after the history is sealed: a fence that works sheds every
        probe before the handler (and with it the execution tap) runs,
        so a clean run's history and fingerprint are untouched.
        """
        from repro.oncrpc import message as msg

        if not self.fences:
            return []
        violations = []
        shared = sorted(
            self.fences["primary"].epochs_served
            & self.fences["standby"].epochs_served
        )
        if shared:
            violations.append(Violation(
                kind=SPLIT_BRAIN,
                detail=f"primary and standby both executed mutations "
                       f"under epoch(s) {shared}",
                node="witness",
                index=index,
            ))
        for name, server in self.servers.items():
            if name == leader or server.killed:
                continue
            interface = server.interface
            malloc = interface.signatures["rpc_cudaMalloc"]
            probe = msg.RpcMessage(0x57A1E, msg.CallBody(
                interface.prog_number, interface.vers_number, malloc.number,
                args=malloc.encode_args((self.plan.alloc_bytes,)),
            )).encode()
            used = _used_bytes(server)
            refused = 0
            for _ in range(_STALE_PROBES):
                body = msg.RpcMessage.decode(
                    server.dispatch_record(probe, client_id="stale-probe")
                ).body
                if (
                    isinstance(body, msg.AcceptedReply)
                    and body.stat == msg.RPC_NOT_LEADER
                ):
                    refused += 1
            if refused != _STALE_PROBES or _used_bytes(server) != used:
                violations.append(Violation(
                    kind=STALE_LEADER,
                    detail=f"non-leader {name} refused {refused}/"
                           f"{_STALE_PROBES} mutating probes; allocator "
                           f"{used} -> {_used_bytes(server)} bytes",
                    node=name,
                    index=index,
                ))
        return violations

    def session_leak_violations(self, leader: str, index: int) -> list[Violation]:
        """Session-leak audit of the live leader after client kills.

        Virtual time marches past one session lease + grace; at every
        step the live clients heartbeat and the reaper runs (it needs
        one pass to orphan a lapsed session and a later one to reclaim
        it).  Then every killed identity must own nothing, every live
        client must own what it did before, and the allocator must hold
        exactly the live clients' bytes.  Run after the history is
        sealed, like the fence audits.
        """
        from repro.cuda.errors import CudaError
        from repro.oncrpc.errors import RpcError

        server = self.servers[leader]
        owned = server.bytes_owned_by
        live = [c for i, c in enumerate(self.clients) if i not in self.killed]
        before = {c.session_identity: owned(c.session_identity) for c in live}

        def tick() -> None:
            for client in live:
                try:
                    client.renew_lease()
                except (RpcError, CudaError):
                    pass  # a survivor whose session lapses shows up below
            server.reap_sessions()

        lease_s = _session_lease_s(self.plan)
        advance_past_grace(self.clock, lease_s, lease_s, on_tick=tick)
        leaked = {
            self.client_names[i]: owned(self.clients[i].session_identity)
            for i in sorted(self.killed)
        }
        problems = [f"killed {name} still owns {n} bytes" for name, n in leaked.items() if n]
        changed = sorted(identity for identity, n in before.items() if owned(identity) != n)
        if changed:
            problems.append(f"live sessions {changed} changed their bytes")
        live_bytes = sum(map(owned, before))
        if _used_bytes(server) != live_bytes:
            problems.append(
                f"allocator holds {_used_bytes(server)} bytes, live clients own {live_bytes}"
            )
        return [
            Violation(kind=SESSION_LEAK, detail="; ".join(problems), node=leader, index=index)
        ] if problems else []

    # -- nemesis appliers ---------------------------------------------------

    def apply(self, event: NemesisEvent) -> None:
        handler = {
            PARTITION: self._apply_partition,
            KILL_PRIMARY: self._apply_kill_primary,
            GPU_FAULT: self._apply_gpu_fault,
            GPU_THROTTLE: self._apply_gpu_throttle,
            TRANSPORT_FAULTS: self._apply_transport_faults,
            LIMP_ENDPOINT: self._apply_limp,
            STORAGE_TORN: self._apply_storage_torn,
            STORAGE_SLOW: self._apply_storage_slow,
            DRAIN_RESTORE: self._apply_drain_restore,
            MIGRATE: self._apply_migrate,
            BUG_DOUBLE_EXECUTE: self._apply_bug_double_execute,
            KILL_CLIENT: self._apply_kill_client,
        }[event.kind]
        handler(event)

    def _apply_partition(self, event: NemesisEvent) -> None:
        from repro.resilience.faults import PartitionPlan, PartitionWindow

        if self.state is None:
            return
        shape = event.params.get("shape", "primary_isolated")
        duration = float(event.params.get("duration_s", 1.0))
        groups = {
            "primary_isolated": (("primary",),),
            "standby_isolated": (("standby",),),
            "witness_isolated": (("witness",),),
            "heal_divergence": (
                ("primary", *self.client_names),
                ("standby", "witness"),
            ),
        }[shape]
        now_s = self.clock.now_ns / 1e9
        window = PartitionWindow(
            start_s=now_s, end_s=now_s + duration, groups=groups
        )
        self.state.plan = PartitionPlan(windows=(window,))
        # the operator's post-heal move: re-attach a link the go-solo
        # path detached during the cut (full sync, then resume shipping)
        self.pending_heals.append((window.end_s, "relink", ""))
        self.pending_heals.sort(key=lambda entry: entry[0])
        # march into the window far enough for the lease to expire while
        # the cut is open -- the moment the fencing machinery must act
        self.clock.advance_s(min(self.plan.lease_s * 1.5, duration / 2))

    def _apply_kill_primary(self, event: NemesisEvent) -> None:
        if self.plan.topology == "single":
            return
        name, server = self.leader()
        if not name or server.killed:
            return
        live = [c for i, c in enumerate(self.client_names) if i not in self.killed]
        if event.params.get("dangerous") and live:
            # Crash after executing (and replicating) a live client's next
            # call but before its reply leaves -- the at-most-once worst case.
            slot = 0 if name == "primary" else 1
            self.loopbacks[live[0]][slot].kill_after_next_execute()
        else:
            server.kill()

    def _apply_gpu_fault(self, event: NemesisEvent) -> None:
        _, server = self.leader()
        if server.killed:
            return
        server.inject_device_fault(0, event.params.get("fault", "ecc"))
        try:
            server.failover_device(0)
        except RuntimeError:
            # No healthy spare this time; the sticky fault stays and the
            # workload sees CUDA errors -- typed failures, not violations.
            pass

    def _apply_gpu_throttle(self, event: NemesisEvent) -> None:
        _, server = self.leader()
        if server.killed:
            return
        severity = float(event.params.get("severity", 4.0))
        server.devices[0].inject_soft_fault("throttle", severity)
        try:
            server.failover_device(0)
        except RuntimeError:
            pass

    def _windowed(self, event: NemesisEvent, wrappers: dict, label: str) -> None:
        client = f"client{int(event.params.get('client', 0)) % self.plan.clients}"
        duration = float(event.params.get("duration_s", 0.5))
        for wrapper in wrappers[client]:
            wrapper.set_active(True)
        self.pending_heals.append(
            (self.clock.now_ns / 1e9 + duration, label, client)
        )
        self.pending_heals.sort(key=lambda entry: entry[0])

    def _apply_transport_faults(self, event: NemesisEvent) -> None:
        self._windowed(event, self.faulty, "faulty")

    def _apply_limp(self, event: NemesisEvent) -> None:
        self._windowed(event, self.slow, "slow")

    def heal_due(self, now_s: float) -> None:
        """Close windowed faults (and run post-heal moves) now due."""
        while self.pending_heals and self.pending_heals[0][0] <= now_s:
            _, label, client = self.pending_heals.pop(0)
            if label == "relink":
                self._relink()
                continue
            wrappers = self.faulty if label == "faulty" else self.slow
            for wrapper in wrappers[client]:
                wrapper.set_active(False)

    def _relink(self) -> None:
        """Re-attach a detached, unpromoted replication link post-heal.

        Only when the original primary still leads and both processes
        are alive: after a promotion the demoted ex-primary stays
        fenced and solo (re-seeding it as a standby of the new leader
        is an operation this harness deliberately does not model).
        """
        link = self.link
        if link is None or link.attached or link.promoted:
            return
        primary_fence = self.fences.get("primary")
        if primary_fence is None or not primary_fence.is_leader:
            return
        if self.servers["primary"].killed or self.servers["standby"].killed:
            return
        if not link.reachable():
            return
        link.attach()

    def heal_all(self) -> None:
        """End-of-run: close every open fault so convergence can happen."""
        from repro.resilience.faults import PartitionPlan

        for _, label, client in self.pending_heals:
            if label == "relink":
                continue
            wrappers = self.faulty if label == "faulty" else self.slow
            for wrapper in wrappers[client]:
                wrapper.set_active(False)
        self.pending_heals.clear()
        if self.state is not None:
            self.state.plan = PartitionPlan()
        self._relink()

    def _apply_storage_torn(self, event: NemesisEvent) -> None:
        if self.store_faults is not None:
            self.store_faults._torn_left += int(event.params.get("count", 1))

    def _apply_storage_slow(self, event: NemesisEvent) -> None:
        from dataclasses import replace

        if self.store_faults is None:
            return
        delay = float(event.params.get("delay_s", 0.1))
        self.store_faults.plan = replace(
            self.store_faults.plan, slow_fsync_s=delay
        )
        self.store_faults._slow_left += int(event.params.get("count", 1))

    def _apply_bug_double_execute(self, event: NemesisEvent) -> None:
        _, server = self.leader()
        server.arm_double_execution(int(event.params.get("count", 1)))

    def _apply_kill_client(self, event: NemesisEvent) -> None:
        self.killed.add(int(event.params.get("client", 0)) % self.plan.clients)

    # -- operational events (single topology) --------------------------------

    def _swap_server(self, new_server) -> None:
        old = self.servers["server"]
        self.servers["server"] = new_server
        new_server.execution_taps.append(self.recorder.execution_tap("server"))
        if self.store is not None:
            new_server.attach_checkpoint_health(self.store.write_latency)
        for name in self.client_names:
            for loopback in self.loopbacks[name]:
                loopback.server = new_server
        if not old.killed:
            old.kill()

    def _apply_drain_restore(self, event: NemesisEvent) -> None:
        from repro.cricket.checkpoint import restore_server

        old = self.servers["server"]
        if old.killed:
            return
        old.shutdown(drain=True)
        blob = old.drain_checkpoint
        new_server = _make_server(self.clock, self.plan)
        if blob is not None:
            restore_server(new_server, blob)
        self._swap_server(new_server)

    def _apply_migrate(self, event: NemesisEvent) -> None:
        """Live-migrate the server to a fresh process via ``migrate_live``.

        Any fault param (:data:`_MIGRATE_FAULTS`, documented in
        ARCHITECTURE §13) puts the migration on journal storage.
        """
        from repro.cricket.ckptstore import FileStorage
        from repro.cricket.migration import (
            FaultyMigrationChannel,
            LoopbackMigrationChannel,
            MigrationSource,
            MigrationTarget,
            migrate_live,
        )
        from repro.resilience.faults import FaultyStorage, StorageFaultPlan

        old = self.servers["server"]
        if old.killed:
            return
        params = event.params
        faulted = any(key in params for key in _MIGRATE_FAULTS)
        scratch = tempfile.TemporaryDirectory(prefix="sim-mig-") if faulted else nullcontext()
        with scratch as tmpdir:
            journal = FaultyStorage(FileStorage(tmpdir), StorageFaultPlan(
                torn_write_next=int(params.get("torn_journal", 0)), seed=self.plan.seed,
            )) if faulted else None
            source = MigrationSource(old)
            target = MigrationTarget(_make_server(self.clock, self.plan), storage=journal)
            channel = None
            if faulted:
                channel = _TargetKillChannel(
                    FaultyMigrationChannel(
                        LoopbackMigrationChannel(target),
                        disconnect_before=params.get("disconnect_before"),
                        corrupt_sends=params.get("corrupt_sends"),
                    ),
                    target,
                    params.get("kill_target", ()),
                )
            try:
                report = migrate_live(source, target, channel)
            except Exception:
                # A doomed migration aborts; the source resumes serving.
                old.resume_serving()
                return
        self._audit_migration(old, target.server)
        self.migrations.append(report)
        self._swap_server(target.server)

    def _audit_migration(self, source, target) -> None:
        """At cutover the target must hold exactly the source's state."""
        from repro.cricket.replication import state_fingerprint

        if (
            state_fingerprint(target) != state_fingerprint(source)
            or target._reply_cache != source._reply_cache
        ):
            self.migration_violations.append(Violation(
                kind=MIGRATION_DIVERGENCE,
                detail="migrated state or reply cache differs from the "
                       "source's at cutover",
                node="server",
                index=len(self.recorder.events) - 1,
            ))


class _TargetKillChannel:
    """Kills the target before each ``kill_before`` send ordinal.

    Ordinals share the wrapped :class:`FaultyMigrationChannel`'s send
    count.  ``recover()`` drops the target's staging and replays its
    journal; the send then fails like a disconnect, so ``migrate_live``
    resumes from the recovered cursor.
    """

    def __init__(self, inner, target, kill_before) -> None:
        self.inner = inner
        self.target = target
        self.kill_before = set(kill_before)

    def send(self, blob: bytes) -> int:
        ordinal = self.inner.sends + 1
        if ordinal not in self.kill_before:
            return self.inner.send(blob)
        from repro.cricket.errors import MigrationChannelError

        self.kill_before.discard(ordinal)
        self.inner.sends = ordinal
        self.target.recover()
        raise MigrationChannelError(f"target killed before send {ordinal}")


def _used_bytes(server) -> int:
    return sum(d.allocator.used_bytes for d in server.devices)


def _session_lease_s(plan: SimulationPlan) -> float:
    """Session lease, and grace, of every simulated server.

    Twice the horizon, so no live client's session lapses mid-run (the
    grace too: a transport disconnect orphans a session at once) while
    the session-leak audit can still march past both.
    """
    return 2 * plan.horizon_s


def _make_server(clock, plan: SimulationPlan):
    from repro.cricket.server import CricketServer
    from repro.gpu.catalog import A100
    from repro.gpu.device import GpuDevice
    from repro.resilience.health import LatencySLO

    lease_s = _session_lease_s(plan)
    return CricketServer(
        [GpuDevice(A100, execute=True), GpuDevice(A100, execute=True)],
        clock=clock,
        brownout=True,
        checkpoint_slo=LatencySLO(target_p99_ns=int(50e6), min_samples=4),
        lease_s=lease_s,
        grace_s=lease_s,
    )


def _build_cluster(
    plan: SimulationPlan, recorder: HistoryRecorder, clock, ckpt_dir: str
) -> _Cluster:
    from repro.cricket.ckptstore import CheckpointStore, FileStorage
    from repro.cricket.client import CricketClient
    from repro.cricket.replication import (
        ReplicationLink,
        mutating_proc_numbers,
        promote_with_witness,
    )
    from repro.cricket.witness import LeadershipFence, Witness
    from repro.oncrpc.auth import client_token_auth
    from repro.resilience.failover import LoopbackEndpoint
    from repro.resilience.faults import (
        FaultPlan,
        FaultyEndpoint,
        FaultyStorage,
        PartitionPlan,
        PartitionState,
        SlowEndpoint,
        SlowFaultPlan,
        StorageFaultPlan,
    )
    from repro.resilience.retry import RetryPolicy

    cluster = _Cluster(plan, recorder, clock)
    cluster.client_names = [f"client{i}" for i in range(plan.clients)]
    retry = RetryPolicy(max_attempts=30, deadline_s=None)

    if plan.topology == "ha_pair":
        primary = _make_server(clock, plan)
        standby = _make_server(clock, plan)
        witness = Witness(clock, lease_s=plan.lease_s)
        state = PartitionState(PartitionPlan(), clock)
        witness.link_filter = state.link_filter()
        mutating = mutating_proc_numbers(primary.interface)
        primary_fence = LeadershipFence(
            primary, witness, name="primary",
            mutating_procs=mutating, peer_hint="standby",
        )
        standby_fence = LeadershipFence(
            standby, witness, name="standby",
            mutating_procs=mutating, peer_hint="primary",
        )
        primary_fence.lead()  # epoch 1
        link = ReplicationLink(
            primary, standby,
            reachability=state.reachability("primary", "standby"),
        )
        primary_fence.link = link
        cluster.servers = {"primary": primary, "standby": standby}
        cluster.state = state
        cluster.witness = witness
        cluster.fences = {"primary": primary_fence, "standby": standby_fence}
        cluster.link = link
        primary.execution_taps.append(recorder.execution_tap("primary"))
        standby.execution_taps.append(recorder.execution_tap("standby"))
        # Crash evidence for the checker: fires inside kill(), i.e. after
        # the doomed server's last execution and before failover traffic,
        # so uncovered acks are forgiven at exactly the right point.
        primary.on_kill = lambda: recorder.crash("primary")
        standby.on_kill = lambda: recorder.crash("standby")
        store_server = primary
        server_names = ("primary", "standby")
    else:
        server = _make_server(clock, plan)
        cluster.servers = {"server": server}
        server.execution_taps.append(recorder.execution_tap("server"))
        store_server = server
        server_names = ("server",)

    # checkpoint store behind injectable storage (torn / slow-fsync events)
    faulty_storage = FaultyStorage(
        FileStorage(ckpt_dir),
        StorageFaultPlan(seed=plan.seed),
        clock=clock,
    )
    store = CheckpointStore(
        storage=faulty_storage, clock=clock, stats=store_server.server_stats
    )
    store_server.attach_checkpoint_health(store.write_latency)
    cluster.store = store
    cluster.store_faults = faulty_storage

    for index, cname in enumerate(cluster.client_names):
        loopbacks = []
        faulty_eps = []
        slow_eps = []
        endpoints = []
        for sname in server_names:
            on_connect = None
            if plan.topology == "ha_pair" and sname == "standby":
                def on_connect(
                    _ep,
                    _link=cluster.link,
                    _fence=cluster.fences["standby"],
                ):
                    promote_with_witness(_link, _fence)
            loopback = LoopbackEndpoint(
                cluster.servers[sname],
                name=sname,
                link=cluster.state,
                client_name=cname,
                on_connect=on_connect,
            )
            loopbacks.append(loopback)
            slow = SlowEndpoint(
                loopback,
                SlowFaultPlan(
                    base_delay_s=0.005,
                    jitter_s=0.002,
                    seed=plan.seed * 1000 + index,
                ),
                clock=clock,
                active=False,
            )
            slow_eps.append(slow)
            faulty = FaultyEndpoint(
                slow,
                FaultPlan(
                    drop_request_rate=0.2,
                    drop_reply_rate=0.2,
                    disconnect_rate=0.1,
                    duplicate_rate=0.1,
                    seed=plan.seed * 1000 + 500 + index,
                ),
                clock=clock,
                active=False,
            )
            faulty_eps.append(faulty)
            endpoints.append(faulty)
        client = CricketClient.failover(
            endpoints, clock=clock, retry_policy=retry
        )
        # Stable identity: the auto-generated uuid token would leak
        # process randomness into the server-edge history.
        client.stub.client.cred = client_token_auth(cname.encode())
        recorder.bind_identity(f"token:{cname.encode().hex()}", cname)
        cluster.clients.append(client)
        cluster.loopbacks[cname] = loopbacks
        cluster.faulty[cname] = faulty_eps
        cluster.slow[cname] = slow_eps
    return cluster


# -- the run ------------------------------------------------------------------


def run_simulation(
    plan: SimulationPlan, schedule: list[NemesisEvent] | None = None
) -> SimulationResult:
    """Execute one deterministic simulation run.

    With ``schedule=None`` the nemesis schedule is generated from the
    plan's seed; passing an explicit schedule (the shrinker does) reuses
    the identical workload stream, because the workload RNG derives from
    the seed independently of the nemesis draws.
    """
    # The checkpoint store's directory lives exactly as long as the run.
    with tempfile.TemporaryDirectory(prefix="sim-ckpt-") as ckpt_dir:
        return _run(plan, schedule, ckpt_dir)


def _run(
    plan: SimulationPlan, schedule: list[NemesisEvent] | None, ckpt_dir: str
) -> SimulationResult:
    from repro.net.simclock import SimClock

    nemesis_rng = random.Random((plan.seed << 4) ^ _NEMESIS_STREAM)
    workload_rng = random.Random((plan.seed << 4) ^ _WORKLOAD_STREAM)
    if schedule is None:
        schedule = generate_schedule(
            nemesis_rng,
            topology=plan.topology,
            events=plan.nemesis_events,
            clients=plan.clients,
            horizon_s=plan.horizon_s,
        )

    gap = plan.horizon_s / (plan.steps + 1)
    workload = [
        (
            round((i + 1) * gap, 9),
            workload_rng.randrange(plan.clients),
            workload_rng.random(),
            workload_rng.random(),
        )
        for i in range(plan.steps)
    ]

    clock = SimClock()
    recorder = HistoryRecorder(clock)
    cluster = _build_cluster(plan, recorder, clock, ckpt_dir)

    outcomes: dict[str, int] = {}
    applied: list[str] = []
    #: per-client view of live pointers (ptr -> last intended payload)
    views: list[dict[int, bytes]] = [dict() for _ in range(plan.clients)]
    pattern = 0

    def tally(outcome: str) -> None:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def epoch_of(client) -> int | None:
        try:
            value = client.leader_epoch
        except Exception:
            return None
        return int(value) if value else None

    def traced(cname: str, client, op: str, fn, **args):
        """Run one semantic op under history recording.

        Returns the op's value on success (``True`` for ``None``-valued
        successes) and ``None`` on any recorded failure.
        """
        op_id = recorder.invoke(cname, op, **args)
        rpc = client.stub.client
        # An ambiguous *attempt* (lost reply: the call may have executed)
        # can be followed by a typed refusal from a later attempt; the
        # final exception alone would then claim "provably not executed".
        # Track per-attempt ambiguity so the recorded event stays honest.
        attempt_ambiguous = False

        def on_attempt(_xid: int, _proc: int, exc: BaseException) -> None:
            nonlocal attempt_ambiguous
            if classify_outcome(exc)[1]:
                attempt_ambiguous = True

        rpc.attempt_observer = on_attempt
        try:
            value = fn()
        except Exception as exc:
            outcome, ambiguous = classify_outcome(exc)
            recorder.complete(
                op_id, cname, op, outcome,
                xid=rpc.last_xid,
                ambiguous=ambiguous or attempt_ambiguous,
                epoch=epoch_of(client),
            )
            tally(outcome)
            return None
        finally:
            rpc.attempt_observer = None
        recorder.complete(
            op_id, cname, op, OUTCOME_OK,
            xid=rpc.last_xid,
            value=value.hex() if isinstance(value, (bytes, bytearray)) else value,
            epoch=epoch_of(client),
        )
        tally(OUTCOME_OK)
        return value if value is not None else True

    def do_write(index: int) -> None:
        nonlocal pattern
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        pattern = (pattern + 1) % 255
        payload = bytes([pattern + 1]) * min(plan.alloc_bytes, 256)
        ptr = traced(
            cname, client, "malloc",
            lambda: client.malloc(plan.alloc_bytes), size=plan.alloc_bytes,
        )
        if not isinstance(ptr, int):
            return
        views[index][ptr] = payload
        traced(
            cname, client, "h2d",
            lambda: client.memcpy_h2d(ptr, payload),
            ptr=ptr, data=payload.hex(),
        )

    def do_read(index: int, pick: float) -> None:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        ptrs = sorted(views[index])
        if not ptrs:
            do_write(index)
            return
        ptr = ptrs[int(pick * len(ptrs)) % len(ptrs)]
        size = min(plan.alloc_bytes, 256)
        traced(
            cname, client, "d2h",
            lambda: client.memcpy_d2h(ptr, size),
            ptr=ptr, size=size,
        )

    def do_free(index: int, pick: float) -> None:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        ptrs = sorted(views[index])
        if len(ptrs) < 2:
            do_write(index)
            return
        ptr = ptrs[int(pick * len(ptrs)) % len(ptrs)]
        result = traced(
            cname, client, "free", lambda: client.free(ptr), ptr=ptr
        )
        # Freed (ok) or maybe-freed (ambiguous): the workload must stop
        # touching the pointer -- the model moved it to limbo.  A typed
        # refusal provably did not free, so the pointer stays eligible.
        if result is not None or recorder.events[-1].ambiguous:
            views[index].pop(ptr, None)

    def do_checkpoint() -> None:
        name, server = cluster.leader()
        if not name or server.killed:
            return
        cluster.checkpoints_taken += 1
        try:
            cluster.store.save(server)
        except Exception:
            cluster.checkpoint_failures += 1

    def do_ping(index: int) -> None:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        traced(cname, client, "ping", lambda: client.ping())

    def run_step(index: int, op_r: float, pick_r: float) -> None:
        if op_r < 0.50:
            do_write(index)
        elif op_r < 0.75:
            do_read(index, pick_r)
        elif op_r < 0.87:
            do_free(index, pick_r)
        elif op_r < 0.93:
            do_checkpoint()
        else:
            do_ping(index)

    # -- merged virtual-time loop -------------------------------------------

    timeline: list[tuple[float, int, int, Any]] = []
    for seq, event in enumerate(schedule):
        timeline.append((event.at_s, 0, seq, event))
    for seq, step in enumerate(workload):
        timeline.append((step[0], 1, seq, step))
    # Nemesis events fire before workload steps at equal timestamps; the
    # (at_s, source, seq) key keeps the merge total and deterministic.
    timeline.sort(key=lambda entry: (entry[0], entry[1], entry[2]))

    for at_s, source, _, payload in timeline:
        target_ns = int(at_s * 1e9)
        if clock.now_ns < target_ns:
            clock.advance_to_ns(target_ns)
        cluster.heal_due(clock.now_ns / 1e9)
        if source == 0:
            applied.append(payload.kind)
            cluster.apply(payload)
        else:
            _, index, op_r, pick_r = payload
            if index not in cluster.killed:
                run_step(index, op_r, pick_r)

    # -- heal, converge, audit ----------------------------------------------

    cluster.heal_all()
    clock.advance_s(max(plan.lease_s * 2, 0.5))

    # Killed clients make no more calls: no converging write, no final read.
    live = [i for i in range(plan.clients) if i not in cluster.killed]
    # one converging write per client forces failover/reconnect to settle
    for index in live:
        do_write(index)

    final_name, final_server = cluster.leader()
    converged = bool(final_name)
    if plan.topology == "ha_pair" and final_name:
        fence = cluster.fences[final_name]
        converged = all(
            cluster.clients[i].leader_epoch == fence.epoch
            and cluster.clients[i].active_endpoint_name == final_name
            for i in live
        )
    # A killed server keeps its fence state; only a live one still leads.
    leader = "" if final_server.killed else final_name

    # Final read of every pointer each client still believes live: the
    # checker's read-your-writes property needs the evidence.
    for index in live:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        size = min(plan.alloc_bytes, 256)
        for ptr in sorted(views[index]):
            traced(
                cname, client, "d2h",
                lambda p=ptr: client.memcpy_d2h(p, size),
                ptr=ptr, size=size,
            )

    recorder.audit(final_name or "server", _used_bytes(final_server))

    violations = HistoryChecker().check(recorder.events)
    violations += cluster.migration_violations
    events = list(recorder.events)
    fingerprint = recorder.fingerprint()

    # Cluster audits run on the sealed history: probes cannot move it.
    if cluster.killed and leader:
        violations += cluster.session_leak_violations(leader, len(events) - 1)
    counters = final_server.server_stats.as_dict()
    epochs_served = {
        name: sorted(fence.epochs_served)
        for name, fence in cluster.fences.items()
    }
    violations += cluster.fence_violations(leader, len(events) - 1)
    if leader and not converged:
        violations.append(Violation(
            kind=NOT_CONVERGED,
            detail=f"a client did not end on live leader {leader}",
            node=leader,
            index=len(events) - 1,
        ))

    client_counters: dict[str, int] = {}
    for client in cluster.clients:
        for key, value in client.stats.as_dict().items():
            client_counters[key] = client_counters.get(key, 0) + value
    return SimulationResult(
        plan=plan,
        schedule=list(schedule),
        violations=violations,
        fingerprint=fingerprint,
        events=events,
        final_leader=leader,
        converged=converged,
        outcomes=outcomes,
        applied=applied,
        counters=counters,
        client_counters=client_counters,
        epochs_served=epochs_served,
        links_blocked=cluster.state.blocked if cluster.state else 0,
        migrations=cluster.migrations,
    )
