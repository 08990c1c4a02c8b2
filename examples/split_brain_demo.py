#!/usr/bin/env python3
"""Split-brain protection: witness leases, epoch fencing, partition chaos.

The failover demo's promote-on-connect hook assumed crash-stop: a primary
that disappears is dead.  A network *partition* leaves it alive -- still
serving its side of the cut while a failing-over client promotes the
standby on the other side.  Without protection that is split-brain: two
servers acknowledging mutations, state diverging, the losing side's
acked writes silently lost at heal.  This demo walks the protection:

1. a witness grants time-bounded leadership leases tagged with
   monotonically increasing epochs; the standby's promote hook must win
   epoch 2 from the witness and is refused while the primary's lease is
   live;
2. the primary is partitioned away from standby *and* witness while its
   clients can still reach it -- the divergence attempt.  Its lease
   expires, it cannot renew, and it self-fences: every mutation is shed
   with the typed, retryable ``RPC_NOT_LEADER`` while reads drain.  The
   client follows the reply-verf redirect to the standby, which wins
   epoch 2 once the stale lease lapses;
3. epochs ride the op-log: a standby that has seen a newer epoch refuses
   stale ships, and the demoted primary fences the moment its ship is
   rejected;
4. the nemesis simulator (the CI soak) re-runs the story once per cut
   shape: disjoint epochs, zero double executions, zero lost
   acknowledged writes, a provably fenced ex-primary.

Run:  python examples/split_brain_demo.py
(CHAOS_SEED=<n> varies the workload -- the CI soak loops over seeds.)
"""

from repro.cricket import CricketServer
from repro.cricket.client import CricketClient
from repro.cricket.replication import make_ha_pair, promote_with_witness
from repro.net.simclock import SimClock
from repro.oncrpc.errors import RpcNotLeaderError
from repro.resilience import (
    chaos_seeds,
    PartitionPlan,
    PartitionState,
    PartitionWindow,
)
from repro.resilience.failover import LoopbackEndpoint
from repro.resilience.retry import RetryPolicy
from repro.resilience.simulation import (
    PARTITION,
    PARTITION_SHAPES,
    NemesisEvent,
    SimulationPlan,
    run_simulation,
)

MiB = 1 << 20


def witness_gated_promotion() -> None:
    """The standby cannot promote while the primary's lease is live."""
    clock = SimClock()
    primary = CricketServer(clock=clock)
    standby = CricketServer(clock=clock)
    link, _endpoints = make_ha_pair(primary, standby, lease_s=0.25)

    client = CricketClient.loopback(primary)
    ptr = client.malloc(4 * MiB)
    client.memcpy_h2d(ptr, b"\xab" * 256)
    print(f"[lease]   witness granted epoch {link.witness.epoch} to "
          f"{link.witness.leader()!r}; {link.lag} ops lag after "
          f"{primary.server_stats.replication_ops_shipped} epoch-stamped ships")

    promote_with_witness(link, link.standby_fence)
    assert not standby.fencing.is_leader, "promoted under a live lease!"
    try:
        CricketClient.loopback(standby).malloc(4096)
    except RpcNotLeaderError as exc:
        print(f"[lease]   standby refused promotion (lease live) and sheds "
              f"mutations: RPC_NOT_LEADER epoch={exc.epoch} "
              f"hint={exc.leader_hint!r}")


def partition_and_self_fence() -> None:
    """The divergence attempt: primary keeps clients, loses witness+standby."""
    clock = SimClock()
    primary = CricketServer(clock=clock)
    standby = CricketServer(clock=clock)
    state = PartitionState(PartitionPlan(), clock)
    link, _ = make_ha_pair(
        primary, standby, lease_s=0.2,
        reachability=state.reachability("primary", "standby"),
    )
    link.witness.link_filter = state.link_filter()
    endpoints = [
        LoopbackEndpoint(primary, name="primary", link=state, client_name="c"),
        LoopbackEndpoint(
            standby, name="standby", link=state, client_name="c",
            on_connect=lambda _ep: promote_with_witness(link, link.standby_fence),
        ),
    ]
    client = CricketClient.failover(
        endpoints, clock=clock,
        retry_policy=RetryPolicy(max_attempts=24, deadline_s=None),
    )
    ptr = client.malloc(2 * MiB)
    client.memcpy_h2d(ptr, b"\x5a" * 256)

    # cut the primary (with its client) away from standby and witness
    now_s = clock.now_ns / 1e9
    state.plan = PartitionPlan(windows=(
        PartitionWindow(now_s, now_s + 1.0, groups=(("primary", "c"), ("standby", "witness"))),
    ))
    clock.advance_s(0.3)  # the primary's lease expires inside the cut

    ptr2 = client.malloc(1 * MiB)  # shed by the fenced primary, redirected
    assert standby.fencing.is_leader and standby.fencing.epoch == 2
    assert not primary.fencing.is_leader
    print(f"[fence]   primary self-fenced ({primary.fencing.fenced_reason!r}); "
          f"client followed {client.stats.leader_redirects} redirect(s) to the "
          f"standby at epoch {client.leader_epoch} (ptr2=0x{ptr2:x})")
    assert client.memcpy_d2h(ptr, 256) == b"\x5a" * 256  # acked write survived

    probe = CricketClient.loopback(primary)
    rejected = 0
    for _ in range(3):
        try:
            probe.malloc(4096)
        except RpcNotLeaderError:
            rejected += 1
    print(f"[fence]   demoted primary provably fenced: {rejected}/3 post-heal "
          f"mutations rejected, 0 executed "
          f"(sheds={primary.server_stats.fencing_not_leader_sheds})")


def stale_epoch_ship_rejected() -> None:
    """A ship stamped with a superseded epoch severs the link."""
    clock = SimClock()
    primary = CricketServer(clock=clock)
    standby = CricketServer(clock=clock)
    link, _ = make_ha_pair(primary, standby)
    client = CricketClient.loopback(primary)
    client.malloc(4096)

    standby.fencing.observe_epoch(7)  # a newer leader exists elsewhere
    client.malloc(4096)  # executes locally; the epoch-1 ship is refused
    assert not link.attached and not primary.fencing.is_leader
    print(f"[epoch]   standby rejected an epoch-1 ship "
          f"(rejections={standby.server_stats.fencing_stale_epoch_rejections}); "
          f"link severed, primary demoted to epoch {primary.fencing.epoch} -- "
          f"re-attach requires a fresh full sync")


def chaos_soak() -> None:
    """One simulated cut per shape; split-brain never happens."""
    seed = chaos_seeds(default=(2,))[0]
    for shape in PARTITION_SHAPES:
        cut = NemesisEvent(4.0, PARTITION, {"shape": shape, "duration_s": 0.8})
        result = run_simulation(SimulationPlan(seed=seed), schedule=[cut])
        assert result.clean and result.converged, result.violations
        served = result.epochs_served
        print(f"[soak]    seed={seed} {shape}: epochs primary{served['primary']}"
              f"+standby{served['standby']} disjoint, "
              f"leader={result.final_leader}@"
              f"{result.counters['server.fencing_epoch']}, "
              f"0 lost acked writes, 0 unaccounted bytes, "
              f"{result.client_counters['not_leader_rejections']} NOT_LEADER "
              f"sheds, non-leader fenced, clients converged")


def main() -> None:
    witness_gated_promotion()
    partition_and_self_fence()
    stale_epoch_ship_rejected()
    chaos_soak()
    print("[done]    at most one leader per epoch: partitions fence, "
          "they do not fork")


if __name__ == "__main__":
    main()
