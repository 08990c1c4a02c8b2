#!/usr/bin/env python3
"""High availability: hot-standby replication and transparent failover.

A single Cricket server is a single point of failure for every unikernel
whose GPU lives behind it.  This demo shows the HA layer absorbing the
failures the paper's deployment model must survive:

1. a primary ships every state-mutating RPC to a hot standby (full
   checkpoint seed + sequence-numbered op-log); fingerprints prove the
   two servers are state-identical while clients work;
2. the primary is killed *after executing but before answering* a
   ``cudaMalloc`` -- the worst window for at-most-once -- and the client
   transparently fails over; the standby answers the retransmission from
   its replicated reply cache, so the malloc happens exactly once;
3. a sticky ECC fault poisons a GPU: every CUDA call on it keeps failing
   with the same error until the server fails the workload over to a
   healthy spare device -- same pointers, same handles, same data;
4. the nemesis simulator (the CI soak) re-runs the whole story end to
   end against its history checker: zero lost allocations, zero double
   executions.

Run:  python examples/failover_demo.py
(CHAOS_SEED=<n> varies the workload and kill mode -- the CI soak loops
over seeds.)
"""

from repro.cricket import CricketServer
from repro.cricket.client import CricketClient
from repro.cricket.replication import make_ha_pair, state_fingerprint
from repro.cuda.errors import CudaError
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice
from repro.net.simclock import SimClock
from repro.resilience import chaos_seeds
from repro.resilience.retry import RetryPolicy
from repro.resilience.simulation import (
    GPU_FAULT,
    KILL_PRIMARY,
    NemesisEvent,
    SimulationPlan,
    run_simulation,
)

MiB = 1 << 20


def replication_and_failover() -> None:
    """Primary dies in the dangerous window; at-most-once survives."""
    primary = CricketServer(clock=SimClock())
    standby = CricketServer(clock=SimClock())
    link, endpoints = make_ha_pair(primary, standby, unfenced=True)
    client = CricketClient.failover(endpoints, retry_policy=RetryPolicy(max_attempts=8))

    ptr = client.malloc(4 * MiB)
    client.memcpy_h2d(ptr, b"\xab" * 256)
    print(f"[ha]      replicated {primary.server_stats.replication_ops_shipped} ops, "
          f"lag={link.lag}; fingerprints match: "
          f"{state_fingerprint(primary) == state_fingerprint(standby)}")

    # Crash after executing (and replicating) the next malloc, before the
    # reply leaves -- the client must retransmit to whoever answers.
    endpoints[0].kill_after_next_execute()
    ptr2 = client.malloc(2 * MiB)
    assert client.stats.failovers == 1
    assert standby.server_stats.standby_promotions == 1
    assert standby.server_stats.reply_cache_hits >= 1, "retransmit re-executed!"
    used = standby.device.allocator.used_bytes
    assert used == 6 * MiB, f"double execution: {used} bytes"
    assert client.memcpy_d2h(ptr, 256) == b"\xab" * 256
    print(f"[ha]      primary died before replying; failover -> standby, "
          f"retransmitted malloc answered from replicated cache "
          f"(ptr2=0x{ptr2:x}, used={used // MiB} MiB: exactly once)")


def sticky_device_fault() -> None:
    """ECC fault sticks until the workload moves to a spare device."""
    server = CricketServer([GpuDevice(A100), GpuDevice(A100)], clock=SimClock())
    client = CricketClient.loopback(server)
    ptr = client.malloc(1 * MiB)
    client.memcpy_h2d(ptr, b"\x5a" * 256)

    server.inject_device_fault(0, "ecc")
    failures = 0
    for _ in range(3):  # sticky: every attempt fails the same way
        try:
            client.device_synchronize()
        except CudaError as exc:
            failures += 1
            code = exc.code
    assert failures == 3
    print(f"[gpu]     ECC fault is sticky: 3/3 calls failed with code {code}")

    spare = server.failover_device(0)
    client.device_synchronize()  # healthy again
    assert client.memcpy_d2h(ptr, 256) == b"\x5a" * 256
    print(f"[gpu]     workload failed over to spare device {spare}: same "
          f"pointer, same bytes, device healthy "
          f"(device_failovers={server.server_stats.device_failovers})")


def chaos_soak() -> None:
    """Seeded primary kill + GPU poison in the simulator; nothing lost or doubled."""
    seed = chaos_seeds(default=(2,))[0]
    dangerous = seed % 2 == 0
    schedule = [
        NemesisEvent(4.0, KILL_PRIMARY, {"dangerous": dangerous}),
        NemesisEvent(7.0, GPU_FAULT, {"fault": "ecc"}),
    ]
    result = run_simulation(SimulationPlan(seed=seed), schedule=schedule)
    assert result.clean, result.violations
    assert result.counters["server.standby_promotions"] == 1
    window = "after-execute-before-reply" if dangerous else "immediate"
    print(f"[soak]    seed={seed}: primary killed at 4 s ({window}), promoted "
          f"standby's GPU poisoned at 7 s; "
          f"{result.client_counters['failovers']} client failovers, "
          f"{result.counters['server.reply_cache_hits']} cache-answered "
          f"retransmits, {result.counters['server.device_failovers']} device "
          f"failover; checker: 0 lost allocations, 0 double executions "
          f"over {result.outcomes.get('ok', 0)} ops")


def main() -> None:
    replication_and_failover()
    sticky_device_fault()
    chaos_soak()
    print("[done]    high availability holds: exactly-once effects across "
          "server death and GPU faults")


if __name__ == "__main__":
    main()
