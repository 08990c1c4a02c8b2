#!/usr/bin/env python3
"""Session lifecycle: leases, orphan reclamation, admission control, drain.

A Cricket server is a multi-tenant resource: unikernel clients come and go,
and some of them go by crashing.  This demo shows the server-side
governance layer keeping the GPU clean through all of it:

1. a seeded nemesis simulation kills clients mid-workload, beside a
   drain/restore and a live migration that carry the session table to
   new server processes; after the dead clients' leases and grace
   periods lapse the reaper returns every byte they held, while
   surviving (heartbeating) clients keep theirs -- the simulator's
   session-leak audit checks exactly that;
2. admission control caps concurrent sessions and a per-client memory
   quota turns greedy ``cudaMalloc`` calls into clean CUDA errors;
3. a draining shutdown stops admitting new sessions, snapshots the
   remaining ones, and the snapshot restores onto a replacement server
   with device state intact;
4. the session counters surface in the server stats next to the
   reply-cache numbers.

Run:  python examples/session_lifecycle_demo.py
(CHAOS_SEED=<n> varies the workload and who dies -- the CI soak loops over seeds.)
"""

from repro.cricket import CricketServer
from repro.cricket.client import CricketClient
from repro.cuda.errors import CudaError
from repro.resilience import NemesisEvent, SimulationPlan, chaos_seeds, run_simulation
from repro.resilience.simulation import DRAIN_RESTORE, KILL_CLIENT, MIGRATE

MiB = 1 << 20


def chaos_round() -> None:
    """Kill clients mid-workload; the reaper must reclaim every byte."""
    seed = chaos_seeds(default=(7,))[0]
    plan = SimulationPlan(topology="single", seed=seed, clients=5)
    schedule = [
        NemesisEvent(2.0, KILL_CLIENT, {"client": seed}),
        NemesisEvent(4.0, DRAIN_RESTORE),
        NemesisEvent(6.0, KILL_CLIENT, {"client": seed + 2}),
        NemesisEvent(8.0, MIGRATE),
        NemesisEvent(10.0, KILL_CLIENT, {"client": seed + 4}),
    ]
    result = run_simulation(plan, schedule=schedule)
    assert result.clean, f"session leak or lost write: {result.violations}"
    counters = result.counters
    assert counters["server.bytes_reclaimed"] > 0, "the kills leaked nothing?"
    print(f"[chaos]   3 of {plan.clients} clients killed mid-workload beside "
          f"a drain/restore and a live migration; "
          f"{result.outcomes.get('ok', 0)} ops ok, history checker clean")
    print(f"[chaos]   after lease+grace lapsed the reaper reclaimed "
          f"{counters['server.sessions_reclaimed']} sessions and "
          f"{counters['server.bytes_reclaimed'] // 1024} KiB; survivors kept "
          f"every byte (session-leak audit clean)")


def governance() -> None:
    """Admission control and per-client memory quotas."""
    server = CricketServer(max_sessions=2, memory_quota_bytes=4 * MiB)
    first = CricketClient.loopback(server)
    second = CricketClient.loopback(server)
    first.malloc(1 * MiB)
    second.malloc(1 * MiB)

    third = CricketClient.loopback(server)
    try:
        third.malloc(1 * MiB)
    except CudaError as exc:
        print(f"[admit]   third concurrent session denied: {exc} "
              f"(code {exc.code})")
    else:
        raise AssertionError("admission control let a third session in")

    try:
        first.malloc(4 * MiB)  # 1 MiB already held; quota is 4 MiB
    except CudaError as exc:
        print(f"[quota]   over-quota cudaMalloc denied: {exc} (code {exc.code})")
    else:
        raise AssertionError("quota was not enforced")
    # Freeing restores headroom -- the quota tracks live bytes, not history.
    ptr = first.malloc(3 * MiB)
    first.free(ptr)
    print("[quota]   after freeing, the same client allocates again fine")


def drain_and_handoff() -> None:
    """Drain-mode shutdown snapshots live sessions for a replacement."""
    server = CricketServer()
    client = CricketClient.loopback(server)
    ptr = client.malloc(64)
    client.memcpy_h2d(ptr, b"\x5a" * 64)

    server.shutdown(drain=True)
    assert server.drain_checkpoint is not None
    print(f"[drain]   drained with 1 live session; checkpoint "
          f"({len(server.drain_checkpoint)} bytes) captured")

    try:
        CricketClient.loopback(server).malloc(64)
    except CudaError as exc:
        print(f"[drain]   new session refused while drained (code {exc.code})")
    else:
        raise AssertionError("draining server admitted a new session")

    replacement = CricketServer()
    client.recover(server.drain_checkpoint, server=replacement)
    data = client.memcpy_d2h(ptr, 64)
    assert data == b"\x5a" * 64, "device state lost across the handoff"
    print("[drain]   session restored onto replacement; device bytes intact")


def main() -> None:
    chaos_round()
    governance()
    drain_and_handoff()
    print("[done]    zero leaks, quotas enforced, drain handed off cleanly")


if __name__ == "__main__":
    main()
