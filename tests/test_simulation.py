"""Deterministic cluster simulation: nemesis, harness, shrinker, traces.

The acceptance path for the whole subsystem lives here: seeded runs
are bit-reproducible (identical history fingerprints), benign seeds
come out clean under the full composed nemesis, an injected
double-execution bug is caught by the checker and shrunk to a minimal
replayable trace, and the trace replays byte-for-byte.  Default-plan
fingerprints are pinned against a golden table, and the end-of-run
cluster audits (split-brain, stale leader, convergence) are shown to
fire on deliberately broken fences.
"""

import json
import random
import tempfile

import pytest

from repro.cricket.witness import LeadershipFence, Witness
from repro.resilience.failover import FailoverTransport
from repro.resilience.simulation import (
    BUG_DOUBLE_EXECUTE,
    DOUBLE_EXECUTION,
    GPU_THROTTLE,
    HA_PAIR_KINDS,
    KILL_CLIENT,
    MIGRATE,
    NOT_CONVERGED,
    PARTITION,
    SESSION_LEAK,
    SINGLE_KINDS,
    SPLIT_BRAIN,
    STALE_LEADER,
    STORAGE_TORN,
    TOPOLOGIES,
    VIOLATION_KINDS,
    NemesisEvent,
    SimulationPlan,
    events_from_jsonable,
    events_to_jsonable,
    generate_schedule,
    load_trace,
    replay_trace,
    run_simulation,
    save_trace,
    shrink_schedule,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


# -- plan ---------------------------------------------------------------------


class TestSimulationPlan:
    def test_jsonable_round_trip(self):
        plan = SimulationPlan(topology="single", seed=9, clients=3, steps=40)
        clone = SimulationPlan.from_jsonable(
            json.loads(json.dumps(plan.to_jsonable()))
        )
        assert clone == plan

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            SimulationPlan(topology="mesh")

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            SimulationPlan(clients=0)
        with pytest.raises(ValueError):
            SimulationPlan(steps=0)
        with pytest.raises(ValueError):
            SimulationPlan(horizon_s=0.0)


# -- nemesis schedule generation ---------------------------------------------


class TestNemesisSchedule:
    def test_same_seed_same_schedule(self):
        kwargs = dict(topology="ha_pair", events=12, clients=2, horizon_s=12.0)
        first = generate_schedule(random.Random(5), **kwargs)
        second = generate_schedule(random.Random(5), **kwargs)
        assert first == second
        assert len(first) == 12

    def test_schedule_sorted_and_inside_horizon(self):
        schedule = generate_schedule(
            random.Random(1), topology="single", events=20, clients=2,
            horizon_s=10.0,
        )
        times = [event.at_s for event in schedule]
        assert times == sorted(times)
        assert all(0.0 < t < 10.0 for t in times)

    def test_kinds_match_topology_and_never_the_bug(self):
        for topology, kinds in (("ha_pair", HA_PAIR_KINDS), ("single", SINGLE_KINDS)):
            schedule = generate_schedule(
                random.Random(2), topology=topology, events=40, clients=2,
                horizon_s=12.0,
            )
            assert {event.kind for event in schedule} <= set(kinds)
            assert BUG_DOUBLE_EXECUTE not in {event.kind for event in schedule}
            assert KILL_CLIENT not in {event.kind for event in schedule}

    def test_events_jsonable_round_trip(self):
        schedule = generate_schedule(
            random.Random(3), topology="ha_pair", events=8, clients=2,
            horizon_s=12.0,
        )
        clone = events_from_jsonable(
            json.loads(json.dumps(events_to_jsonable(schedule)))
        )
        assert clone == schedule


# -- the harness: reproducibility and clean seeds -----------------------------


class TestDeterminism:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_bit_reproducible(self, topology):
        plan = SimulationPlan(topology=topology, seed=1)
        first = run_simulation(plan)
        second = run_simulation(plan)
        assert first.fingerprint == second.fingerprint
        assert first.violation_kinds() == second.violation_kinds()
        assert first.outcomes == second.outcomes
        assert first.applied == second.applied

    def test_different_seeds_diverge(self):
        plan_a = SimulationPlan(topology="ha_pair", seed=0)
        plan_b = SimulationPlan(topology="ha_pair", seed=1)
        assert run_simulation(plan_a).fingerprint != run_simulation(plan_b).fingerprint

    def test_explicit_schedule_overrides_generation(self):
        plan = SimulationPlan(topology="single", seed=4, steps=24, horizon_s=6.0)
        quiet = run_simulation(plan, schedule=[])
        assert quiet.clean, quiet.violations
        assert quiet.applied == []
        assert quiet.fingerprint == run_simulation(plan, schedule=[]).fingerprint

    def test_runs_leave_no_temporary_directories(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = SimulationPlan(topology="single", seed=0, steps=12, horizon_s=6.0)
        run_simulation(plan, schedule=[NemesisEvent(3.0, MIGRATE, {"torn_journal": 1})])
        with pytest.raises(KeyError):  # the exit path of a crashing run
            run_simulation(plan, schedule=[NemesisEvent(3.0, "no_such_kind")])
        assert list(tmp_path.iterdir()) == []


class TestCleanSeeds:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_composed_nemesis_run_is_clean(self, topology, seed):
        result = run_simulation(SimulationPlan(topology=topology, seed=seed))
        assert result.clean, result.violations
        assert result.converged
        assert result.applied, "nemesis applied no events"
        assert result.outcomes.get("ok", 0) > 0

    def test_workload_outcomes_are_typed(self):
        result = run_simulation(SimulationPlan(topology="ha_pair", seed=7))
        unknown = set(result.outcomes) - {
            "ok", "busy", "not_leader", "expired", "cancelled",
            "cuda_error", "ambiguous",
        }
        assert not unknown, unknown


# Default-plan fingerprints, seeds 0-9.  A refactor must leave them
# byte-identical: a change that moves one changed what the simulation
# does, not just how the code is laid out.
GOLDEN_FINGERPRINTS = {
    "single": (
        "e6c380e903fd6a95c16a19f8a9374459dcd373245870d3029bc94cb6f5f7a0be",
        "79a3e1b79eff7940270a81f9e8a34d05d44d3a847458ab8213c76b47604b93d5",
        "0121426ddd39c02fd9b54ae120406e1f70702c75c64bcc9d420f242c326db4a7",
        "186ffd1ca948a461e64b2e01129f8d9b88c106abcb1177a3128a9937e6bf7837",
        "799a8694d6daaa21c972449004801ea750c505e4e9194fe69269bfdfdba3f4ce",
        "d7ea256c5b63a7a80b2ab46f7799436a0df9e21cb727a78187893d6b77e67361",
        "d10dd386b0bc5b860ad240018d96051c46ceaa6c42e16fc5f14e58f1fad4b26b",
        "5d33cd1cf8a329e0f24dae51772d3a7850239868b1b436a820048de4279b52b7",
        "a023286d2be5bfbba1a1ec24a18dbf0f64586cd0f7a41b1b4dd9b26bc5253609",
        "8bc8f50ea8d81a727f73ea667386d2ea70e4d4e9c8720d53e78d6201b22278e1",
    ),
    "ha_pair": (
        "bc326dcc8bfb03ecbf4ead82b2089dd8f65e8682b73cfd312fd8d6d9562e706a",
        "ffdf899b676a20253c125ae925c44e9419cdc18bec6c9a306cfe8ff4cfe04f5c",
        "529219051d58225f5486c44054f9367e1d26b4f68e22061ae534613f4920b4d3",
        "fc40839b6f3a979feef647f8827d551ac5573fcc1029844d4c910b38a1200a7a",
        "e6979a89d2994d9983c366a1c26a2cf3be7ff39d3cdf98f0d03db382116652f6",
        "a7eadfc75c0c3a489dbfd8f129b950a72062f60e19a5122b524c34624b8bb0be",
        "8e66543dbe7f2abe5580f622a5956672ed4b2eaa2a4d764d416a2063fd056c13",
        "eee74c06ad30c676b4903cacea4fb95772c2e3b000a84f416ba952e76208fc66",
        "ac93f830d83046623dada5c1027ca13ea0851ebbff9a8a7bf880bffaeaa7eeb1",
        "d318c01e45d2a48c352c7af5a36f5cb4652eedfb7c7bc39129bf85e3fdc7424f",
    ),
}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", range(10))
    def test_default_plan_fingerprint_unchanged(self, topology, seed):
        result = run_simulation(SimulationPlan(topology=topology, seed=seed))
        assert result.fingerprint == GOLDEN_FINGERPRINTS[topology][seed]


class TestFinalLeader:
    def test_killed_standby_is_not_the_final_leader(self):
        # The nemesis kills the promoted standby late in this run, so
        # nobody is left to lead: no live leader, nothing to converge on.
        result = run_simulation(SimulationPlan(topology="ha_pair", seed=12))
        crashed = [e.node for e in result.events if e.kind == "crash"]
        assert crashed == ["standby"]
        assert result.final_leader == ""
        assert not result.converged
        assert result.clean, result.violations


# -- the cluster audits fire on broken fences ---------------------------------


_HEAL_DIVERGENCE = NemesisEvent(
    4.0, PARTITION, {"shape": "heal_divergence", "duration_s": 0.8}
)


class TestClusterAudits:
    def test_audit_kinds_are_violation_kinds(self):
        assert {SPLIT_BRAIN, STALE_LEADER, NOT_CONVERGED, SESSION_LEAK} <= set(VIOLATION_KINDS)

    def test_fence_that_always_admits_is_a_stale_leader(self, monkeypatch):
        monkeypatch.setattr(
            LeadershipFence, "shed_stat", lambda self, proc, now_ns: None
        )
        plan = SimulationPlan(seed=0)
        result = run_simulation(plan, schedule=[_HEAL_DIVERGENCE])
        assert STALE_LEADER in result.violation_kinds()
        minimal, _ = shrink_schedule(
            plan, [_HEAL_DIVERGENCE], kinds=[STALE_LEADER]
        )
        assert minimal == [_HEAL_DIVERGENCE]

    def test_witness_that_forgets_epochs_is_split_brain(self, monkeypatch):
        acquire = Witness.acquire

        def amnesiac_acquire(self, holder):
            self.epoch = 0  # every grant reissues epoch 1
            return acquire(self, holder)

        monkeypatch.setattr(Witness, "acquire", amnesiac_acquire)
        plan = SimulationPlan(seed=0)
        schedule = [
            NemesisEvent(2.0, STORAGE_TORN, {"count": 1}),
            _HEAL_DIVERGENCE,
            NemesisEvent(8.0, GPU_THROTTLE, {"severity": 3.0}),
        ]
        result = run_simulation(plan, schedule=schedule)
        assert SPLIT_BRAIN in result.violation_kinds()
        assert result.epochs_served == {"primary": [1], "standby": [1]}
        # the re-grant only matters once the partition forces an election
        minimal, _ = shrink_schedule(plan, schedule, kinds=[SPLIT_BRAIN])
        assert minimal == [_HEAL_DIVERGENCE]

    def test_client_blind_to_epochs_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(
            FailoverTransport, "observe_leader", lambda self, info: None
        )
        result = run_simulation(
            SimulationPlan(seed=0), schedule=[_HEAL_DIVERGENCE]
        )
        assert result.final_leader == "standby"
        assert not result.converged
        assert not result.clean
        assert NOT_CONVERGED in result.violation_kinds()


# -- the acceptance path: catch, shrink, replay -------------------------------


def _buggy_schedule(plan):
    """The issue's acceptance scenario: a real nemesis schedule plus the
    intentional double-execution bug, armed before the nemesis's first
    move (generated events start at 5% of the horizon) so the leader is
    guaranteed alive to execute it."""
    rng = random.Random(plan.seed)
    schedule = generate_schedule(
        rng, topology=plan.topology, events=5, clients=plan.clients,
        horizon_s=plan.horizon_s,
    )
    schedule.append(NemesisEvent(
        at_s=plan.horizon_s * 0.02, kind=BUG_DOUBLE_EXECUTE,
        params={"count": 2},
    ))
    return sorted(schedule, key=lambda event: event.at_s)


class TestShrinker:
    def test_bug_caught_shrunk_and_replayable(self, tmp_path):
        plan = SimulationPlan(topology="ha_pair", seed=3)
        schedule = _buggy_schedule(plan)
        full = run_simulation(plan, schedule=schedule)
        assert DOUBLE_EXECUTION in full.violation_kinds()

        runs = []
        minimal, result = shrink_schedule(
            plan, schedule, kinds=[DOUBLE_EXECUTION],
            on_progress=lambda run, size: runs.append((run, size)),
        )
        assert len(minimal) <= 10  # the issue's acceptance bound
        assert [event.kind for event in minimal] == [BUG_DOUBLE_EXECUTE]
        assert DOUBLE_EXECUTION in result.violation_kinds()
        assert runs, "on_progress never fired"

        trace = tmp_path / "repro.json"
        save_trace(str(trace), plan, minimal, result)
        loaded_plan, loaded_schedule, data = load_trace(str(trace))
        assert loaded_plan == plan
        assert loaded_schedule == minimal
        assert data["fingerprint"] == result.fingerprint
        replayed = replay_trace(str(trace))
        assert replayed.fingerprint == result.fingerprint

    def test_shrink_refuses_a_passing_schedule(self):
        plan = SimulationPlan(
            topology="single", seed=0, steps=24, horizon_s=6.0
        )
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_schedule(plan, [])

    def test_kind_filter_ignores_other_violations(self):
        # The armed bug cascades into byte/readback anomalies, but it can
        # never regress an epoch -- filtering on that kind must refuse.
        plan = SimulationPlan(topology="ha_pair", seed=3)
        schedule = _buggy_schedule(plan)
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_schedule(plan, schedule, kinds=["epoch-regression"])

    def test_replay_detects_divergence(self, tmp_path):
        plan = SimulationPlan(topology="ha_pair", seed=3)
        minimal, result = shrink_schedule(
            plan, _buggy_schedule(plan), kinds=[DOUBLE_EXECUTION],
        )
        trace = tmp_path / "repro.json"
        save_trace(str(trace), plan, minimal, result)
        data = json.loads(trace.read_text())
        data["fingerprint"] = "0" * 64
        trace.write_text(json.dumps(data))
        with pytest.raises(AssertionError, match="fingerprint"):
            replay_trace(str(trace))

    def test_trace_rejects_unknown_version(self, tmp_path):
        trace = tmp_path / "repro.json"
        trace.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_trace(str(trace))


# -- the nightly matrix, opt-in via `-m soak` ---------------------------------


@pytest.mark.soak
class TestNemesisSoak:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", range(12))
    def test_seed_matrix_clean_and_reproducible(self, topology, seed):
        plan = SimulationPlan(
            topology=topology, seed=seed, steps=80, nemesis_events=8,
            horizon_s=16.0,
        )
        first = run_simulation(plan)
        assert first.clean, (seed, topology, first.violations)
        assert first.fingerprint == run_simulation(plan).fingerprint
