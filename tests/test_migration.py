"""Tests for resumable live migration, standalone and in the simulator.

The simulator scenarios run the migration fault mix (disconnects, a
corrupt chunk, a target kill and a torn journal append) as an explicit
``migrate`` nemesis event, so the history checker and the end-of-
migration audit judge the outcome.
"""

import random
import struct

import pytest

from repro.cricket import (
    CricketClient,
    CricketServer,
    FaultyMigrationChannel,
    LoopbackMigrationChannel,
    MigrationConfig,
    MigrationSource,
    MigrationTarget,
    SocketMigrationChannel,
    migrate_live,
)
from repro.cricket import migration as migration_module
from repro.cricket.data_channel import DataChannelClient, DataChannelServer
from repro.cricket.errors import (
    ChunkRejectedError,
    MigrationChannelError,
    MigrationError,
)
from repro.cricket.migration import (
    KIND_BEGIN,
    KIND_FRAGS,
    decode_chunk,
    encode_chunk,
)
from repro.cricket.replication import state_fingerprint
from repro.gpu import A100, GpuDevice
from repro.resilience import chaos_seeds
from repro.resilience.failover import LoopbackEndpoint
from repro.resilience.retry import RetryPolicy
from repro.resilience.simulation import (
    GPU_THROTTLE,
    MIGRATE,
    MIGRATION_DIVERGENCE,
    STORAGE_TORN,
    NemesisEvent,
    SimulationPlan,
    load_trace,
    replay_trace,
    run_simulation,
    save_trace,
    shrink_schedule,
)

MIB = 1 << 20


def small_server() -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=128 * MIB)])


def populated(allocs: int = 5, size: int = 128 * 1024):
    server = small_server()
    client = CricketClient.loopback(server)
    ptrs = []
    for i in range(allocs):
        ptr = client.malloc(size)
        client.memcpy_h2d(ptr, bytes([i + 1]) * min(size, 4096))
        ptrs.append(ptr)
    return server, client, ptrs


class TestChunkFormat:
    def test_roundtrip(self):
        blob = encode_chunk(KIND_FRAGS, 3, 1, b"payload")
        chunk = decode_chunk(blob)
        assert chunk.kind == KIND_FRAGS
        assert chunk.seq == 3
        assert chunk.round == 1
        assert chunk.payload == b"payload"

    def test_corrupt_chunk_rejected(self):
        blob = bytearray(encode_chunk(KIND_BEGIN, 1, 0, b"x" * 64))
        blob[8] ^= 0xFF
        with pytest.raises(ChunkRejectedError):
            decode_chunk(bytes(blob))

    def test_truncated_chunk_rejected(self):
        blob = encode_chunk(KIND_BEGIN, 1, 0, b"x" * 64)
        with pytest.raises(ChunkRejectedError):
            decode_chunk(blob[:10])


class TestLiveMigration:
    def test_loopback_migration_preserves_state(self):
        source, _client, _ptrs = populated()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server())
        report = migrate_live(MigrationSource(source), target)
        assert report.completed and not report.aborted
        assert state_fingerprint(target.server) == fingerprint
        assert source.killed  # cutover kills the source
        assert report.pause_ns <= MigrationConfig().pause_budget_ns

    def test_precopy_rounds_shrink_the_pause(self):
        source, client, ptrs = populated(allocs=8, size=256 * 1024)
        target = MigrationTarget(small_server())
        report = migrate_live(MigrationSource(source), target)
        # pre-copy shipped the bulk; the pause covered only the residual
        assert report.precopy_bytes > report.stop_copy_bytes
        assert report.rounds >= 2

    def test_disconnect_resumes_from_cursor(self, tmp_path):
        source, _client, _ptrs = populated()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server(), storage=str(tmp_path))
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(target), disconnect_before={3}
        )
        mig = MigrationSource(source)
        report = migrate_live(mig, target, channel)
        assert report.completed
        assert report.resumes == 1
        # the counters prove a resume, not a restart: duplicates stay 0
        # because redelivery starts exactly after the last ack
        assert target.server.server_stats.migration_chunks_duplicate == 0
        assert state_fingerprint(target.server) == fingerprint

    @pytest.mark.parametrize("ordinal", [1, 2])
    def test_fault_in_round_zero_ships_every_page_once_counted(self, ordinal):
        # Pages already clean when the migration starts are round-0 data
        # too: a fault on BEGIN (ordinal 1) must not let the re-entered
        # start() ship only the dirty delta, and a fault anywhere in
        # round 0 must not drop it from the round count.
        source, _client, _ptrs = populated(allocs=4, size=128 * 1024)
        source.device.delta_fragments()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server())
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(target), disconnect_before={ordinal}
        )
        report = migrate_live(MigrationSource(source), target, channel)
        assert report.completed
        assert report.resumes == 1
        assert state_fingerprint(target.server) == fingerprint
        # round 0 plus the stop-and-copy round
        assert report.rounds == 2
        assert source.server_stats.migration_rounds == 2

    def test_corrupt_chunk_naks_and_retransmits(self):
        source, _client, _ptrs = populated()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server())
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(target), corrupt_sends={2}
        )
        report = migrate_live(MigrationSource(source), target, channel)
        assert report.completed
        assert report.chunks_resent >= 1
        assert report.resumes == 0  # a NAK is handled in-band
        assert state_fingerprint(target.server) == fingerprint

    def test_target_kill_recovers_from_journal(self, tmp_path):
        source, _client, _ptrs = populated(allocs=6, size=192 * 1024)
        fingerprint = state_fingerprint(source)
        mig = MigrationSource(source)
        first = MigrationTarget(small_server(), storage=str(tmp_path))
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(first), disconnect_before={4}
        )
        with pytest.raises(MigrationChannelError):
            mig.start(channel)
            mig.run_precopy(channel)
            mig.stop_and_copy(channel)
        # the target process dies; a fresh one recovers from the journal
        second = MigrationTarget(small_server(), storage=str(tmp_path))
        acked = second.recover()
        assert acked == mig.acked  # journal-before-ack: nothing acked is lost
        channel2 = LoopbackMigrationChannel(second)
        mig.resume(channel2, receiver_acked=acked)
        if mig.phase == "precopy":
            mig.run_precopy(channel2)
        mig.stop_and_copy(channel2)
        second.finalize()
        mig.cutover()
        assert state_fingerprint(second.server) == fingerprint
        assert mig.report.resumes == 1

    def test_journal_recovery_drops_torn_tail(self, tmp_path):
        source, _client, _ptrs = populated()
        mig = MigrationSource(source)
        target = MigrationTarget(small_server(), storage=str(tmp_path))
        channel = LoopbackMigrationChannel(target)
        mig.start(channel)
        acked = target.last_acked
        # simulate the append a crash interrupted: a torn trailing record
        with open(tmp_path / "migration.journal", "ab") as fh:
            fh.write(struct.pack(">I", 500) + b"torn")
        recovered = MigrationTarget(small_server(), storage=str(tmp_path))
        assert recovered.recover() == acked

    def test_duplicate_chunks_are_absorbed(self):
        source, _client, _ptrs = populated(allocs=2)
        target = MigrationTarget(small_server())
        channel = LoopbackMigrationChannel(target)
        mig = MigrationSource(source)
        mig.start(channel)
        blob = encode_chunk(KIND_BEGIN, 1, 0, b"ignored-duplicate")
        assert target.receive(blob) == target.last_acked
        assert target.server.server_stats.migration_chunks_duplicate == 1

    def test_chunk_gap_is_rejected(self):
        target = MigrationTarget(small_server())
        with pytest.raises(MigrationError):
            target.receive(encode_chunk(KIND_FRAGS, 5, 0, b"out of order"))

    def test_pause_budget_exceeded_aborts_and_source_serves(self):
        source, client, ptrs = populated(allocs=4, size=MIB)
        target = MigrationTarget(small_server())
        mig = MigrationSource(
            source, config=MigrationConfig(pause_budget_ns=1)
        )
        with pytest.raises(MigrationError):
            migrate_live(mig, target)
        assert mig.report.aborted
        assert not source.serving_paused
        assert not source.killed
        # the source still answers after the abort
        ptr = client.malloc(4096)
        client.memcpy_h2d(ptr, b"\x07" * 64)
        assert client.memcpy_d2h(ptr, 64) == b"\x07" * 64

    def test_serving_paused_sheds_nonexempt_calls(self):
        source, client, _ptrs = populated(allocs=1)
        source.pause_serving()
        from repro.cuda.errors import CudaError

        with pytest.raises((CudaError, Exception)):
            client.malloc(4096)
        source.resume_serving()
        assert client.malloc(4096) > 0

    def test_cutover_rotates_failover_clients(self):
        source, _client, ptrs = populated()
        target = MigrationTarget(small_server())
        report = migrate_live(MigrationSource(source), target)
        assert report.completed
        verifier = CricketClient.failover(
            [
                LoopbackEndpoint(source, name="source"),
                LoopbackEndpoint(target.server, name="target"),
            ],
            retry_policy=RetryPolicy(max_attempts=6),
        )
        assert verifier.memcpy_d2h(ptrs[0], 64) == bytes([1]) * 64
        assert verifier.stats.failovers >= 1

    def test_reply_cache_travels_with_migration(self):
        from repro.oncrpc import message as msg
        from repro.oncrpc.auth import client_token_auth

        source, _client, _ptrs = populated(allocs=1)
        call = msg.CallBody(
            prog=source.interface.prog_number,
            vers=source.interface.vers_number,
            proc=source.interface.signatures["rpc_cudaMalloc"].number,
            cred=client_token_auth(b"at-most-once"),
            args=(1 << 12).to_bytes(8, "big"),
        )
        record = msg.RpcMessage(77, call).encode()
        original = source.dispatch_record(record)
        target = MigrationTarget(small_server())
        migrate_live(MigrationSource(source), target)
        migrated = target.server
        used_before = sum(d.allocator.used_bytes for d in migrated.devices)
        replay = migrated.dispatch_record(record)
        used_after = sum(d.allocator.used_bytes for d in migrated.devices)
        assert replay == original  # cached, byte-identical
        assert used_after == used_before  # no re-execution

    def test_abort_sends_abort_chunk_and_resumes_serving(self):
        source, client, _ptrs = populated(allocs=1)
        target = MigrationTarget(small_server())
        channel = LoopbackMigrationChannel(target)
        mig = MigrationSource(source)
        mig.start(channel)
        mig.abort(channel)
        assert target.aborted
        assert not source.serving_paused
        assert client.malloc(1024) > 0

    def test_socket_channel_over_data_channel_blob_lane(self):
        source, _client, _ptrs = populated(allocs=4)
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server())
        data_server = DataChannelServer(
            target.server.device,
            blob_sink=lambda _tag, payload: struct.pack(
                ">Q", target.receive(payload)
            ),
        )
        try:
            data_client = DataChannelClient(data_server.address, sockets=1)
            channel = SocketMigrationChannel(data_client)
            report = migrate_live(MigrationSource(source), target, channel)
            assert report.completed
            assert state_fingerprint(target.server) == fingerprint
        finally:
            data_server.close()


# -- the migration fault mix in the simulator ---------------------------------


def _plan(seed):
    """Allocations of 256 KiB put one per chunk, so faults land mid-stream."""
    return SimulationPlan(topology="single", seed=seed, alloc_bytes=256 << 10)


def _fault_mix(seed):
    """Two channel breaks at send ordinals 2-6, the first of them a target
    kill, one corrupt chunk at 2-4 and one torn journal append."""
    rng = random.Random(seed)
    first, second = sorted(rng.sample(range(2, 7), 2))
    corrupt = rng.choice([n for n in range(2, 5) if n not in (first, second)])
    return {
        "kill_target": [first],
        "disconnect_before": [second],
        "corrupt_sends": [corrupt],
        "torn_journal": 1,
    }


def _migrate(seed, params):
    return run_simulation(
        _plan(seed), schedule=[NemesisEvent(6.0, MIGRATE, params)]
    )


def _check_clean_migration(result):
    # lost allocations, unaccounted bytes and a target that differs from
    # the source at cutover are all violations
    assert result.clean, result.violations
    assert result.applied == [MIGRATE]
    [report] = result.migrations
    assert report.completed and not report.aborted
    assert report.pause_ns <= MigrationConfig().pause_budget_ns
    # resumed, never restarted: the target (the final server) absorbed no
    # redelivery, and its journal restores last_acked across a kill
    assert result.counters["server.migration_chunks_duplicate"] == 0
    return report


class TestMigrationNemesis:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_mix_is_clean(self, seed):
        report = _check_clean_migration(_migrate(seed, _fault_mix(seed)))
        # the kill, the disconnect and the torn append each resume once
        assert report.resumes == 3

    def test_fault_free_control(self):
        report = _check_clean_migration(_migrate(0, {}))
        assert report.resumes == 0
        assert report.chunks_resent == 0

    def test_target_kill_replays_the_journal(self):
        # Chunks 1-2 are acked and pruned from the outbox before the kill:
        # only the journal replay lets the resume continue at chunk 3.
        report = _check_clean_migration(_migrate(0, {"kill_target": [3]}))
        assert report.resumes == 1

    def test_torn_begin_append_loses_nothing(self):
        # The tear fails BEGIN itself; round 0 must still ship every page.
        report = _check_clean_migration(_migrate(0, {"torn_journal": 1}))
        assert report.resumes == 1
        assert report.rounds == 2

    def test_faulted_trace_replays(self, tmp_path):
        plan = _plan(1)
        schedule = [NemesisEvent(6.0, MIGRATE, _fault_mix(1))]
        result = run_simulation(plan, schedule=schedule)
        trace = tmp_path / "migrate.json"
        save_trace(str(trace), plan, schedule, result)
        _, loaded, _ = load_trace(str(trace))
        assert loaded == schedule
        assert replay_trace(str(trace)).fingerprint == result.fingerprint

    def test_divergent_migration_is_caught_and_shrunk(self, monkeypatch):
        assemble = migration_module._assemble_state
        monkeypatch.setattr(
            migration_module,
            "_assemble_state",
            lambda meta, fragments: assemble(meta, fragments[:-1]),
        )
        plan = SimulationPlan(topology="single", seed=0)
        migrate = NemesisEvent(6.0, MIGRATE, {})
        schedule = [
            NemesisEvent(2.0, STORAGE_TORN, {"count": 1}),
            migrate,
            NemesisEvent(8.0, GPU_THROTTLE, {"severity": 3.0}),
        ]
        result = run_simulation(plan, schedule=schedule)
        assert MIGRATION_DIVERGENCE in result.violation_kinds()
        minimal, _ = shrink_schedule(
            plan, schedule, kinds=[MIGRATION_DIVERGENCE]
        )
        assert minimal == [migrate]


@pytest.mark.soak
@pytest.mark.parametrize("seed", chaos_seeds(default=tuple(range(6))))
def test_migration_fault_mix_soak(seed):
    report = _check_clean_migration(_migrate(seed, _fault_mix(seed)))
    assert report.resumes == 3
