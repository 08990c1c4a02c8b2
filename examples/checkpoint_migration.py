#!/usr/bin/env python3
"""Live-migrate a running GPU application between nodes, surviving faults.

Cricket's decoupling lets the GPU side of an application move between
nodes -- the "runtime reorganization of tasks" the paper's conclusion
highlights for large unikernel deployments.  This example factorizes a
matrix on node A, then live-migrates the GPU state to node B with the
iterative pre-copy protocol: dirty pages stream while node A keeps
serving, a mid-transfer disconnect is healed by resuming from the last
acknowledged chunk (no restart), and the final stop-and-copy pause stays
within budget.  Node B finishes the solve with the same handles and
device pointers.

Run:  python examples/checkpoint_migration.py
      python examples/checkpoint_migration.py --legacy-blob   # old flow

``--legacy-blob`` keeps the original stop-the-world flow: checkpoint to
a single blob, tear node A down, restore the blob on node B.
"""

import sys
import tempfile

import numpy as np

from repro.cricket import (
    CricketClient,
    CricketServer,
    FaultyMigrationChannel,
    LoopbackMigrationChannel,
    MigrationSource,
    MigrationTarget,
    migrate_live,
)
from repro.gpu import A100, GpuDevice
from repro.unikernel import rustyhermit

MIB = 1 << 20


def new_gpu_node(name: str) -> CricketServer:
    print(f"[{name}] GPU node up (A100)")
    return CricketServer([GpuDevice(A100, mem_bytes=256 * MIB)])


def factorize_on(client, n, a_host, b_host):
    """LU-factorize ``a_host`` on the GPU behind ``client``."""
    handle = client.cusolver_create()
    a_dev = client.malloc(8 * n * n)
    b_dev = client.malloc(8 * n)
    ipiv = client.malloc(4 * n)
    info = client.malloc(4)
    client.memcpy_h2d(a_dev, a_host.T.tobytes())
    client.memcpy_h2d(b_dev, b_host.tobytes())
    lwork = client.cusolver_getrf_buffer_size(handle, n, a_dev, n)
    work = client.malloc(8 * lwork)
    client.cusolver_getrf(handle=handle, n=n, a_ptr=a_dev, lda=n,
                          workspace=work, ipiv=ipiv, info=info)
    return handle, a_dev, b_dev, ipiv, info


def solve_on(client, handle, n, a_dev, b_dev, ipiv, info):
    """Finish the solve with the handles/pointers minted on the other node."""
    client.cusolver_getrs(handle=handle, trans=0, n=n, nrhs=1, a_ptr=a_dev,
                          lda=n, ipiv=ipiv, b_ptr=b_dev, ldb=n, info=info)
    return np.frombuffer(client.memcpy_d2h(b_dev, 8 * n), np.float64)


def main(legacy_blob: bool = False) -> None:
    n = 256
    rng = np.random.default_rng(3)
    a_host = rng.random((n, n)) + n * np.eye(n)
    x_true = rng.random(n)
    b_host = a_host @ x_true

    # --- phase 1: factorize on GPU node A -------------------------------
    node_a = new_gpu_node("node-A")
    client = CricketClient.loopback(node_a, platform=rustyhermit())
    handle, a_dev, b_dev, ipiv, info = factorize_on(client, n, a_host, b_host)
    print("[node-A] LU factorization done")

    # --- phase 2: move the GPU state to node B --------------------------
    node_b = new_gpu_node("node-B")
    if legacy_blob:
        blob = client.checkpoint()
        print(f"[node-A] checkpoint taken: {len(blob) / MIB:.2f} MiB")
        del node_a, client  # node A goes away
        client = CricketClient.loopback(node_b, platform=rustyhermit())
        client.restore(blob)
        print("[node-B] blob restored; resuming with the same handles")
    else:
        with tempfile.TemporaryDirectory() as journal_dir:
            source = MigrationSource(node_a)
            target = MigrationTarget(node_b, storage=journal_dir)
            # drop the link before chunk 3 lands: the sender's outbox and
            # the receiver journal turn the disconnect into a resume, not
            # a restart
            channel = FaultyMigrationChannel(
                LoopbackMigrationChannel(target), disconnect_before={3}
            )
            report = migrate_live(source, target, channel)
        print(
            f"[migrate] {report.rounds} pre-copy rounds, "
            f"{report.precopy_bytes / MIB:.2f} MiB streamed live, "
            f"{report.stop_copy_bytes / MIB:.2f} MiB in the pause"
        )
        print(
            f"[migrate] survived {report.resumes} disconnect(s); "
            f"pause {report.pause_ns / 1e6:.1f} ms -- node A kept serving "
            "until cutover"
        )
        client = CricketClient.loopback(node_b, platform=rustyhermit())
        print("[node-B] cutover done; resuming with the same handles")

    # --- phase 3: finish the solve on node B ----------------------------
    x = solve_on(client, handle, n, a_dev, b_dev, ipiv, info)
    residual = np.linalg.norm(a_host @ x - b_host) / np.linalg.norm(b_host)
    print(f"[node-B] solve finished; relative residual {residual:.2e}")
    assert residual < 1e-9


if __name__ == "__main__":
    main(legacy_blob="--legacy-blob" in sys.argv[1:])
