"""Deterministic passes and the two clocks."""

from repro.harness import figure6
from repro.harness.runner import make_session
from repro.unikernel.presets import rustyhermit

from perfbench.passes import count_calls, layer_of, peak_alloc_per_byte
from perfbench.spans import ROOT, SpanRecorder, installed
from perfbench.workloads import SMALL_BLOCK, SmallCalls


def test_layers_come_from_the_frame_module():
    assert layer_of("repro.xdr.decoder") == "xdr"
    assert layer_of("repro.oncrpc.client") == "oncrpc"
    assert layer_of("repro.cubin.loader") == "other"
    assert layer_of("json.decoder") == "other"
    assert layer_of("perfbench.workloads") is None


def test_call_counts_repeat_exactly():
    workload = SmallCalls(seed=0)
    workload.build()
    workload.warm_up()

    def device_count():
        workload.client.get_device_count()
        return 1

    first = count_calls([device_count] * 5)
    assert count_calls([device_count] * 5) == first
    counts, calls = first
    assert calls == 5
    # CricketClient.get_device_count and everything below it
    assert sum(counts.values()) == 5 * 264
    assert counts["xdr"] == 5 * 142
    assert count_calls(workload.canonical(2)) == count_calls(workload.canonical(2))
    workload.close()


def test_peak_alloc_counts_only_the_call():
    payload = 1 << 20
    ratio = peak_alloc_per_byte(lambda: bytearray(payload), payload)
    assert 1.0 <= ratio < 1.01


def test_virtual_time_matches_the_figure_harness():
    """``unikernel.virtual_us`` equals what Fig 6's harness charges per call."""
    per_call = {}
    for bench in ("cudaGetDeviceCount", "cudaMalloc/cudaFree"):
        with make_session(rustyhermit()) as session:
            per_call[bench] = figure6.BENCHMARKS[bench](session, 600)
    launches = SmallCalls(seed=0)
    launches.build()
    start = launches.session.clock.now_ns
    for _ in range(600):
        launches.call("launch")
    per_call["launch"] = launches.session.clock.now_ns - start
    launches.close()
    # a block issues two calls of each class, so each class is a third
    expected_ns = sum(per_call.values()) / (3 * 600)

    recorder = SpanRecorder()
    with installed(recorder):
        workload = SmallCalls(seed=5)
        workload.build()
        recorder.clear()
        for _ in range(100):
            for cls in SMALL_BLOCK:
                workload.call(cls)
        ops = sum(1 for span in recorder.spans if span[0] == ROOT and span[3] < 0)
        virtual_ns = recorder.virtual_ns
        workload.close()
    assert ops == 600
    assert virtual_ns / ops == expected_ns
