"""Cross-process determinism and failure semantics of the pipelined executor.

The contract under test: :func:`run_session_pipelined` is byte-identical
to the serial :func:`run_session` — same bitstreams, same HR outputs,
same canonical trace export — for every client design, with and without
the lossy transport and the adaptive RoI loop. Plus the ring-buffer
protocol itself, the modeled pipeline schedule, and crash injection
(producer killed mid-GOP -> clean shutdown, truncated-but-valid result).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import pickle
import signal

import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.network import NetworkLink
from repro.observability import canonicalize_session_trace, validate_session_trace
from repro.platform.device import get_device
from repro.render.games import build_game
from repro.streaming import (
    AdaptiveRoIController,
    BilinearClient,
    FullFrameSRClient,
    GameStreamSRClient,
    GameStreamServer,
    NemoClient,
    RingOverflow,
    SRIntegratedDecoderClient,
    ShmRing,
    StreamGeometry,
    build_abr,
    modeled_pipeline_schedule,
    run_session,
    run_session_pipelined,
)
from repro.streaming import pipelined
from repro.streaming.pipeline import FrameTrace

N_FRAMES = 4
GOP = 3  # frames 0..3 -> I P P I: reference and dependent paths both run

DESIGNS = [
    "gamestreamsr",
    "nemo",
    "bilinear",
    "fullframe_sr",
    "sr_integrated_decoder",
]

LINK_KW = dict(bandwidth_mbps=20.0, propagation_ms=8.0, loss_rate=0.3, seed=7)


def _geometry():
    return StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")


def _server(roi_side, gop=GOP, game=None):
    return GameStreamServer(
        game if game is not None else build_game("G3"),
        _geometry(),
        roi_side=roi_side,
        gop_size=gop,
    )


def _make_client(design, device, runner, plan):
    """(client, server RoI side) for one design."""
    if design == "gamestreamsr":
        return (
            GameStreamSRClient(device, runner, modeled_roi_side=plan.side),
            plan.side_for_frame(64),
        )
    if design == "nemo":
        return NemoClient(device, runner), None
    if design == "bilinear":
        return BilinearClient(device), None
    if design == "fullframe_sr":
        return FullFrameSRClient(device, runner), None
    if design == "sr_integrated_decoder":
        return SRIntegratedDecoderClient(device, runner), plan.side_for_frame(64)
    raise ValueError(design)


class _CapturingClient:
    """Transparent client proxy hashing each frame's bitstream + HR output.

    Attribute get/set delegate to the wrapped client (the adaptive loop
    *sets* ``modeled_roi_side`` on it), so the session sees the real
    client; ``process`` additionally records sha256(encoded || hr_frame)
    into ``sink`` — the byte-identity evidence the matrix compares.
    """

    def __init__(self, inner, sink):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_sink", sink)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_inner"), name, value)

    def process(self, frame):
        inner = object.__getattribute__(self, "_inner")
        result = inner.process(frame)
        digest = hashlib.sha256(
            pickle.dumps(frame.encoded) + result.hr_frame.tobytes()
        ).hexdigest()
        object.__getattribute__(self, "_sink").append(digest)
        return result


def _canonical(result) -> str:
    export = result.to_trace_dict()
    validate_session_trace(export)
    return json.dumps(canonicalize_session_trace(export), sort_keys=True)


def _run_both(design, device, runner, plan, *, with_link, with_adaptive):
    """(serial, pipelined) runs of one configuration, with capture."""
    outputs = []
    for executor in (run_session, run_session_pipelined):
        client, roi_side = _make_client(design, device, runner, plan)
        kwargs = {}
        if with_link:
            kwargs["scenario"] = NetworkLink(**LINK_KW)
            kwargs["link_deadline_ms"] = 60.0
        if with_adaptive:
            kwargs["adaptive"] = AdaptiveRoIController(
                initial_side=plan.side, min_side=plan.min_side, max_side=720
            )
            if roi_side is None:
                roi_side = plan.side_for_frame(64)  # adaptive needs a detector
        digests = []
        result = executor(
            _server(roi_side),
            _CapturingClient(client, digests),
            n_frames=N_FRAMES,
            **kwargs,
        )
        outputs.append((result, digests))
    return outputs


class TestDeterminismMatrix:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize(
        "with_link,with_adaptive",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["plain", "link", "adaptive", "link+adaptive"],
    )
    def test_pipelined_byte_identical_to_serial(
        self, design, with_link, with_adaptive, tiny_runner
    ):
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        (serial, serial_digests), (piped, piped_digests) = _run_both(
            design, device, tiny_runner, plan,
            with_link=with_link, with_adaptive=with_adaptive,
        )
        # Bitstreams + HR outputs, frame by frame.
        assert piped_digests == serial_digests
        assert len(serial_digests) == N_FRAMES
        # Exported trace JSON (canonicalized: wall-clock data stripped).
        assert _canonical(piped) == _canonical(serial)
        # Aggregates derived from the records.
        assert [r.index for r in piped.records] == list(range(N_FRAMES))
        assert [r.dropped for r in piped.records] == [
            r.dropped for r in serial.records
        ]
        assert piped.mean_mtp().total_ms == serial.mean_mtp().total_ms
        assert piped.mean_energy().total == serial.mean_energy().total


class TestPipelineExecution:
    def test_render_prefetch_workers_identical(self, tiny_runner):
        """workers>1 spawns the render-prefetch pool inside the producer;
        renders are pure by index so the stream must not change."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client, roi_side = _make_client("gamestreamsr", device, tiny_runner, plan)
        serial = run_session(_server(roi_side), client, n_frames=N_FRAMES)
        client2, _ = _make_client("gamestreamsr", device, tiny_runner, plan)
        piped = run_session_pipelined(
            _server(roi_side), client2, n_frames=N_FRAMES, depth=2, workers=2
        )
        assert _canonical(piped) == _canonical(serial)

    def test_pipeline_metrics_present_and_volatile(self, tiny_runner):
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client, roi_side = _make_client("bilinear", device, tiny_runner, plan)
        result = run_session_pipelined(
            _server(roi_side), client, n_frames=N_FRAMES, depth=2
        )
        names = result.metrics.names()
        assert "pipeline/queue_wait_ms" in names
        assert "pipeline/ring_occupancy" in names
        assert "pipeline/producer_stalls" in names
        assert result.metrics.counter("pipeline/frames_produced").value == N_FRAMES
        # Volatile executor metrics never survive canonicalization.
        canon = canonicalize_session_trace(result.to_trace_dict())
        assert not any(n.startswith("pipeline/") for n in canon["metrics"])
        assert not any(n.startswith("stage_wall_ms/") for n in canon["metrics"])

    def test_skip_dropped_identical_across_executors(self, tiny_runner):
        """The reference-chain skip cascade is consumer-side state: the
        pipelined run must skip exactly the frames the serial run does."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        runs = []
        for executor in (run_session, run_session_pipelined):
            client, roi_side = _make_client("bilinear", device, tiny_runner, plan)
            runs.append(
                executor(
                    _server(roi_side),
                    client,
                    n_frames=N_FRAMES,
                    scenario=NetworkLink(**LINK_KW),
                    link_deadline_ms=60.0,
                    skip_dropped=True,
                )
            )
        serial, piped = runs
        assert _canonical(piped) == _canonical(serial)
        assert [r.dropped for r in piped.records] == [
            r.dropped for r in serial.records
        ]

    def test_validation_errors(self, tiny_runner):
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client, roi_side = _make_client("bilinear", device, tiny_runner, plan)
        with pytest.raises(ValueError, match="depth"):
            run_session_pipelined(_server(roi_side), client, n_frames=2, depth=0)
        with pytest.raises(ValueError, match="workers"):
            run_session_pipelined(_server(roi_side), client, n_frames=2, workers=0)
        with pytest.raises(ValueError, match="n_frames"):
            run_session_pipelined(_server(roi_side), client, n_frames=0)

    @pytest.mark.parametrize("executor", [run_session, run_session_pipelined])
    def test_bad_knobs_rejected_before_streaming(
        self, executor, monkeypatch, tiny_runner
    ):
        """An unknown knob (``link=`` is gone: transports go through
        ``scenario=``) and an ABR conflict both raise before the
        pipelined executor creates its ring or producer."""

        def not_yet(*args, **kwargs):
            raise AssertionError("ring or producer created before knob checks")

        monkeypatch.setattr(pipelined, "ShmRing", not_yet)
        monkeypatch.setattr(pipelined.mp, "Process", not_yet)
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client, roi_side = _make_client("gamestreamsr", device, tiny_runner, plan)
        with pytest.raises(TypeError, match="link"):
            executor(
                _server(roi_side), client, n_frames=2,
                link=NetworkLink(**LINK_KW),
            )
        with pytest.raises(ValueError, match="mutually exclusive with gop_reuse"):
            executor(
                _server(roi_side), client, n_frames=2,
                abr=build_abr(plan.side, plan.min_side, 720), gop_reuse=True,
            )


# -- crash injection ------------------------------------------------------
# Module-level so the wrapper pickles into the producer process.


class _KillRender:
    """Game proxy that SIGKILLs its own process at a chosen frame index."""

    def __init__(self, inner, kill_at: int):
        self.inner = inner
        self.kill_at = kill_at
        self.game_id = inner.game_id

    def render_frame(self, frame_index, width, height, fps=60.0):
        if frame_index >= self.kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.render_frame(frame_index, width, height, fps)


class _RaiseRender:
    """Game proxy that raises inside the producer at a chosen frame."""

    def __init__(self, inner, raise_at: int):
        self.inner = inner
        self.raise_at = raise_at
        self.game_id = inner.game_id

    def render_frame(self, frame_index, width, height, fps=60.0):
        if frame_index >= self.raise_at:
            raise ValueError("injected producer failure")
        return self.inner.render_frame(frame_index, width, height, fps)


def _crash_knobs(adaptive, plan):
    """Crash sessions run with and without the feedback pipe in use."""
    if not adaptive:
        return {}
    return {
        "adaptive": AdaptiveRoIController(
            initial_side=plan.side, min_side=plan.min_side, max_side=720
        )
    }


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
class TestCrashInjection:
    def test_worker_killed_mid_gop_truncates_cleanly(self, adaptive, tiny_runner):
        """SIGKILL at frame 4 (mid second GOP): the session must shut
        down cleanly and return a truncated-but-valid result holding
        every frame published before the kill."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client, roi_side = _make_client("gamestreamsr", device, tiny_runner, plan)
        game = _KillRender(build_game("G3"), kill_at=4)
        result = run_session_pipelined(
            _server(roi_side, gop=3, game=game), client, n_frames=6, depth=2,
            **_crash_knobs(adaptive, plan),
        )
        assert [r.index for r in result.records] == [0, 1, 2, 3]
        assert result.metrics.counter("pipeline/truncated").value == 1
        assert result.metrics.counter("pipeline/frames_missing").value == 2
        # The truncated result is still schema-valid and consistent.
        validate_session_trace(result.to_trace_dict())
        assert result.records[3].frame_type == "I"  # GOP restarted at 3
        # The ring segment is gone (clean unlink despite the dead peer).
        # A fresh session on the same objects still works end to end.
        client2, _ = _make_client("gamestreamsr", device, tiny_runner, plan)
        ok = run_session_pipelined(
            _server(roi_side), client2, n_frames=2, depth=2
        )
        assert len(ok.records) == 2

    def test_producer_exception_propagates(self, adaptive, tiny_runner):
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client, roi_side = _make_client("bilinear", device, tiny_runner, plan)
        game = _RaiseRender(build_game("G3"), raise_at=2)
        with pytest.raises(RuntimeError, match="injected producer failure"):
            run_session_pipelined(
                _server(roi_side, game=game), client, n_frames=4, depth=2,
                **_crash_knobs(adaptive, plan),
            )


# -- shared-memory ring ---------------------------------------------------


def _ring_child_producer(name, capacity, slot_bytes, payloads):
    ring = ShmRing(capacity, slot_bytes, name=name, create=False)
    try:
        for p in payloads:
            ring.push(p)
    finally:
        ring.close()


class TestShmRing:
    def test_roundtrip_and_wraparound(self):
        ring = ShmRing(capacity=2, slot_bytes=64)
        try:
            payloads = [bytes([i]) * (i + 1) for i in range(6)]
            got = []
            for i, p in enumerate(payloads):
                ring.push(p)  # capacity 2, consumed in lockstep: never full
                got.append(ring.pop(i))
            assert got == payloads
            assert ring.produced == ring.consumed == 6
        finally:
            ring.close()
            ring.unlink()

    def test_backpressure_bounds_runahead(self):
        ring = ShmRing(capacity=2, slot_bytes=8)
        try:
            ring.push(b"a")
            ring.push(b"b")
            with pytest.raises(TimeoutError):
                ring.push(b"c", timeout_s=0.05)
            assert ring.backpressure_waits == 1
            assert ring.backpressure_wait_ms > 0
            assert ring.pop(0) == b"a"
            ring.push(b"c")  # slot freed: push succeeds
            assert ring.pop(1) == b"b"
            assert ring.pop(2) == b"c"
        finally:
            ring.close()
            ring.unlink()

    def test_overflow_and_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ShmRing(capacity=0)
        with pytest.raises(ValueError, match="slot_bytes"):
            ShmRing(capacity=1, slot_bytes=0)
        ring = ShmRing(capacity=1, slot_bytes=4)
        try:
            with pytest.raises(RingOverflow):
                ring.push(b"too big for slot")
        finally:
            ring.close()
            ring.unlink()

    def test_pop_timeout(self):
        ring = ShmRing(capacity=1, slot_bytes=8)
        try:
            with pytest.raises(TimeoutError):
                ring.pop(0, timeout_s=0.05)
        finally:
            ring.close()
            ring.unlink()

    def test_cross_process_transfer(self):
        payloads = [bytes([i % 256]) * 100 for i in range(10)]
        ring = ShmRing(capacity=3, slot_bytes=128)
        child = mp.Process(
            target=_ring_child_producer,
            args=(ring.name, 3, 128, payloads),
        )
        child.start()
        try:
            got = [ring.pop(i, alive=child.is_alive, timeout_s=10.0) for i in range(10)]
            assert got == payloads
        finally:
            child.join(timeout=10.0)
            ring.close()
            ring.unlink()

    def test_dead_producer_detected(self):
        ring = ShmRing(capacity=2, slot_bytes=8)
        child = mp.Process(
            target=_ring_child_producer, args=(ring.name, 2, 8, [b"x"])
        )
        child.start()
        try:
            assert ring.pop(0, alive=child.is_alive, timeout_s=10.0) == b"x"
            child.join(timeout=10.0)
            # Frame 1 was never published and the producer is gone.
            assert ring.pop(1, alive=child.is_alive) is None
        finally:
            ring.close()
            ring.unlink()


# -- modeled pipeline schedule --------------------------------------------


def _trace(index, server_ms, client_ms):
    t = FrameTrace(index=index, frame_type="P")
    t.add_span("encode", server_ms)
    t.add_span("upscale", client_ms)
    return t


class TestModeledSchedule:
    def test_balanced_pipeline_approaches_2x(self):
        traces = [_trace(i, 10.0, 10.0) for i in range(100)]
        sched = modeled_pipeline_schedule(traces, depth=2)
        assert sched.serial_total_ms == 2000.0
        # Pipelined: fill (10 ms) + 100 client slots of 10 ms.
        assert sched.pipelined_total_ms == 1010.0
        assert sched.speedup == pytest.approx(2000.0 / 1010.0)

    def test_depth_one_serializes(self):
        # depth=1: server i+1 must wait for client i (single slot).
        traces = [_trace(i, 10.0, 5.0) for i in range(3)]
        sched = modeled_pipeline_schedule(traces, depth=1)
        assert sched.pipelined_total_ms == 45.0
        assert sched.speedup == pytest.approx(1.0)
        # depth=2 overlaps: server free-runs one ahead of the client.
        sched2 = modeled_pipeline_schedule(traces, depth=2)
        assert sched2.pipelined_total_ms == 35.0

    def test_bottleneck_side_bounds_throughput(self):
        traces = [_trace(i, 2.0, 10.0) for i in range(50)]
        sched = modeled_pipeline_schedule(traces, depth=2)
        # Client-bound: sustained FPS ~= 1000 / client_ms.
        assert sched.pipelined_fps == pytest.approx(1000.0 / 10.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            modeled_pipeline_schedule([], depth=2)
        with pytest.raises(ValueError, match="depth"):
            modeled_pipeline_schedule([_trace(0, 1.0, 1.0)], depth=0)
