"""Software-pipelined session executor: server and client overlap frames.

:func:`run_session` marches every frame through render -> RoI -> encode ->
transport -> decode -> SR strictly serially, so whole-pipeline FPS is
bounded by the *sum* of the server and client stage times. A real
streaming rig overlaps them: while the client upscales frame ``n`` the
server is already encoding frame ``n+1`` (the paper's 16.66 ms deadline
assumes exactly this). :func:`run_session_pipelined` reproduces that
overlap in software: the server stages run in a worker *producer*
process, encoded :class:`~repro.streaming.frames.ServerFrame` payloads
cross a bounded :class:`~repro.streaming.ring.ShmRing` shared-memory
ring, and the client stages consume them **in frame order** in the
parent process.

Dependency rules the executor enforces
--------------------------------------
* **GOP structure** — I-frames reset decoder state and P-frames depend on
  the previous reconstruction, on both sides of the wire. The encoder is
  sequential inside the single producer process and the decoder is
  sequential inside the consumer, which consumes strictly in frame
  order; no frame is ever decoded before its predecessor.
* **Bounded run-ahead** — the ring holds at most ``depth`` published
  frames, so the server runs at most ``depth`` frames ahead of the
  client (backpressure blocks the producer's push when the client
  falls behind).
* **Feedback lag** — the adaptive RoI / ABR controller observes frame
  ``n`` and decides the server knobs of frame ``n+1``. That control edge
  crosses the process boundary through a feedback pipe: the producer
  may not produce frame ``n+1`` until the consumer has observed frame
  ``n`` and sent the knob dict. With ``adaptive`` or ``abr`` enabled the
  pipeline therefore degenerates to lock-step (the one-frame feedback
  lag collapses the overlap); the paper's static sizing keeps the full
  ``depth``-deep overlap.

Determinism
-----------
Everything stochastic or stateful on the client side of the wire — the
:class:`~repro.network.NetworkLink` RNG, decoder state, the adaptive
controller, quality scoring — runs in the parent, in frame order,
through the *same* :func:`repro.streaming.session._stream` loop the
serial executor uses; this module only supplies its frame source. The
producer runs the *same* sequential ``server.next_frame``. Pipelined
sessions are therefore byte-identical to serial ones by construction
(guarded by the cross-process determinism suite). Wall-clock data
(``wall_ms``, ``pipeline/*`` metrics) is the one legitimate difference;
:func:`repro.observability.canonicalize_session_trace` strips it for
comparisons.

Failure semantics
-----------------
A producer that *raises* ships the traceback back over the feedback pipe
and the parent re-raises. A producer that *dies* (OOM-kill, SIGKILL) is
detected by the consumer's liveness poll; the session returns a
truncated-but-valid :class:`~repro.streaming.session.SessionResult`
holding every fully-consumed frame, with ``pipeline/truncated`` set in
its metrics. Either way the ring is drained, closed, and unlinked.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterator, List, Optional

from ..observability import (
    MetricsRegistry,
    observe_pipeline_dequeue,
    observe_pipeline_producer,
    observe_pipeline_truncation,
)
from .client import StreamingClient
from .frames import ServerFrame
from .pipeline import CLIENT_STAGES, SERVER_STAGES, FrameTrace
from .ring import DEFAULT_SLOT_BYTES, RingClosed, ShmRing
from .server import GameStreamServer
from .session import (
    SessionResult,
    SessionSpec,
    _FrameSource,
    _apply_server_knobs,
    _stream,
)

__all__ = [
    "PipelineSchedule",
    "modeled_pipeline_schedule",
    "run_session_pipelined",
]

#: A consumer wait above this marks the frame as producer-stalled (the
#: poll granularity of the ring is 0.1 ms; anything past 1 ms means the
#: frame genuinely was not ready).
_STALL_THRESHOLD_MS = 1.0

#: How long the parent waits for the producer to exit during shutdown
#: before escalating to terminate().
_JOIN_TIMEOUT_S = 10.0


# -- render prefetch pool (inside the producer) --------------------------
# render_lr is pure in the frame index (the world state is a function of
# index and fps), so renders can run ahead in a pool without changing the
# stream. Pool workers hold their own copy of the server object; module
# globals are the standard ProcessPoolExecutor initializer idiom.

_POOL_SERVER: Optional[GameStreamServer] = None


def _render_pool_init(server: GameStreamServer) -> None:
    global _POOL_SERVER
    _POOL_SERVER = server


def _render_frame(index: int):
    assert _POOL_SERVER is not None, "render pool used before initialization"
    return _POOL_SERVER.render_lr(index)


class _RenderPrefetcher:
    """Keeps up to ``ahead`` render_lr futures in flight inside the pool."""

    def __init__(self, server: GameStreamServer, workers: int, ahead: int) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_render_pool_init,
            initargs=(server,),
        )
        self._ahead = ahead
        self._futures: Dict[int, Future] = {}
        self._next_submit = 0

    def _fill(self, upto_exclusive: int) -> None:
        while self._next_submit < upto_exclusive:
            self._futures[self._next_submit] = self._pool.submit(
                _render_frame, self._next_submit
            )
            self._next_submit += 1

    def get(self, index: int):
        """The render of frame ``index``; tops the pipeline back up."""
        self._fill(index + 1 + self._ahead)
        return self._futures.pop(index).result()

    def shutdown(self) -> None:
        for fut in self._futures.values():
            fut.cancel()
        # wait=True: a wait=False shutdown can leave a pool worker parked
        # on its call-queue pipe after the producer exits — an orphan that
        # holds inherited fds (e.g. the session's stdout) open forever.
        self._pool.shutdown(wait=True, cancel_futures=True)


def _producer_main(
    ring_name: str,
    capacity: int,
    slot_bytes: int,
    server: GameStreamServer,
    n_frames: int,
    feedback_enabled: bool,
    render_workers: int,
    conn,
) -> None:
    """Producer process: run the server stages and publish frames.

    Attaches to the ring by name, runs ``server.next_frame()``
    sequentially (encoder state is order-dependent), and pushes pickled
    frames. With ``feedback_enabled`` it blocks on the feedback pipe for
    the consumer's ``("knobs", index, dict)`` decision before producing
    each frame and actuates it through the shared
    ``_apply_server_knobs``; ``("stop",)`` ends it early. A raised
    exception is reported over the pipe before exiting.
    """
    ring = ShmRing(capacity, slot_bytes, name=ring_name, create=False)
    prefetcher: Optional[_RenderPrefetcher] = None
    try:
        if render_workers > 1 and not feedback_enabled:
            prefetcher = _RenderPrefetcher(
                server, workers=render_workers - 1, ahead=capacity
            )
        for index in range(n_frames):
            if feedback_enabled:
                msg = conn.recv()
                if msg[0] == "stop":
                    return
                assert msg[0] == "knobs" and msg[1] == index, msg
                _apply_server_knobs(server, msg[2])
            prerendered = prefetcher.get(index) if prefetcher is not None else None
            frame = server.next_frame(prerendered=prerendered)
            payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
            ring.push(payload)
        conn.send(("done", n_frames))
    except RingClosed:
        pass  # consumer shut down early (error on its side); just exit
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        if prefetcher is not None:
            prefetcher.shutdown()
        ring.close()
        conn.close()


def run_session_pipelined(
    server: GameStreamServer,
    client: StreamingClient,
    n_frames: int,
    depth: int = 2,
    workers: int = 1,
    slot_bytes: int = DEFAULT_SLOT_BYTES,
    **knobs: Any,
) -> SessionResult:
    """Pipelined drop-in for :func:`repro.streaming.session.run_session`.

    Same ``knobs`` (the fields of
    :class:`~repro.streaming.session.SessionSpec`) and
    :class:`SessionResult` contract as the serial loop, plus:

    ``depth``
        Ring capacity = how many frames the server may run ahead of the
        client. ``depth=2`` already overlaps fully when the two halves
        are balanced; deeper rings only help absorb *bursty* stage times
        (e.g. the I-frame encode spike at each GOP head).
    ``workers``
        Total server-side processes. ``1`` = the producer alone;
        ``>1`` adds a render-prefetch pool of ``workers - 1`` processes
        inside the producer (pure-by-index renders run ahead; RoI/encode
        stay sequential). Ignored when ``adaptive`` or ``abr`` is set —
        feedback lock-step makes prefetch pointless.
    ``slot_bytes``
        Fixed per-frame payload capacity of the ring.

    ``evaluate_quality`` scores against the *parent's* copy of the
    server (``render_hr_reference`` is pure in the frame index), unless
    ``hr_reference_fn`` overrides the source as in the serial loop.
    """
    spec = SessionSpec(**knobs)
    if depth < 1:
        raise ValueError(f"pipeline depth must be >= 1, got {depth}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    open_source = partial(
        _ring_source, server, n_frames, spec.controller is not None,
        depth, workers, slot_bytes,
    )
    return _stream(server, client, n_frames, spec, open_source)


@contextmanager
def _ring_source(
    server: GameStreamServer,
    n_frames: int,
    feedback_enabled: bool,
    depth: int,
    workers: int,
    slot_bytes: int,
    metrics: MetricsRegistry,
) -> Iterator[_FrameSource]:
    """Start the producer and yield a frame source that pops the ring.

    The source sends each frame's server knob dict over the feedback
    pipe (authorizing the producer to produce that frame), then pops the
    frame. It returns ``None`` when the producer died or failed. On exit
    the ring is drained, closed, and unlinked, and a producer error is
    re-raised.
    """
    ring = ShmRing(depth, slot_bytes)
    parent_conn, child_conn = mp.Pipe()
    producer = mp.Process(
        target=_producer_main,
        args=(
            ring.name,
            depth,
            slot_bytes,
            server,
            n_frames,
            feedback_enabled,
            workers,
            child_conn,
        ),
        name="repro-pipeline-producer",
        daemon=False,  # the render-prefetch pool needs child processes
    )
    producer.start()
    child_conn.close()
    producer_error: Optional[str] = None

    def pop(
        index: int, server_knobs: Optional[Dict[str, Any]]
    ) -> Optional[ServerFrame]:
        nonlocal producer_error
        if server_knobs is not None:
            parent_conn.send(("knobs", index, server_knobs))
        waited_from = time.perf_counter()
        stalled = not ring.ready(index)
        payload = ring.pop(index, alive=producer.is_alive)
        if payload is None:
            producer_error = _drain_error(parent_conn)
            if producer_error is None:
                observe_pipeline_truncation(metrics, n_frames - index)
            return None
        queue_wait_ms = (time.perf_counter() - waited_from) * 1e3
        observe_pipeline_dequeue(
            metrics,
            queue_wait_ms,
            ring.occupancy,
            stalled and queue_wait_ms > _STALL_THRESHOLD_MS,
        )
        return pickle.loads(payload)

    try:
        yield pop
    finally:
        observe_pipeline_producer(
            metrics,
            ring.backpressure_waits,
            ring.backpressure_wait_ms,
            ring.produced,
        )
        ring.mark_closed()  # unblocks a backpressured push
        if feedback_enabled and producer.is_alive():
            try:
                parent_conn.send(("stop",))  # unblocks a feedback recv
            except (BrokenPipeError, OSError):
                pass
        producer.join(timeout=_JOIN_TIMEOUT_S)
        if producer.is_alive():
            producer.terminate()
            producer.join()
        if producer_error is None:
            producer_error = _drain_error(parent_conn)
        parent_conn.close()
        ring.close()
        ring.unlink()
    if producer_error is not None:
        raise RuntimeError(
            f"pipeline producer failed:\n{producer_error}"
        )


def _drain_error(conn) -> Optional[str]:
    """Pull any pending producer message; return its error text, if any."""
    try:
        while conn.poll():
            msg = conn.recv()
            if msg[0] == "error":
                return msg[1]
    except (EOFError, BrokenPipeError, OSError):
        pass
    return None


# -- modeled pipeline schedule -------------------------------------------


@dataclass(frozen=True)
class PipelineSchedule:
    """Modeled steady-state timing of a depth-bounded two-stage pipeline.

    Computed from per-frame *modeled* stage times (the calibrated
    platform model the paper's numbers come from), so it is deterministic
    and host-independent — the modeled counterpart of the executor's
    wall-clock measurements, and the headline metric of
    ``benchmarks/bench_pipeline.py``.
    """

    n_frames: int
    depth: int
    serial_total_ms: float
    pipelined_total_ms: float
    server_busy_ms: float
    client_busy_ms: float

    @property
    def serial_fps(self) -> float:
        return 1e3 * self.n_frames / self.serial_total_ms

    @property
    def pipelined_fps(self) -> float:
        return 1e3 * self.n_frames / self.pipelined_total_ms

    @property
    def speedup(self) -> float:
        return self.serial_total_ms / self.pipelined_total_ms


def modeled_pipeline_schedule(
    traces: List[FrameTrace], depth: int = 2
) -> PipelineSchedule:
    """Schedule a session's frames through the modeled two-stage pipeline.

    The server half of frame ``i`` (input/game/render/RoI/encode/network
    modeled spans) may start once frame ``i-1``'s server half is done
    *and* slot ``i % depth`` is free (the client has consumed frame
    ``i - depth``); the client half (decode/SR/display) starts when its
    frame is published and the client is idle:

    ``server_done[i] = max(server_done[i-1], client_done[i-depth]) + S_i``
    ``client_done[i] = max(client_done[i-1], server_done[i]) + C_i``

    The serial baseline is ``sum(S_i + C_i)``. Both executors' traces
    give the same schedule (modeled spans are identical by the
    determinism guarantee).
    """
    if not traces:
        raise ValueError("cannot schedule an empty session")
    if depth < 1:
        raise ValueError(f"pipeline depth must be >= 1, got {depth}")
    server_ms = [
        sum(s.modeled_ms for s in t.spans if s.name in SERVER_STAGES) for t in traces
    ]
    client_ms = [
        sum(s.modeled_ms for s in t.spans if s.name in CLIENT_STAGES) for t in traces
    ]
    server_done: List[float] = []
    client_done: List[float] = []
    for i in range(len(traces)):
        start = server_done[i - 1] if i >= 1 else 0.0
        if i >= depth:
            start = max(start, client_done[i - depth])
        server_done.append(start + server_ms[i])
        prev_client = client_done[i - 1] if i >= 1 else 0.0
        client_done.append(max(prev_client, server_done[i]) + client_ms[i])
    return PipelineSchedule(
        n_frames=len(traces),
        depth=depth,
        serial_total_ms=sum(server_ms) + sum(client_ms),
        pipelined_total_ms=client_done[-1],
        server_busy_ms=sum(server_ms),
        client_busy_ms=sum(client_ms),
    )
