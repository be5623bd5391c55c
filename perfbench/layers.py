"""Call-boundary tracing: times the public calls into each layer.

Nothing inside ``src/repro`` is instrumented. :class:`Tracer` replaces
class attributes and module globals with timing wrappers while a session
runs and restores them afterwards. Spans stay in memory and are reduced
to per-session sums by :meth:`Tracer.take_session`.

The wrapper on ``observe_frame_trace`` doubles as the frame clock: both
executors call it once per frame, in the consumer process, after the
frame's client work. It is installed for every session, traced or not;
the layer wrappers only for traced ones.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.prerender import PrerenderedWorkload
from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import VideoEncoder
from repro.core.detector import RoIDetector
from repro.core.upscaler import RoIAssistedUpscaler
from repro.network.link import NetworkLink
from repro.render.games import GameWorkload
from repro.sr.backends import SRBackend
from repro.sr.runner import SRRunner
from repro.streaming import session as session_module
from repro.streaming.ring import ShmRing
from repro.streaming.server import GameStreamServer

__all__ = ["Tracer", "LAYERS"]

#: Layers whose busy time is reported, and the stage span
#: (``stage_wall_ms/<stage>``) whose wall time the layer's calls should
#: account for. ``roi_upscale`` is the RoI-assisted upscaler: the SR
#: call on the RoI plus the interpolated background and the composite.
LAYERS = {
    "render": "render",
    "roi_detect": "roi_detect",
    "encode": "encode",
    "decode": "decode",
    "roi_upscale": "upscale",
    "sr": None,
    "transmit": None,
    "psnr": None,
    "observe": None,
}

#: Spans that contain layer calls rather than being one: the serial
#: server half, and the consumer's wait on the pipelined ring.
_CONTAINER = "server_half"
_QUEUE = "queue"


def _sr_backend_name(owner: Any) -> str:
    name = getattr(owner, "name", None)
    if isinstance(name, str):
        return name
    return type(getattr(owner, "model", owner)).__name__.lower()


def _sr_pixels(arg: Any) -> int:
    shape = getattr(arg, "shape", ())
    if len(shape) == 4:  # (N, H, W, C) tile stack
        return int(shape[0] * shape[1] * shape[2])
    return int(shape[0] * shape[1]) if len(shape) >= 2 else 0


def _layer_calls():
    """(layer, owner, attribute, info) for every wrapped call."""
    encode_info = lambda args, out: (out.frame_type, int(out.size_bytes))  # noqa: E731
    sr_info = lambda args, out: (_sr_backend_name(args[0]), _sr_pixels(args[1]))  # noqa: E731
    calls = [
        ("render", GameWorkload, "render_frame", None),
        ("render", PrerenderedWorkload, "render_frame", None),
        ("roi_detect", RoIDetector, "detect", None),
        ("encode", VideoEncoder, "encode_frame", encode_info),
        ("decode", VideoDecoder, "decode_frame", None),
        ("roi_upscale", RoIAssistedUpscaler, "upscale", None),
        ("transmit", NetworkLink, "transmit", None),
        ("psnr", session_module, "psnr_metric", None),
        (_CONTAINER, GameStreamServer, "next_frame", None),
        (_QUEUE, ShmRing, "pop", None),
    ]
    for owner in [SRRunner, *SRBackend.__subclasses__()]:
        for attr in ("upscale", "upscale_batch", "upscale_tiled", "upscale_windows"):
            if attr in vars(owner):
                calls.append(("sr", owner, attr, sr_info))
    return calls


class Tracer:
    """Frame clock plus optional per-layer spans for one worker process."""

    def __init__(self) -> None:
        self.tracing = False
        #: perf_counter() at the end of each frame's observe call.
        self.ticks: List[float] = []
        #: [layer, start, end, frame, parent index, info]
        self.spans: List[list] = []
        self._open: List[int] = []
        self._saved: List[tuple] = []

    # -- patching ----------------------------------------------------------

    def install(self, layers: bool) -> None:
        """Wrap the frame clock, and every layer call when ``layers``."""
        self._patch(session_module, "observe_frame_trace", self._clock_wrapper)
        if layers:
            for layer, owner, attr, info in _layer_calls():
                self._patch(owner, attr, lambda fn, l=layer, i=info: self._wrapper(l, fn, i))
        self.tracing = layers

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.tracing = False

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _wrapper(self, layer: str, fn: Callable, info: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.tracing:
                return fn(*args, **kwargs)
            span = [layer, time.perf_counter(), 0.0, len(tracer.ticks),
                    tracer._open[-1] if tracer._open else -1, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
            if info is not None:
                span[5] = info(args, out)
            return out

        return traced

    def _clock_wrapper(self, fn: Callable) -> Callable:
        timed = self._wrapper("observe", fn, None)

        @functools.wraps(fn)
        def clock(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.ticks.append(time.perf_counter())
            return out

        return clock

    # -- reduction ---------------------------------------------------------

    def take_session(self) -> Dict[str, Any]:
        """Reduce and clear this session's ticks and spans.

        Returns the frame intervals, and for a traced session each
        layer's busy time (its outermost calls only, so a backend calling
        the runner counts once), call counts and call details.
        """
        ticks, spans = self.ticks, self.spans
        self.ticks, self.spans, self._open = [], [], []
        out: Dict[str, Any] = {
            "frames": len(ticks),
            "first_tick": ticks[0] if ticks else None,
            "intervals_ms": [(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])],
        }
        if not spans:
            return out
        busy = {layer: 0.0 for layer in (*LAYERS, _CONTAINER, _QUEUE)}
        calls = {layer: 0 for layer in busy}
        top_level_ms = [0.0] * (len(ticks) + 1)
        server_end: Dict[int, float] = {}
        handoff_ms: List[float] = []
        queue_ms: List[float] = []
        encode: List[tuple] = []
        sr_calls: Dict[str, int] = {}
        sr_pixels = 0
        for span in spans:
            layer, start, end, frame, parent, info = span
            ms = (end - start) * 1e3
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][4]
            if layer in ancestors:
                continue  # nested call inside the same layer
            busy[layer] += ms
            calls[layer] += 1
            if layer == _CONTAINER:
                server_end[frame] = end
            elif not (set(ancestors) - {_CONTAINER}):
                top_level_ms[frame] += ms
                if not ancestors and frame in server_end:
                    handoff_ms.append((start - server_end.pop(frame)) * 1e3)
            if layer == _QUEUE:
                queue_ms.append(ms)
            elif layer == "encode":
                encode.append((info[0], info[1], ms))
            elif layer == "sr":
                sr_calls[info[0]] = sr_calls.get(info[0], 0) + 1
                sr_pixels += info[1]
        # Frame k's interval ends at tick k; its work carries frame id k.
        self_ms = [
            interval - top_level_ms[k + 1] for k, interval in enumerate(out["intervals_ms"])
        ]
        out.update(
            busy_ms=busy,
            calls=calls,
            loop_self_ms=self_ms,
            handoff_ms=handoff_ms,
            queue_ms=queue_ms,
            encode=encode,
            sr_calls=sr_calls,
            sr_pixels=sr_pixels,
        )
        return out
