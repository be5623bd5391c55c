"""End-to-end streaming session driver and result aggregation.

:func:`run_session` streams ``n_frames`` of one game through a server and
a client design, collecting per-frame latencies, MTP breakdowns, energy,
and (optionally) quality against the native HR render. All of the paper's
evaluation figures are computed from :class:`SessionResult` objects.

The loop is staged end to end: every frame carries a merged
:class:`~repro.streaming.pipeline.FrameTrace` (server render/RoI/encode/
network spans + client decode/upscale/display spans) from which the MTP
and energy aggregates are derived, and which feeds the session's
:class:`~repro.observability.MetricsRegistry`.

:class:`SessionSpec` is the one list of session knobs. Both executors
(:func:`run_session` here and
:func:`~repro.streaming.pipelined.run_session_pipelined`) take its fields
as keyword arguments and drive the same loop, :func:`_stream`; they
differ only in where frames come from. With every knob at its default
the session is numerically identical to the paper's static
configuration (guarded by the equivalence tests).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Union

import numpy as np

from ..metrics.lpips import lpips as lpips_metric
from ..metrics.psnr import psnr as psnr_metric
from ..network.link import NetworkLink, TransmitResult
from ..network.trace import build_scenario
from ..observability import MetricsRegistry, observe_frame_trace
from ..platform import calibration as cal
from ..platform.device import DeviceProfile
from ..platform.energy import Component, EnergyBreakdown, overhead_mj, stage_energy_mj
from .abr import ABRController
from .adaptive import AdaptiveRoIController
from .client import StreamingClient
from .frames import ClientFrameResult, ServerFrame, StreamGeometry
from .mtp import MTPBreakdown, mtp_from_frame
from .pipeline import FrameTrace, split_transmission
from .server import GameStreamServer

__all__ = [
    "FrameRecord",
    "SessionResult",
    "SessionSpec",
    "run_session",
    "energy_of_frame",
    "energy_from_trace",
]


def energy_of_frame(
    device: DeviceProfile, client_result: ClientFrameResult
) -> EnergyBreakdown:
    """Integrate one frame's energy stages into a Fig. 12 breakdown."""
    totals = {"decode": 0.0, "upscale": 0.0, "network": 0.0}
    for category, stages in client_result.energy_stages.items():
        if category not in totals:
            raise ValueError(f"unknown energy category {category!r}")
        for component, ms in stages:
            totals[category] += stage_energy_mj(device, component, ms)
    return EnergyBreakdown(
        decode=totals["decode"],
        upscale=totals["upscale"],
        network=totals["network"],
        display=overhead_mj(device),
    )


def energy_from_trace(device: DeviceProfile, trace: FrameTrace) -> EnergyBreakdown:
    """Integrate a frame trace's energy attributions into a Fig. 12 breakdown.

    Walks spans in recording order and accumulates per-category totals in
    the same order as :func:`energy_of_frame` does over the dict view, so
    both paths produce bit-identical sums.
    """
    totals = {"decode": 0.0, "upscale": 0.0, "network": 0.0}
    for span in trace.spans:
        for attr in span.energy:
            category = attr.resolved_category(span.name)
            if category not in totals:
                raise ValueError(f"unknown energy category {category!r}")
            totals[category] += stage_energy_mj(device, attr.component, attr.ms)
    return EnergyBreakdown(
        decode=totals["decode"],
        upscale=totals["upscale"],
        network=totals["network"],
        display=overhead_mj(device),
    )


@dataclass(frozen=True)
class FrameRecord:
    """Everything measured for one streamed frame."""

    index: int
    frame_type: str
    upscale_ms: float
    mtp: MTPBreakdown
    energy: EnergyBreakdown
    modeled_size_bytes: int
    psnr_db: Optional[float] = None
    lpips: Optional[float] = None
    #: Transport-stage outcome (always False/0 on the flat default link).
    dropped: bool = False
    network_retransmissions: int = 0
    #: Merged server+client stage trace for this frame.
    trace: Optional[FrameTrace] = None

    @property
    def is_reference(self) -> bool:
        return self.frame_type == "I"

    @property
    def upscale_fps(self) -> float:
        """Output frame rate the upscaling stage alone can sustain."""
        return 1000.0 / self.upscale_ms if self.upscale_ms > 0 else float("inf")


@dataclass
class SessionResult:
    """Aggregated metrics of one streaming session."""

    game_id: str
    design: str
    device_name: str
    geometry: StreamGeometry
    gop_size: int
    records: List[FrameRecord] = field(default_factory=list)
    #: Per-session metrics registry fed from the frame traces.
    metrics: Optional[MetricsRegistry] = None

    def _select(self, reference: Optional[bool]) -> List[FrameRecord]:
        if reference is None:
            return self.records
        return [r for r in self.records if r.is_reference == reference]

    def mean_upscale_ms(self, reference: Optional[bool] = None) -> float:
        records = self._select(reference)
        if not records:
            raise ValueError("no matching frames in session")
        return float(np.mean([r.upscale_ms for r in records]))

    def upscale_fps(self, reference: Optional[bool] = None) -> float:
        return 1000.0 / self.mean_upscale_ms(reference)

    def gop_upscale_ms(self) -> float:
        """Total upscaling time across the session (GOP throughput basis)."""
        return float(np.sum([r.upscale_ms for r in self.records]))

    def mean_mtp(self, reference: Optional[bool] = None) -> MTPBreakdown:
        return MTPBreakdown.mean([r.mtp for r in self._select(reference)])

    def mean_energy(self) -> EnergyBreakdown:
        return EnergyBreakdown.mean([r.energy for r in self.records])

    def mean_psnr(self) -> float:
        vals = [r.psnr_db for r in self.records if r.psnr_db is not None]
        if not vals:
            raise ValueError("session was run without quality evaluation")
        return float(np.mean(vals))

    def mean_lpips(self) -> float:
        vals = [r.lpips for r in self.records if r.lpips is not None]
        if not vals:
            raise ValueError("session was run without quality evaluation")
        return float(np.mean(vals))

    def psnr_series(self) -> List[float]:
        return [r.psnr_db for r in self.records if r.psnr_db is not None]

    # -- transport/observability aggregates ------------------------------

    def frame_traces(self) -> List[FrameTrace]:
        """The merged per-frame traces (empty for hand-built records)."""
        return [r.trace for r in self.records if r.trace is not None]

    def drop_rate(self) -> float:
        """Fraction of frames the transport stage dropped past deadline."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.dropped) / len(self.records)

    def total_retransmissions(self) -> int:
        return sum(r.network_retransmissions for r in self.records)

    def to_trace_dict(self) -> Dict[str, Any]:
        """Structured JSON-able export: session header + per-frame traces
        + metrics snapshot (schema: ``repro.observability.schema``)."""
        return {
            "session": {
                "game_id": self.game_id,
                "design": self.design,
                "device": self.device_name,
                "n_frames": len(self.records),
                "gop_size": self.gop_size,
            },
            "frames": [t.to_dict() for t in self.frame_traces()],
            "metrics": self.metrics.to_dict() if self.metrics is not None else {},
        }

    def export_trace_json(self, path: Path | str) -> Path:
        """Write the per-frame trace export as JSON and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_trace_dict(), indent=2))
        return path

    # -- GOP-weighted aggregates -----------------------------------------
    # Per-frame-type costs are deterministic given the platform model, so
    # metrics for the paper's 60-frame GOPs (1 reference + 59 dependents)
    # can be synthesized from shorter simulated sessions.

    def gop_weighted_upscale_ms(self, gop_size: int = 60) -> float:
        """Mean per-frame upscaling latency over a synthetic GOP."""
        if gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {gop_size}")
        ref = self.mean_upscale_ms(reference=True)
        if gop_size == 1:
            return ref
        nonref = self.mean_upscale_ms(reference=False)
        return (ref + (gop_size - 1) * nonref) / gop_size

    def gop_weighted_energy(self, gop_size: int = 60) -> EnergyBreakdown:
        """Mean per-frame energy breakdown over a synthetic GOP."""
        if gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {gop_size}")
        ref = EnergyBreakdown.mean(
            [r.energy for r in self.records if r.is_reference]
        )
        if gop_size == 1:
            return ref
        nonref = EnergyBreakdown.mean(
            [r.energy for r in self.records if not r.is_reference]
        )
        return (ref + nonref.scaled(gop_size - 1)).scaled(1.0 / gop_size)

    def realtime_conformant(self, deadline_ms: float = cal.REALTIME_DEADLINE_MS) -> bool:
        """Do all frames meet the 60 FPS upscaling deadline?"""
        return all(r.upscale_ms <= deadline_ms for r in self.records)

    def conformance_rate(
        self, deadline_ms: float = cal.REALTIME_DEADLINE_MS
    ) -> float:
        """Fraction of frames delivered *and* upscaled inside budget.

        The per-scenario headline of ``bench_netscen``: a frame conforms
        when the transport did not drop it and its upscale stage met the
        realtime deadline. (Skipped frames have ``upscale_ms == 0`` but
        fail on ``dropped``/``reference_lost``.)
        """
        if not self.records:
            return 0.0
        ok = 0
        for r in self.records:
            skipped = (
                r.trace is not None
                and r.trace.span("upscale").metadata.get("skipped", False)
            )
            if not r.dropped and not skipped and r.upscale_ms <= deadline_ms:
                ok += 1
        return ok / len(self.records)

    def mean_bitrate_mbps(self, fps: float = cal.TARGET_FPS) -> float:
        mean_bytes = float(np.mean([r.modeled_size_bytes for r in self.records]))
        return mean_bytes * 8 * fps / 1e6


def _transport_stage(
    server_frame: ServerFrame,
    link: NetworkLink,
    deadline_ms: float,
    at_ms: float = 0.0,
) -> TransmitResult:
    """Run the injected lossy transport and amend the network span.

    Replaces the server's flat ``transmission_ms`` span with the measured
    :meth:`NetworkLink.transmit` outcome (serialization + propagation +
    retransmission rounds) and keeps the ``server_timings_ms`` view in
    sync. ``at_ms`` is the frame's session-time transmit instant — the
    static link ignores it; a trace-driven link resolves its conditions
    there and the span picks up the ``scenario`` metadata.
    """
    outcome = link.transmit(
        server_frame.modeled_size_bytes, deadline_ms=deadline_ms, at_ms=at_ms
    )
    scenario_meta = getattr(link, "last_transmit_meta", None)
    extra = {"scenario": dict(scenario_meta)} if scenario_meta else {}
    if server_frame.trace is not None:
        server_frame.trace.amend_span(
            "network",
            modeled_ms=outcome.latency_ms,
            n_packets=outcome.n_packets,
            n_retransmissions=outcome.n_retransmissions,
            dropped=outcome.dropped,
            transport="lossy_link",
            **extra,
        )
    # server_timings_ms is a materialized view of the trace: keep it in
    # sync so dict consumers (mtp fallback, reports) see the transport.
    server_frame.server_timings_ms["network"] = outcome.latency_ms
    return outcome




@dataclass(frozen=True)
class SessionSpec:
    """The per-session knobs: names, defaults, and the rules between them.

    Both executors take exactly these fields as keyword arguments (an
    unknown name is a ``TypeError``), and ``__post_init__`` rejects bad
    values and conflicting combinations before any frame is produced.
    All-defaults is the paper's static configuration.
    """

    #: Render the native HR ground truth per frame and score PSNR (and
    #: LPIPS when ``with_lpips``) of the client output. Much slower, so
    #: latency/energy benches leave it off.
    evaluate_quality: bool = False
    with_lpips: bool = False
    #: Score LPIPS on every k-th frame only (it is the costliest metric).
    lpips_stride: int = 1
    #: Overrides the ground-truth source (used to share renders across
    #: designs).
    hr_reference_fn: Optional[Callable[[int], np.ndarray]] = None
    #: Frames the ``scenario`` link delivers later than this are flagged
    #: dropped.
    link_deadline_ms: float = float("inf")
    #: Closes the RoI-sizing loop: each frame's measured upscale span
    #: feeds the AIMD controller, which sets the server's RoI window side
    #: (rescaled to the eval frame) and a pinned client-side modeled RoI
    #: for the next frame.
    adaptive: Optional[AdaptiveRoIController] = None
    #: Skip the client for frames the transport dropped: no decode/SR
    #: runs, zeroed spans tagged ``skipped`` are recorded, and the frame
    #: is excluded from quality scoring and controller observation. A
    #: skipped frame breaks the decoder's reference chain, so later
    #: P-frames are skipped too (``reason="reference_lost"``) until the
    #: next delivered I-frame. Off, dropped frames are processed in full.
    skip_dropped: bool = False
    #: Compressed-domain SR cache (:mod:`repro.sr.gop_reuse`): P-frames
    #: warp the previous SR output by the decoded motion field and
    #: re-upscale only the blocks whose residual marks them dirty.
    gop_reuse: bool = False
    #: Model-zoo :class:`~repro.sr.backends.SRBackend` that replaces the
    #: RoI SR executor.
    sr_backend: Any = None
    #: :class:`~repro.sr.dispatch.DifficultyDispatcher` that routes each
    #: RoI tile to a backend. ``gop_reuse``, ``sr_backend`` and
    #: ``dispatch`` are mutually exclusive (checked by the client).
    dispatch: Any = None
    #: Lossy transport in place of the flat bandwidth model: a prebuilt
    #: :class:`NetworkLink`, a canned trace name (``"lte_drive"``) or a
    #: ``"synthetic:<seed>"`` generator spec. Frames transmit at their
    #: session-time instant (``index / fps``), and the network span
    #: records the packets, retransmissions, drop and (trace-driven
    #: links) the conditions seen.
    scenario: Union[str, NetworkLink, None] = None
    #: :class:`~repro.streaming.abr.ABRController` that observes each
    #: transmit outcome and co-adapts codec quality, GOP structure, RoI
    #: size and SR backend before the next frame. It subsumes
    #: ``adaptive``, ``gop_reuse``, ``sr_backend`` and ``dispatch``.
    abr: Optional[ABRController] = None

    def __post_init__(self) -> None:
        if self.lpips_stride < 1:
            raise ValueError(f"lpips_stride must be >= 1, got {self.lpips_stride}")
        if self.scenario is not None and not isinstance(
            self.scenario, (str, NetworkLink)
        ):
            raise TypeError(
                "scenario must be a name or NetworkLink, got "
                f"{type(self.scenario).__name__}"
            )
        if self.abr is not None:
            conflicts = [
                name
                for name, on in (
                    ("adaptive", self.adaptive is not None),
                    ("gop_reuse", self.gop_reuse),
                    ("sr_backend", self.sr_backend is not None),
                    ("dispatch", self.dispatch is not None),
                )
                if on
            ]
            if conflicts:
                raise ValueError(
                    f"abr= is mutually exclusive with {', '.join(conflicts)}"
                )

    @property
    def controller(self) -> Optional[AdaptiveRoIController]:
        """The per-frame feedback controller (ABR is an adaptive one)."""
        return self.abr if self.abr is not None else self.adaptive

    def link(self) -> Optional[NetworkLink]:
        """The session's transport; a scenario name builds a fresh link."""
        if isinstance(self.scenario, str):
            return build_scenario(self.scenario)
        return self.scenario

    def apply_to(self, client: StreamingClient) -> None:
        """Enable the SR-execution knobs on ``client``; defaults are a no-op."""
        if self.gop_reuse:
            _require_knob(client, "gop_reuse")
            client.gop_reuse = True
        if self.sr_backend is not None:
            _require_knob(client, "sr_backend")
            client.set_sr_backend(self.sr_backend)
        if self.dispatch is not None:
            _require_knob(client, "dispatch")
            client.set_dispatch(self.dispatch)
        if self.gop_reuse and hasattr(client, "_validate_sr_knobs"):
            # set_sr_backend/set_dispatch validate on their own; a lone
            # gop_reuse=True must still catch a knob set at construction.
            client._validate_sr_knobs()


def _require_knob(client: StreamingClient, knob: str) -> None:
    """Reject a per-session knob the client design does not expose.

    Only the RoI-SR designs (``GameStreamSRClient``,
    ``SRIntegratedDecoderClient``) carry the optional execution knobs;
    asking any other design is a configuration error, not a silent
    no-op.
    """
    if not hasattr(client, knob):
        raise ValueError(
            f"design {client.design!r} does not support {knob}; use "
            "GameStreamSRClient or SRIntegratedDecoderClient"
        )


def _apply_server_knobs(server: GameStreamServer, knobs: Dict[str, Any]) -> None:
    """Actuate one frame's feedback decision on the server before production.

    Shared by the serial frame source and the pipelined producer (the
    dict crosses the feedback pipe verbatim), so both executors mutate
    the server identically. ``force_idr`` resets the encoder's GOP
    phase: the next frame is an I-frame regardless of position.
    """
    side = knobs.get("eval_roi_side")
    if side is not None and server.detector is not None:
        server.set_roi_side(side)
    quality = knobs.get("quality")
    if quality is not None:
        server.encoder.quality = quality
    gop_size = knobs.get("gop_size")
    if gop_size is not None:
        server.encoder.gop_size = gop_size
    if knobs.get("force_idr"):
        server.encoder.reset()


def _adaptive_eval_side(
    adaptive: AdaptiveRoIController, geometry: StreamGeometry
) -> int:
    """The controller's window side rescaled to the eval geometry.

    The controller plans on the modeled geometry (the paper's 720p frame);
    the server detects on the eval frame, so the side is rescaled by frame
    height exactly like ``RoIWindowPlan.side_for_frame`` does.
    """
    eval_side = int(
        round(adaptive.side * geometry.eval_lr_height / geometry.modeled_lr_height)
    )
    return max(2, min(eval_side, geometry.eval_lr_height))


def _frame_feedback(
    spec: SessionSpec, server: GameStreamServer, client: StreamingClient
) -> Optional[Dict[str, Any]]:
    """The controller's decision for the next frame, before it is produced.

    Applies the client half in place: the pinned modeled RoI follows the
    controller side, and an ABR rung's SR backend is switched in when it
    changed (``set_sr_backend`` rebuilds the upscaler). Returns the
    server half as a knob dict for :func:`_apply_server_knobs`, or
    ``None`` without a controller.
    """
    controller = spec.controller
    if controller is None:
        return None
    eval_side = (
        _adaptive_eval_side(controller, server.geometry)
        if server.detector is not None
        else None
    )
    if spec.abr is not None:
        knobs = spec.abr.next_frame_knobs(eval_side)
    else:
        knobs = {"eval_roi_side": eval_side}
    if getattr(client, "modeled_roi_side", None) is not None:
        client.modeled_roi_side = controller.side
    backend = spec.abr.client_backend() if spec.abr is not None else None
    if backend is not None and hasattr(client, "set_sr_backend"):
        if getattr(client, "sr_backend", None) is not backend:
            client.set_sr_backend(backend)
    return knobs


def _skipped_client_result(frame: ServerFrame, reason: str) -> ClientFrameResult:
    """The client-side record of a skipped (never decoded) frame.

    With ``skip_dropped`` enabled the client never decodes or upscales a
    frame the transport declared lost (``reason="transport_drop"``) or a
    P-frame whose reference chain a skipped frame broke
    (``reason="reference_lost"``): the RX radio window was still spent
    (the bytes arrived, the deadline did not hold), so the network span
    keeps its energy attribution, while decode/upscale/display are
    recorded as zeroed spans tagged ``skipped`` — the "zeroed upscale
    span" consumers can aggregate without special-casing. The display
    keeps showing the previous frame; the placeholder HR output is black
    and is excluded from quality scoring by the session loop.
    """
    geometry = frame.geometry
    trace = FrameTrace(index=frame.index, frame_type=frame.encoded.frame_type)
    with trace.stage("network", mtp=False) as st:
        split = split_transmission(frame.modeled_size_bytes)
        st.modeled_ms = split.serialization_ms
        st.add_energy(Component.NETWORK_RX, split.serialization_ms)
        st.meta(modeled_bytes=frame.modeled_size_bytes)
    for name in ("decode", "upscale", "display"):
        trace.add_span(name, 0.0, skipped=True, reason=reason)
    hr = np.zeros(
        (
            geometry.eval_lr_height * geometry.scale,
            geometry.eval_lr_width * geometry.scale,
            3,
        ),
        dtype=np.float64,
    )
    return ClientFrameResult(
        index=frame.index,
        frame_type=frame.encoded.frame_type,
        hr_frame=hr,
        client_timings_ms=trace.timings_ms(("decode", "upscale", "display")),
        energy_stages=trace.energy_stages(),
        trace=trace,
    )


def _consume_frame(
    server_frame: ServerFrame,
    client: StreamingClient,
    metrics: MetricsRegistry,
    spec: SessionSpec,
    link: Optional[NetworkLink],
    hr_fn: Optional[Callable[[int], np.ndarray]],
    skip_state: Dict[str, bool],
    at_ms: float,
) -> FrameRecord:
    """Run the client half of the pipeline on one produced server frame.

    Transport, decode/SR, controller observation, quality scoring, and
    trace/energy assembly all happen here, in frame order, in the
    consumer process of either executor.
    """
    dropped, retransmissions = False, 0
    abr = spec.abr
    if link is not None:
        outcome = _transport_stage(server_frame, link, spec.link_deadline_ms, at_ms)
        dropped, retransmissions = outcome.dropped, outcome.n_retransmissions
        if abr is not None:
            if server_frame.trace is not None and abr.frame_meta:
                server_frame.trace.amend_span("network", abr=dict(abr.frame_meta))
            abr.observe_network(
                outcome, server_frame.modeled_size_bytes, at_ms=at_ms
            )

    # A skipped frame breaks the decoder's reference chain: every later
    # P-frame is undecodable (its reference is missing or stale) until a
    # delivered I-frame resets the decoder. ``skip_state`` carries that
    # one bit of GOP state between consecutive _consume_frame calls.
    skipped, skip_reason = False, ""
    if spec.skip_dropped:
        if dropped:
            skipped, skip_reason = True, "transport_drop"
        elif skip_state["reference_broken"] and server_frame.encoded.frame_type == "P":
            skipped, skip_reason = True, "reference_lost"
        skip_state["reference_broken"] = skipped
    if skipped:
        client_result = _skipped_client_result(server_frame, skip_reason)
    else:
        client_result = client.process(server_frame)
        if spec.controller is not None:
            spec.controller.observe(client_result.upscale_ms)

    psnr_db = lpips_val = None
    if hr_fn is not None and not skipped:
        reference = hr_fn(server_frame.index)
        psnr_db = psnr_metric(reference, client_result.hr_frame)
        if spec.with_lpips and server_frame.index % spec.lpips_stride == 0:
            lpips_val = lpips_metric(reference, client_result.hr_frame)

    trace = None
    if server_frame.trace is not None and client_result.trace is not None:
        trace = server_frame.trace.extend(client_result.trace)
        observe_frame_trace(metrics, trace)

    energy = (
        energy_from_trace(client.device, trace)
        if trace is not None
        else energy_of_frame(client.device, client_result)
    )
    return FrameRecord(
        index=server_frame.index,
        frame_type=client_result.frame_type,
        upscale_ms=client_result.upscale_ms,
        mtp=mtp_from_frame(server_frame, client_result),
        energy=energy,
        modeled_size_bytes=server_frame.modeled_size_bytes,
        psnr_db=psnr_db,
        lpips=lpips_val,
        dropped=dropped,
        network_retransmissions=retransmissions,
        trace=trace,
    )


#: ``source(index, server_knobs)`` produces frame ``index`` after the
#: server applies ``server_knobs`` (``None``: no feedback this frame); it
#: returns ``None`` when the stream ended early.
_FrameSource = Callable[[int, Optional[Dict[str, Any]]], Optional[ServerFrame]]


def _stream(
    server: GameStreamServer,
    client: StreamingClient,
    n_frames: int,
    spec: SessionSpec,
    open_source: Callable[[MetricsRegistry], ContextManager[_FrameSource]],
) -> SessionResult:
    """The session loop both executors drive.

    Configures the client, then opens the frame source (given the
    session's metrics registry) and, per frame, computes the feedback
    decision, pulls the frame and consumes it. Everything stateful on the
    client side of the wire runs here, in frame order, so the executors
    are byte-identical by construction.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    link = spec.link()
    spec.apply_to(client)
    client.reset()
    metrics = MetricsRegistry()
    result = SessionResult(
        game_id=server.game.game_id,
        design=client.design,
        device_name=client.device.name,
        geometry=server.geometry,
        gop_size=server.gop_size,
        metrics=metrics,
    )
    hr_fn = None
    if spec.evaluate_quality:
        hr_fn = spec.hr_reference_fn
        if hr_fn is None:
            hr_fn = server.render_hr_reference
    skip_state = {"reference_broken": False}
    period_ms = 1000.0 / server.fps
    with open_source(metrics) as source:
        for index in range(n_frames):
            server_frame = source(index, _frame_feedback(spec, server, client))
            if server_frame is None:
                break
            result.records.append(
                _consume_frame(
                    server_frame, client, metrics, spec, link, hr_fn,
                    skip_state, at_ms=index * period_ms,
                )
            )
    return result


def run_session(
    server: GameStreamServer,
    client: StreamingClient,
    n_frames: int,
    **knobs: Any,
) -> SessionResult:
    """Stream ``n_frames`` through ``server`` -> ``client`` and aggregate.

    ``knobs`` are the fields of :class:`SessionSpec`. Each frame is
    produced in this process by ``server.next_frame()``.
    """
    spec = SessionSpec(**knobs)

    def next_frame(index: int, server_knobs: Optional[Dict[str, Any]]) -> ServerFrame:
        if server_knobs is not None:
            _apply_server_knobs(server, server_knobs)
        return server.next_frame()

    return _stream(
        server, client, n_frames, spec, lambda metrics: nullcontext(next_frame)
    )
