"""End-to-end game-streaming simulation: server, client designs, sessions."""

from .abr import ABRController, ABRRung, DEFAULT_LADDER, build_abr
from .adaptive import AdaptiveRoIController
from .client import (
    BilinearClient,
    FullFrameSRClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
    StreamingClient,
)
from .frames import ClientFrameResult, ROI_METADATA_BYTES, ServerFrame, StreamGeometry
from .mtp import MTP_STAGES, MTPBreakdown, mtp_from_frame, mtp_from_trace
from .pipeline import (
    CLIENT_STAGES,
    ENERGY_CATEGORIES,
    EnergyAttribution,
    FrameTrace,
    SERVER_STAGES,
    Stage,
    StageSpan,
    TransmissionSplit,
    split_transmission,
)
from .pipelined import (
    PipelineSchedule,
    modeled_pipeline_schedule,
    run_session_pipelined,
)
from .ring import DEFAULT_SLOT_BYTES, RingClosed, RingOverflow, ShmRing
from .server import GameStreamServer
from .session import (
    FrameRecord,
    SessionResult,
    SessionSpec,
    energy_from_trace,
    energy_of_frame,
    run_session,
)

__all__ = [
    "ABRController",
    "ABRRung",
    "AdaptiveRoIController",
    "BilinearClient",
    "CLIENT_STAGES",
    "ClientFrameResult",
    "DEFAULT_LADDER",
    "DEFAULT_SLOT_BYTES",
    "ENERGY_CATEGORIES",
    "EnergyAttribution",
    "FrameRecord",
    "FrameTrace",
    "FullFrameSRClient",
    "GameStreamSRClient",
    "GameStreamServer",
    "MTPBreakdown",
    "MTP_STAGES",
    "NemoClient",
    "PipelineSchedule",
    "ROI_METADATA_BYTES",
    "RingClosed",
    "RingOverflow",
    "SERVER_STAGES",
    "SRIntegratedDecoderClient",
    "ServerFrame",
    "SessionResult",
    "SessionSpec",
    "ShmRing",
    "Stage",
    "StageSpan",
    "StreamGeometry",
    "StreamingClient",
    "TransmissionSplit",
    "build_abr",
    "energy_from_trace",
    "energy_of_frame",
    "modeled_pipeline_schedule",
    "mtp_from_frame",
    "mtp_from_trace",
    "run_session",
    "run_session_pipelined",
    "split_transmission",
]
