"""Workload and metric definitions shared by the runner and its workers.

Importing this module imports nothing heavy: the runner reads it before
any worker process (and numpy) exists.
"""

from __future__ import annotations

DEVICE = "samsung_tab_s8"
GAME = "G3"
DESIGN = "gamestreamsr"
GOP_SIZE = 60

#: Every workload is a closed loop over fixed-length sessions: one
#: session streams its frames as fast as it can, the next session starts
#: when the previous one returned, until the run's seconds are used.
#: ``n_frames`` is fixed per workload so every session of one seed and
#: variant is byte-identical (the digest check relies on it). Sessions
#: cycle through ``variants`` inputs derived from the seed, and a run
#: streams each at least once; the deterministic metrics are their mean.
WORKLOADS = {
    # The ROADMAP reference session, rendered live: render-bound.
    "live_g3": {"n_frames": 60, "executor": "serial", "profile": "tiny", "variants": 1},
    # Fig. 14 quality path through the pipelined executor: render is a
    # bundle replay, the server half (encode) and the client half
    # (decode + EDSR + PSNR) are roughly balanced.
    "replay_quality_pipelined": {
        "n_frames": 60,
        "executor": "pipelined",
        "profile": "experiment",
        "variants": 1,
    },
    # 300 frames = 5 s of 60 FPS session time: spans lte_drive's first
    # outage (1.5-3.5 s) and the recovery after it. Encode-bound.
    # Conformance of one link-loss seed ranges 0.27-0.48, and skipped
    # frames make a session cheaper, so each run averages six link seeds
    # (conformance IQR/median over ten seeds: 0.34 with one seed, 0.20
    # with four, 0.07-0.12 with six or eight; eight did not steady the
    # wall metrics further and costs a fifth more time).
    "replay_lte_abr": {"n_frames": 300, "executor": "serial", "profile": "tiny", "variants": 6},
}

#: The seed shifts where in the game's camera path a session starts.
#: Few, close offsets keep frame cost comparable across seeds and the
#: prerendered bundles small.
OFFSET_STEP = 15
OFFSET_CHOICES = 4

#: Frames of the untimed quality-check session that scores PSNR on the
#: workloads whose timed sessions do not evaluate quality.
QUALITY_CHECK_FRAMES = 8

#: Wrapper-measured layer time must cover at least this share of the
#: program's own ``stage_wall_ms/<stage>`` time for the same stage, or
#: miss it by at most ``STAGE_GAP_MS`` per frame (the stage's own
#: bookkeeping on sub-0.1 ms stages); more means a wrapper misses a call
#: path.
MIN_STAGE_COVERAGE = 0.9
STAGE_GAP_MS = 0.02

#: The timed loop also runs until this many frame intervals exist, so
#: the p95 has at least ten intervals beyond it.
MIN_INTERVALS = 210

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Wall and CPU times are reported at a reference host speed: each is
#: scaled by REFERENCE_MS / (the reference task's median time, taken
#: before and after each session). REFERENCE_MS is that task on an idle
#: core of the 2-vCPU x86-64 host the benchmark was tuned on.
REFERENCE_MS = 4.3
REFERENCE_REPS = 50

#: name -> unit, for the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "wall_fps": "frames/s",
    "frame_interval_ms_p50": "ms",
    "frame_interval_ms_p95": "ms",
    "cpu_ms_per_frame": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "frame_success_rate": "ratio",
    "mtp_modeled_ms_mean": "ms",
    "psnr_db": "dB",
    "conformance_rate": "ratio",
}

#: name -> unit, for the per-layer metrics (``--trace 1``).
PER_LAYER = {
    "render.busy_ms_per_frame": "ms",
    "render.calls": "calls/frame",
    "core.roi_detect_ms_per_frame": "ms",
    "codec.encode_ms_per_frame": "ms",
    "codec.encode_ms_iframe": "ms",
    "codec.encode_ms_pframe": "ms",
    "codec.bytes_per_frame": "bytes",
    "codec.decode_ms_per_frame": "ms",
    "sr.upscale_ms_per_frame": "ms",
    "sr.pixels_per_frame": "pixels",
    "sr.calls_edsr": "calls/frame",
    "sr.calls_quicksrnet": "calls/frame",
    "sr.calls_bilinear_gpu": "calls/frame",
    "metrics.psnr_ms_per_frame": "ms",
    "network.transmit_ms_per_frame": "ms",
    "network.retransmissions": "count",
    "network.drops": "count",
    "abr.downshifts": "count",
    "abr.upshifts": "count",
    "abr.idr_requests": "count",
    "streaming.loop_self_ms_per_frame": "ms",
    "streaming.pipeline.queue_wait_ms_p50": "ms",
    "streaming.pipeline.consumer_stalls": "count",
    "streaming.pipeline.producer_backpressure_waits": "count",
    "streaming.pipeline.server_half_ms_per_frame": "ms",
    "streaming.pipeline.client_half_ms_per_frame": "ms",
    "observability.observe_ms_per_frame": "ms",
    "trace.overhead_pct": "%",
    "trace.stage_coverage_min_pct": "%",
}

#: Backends the per-layer ``sr.calls_<name>`` metrics break out (the
#: default ABR ladder's; the plain runner counts as ``edsr``).
SR_BACKENDS = ("edsr", "quicksrnet", "bilinear_gpu")


def frame_offset(seed: int) -> int:
    """First camera-path frame of the sessions of ``seed``."""
    return OFFSET_STEP * (seed % OFFSET_CHOICES)


def link_seed(seed: int, variant: int) -> int:
    """Loss-process seed of one ``replay_lte_abr`` session."""
    return seed * WORKLOADS["replay_lte_abr"]["variants"] + variant


def bundle_frames(workload: str) -> int:
    """Frames a replay bundle holds: every offset plus one session."""
    return OFFSET_STEP * (OFFSET_CHOICES - 1) + WORKLOADS[workload]["n_frames"]
