"""Benchmark worker: builds one workload and streams its sessions.

``perfbench/run.py`` starts this file in a process group of its own,
with the thread environment already set, once per step::

    worker.py prepare --workload W --seed N --out F --source-digest D
    worker.py setup   --workload W --seed N --out F --launched T
    worker.py measure --workload W --seed N --out F --launched T \
                      --seconds S --trace 0|1 --source-digest D

``prepare`` fills the cache the other steps read (SR weights,
prerendered bundles, the serial reference digest) and is never timed.
``setup`` builds the workload and streams one frame, to time set-up.
``measure`` is the timed closed loop. Each step writes one JSON object
to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.experiments import quality_geometry
from repro.analysis.prerender import PrerenderedWorkload
from repro.cache import cache_dir
from repro.core.roi_sizing import plan_roi_window
from repro.network.trace import build_scenario
from repro.observability import (
    SchemaError,
    canonicalize_session_trace,
    validate_session_trace,
)
from repro.platform.device import get_device
from repro.render.games import build_game
from repro.sr.pretrained import default_sr_model
from repro.sr.runner import SRRunner
from repro.streaming import (
    GameStreamServer,
    StreamGeometry,
    build_abr,
    run_session,
    run_session_pipelined,
)
from repro.streaming.client import GameStreamSRClient
from repro.streaming.pipeline import SERVER_STAGES

import spec
from layers import LAYERS, Tracer

NET_BUDGET_MS = 100.0
LTE_SCENARIO = "lte_drive"


class ShiftedGame:
    """Frame source that starts ``offset`` frames into the camera path."""

    def __init__(self, game, offset: int) -> None:
        self._game = game
        self._offset = offset
        self.game_id = game.game_id
        self.title = game.title
        self.genre = game.genre
        self.scene = game.scene

    def render_frame(self, frame_index: int, width: int, height: int, fps: float = 60.0):
        return self._game.render_frame(frame_index + self._offset, width, height, fps)


class Workload:
    """Everything one workload needs, built once per process (set-up)."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.n_frames = spec.WORKLOADS[name]["n_frames"]
        self.profile = spec.WORKLOADS[name]["profile"]
        self.variants = spec.WORKLOADS[name]["variants"]
        self.busy_processes = 2 if spec.WORKLOADS[name]["executor"] == "pipelined" else 1
        self.offset = spec.frame_offset(seed)
        self.device = get_device(spec.DEVICE)
        self.plan = plan_roi_window(self.device)
        if name == "replay_quality_pipelined":
            self.geometry = quality_geometry()
        else:
            self.geometry = StreamGeometry(
                eval_lr_height=64, eval_lr_width=112, lr_source="native"
            )
        game = build_game(spec.GAME)
        if name != "live_g3":
            game = PrerenderedWorkload(game)
            g = self.geometry
            scale = 1 if g.lr_source == "native" else g.scale
            game.preload(
                g.eval_lr_width * scale, g.eval_lr_height * scale,
                spec.bundle_frames(name),
            )
        self.game = ShiftedGame(game, self.offset)
        self.runner = SRRunner(default_sr_model(profile=self.profile))

    def server_client(self):
        """A fresh server and client for one session."""
        server = GameStreamServer(
            self.game,
            self.geometry,
            roi_side=self.plan.side_for_frame(self.geometry.eval_lr_height),
            gop_size=spec.GOP_SIZE,
        )
        client = GameStreamSRClient(self.device, self.runner, modeled_roi_side=self.plan.side)
        return server, client

    def session(self, n_frames: int, variant: int = 0, serial: bool = False):
        """Stream one fresh session; returns ``(result, abr or None)``.

        ``serial`` runs the pipelined workload's session through the
        serial loop, for the reference digest.
        """
        server, client = self.server_client()
        if self.name == "replay_quality_pipelined":
            if serial:
                return run_session(server, client, n_frames, evaluate_quality=True), None
            result = run_session_pipelined(
                server, client, n_frames, evaluate_quality=True, depth=2, workers=1
            )
            return result, None
        if self.name == "live_g3":
            return run_session(server, client, n_frames), None
        abr = build_abr(
            self.plan.side, self.plan.min_side, 720,
            runner=self.runner, profile=self.profile, net_budget_ms=NET_BUDGET_MS,
        )
        result = run_session(
            server,
            client,
            n_frames,
            scenario=build_scenario(LTE_SCENARIO, seed=spec.link_seed(self.seed, variant)),
            abr=abr,
            skip_dropped=True,
            link_deadline_ms=NET_BUDGET_MS,
        )
        return result, abr

    def config(self) -> Dict[str, Any]:
        """The full session configuration, for the run manifest."""
        g = self.geometry
        cfg: Dict[str, Any] = {
            "game": spec.GAME,
            "frame_offset": self.offset,
            "device": spec.DEVICE,
            "design": spec.DESIGN,
            "geometry": {
                "eval_lr": [g.eval_lr_height, g.eval_lr_width],
                "lr_source": g.lr_source,
                "scale": g.scale,
                "modeled_lr": [g.modeled_lr_height, g.modeled_lr_width],
            },
            "source": "live" if self.name == "live_g3" else "prerendered",
            "gop_size": spec.GOP_SIZE,
            "roi_side_eval": self.plan.side_for_frame(g.eval_lr_height),
            "roi_side_modeled": self.plan.side,
            "sr_profile": self.profile,
            **spec.WORKLOADS[self.name],
        }
        if self.name == "replay_quality_pipelined":
            cfg.update(evaluate_quality=True, depth=2, workers=1)
        if self.name == "replay_lte_abr":
            cfg.update(
                scenario=LTE_SCENARIO,
                scenario_seeds=[spec.link_seed(self.seed, v) for v in range(self.variants)],
                abr={"ladder": "DEFAULT_LADDER", "max_side": 720,
                     "min_side": self.plan.min_side, "net_budget_ms": NET_BUDGET_MS},
                skip_dropped=True,
                link_deadline_ms=NET_BUDGET_MS,
            )
        return cfg

    def weights_sha256(self) -> Dict[str, str]:
        names = [f"edsr_{self.profile}_x2.npz"]
        if self.name == "replay_lte_abr":
            names.append(f"quicksrnet_{self.profile}_x2.npz")
        out = {}
        for name in names:
            path = cache_dir() / "weights" / name
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out


def trace_digest(result) -> str:
    canonical = canonicalize_session_trace(result.to_trace_dict())
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def check_session(result, n_frames: int, quality: bool) -> List[str]:
    """Output checks that can fail; each failure fails the session's frames."""
    errors = []
    try:
        validate_session_trace(result.to_trace_dict())
    except SchemaError as exc:
        errors.append(f"trace export fails its schema: {exc}")
    if len(result.records) != n_frames:
        errors.append(f"{len(result.records)} of {n_frames} frames completed")
    if "pipeline/truncated" in result.metrics.names():
        errors.append("pipelined session truncated")
    if any(r.trace is None for r in result.records):
        errors.append("frame without a trace")
    if quality:
        scored = [r.psnr_db for r in result.records if r.psnr_db is not None]
        if not scored or not all(math.isfinite(v) and v > 0 for v in scored):
            errors.append("missing or invalid PSNR")
    return errors


class DigestStore:
    """Canonical-trace digests seen for one source tree and set of SR
    weights, kept in the cache.

    Every run of one commit and seed must reproduce the digest the first
    one recorded.
    """

    def __init__(self, source_digest: str, weights: Dict[str, str]) -> None:
        self.path = cache_dir() / "perfbench-digests.json"
        weights_key = hashlib.sha256(json.dumps(weights, sort_keys=True).encode()).hexdigest()
        self.prefix = f"{source_digest}/{weights_key[:16]}"

    def _load(self) -> Dict[str, str]:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def get(self, key: str) -> Optional[str]:
        return self._load().get(f"{self.prefix}/{key}")

    def check_or_record(self, key: str, digest: str) -> Optional[str]:
        """The digest recorded under ``key``; records ``digest`` if none."""
        data = self._load()
        full = f"{self.prefix}/{key}"
        if full in data:
            return data[full]
        data[full] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return None


def _rusage_cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux; RUSAGE_CHILDREN gives the largest
    # reaped child (the pipelined producer).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75]) if values else (0.0, 0.0, 0.0)
    return {"p25": float(q1), "median": float(q2), "p75": float(q3), "n": len(values)}


def _reference_task_ms(reps: int = spec.REFERENCE_REPS) -> float:
    """Median time of the fixed reference task.

    The task mixes what the simulator spends its time on: an interpreted
    loop, elementwise numpy on frame-sized arrays, and a small matmul.
    """
    rng = np.random.default_rng(0)
    frame = rng.random((64, 112, 3))
    mat = rng.random((128, 128))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += i * 0.5
        for _ in range(20):
            frame = np.clip(frame * 1.01 - 0.005, 0.0, 1.0)
            acc += float(frame.mean(axis=(0, 1)).sum())
        for _ in range(8):
            mat = np.tanh(mat @ mat * 0.01)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _reference_child(conn) -> None:
    conn.send(_reference_task_ms())
    conn.close()


def reference_ms(processes: int = 1) -> float:
    """The host's current speed: the reference task's time, run in as many
    processes at once as the workload keeps busy (the pipelined executor
    keeps two cores busy, which can slow each of them)."""
    # fork, like the pipelined executor: the helper runs only the task,
    # and a spawned interpreter would add a second of start-up per call.
    ctx = multiprocessing.get_context("fork")
    helpers = []
    for _ in range(processes - 1):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_reference_child, args=(child_conn,))
        proc.start()
        child_conn.close()
        helpers.append((proc, parent_conn))
    times = [_reference_task_ms()]
    for proc, conn in helpers:
        times.append(conn.recv())
        conn.close()
        proc.join()
    return float(np.mean(times))


def host_scale(ref_ms: float) -> float:
    """How much slower than the reference speed the host currently runs."""
    return ref_ms / spec.REFERENCE_MS


# -- steps -------------------------------------------------------------------


def step_prepare(args) -> Dict[str, Any]:
    """Fill the cache: SR weights (zoo members included) and bundles.

    The first run in a checkout prepares every workload, so no later run
    trains or renders inside its time limit.
    """
    t0 = time.perf_counter()
    marker = cache_dir() / f"perfbench-prepared-{args.source_digest[:16]}"
    names = [args.workload] if marker.exists() else list(spec.WORKLOADS)
    built = {name: Workload(name, args.seed) for name in names}
    for workload in built.values():
        workload.session(1)
    marker.touch()
    workload = built[args.workload]
    out: Dict[str, Any] = {"weights_sha256": workload.weights_sha256()}
    if args.workload == "replay_quality_pipelined":
        store = DigestStore(args.source_digest, out["weights_sha256"])
        key = f"{args.workload}/{args.seed}/serial"
        if store.get(key) is None:
            result, _ = workload.session(workload.n_frames, serial=True)
            errors = check_session(result, workload.n_frames, quality=True)
            if errors:
                raise RuntimeError(f"serial reference session failed: {errors}")
            store.check_or_record(key, trace_digest(result))
    out["prepare_s"] = time.perf_counter() - t0
    return out


def step_setup(args) -> Dict[str, Any]:
    tracer = Tracer()
    tracer.install(layers=False)
    workload = Workload(args.workload, args.seed)
    workload.session(1)
    first = tracer.take_session()["first_tick"]
    tracer.uninstall()
    setup_s = _setup_s(first, args.launched)
    scale = host_scale(reference_ms())
    return {"setup": {"setup_s": setup_s / scale, "setup_s_raw": setup_s, "host_scale": scale}}


def _setup_s(first_tick_perf: float, launched_monotonic: float) -> float:
    # perf_counter and monotonic share a zero only within one process;
    # convert the tick to the monotonic clock the runner stamped.
    return first_tick_perf - time.perf_counter() + time.monotonic() - launched_monotonic


def step_measure(args) -> Dict[str, Any]:
    tracer = Tracer()
    tracer.install(layers=False)
    workload = Workload(args.workload, args.seed)
    quality = args.workload == "replay_quality_pipelined"
    n = workload.n_frames
    store = DigestStore(args.source_digest, workload.weights_sha256())
    serial_digest = store.get(f"{args.workload}/{args.seed}/serial") if quality else None

    sessions: List[Dict[str, Any]] = []
    errors: List[str] = []
    first_digest: Dict[int, str] = {}
    setup_s = None
    ref_before = None  # timed after the first session, to keep it out of setup_s
    t_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced sessions of the same
        # variant, so the tracing overhead compares equal inputs.
        k = len(sessions)
        traced = bool(args.trace) and k % 2 == 1
        variant = (k // 2 if args.trace else k) % workload.variants
        if traced:
            tracer.uninstall()
            tracer.install(layers=True)
        cpu0 = _rusage_cpu_s()
        t0 = time.perf_counter()
        try:
            result, abr = workload.session(n, variant)
        except Exception:  # a failed session fails its frames; stop the loop
            errors.append(traceback.format_exc())
            sessions.append({"frames": n, "failed": n, "traced": traced, "variant": variant})
            tracer.take_session()
            break
        wall_s = time.perf_counter() - t0
        cpu_s = _rusage_cpu_s() - cpu0
        if traced:
            tracer.uninstall()
            tracer.install(layers=False)
        clock = tracer.take_session()
        # The host's speed drifts by up to 1.7x over tens of seconds on a
        # shared machine: scale each session's times by the reference
        # task timed right before and after it.
        ref_after = reference_ms(workload.busy_processes)
        if ref_before is None:
            ref_before = ref_after
        scale = host_scale((ref_before + ref_after) / 2.0)
        if setup_s is None and clock["first_tick"] is not None:
            raw = _setup_s(clock["first_tick"], args.launched)
            setup_s = {"setup_s": raw / scale, "setup_s_raw": raw, "host_scale": scale}
        ref_before = ref_after
        problems = check_session(result, n, quality)
        digest = trace_digest(result)
        if variant not in first_digest:
            recorded = store.check_or_record(f"{args.workload}/{args.seed}/{variant}", digest)
            first_digest[variant] = recorded or digest
        if digest != first_digest[variant]:
            problems.append(
                f"canonical trace digest {digest} != {first_digest[variant]} "
                "of earlier sessions of this seed"
            )
        if quality and digest != serial_digest:
            problems.append("pipelined canonical trace differs from the serial session")
        errors.extend(problems)
        sessions.append(
            {
                "frames": n,
                "failed": n if problems else 0,
                "traced": traced,
                "variant": variant,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "scale": scale,
                "clock": clock,
                "mtp_ms_mean": float(np.mean([r.mtp.total_ms for r in result.records])),
                "conformance": result.conformance_rate(),
                "psnr_db": result.mean_psnr() if quality else None,
                "metrics": result.metrics.to_dict(),
                "frame_traces": [t.to_dict() for t in result.frame_traces()] if traced else None,
                "retransmissions": result.total_retransmissions(),
                "drops": sum(1 for r in result.records if r.dropped),
                "abr": None if abr is None else {
                    "downshifts": abr.n_downshifts,
                    "upshifts": abr.n_upshifts,
                    "idr_requests": abr.n_idr_requests,
                },
            }
        )
        elapsed = time.perf_counter() - t_start
        intervals = sum(len(s["clock"]["intervals_ms"]) for s in sessions if not s["traced"])
        if args.trace:
            enough = len(sessions) >= 2
        else:
            enough = len(sessions) >= workload.variants and intervals >= spec.MIN_INTERVALS
        if elapsed >= args.seconds and enough:
            break
        if elapsed >= 4 * args.seconds + 60:
            errors.append(f"stopped after {elapsed:.0f} s without enough frames")
            break
    peak_rss = _peak_rss_mib()
    tracer.uninstall()

    psnr = None
    if not quality and not errors:
        psnr = quality_check(workload)
        if not math.isfinite(psnr) or psnr <= 0:
            errors.append("quality-check session scored an invalid PSNR")

    leftovers = multiprocessing.active_children()
    if leftovers:
        errors.append(f"child processes still alive: {leftovers}")

    # Sessions that ran to the end are timed even when an output check
    # failed; the failure shows in frame_success_rate and ``correct``.
    completed = [s for s in sessions if "clock" in s]
    timed = [s for s in completed if not s["traced"]]
    attempted = sum(s["frames"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    out: Dict[str, Any] = {
        "config": workload.config(),
        "weights_sha256": workload.weights_sha256(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "sessions": len(sessions),
        "digests": [first_digest[v] for v in sorted(first_digest)],
        "serial_digest": serial_digest,
        "setup": setup_s,
    }
    if not completed:
        return out
    # Deterministic metrics: the mean over the first session of each variant.
    firsts = [s for s in completed if s is _first_of_variant(completed, s["variant"])]
    intervals = [v / s["scale"] for s in timed for v in s["clock"]["intervals_ms"]]
    fps = [s["frames"] / s["wall_s"] * s["scale"] for s in timed]
    timed_frames = sum(s["frames"] for s in timed)
    out["end_to_end"] = {
        "wall_fps": float(np.median(fps)) if fps else None,
        "frame_interval_ms_p50": float(np.percentile(intervals, 50)) if intervals else None,
        "frame_interval_ms_p95": float(np.percentile(intervals, 95)) if intervals else None,
        "cpu_ms_per_frame":
            sum(s["cpu_s"] / s["scale"] for s in timed) * 1e3 / timed_frames if timed else None,
        "peak_rss_mb": peak_rss,
        "frame_success_rate": (attempted - failed) / attempted,
        "mtp_modeled_ms_mean": float(np.mean([s["mtp_ms_mean"] for s in firsts])),
        "psnr_db": firsts[0]["psnr_db"] if quality else psnr,
        "conformance_rate": float(np.mean([s["conformance"] for s in firsts])),
    }
    raw_intervals = [v for s in timed for v in s["clock"]["intervals_ms"]]
    out["details"] = {
        "wall_fps": _quartiles(fps),
        "frame_interval_ms": _quartiles(intervals),
        "host_scale": _quartiles([s["scale"] for s in completed]),
        "raw_wall_fps": _quartiles([s["frames"] / s["wall_s"] for s in timed]),
        "raw_frame_interval_ms": _quartiles(raw_intervals),
        "raw_cpu_ms_per_frame":
            sum(s["cpu_s"] for s in timed) * 1e3 / timed_frames if timed else None,
        "frames_timed": timed_frames,
        "intervals_beyond_p95": int(sum(
            1 for v in intervals if v > out["end_to_end"]["frame_interval_ms_p95"]
        )) if intervals else 0,
    }
    if args.trace:
        out["per_layer"], out["trace_details"] = per_layer_metrics(sessions, pipelined=quality)
        bad = {
            stage: cov for stage, cov in out["trace_details"]["stage_coverage"].items()
            if cov["share"] < spec.MIN_STAGE_COVERAGE and cov["gap_ms_per_frame"] > spec.STAGE_GAP_MS
        }
        if bad:
            out["errors"].append(f"layer wrappers miss part of a stage's wall time: {bad}")
    return out


def quality_check(workload: Workload) -> float:
    """PSNR of an untimed session of the workload's server and client.

    For the serial workloads, whose timed sessions do not score quality:
    a few frames over the flat link (a lossy link could drop the I-frame
    and leave nothing to score), against the native HR render.
    """
    server, client = workload.server_client()
    result = run_session(server, client, spec.QUALITY_CHECK_FRAMES, evaluate_quality=True)
    return result.mean_psnr()


def _first_of_variant(sessions, variant: int):
    return next(s for s in sessions if s["variant"] == variant)


def per_layer_metrics(sessions, pipelined: bool):
    """Per-layer numbers from the traced sessions (see spec.PER_LAYER)."""
    traced = [s for s in sessions if s["traced"] and "clock" in s]
    untraced = [s for s in sessions if not s["traced"] and "clock" in s]
    frames = sum(s["frames"] for s in traced)
    n_sessions = len(traced)
    busy = {layer: sum(s["clock"]["busy_ms"][layer] for s in traced) for layer in LAYERS}
    calls = {layer: sum(s["clock"]["calls"][layer] for s in traced) for layer in LAYERS}
    intervals = [v for s in traced for v in s["clock"]["intervals_ms"]]
    loop_self = [v for s in traced for v in s["clock"]["loop_self_ms"]]

    def stage_sum(name: str) -> float:
        return sum(
            s["metrics"].get(f"stage_wall_ms/{name}", {}).get("sum", 0.0) for s in traced
        )

    def counter(name: str) -> float:
        return sum(s["metrics"].get(name, {}).get("value", 0.0) for s in traced)

    def frame_spans(name: str):
        for s in traced:
            for trace in s["frame_traces"]:
                for span in trace["spans"]:
                    if span["name"] == name:
                        yield trace, span

    # A pipelined session's server stages ran in the producer, which the
    # wrappers do not report from: read the program's own spans there.
    # Render runs in both processes (the consumer fetches the quality
    # reference), so its busy time is the sum.
    render_split = {"consumer_calls": busy["render"] / frames, "producer_stage": 0.0}
    render_ms, render_calls = busy["render"], calls["render"]
    if pipelined:
        render_split["producer_stage"] = stage_sum("render") / frames
        render_ms += stage_sum("render")
        render_calls += frames
        detect_ms = stage_sum("roi_detect")
        encode = [(t["frame_type"], sp["wall_ms"]) for t, sp in frame_spans("encode")]
        server_half = sum(stage_sum(name) for name in SERVER_STAGES) / frames
        waits = [v for s in traced for v in s["clock"]["queue_ms"]]
    else:
        detect_ms = busy["roi_detect"]
        encode = [(ftype, ms) for s in traced for ftype, _, ms in s["clock"]["encode"]]
        server_half = sum(s["clock"]["busy_ms"]["server_half"] for s in traced) / frames
        # No ring: a frame waits from next_frame returning to the
        # consumer's first layer call.
        waits = [v for s in traced for v in s["clock"]["handoff_ms"]]
    # The consumer's busy time per frame: its interval less the wait for
    # the frame (pipelined) or less producing it inline (serial).
    mean_interval = float(np.mean(intervals))
    client_half = mean_interval - (float(np.mean(waits)) if pipelined else server_half)
    payload_bytes = [sp["metadata"]["payload_bytes"] for _, sp in frame_spans("encode")]
    sr_calls: Dict[str, int] = {}
    for s in traced:
        for name, count in s["clock"]["sr_calls"].items():
            sr_calls[name] = sr_calls.get(name, 0) + count
    # Exact counts come from the first traced session (variant 0).
    abr = traced[0]["abr"] or {}
    fps_traced = float(np.median([s["frames"] / s["wall_s"] * s["scale"] for s in traced]))
    fps_untraced = float(np.median([s["frames"] / s["wall_s"] * s["scale"] for s in untraced]))

    coverage = {}
    for layer, stage in LAYERS.items():
        # A pipelined session's server stages ran in the producer.
        if stage is None or (pipelined and stage in SERVER_STAGES):
            continue
        stage_ms = stage_sum(stage)
        if stage_ms > 0:
            coverage[stage] = {
                "share": busy[layer] / stage_ms,
                "gap_ms_per_frame": (stage_ms - busy[layer]) / frames,
            }

    def mean_where(frame_type: Optional[str]) -> float:
        vals = [ms for ftype, ms in encode if frame_type is None or ftype == frame_type]
        return float(np.mean(vals)) if vals else 0.0

    metrics = {
        "render.busy_ms_per_frame": render_ms / frames,
        "render.calls": render_calls / frames,
        "core.roi_detect_ms_per_frame": detect_ms / frames,
        "codec.encode_ms_per_frame": mean_where(None),
        "codec.encode_ms_iframe": mean_where("I"),
        "codec.encode_ms_pframe": mean_where("P"),
        "codec.bytes_per_frame": float(np.mean(payload_bytes)),
        "codec.decode_ms_per_frame": busy["decode"] / frames,
        "sr.upscale_ms_per_frame": busy["sr"] / frames,
        "sr.pixels_per_frame": sum(s["clock"]["sr_pixels"] for s in traced) / frames,
        **{f"sr.calls_{name}": sr_calls.get(name, 0) / frames for name in spec.SR_BACKENDS},
        "metrics.psnr_ms_per_frame": busy["psnr"] / frames,
        "network.transmit_ms_per_frame": busy["transmit"] / frames,
        "network.retransmissions": float(traced[0]["retransmissions"]),
        "network.drops": float(traced[0]["drops"]),
        "abr.downshifts": float(abr.get("downshifts", 0)),
        "abr.upshifts": float(abr.get("upshifts", 0)),
        "abr.idr_requests": float(abr.get("idr_requests", 0)),
        "streaming.loop_self_ms_per_frame": float(np.mean(loop_self)),
        "streaming.pipeline.queue_wait_ms_p50": float(np.median(waits)),
        "streaming.pipeline.consumer_stalls": counter("pipeline/consumer_stalls") / n_sessions,
        "streaming.pipeline.producer_backpressure_waits":
            counter("pipeline/producer_stalls") / n_sessions,
        "streaming.pipeline.server_half_ms_per_frame": server_half,
        "streaming.pipeline.client_half_ms_per_frame": client_half,
        "observability.observe_ms_per_frame": busy["observe"] / frames,
        "trace.overhead_pct": (fps_untraced / fps_traced - 1.0) * 100.0,
        "trace.stage_coverage_min_pct": min(c["share"] for c in coverage.values()) * 100.0,
    }
    # Times at the reference host speed, like the end-to-end metrics.
    scale = float(np.mean([s["scale"] for s in traced]))
    for name, unit in spec.PER_LAYER.items():
        if unit == "ms":
            metrics[name] /= scale
    details = {"stage_coverage": coverage, "render_ms_per_frame": render_split,
               "host_scale": scale}
    return metrics, details


STEPS = {"prepare": step_prepare, "setup": step_setup, "measure": step_measure}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--source-digest", default="")
    args = parser.parse_args(argv)
    out = STEPS[args.step](args)
    out["host"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
    }
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
