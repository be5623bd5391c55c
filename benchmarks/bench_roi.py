"""RoI server-path benchmark: preprocessing, Algorithm-1 search, detect loop.

Measures the fast RoI path (single shared summed-area table, banded
coarse pass, cached center weights, one-pass validation/layer-sums, and
the opt-in temporal warm start) against the frozen pre-PR reference in
``_legacy_roi.py`` and writes the numbers to ``BENCH_roi.json`` at the
repo root so the speedup trajectory survives across PRs.  Run::

    PYTHONPATH=src python benchmarks/bench_roi.py          # full run
    PYTHONPATH=src python benchmarks/bench_roi.py --smoke  # seconds, CI

The full run drives the default 720p detect loop (G3, 256px window) and
asserts the PR's acceptance criteria: >= 3x on the warm-start detect
loop, bit-identical ``RoIBox`` output for the full (non-warm) path on
all ten game scenes, and — for the warm loop — that every frame whose
box differs from the full path is a warm-accepted frame, with its
accept decision (score vs the running full-search reference) recorded in
the report. Warm frames are allowed to differ *only* through that
documented criterion; full-search frames must match the legacy box
exactly. Smoke mode swaps in small frames to exercise every path and
exactness assertion quickly (no speedup floors — tiny shapes don't
amortize anything) and writes ``.bench-smoke/BENCH_roi.json`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.config import RoIConfig  # noqa: E402
from repro.core.depth_preprocess import preprocess_depth  # noqa: E402
from repro.core.detector import RoIDetector  # noqa: E402
from repro.core.roi_search import search_roi_scored  # noqa: E402
from repro.render.games import GAME_BUILDERS, build_game  # noqa: E402

from conftest import write_bench_json  # noqa: E402
from _legacy_roi import (  # noqa: E402
    LegacyRoIDetector,
    legacy_preprocess_depth,
    legacy_search_roi,
)

GAME_IDS = list(GAME_BUILDERS)


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time in seconds (fn is called once to warm up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sequence(smoke: bool) -> tuple[list[np.ndarray], int]:
    """(depth frames, window side) for the default detect loop."""
    if smoke:
        game = build_game("G3")
        return [game.render_frame(i, 160, 96).depth for i in range(4)], 48
    game = build_game("G3")
    return [game.render_frame(i, 1280, 720).depth for i in range(12)], 256


def _bench_preprocess(depth: np.ndarray, repeats: int) -> dict:
    legacy = legacy_preprocess_depth(depth)
    fast = preprocess_depth(depth)
    for name, a, b in (
        ("foreground_mask", legacy.foreground_mask, fast.foreground_mask),
        ("processed", legacy.processed, fast.processed),
        ("weighted", legacy.weighted, fast.weighted),
        ("layer_index", legacy.layer_index, fast.layer_index),
    ):
        if not np.array_equal(a, b):
            raise AssertionError(f"preprocess field {name} diverged from legacy")
    if legacy.foreground_threshold != fast.foreground_threshold:
        raise AssertionError("foreground_threshold diverged from legacy")
    if legacy.selected_layer != fast.selected_layer:
        raise AssertionError("selected_layer diverged from legacy")

    legacy_s = _time(lambda: legacy_preprocess_depth(depth), repeats)
    fast_s = _time(lambda: preprocess_depth(depth), repeats)
    return {
        "frame_hw": list(depth.shape),
        "fields_equal_legacy": True,
        "legacy_ms": round(legacy_s * 1e3, 3),
        "fast_ms": round(fast_s * 1e3, 3),
        "speedup": round(legacy_s / fast_s, 2),
    }


def _bench_search(depth: np.ndarray, side: int, repeats: int) -> dict:
    pre = preprocess_depth(depth)
    processed, bbox = pre.processed, pre.processed_bbox
    box_legacy = legacy_search_roi(processed, side, side)
    box_fast = search_roi_scored(processed, side, side, bbox=bbox).box
    if box_legacy != box_fast:
        raise AssertionError("banded search box diverged from legacy search")

    legacy_s = _time(lambda: legacy_search_roi(processed, side, side), repeats)
    fast_s = _time(
        lambda: search_roi_scored(processed, side, side, bbox=bbox), repeats
    )
    return {
        "frame_hw": list(processed.shape),
        "window_side": side,
        "box_equal_legacy": True,
        "legacy_ms": round(legacy_s * 1e3, 3),
        "fast_ms": round(fast_s * 1e3, 3),
        "speedup": round(legacy_s / fast_s, 2),
    }


def _iou(a, b) -> float:
    inter = a.intersection_area(b)
    return inter / (a.area + b.area - inter)


def _bench_detect_loop(frames: list[np.ndarray], side: int, repeats: int) -> dict:
    """The headline number: per-frame detection over a rendered sequence.

    Three loops over the same frames: the frozen legacy detector, the fast
    full (non-warm) path, and the warm-start loop. The full path must be
    box-identical to legacy on every frame; warm frames may differ but
    each difference is recorded together with the accept decision that
    permitted it.
    """
    legacy = LegacyRoIDetector(side)
    boxes_legacy = [legacy.detect(d)[0] for d in frames]

    cold = RoIDetector(side)
    boxes_full = [cold.detect(d).box for d in frames]
    full_equal = all(a == b for a, b in zip(boxes_legacy, boxes_full))

    warm_cfg = RoIConfig(warm_start=True)
    warm_det = RoIDetector(side, warm_cfg)
    warm_runs = [warm_det.detect(d) for d in frames]
    modes = Counter(r.search_mode for r in warm_runs)
    divergences = []
    undocumented = 0
    ref = 0.0
    for i, (r, full_box) in enumerate(zip(warm_runs, boxes_full)):
        if r.search_mode == "full":
            ref = r.score
        if r.box != full_box:
            if r.search_mode != "warm":
                undocumented += 1
            divergences.append(
                {
                    "frame": i,
                    "mode": r.search_mode,
                    "score": round(r.score, 3),
                    "reference": round(ref, 3),
                    "accept_floor": round(warm_cfg.warm_start_fraction * ref, 3),
                    "iou_vs_full": round(_iou(r.box, full_box), 3),
                }
            )
            ref = max(ref, r.score)
        elif r.search_mode == "warm":
            ref = max(ref, r.score)
    mean_iou = float(
        np.mean([_iou(r.box, b) for r, b in zip(warm_runs, boxes_full)])
    )

    def run_legacy():
        det = LegacyRoIDetector(side)
        for d in frames:
            det.detect(d)

    def run_full():
        det = RoIDetector(side)
        for d in frames:
            det.detect(d)

    def run_warm():
        det = RoIDetector(side, warm_cfg)
        for d in frames:
            det.detect(d)

    n = len(frames)
    legacy_s = _time(run_legacy, repeats)
    full_s = _time(run_full, repeats)
    warm_s = _time(run_warm, repeats)
    return {
        "sequence": "G3",
        "n_frames": n,
        "frame_hw": list(frames[0].shape),
        "window_side": side,
        "legacy_ms_per_frame": round(legacy_s / n * 1e3, 3),
        "full_ms_per_frame": round(full_s / n * 1e3, 3),
        "warm_ms_per_frame": round(warm_s / n * 1e3, 3),
        "speedup_full": round(legacy_s / full_s, 2),
        "speedup_warm": round(legacy_s / warm_s, 2),
        "full_boxes_equal_legacy": full_equal,
        "warm_modes": dict(modes),
        "warm_mean_iou_vs_full": round(mean_iou, 3),
        "warm_divergences": divergences,
        "warm_undocumented_divergences": undocumented,
    }


def _bench_scene_identity(smoke: bool) -> dict:
    """Full (non-warm) path box identity across all ten game scenes."""
    if smoke:
        w, h, side, frame = 160, 96, 48, 5
    else:
        w, h, side, frame = 1280, 720, 256, 2
    scenes = {}
    identical = True
    for gid in GAME_IDS:
        depth = build_game(gid).render_frame(frame, w, h).depth
        fast = RoIDetector(side).detect(depth).box
        leg, _ = LegacyRoIDetector(side).detect(depth)
        match = fast == leg
        identical &= match
        scenes[gid] = {
            "fast": [fast.x, fast.y],
            "legacy": [leg.x, leg.y],
            "equal": match,
        }
    return {
        "frame_hw": [h, w],
        "window_side": side,
        "all_identical": identical,
        "scenes": scenes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small frames; exactness asserts only, no speedup floors",
    )
    args = parser.parse_args(argv)

    frames, side = _sequence(args.smoke)
    repeats = 1 if args.smoke else 3

    preprocess = _bench_preprocess(frames[2], repeats)
    search = _bench_search(frames[2], side, repeats)
    detect_loop = _bench_detect_loop(frames, side, repeats)
    identity = _bench_scene_identity(args.smoke)

    report = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "preprocess": preprocess,
        "search": search,
        "detect_loop": detect_loop,
        "scene_identity": identity,
    }

    failures = []
    if not identity["all_identical"]:
        failures.append("full-path boxes differ from legacy on some scene")
    if not detect_loop["full_boxes_equal_legacy"]:
        failures.append("full-path loop boxes differ from legacy")
    if detect_loop["warm_undocumented_divergences"]:
        failures.append(
            f"{detect_loop['warm_undocumented_divergences']} non-warm frames "
            "diverged from the full path"
        )
    if not args.smoke:
        # PR acceptance criteria — keep asserting them so regressions in
        # the fast path show up as a failing bench, not a smaller number.
        if detect_loop["speedup_warm"] < 3.0:
            failures.append(
                f"warm detect-loop speedup {detect_loop['speedup_warm']}x < 3x"
            )
        if detect_loop["speedup_full"] < 1.8:
            failures.append(
                f"full detect-loop speedup {detect_loop['speedup_full']}x < 1.8x"
            )
    report["criteria_failures"] = failures

    write_bench_json("roi", report, smoke=args.smoke)
    if failures:
        print("CRITERIA FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
