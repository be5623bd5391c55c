"""Tables, render caching, and light experiment drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    input_resolution_sweep,
    roi_sizing_table,
    sota_timeline,
)
from repro.analysis.prerender import PrerenderedWorkload, rendered_sequence
from repro.analysis.tables import fmt, format_paper_vs_measured, format_table
from repro.render.games import build_game


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", "long-cell")])
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "long-cell" in text

    def test_title_included(self):
        assert format_table(["a"], [(1,)], title="Fig. 99").startswith("Fig. 99")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_paper_vs_measured(self):
        text = format_paper_vs_measured([("speedup", "13x", 13.3)])
        assert "paper" in text and "measured" in text and "13x" in text

    def test_fmt(self):
        assert fmt(True) == "yes"
        assert fmt(1234.0) == "1,234"
        assert fmt(0.1234) == "0.12"
        assert fmt(float("nan")) == "-"
        assert fmt("word") == "word"


class TestPrerender:
    def test_bundle_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        bundle = rendered_sequence("G9", 64, 48, 2)
        assert len(bundle) == 2
        frame = bundle.frame(0)
        live = build_game("G9").render_frame(0, 64, 48)
        # uint8/float16 quantization bounds the error.
        assert np.abs(frame.color - live.color).max() < 0.01
        assert np.abs(frame.depth - live.depth).max() < 0.01
        with pytest.raises(IndexError):
            bundle.frame(5)

    def test_cache_hit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = rendered_sequence("G9", 64, 48, 2)
        b = rendered_sequence("G9", 64, 48, 2)
        np.testing.assert_array_equal(a.color_u8, b.color_u8)

    def test_prerendered_workload_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        game = PrerenderedWorkload(build_game("G9"))
        game.preload(64, 48, 2)
        cached = game.render_frame(0, 64, 48)
        live = game.render_frame(0, 32, 24)  # resolution miss -> live render
        assert cached.color.shape == (48, 64, 3)
        assert live.color.shape == (24, 32, 3)
        assert game.game_id == "G9" and "Farming" in game.title


class TestLightExperiments:
    def test_roi_sizing_table(self):
        rows = roi_sizing_table()
        assert {r["device"] for r in rows} == {"samsung_tab_s8", "pixel_7_pro"}
        for row in rows:
            assert row["min_side"] <= row["chosen_side"] <= row["max_side"]
            assert row["roi_latency_ms"] <= 16.66 + 1e-9

    def test_input_resolution_sweep_shape(self):
        rows = input_resolution_sweep()
        labels = [r["label"] for r in rows]
        assert labels == ["240p", "360p", "480p", "720p", "1080p"]
        # Fig. 3b shape: only the smallest input is real-time; latency grows.
        assert rows[0]["meets_deadline"] and not rows[-1]["meets_deadline"]
        latencies = [r["latency_ms"] for r in rows]
        assert latencies == sorted(latencies)

    def test_sota_timeline_staircase(self, tmp_path, monkeypatch, tiny_runner):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Modeled upscale latencies depend on geometry and device, not on the
        # SR weights: the shared tiny runner avoids training the experiment
        # model into the empty cache.
        monkeypatch.setattr(experiments, "_RUNNER", tiny_runner)
        rows = sota_timeline(n_gops=2, gop_size=3)
        assert len(rows) == 6
        refs = [r for r in rows if r["type"] == "I"]
        nonrefs = [r for r in rows if r["type"] == "P"]
        assert len(refs) == 2
        # Fig. 2 shape: every frame misses 16.66 ms, references massively.
        assert all(not r["meets_deadline"] for r in rows)
        assert min(r["upscale_ms"] for r in refs) > 5 * max(
            r["upscale_ms"] for r in nonrefs
        )
