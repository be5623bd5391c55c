"""Shared helpers for the figure/table benchmarks.

Each bench regenerates one paper artifact: it computes the experiment
(cached under ``.cache/``), prints a paper-vs-measured table, writes the
same table to ``benchmarks/reports/``, and times a representative kernel
under pytest-benchmark. Run with::

    pytest benchmarks/ --benchmark-only

Heavy experiments are cached — the first run renders/encodes/scores real
frame sequences; later runs are fast.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPORTS_DIR = Path(__file__).parent / "reports"
REPO_ROOT = Path(__file__).resolve().parents[1]
#: Where ``--smoke`` runs of the ``bench_*.py`` scripts write their reports.
SMOKE_DIR = REPO_ROOT / ".bench-smoke"


def emit_report(name: str, text: str) -> None:
    """Print a bench table and persist it under benchmarks/reports/."""
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}", file=sys.stderr)


def write_bench_json(name: str, report: dict, smoke: bool) -> Path:
    """Write ``BENCH_<name>.json`` and echo it.

    The single place bench reports are serialized: every report carries a
    leading ``"smoke"`` schema marker, so tooling reading the JSON never
    has to infer the mode from the filename (smoke numbers use tiny
    shapes and must not be compared against full-run trajectories). Full
    runs write at the repo root, where the reports are committed; smoke
    runs write under the git-ignored ``SMOKE_DIR``, since their timings
    are noise that would otherwise change with every run.
    """
    report = {"smoke": smoke, **report}
    out_dir = SMOKE_DIR if smoke else REPO_ROOT
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"BENCH_{name}.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}", file=sys.stderr)
    return out_path
