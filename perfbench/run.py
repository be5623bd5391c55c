#!/usr/bin/env python3
"""GameStreamSR frame-time benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload live_g3 --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/spec.py``): ``live_g3``, ``replay_quality_pipelined``
and ``replay_lte_abr``. Each is a closed loop of fixed-length sessions of
one seed. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps the public calls into each layer and prints per-layer metrics.

Every step runs in a worker process with a process group of its own and
a hard timeout: ``prepare`` (fills ``.perfbench_cache/``; untimed),
``setup`` repeated for the set-up median, then ``measure``. On timeout
the whole group (worker, pipelined producer, resource tracker) is
killed; this process becomes the subreaper of its workers' children so
it can reap every one before it returns. Shared-memory segments
(``/dev/shm/psm_*``) that appear during the run are unlinked afterwards;
segments that existed before are left alone.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The run manifest and
metric details go to the line before it and to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spec  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"
SHM = Path("/dev/shm")

#: One BLAS/OpenMP thread per process: the pipelined workload runs two
#: busy processes, and processes x threads must stay within the cores.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: Hard timeouts per step, in seconds. ``prepare`` trains SR weights and
#: prerenders bundles on the first run in a fresh checkout.
PREPARE_TIMEOUT_S = 840.0
SETUP_TIMEOUT_S = 60.0
MEASURE_GRACE_S = 100.0
REAP_TIMEOUT_S = 15.0


class StepFailed(RuntimeError):
    pass


def _become_subreaper() -> None:
    """Re-parent orphaned grandchildren to this process (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _stop_group(pgid: int, grace_s: float) -> bool:
    """Wait for a finished worker's process group to empty, then kill it.

    Returns whether any process had to be killed.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        _reap_orphans()
        if not _group_alive(pgid):
            return False
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while _group_alive(pgid):
        _reap_orphans()
        time.sleep(0.05)
    return True


def _shm_segments() -> set:
    try:
        return {p.name for p in SHM.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def source_digest() -> str:
    """sha256 over the program's source tree (the checkout need not be git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class Runner:
    """Runs worker steps and keeps track of what they leave behind."""

    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
        self.env["REPRO_CACHE_DIR"] = str(CACHE)
        self.env["PYTHONHASHSEED"] = "0"
        self.killed: List[str] = []
        self.stray: List[str] = []

    def step(self, name: str, timeout_s: float, extra: List[str], tag: str) -> Dict[str, Any]:
        out = self.workdir / f"{tag}.json"
        launched = time.monotonic()
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"), name,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--out", str(out), "--launched", repr(launched), *extra,
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, start_new_session=True,
            stdout=sys.stderr, stderr=sys.stderr,
        )
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            _stop_group(proc.pid, 0.0)
            self.killed.append(tag)
            raise StepFailed(f"{tag} timed out after {timeout_s:.0f} s") from None
        if _stop_group(proc.pid, REAP_TIMEOUT_S):
            self.stray.append(tag)
        if code != 0 or not out.exists():
            raise StepFailed(f"{tag} exited with code {code}")
        return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--measure-timeout", type=float, default=None,
        help="hard timeout of the measure step (default: seconds + "
        f"{MEASURE_GRACE_S:.0f}); a small value forces the timeout path",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    _become_subreaper()
    shm_before = _shm_segments()
    OUT.mkdir(exist_ok=True)
    CACHE.mkdir(exist_ok=True)
    digest = source_digest()
    manifest: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": digest,
        "executor": spec.WORKLOADS[args.workload]["executor"],
        "thread_env": THREAD_ENV,
        "cache_state": "SR weights and prerendered bundles warm (filled by the "
                       "untimed prepare step); setup_s loads them from disk",
    }
    errors: List[str] = []
    result: Optional[Dict[str, Any]] = None
    setups: List[Dict[str, float]] = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        runner = Runner(args, Path(tmp))
        try:
            prep = runner.step("prepare", PREPARE_TIMEOUT_S,
                               ["--source-digest", digest], "prepare")
            manifest["prepare_s"] = prep["prepare_s"]
            for i in range(spec.SETUP_REPEATS - 1):
                setups.append(runner.step("setup", SETUP_TIMEOUT_S, [], f"setup{i}")["setup"])
            timeout = args.measure_timeout or args.seconds + MEASURE_GRACE_S
            result = runner.step(
                "measure", timeout,
                ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--source-digest", digest],
                "measure",
            )
        except StepFailed as exc:
            errors.append(str(exc))
        finally:
            _reap_orphans()
        leaked = sorted(_shm_segments() - shm_before)
        for name in leaked:
            try:
                (SHM / name).unlink()
            except FileNotFoundError:
                pass
    remaining = sorted(_shm_segments() - shm_before)
    children = multiprocessing.active_children()
    manifest["timed_out"] = runner.killed
    manifest["unlinked_segments"] = leaked
    if runner.stray:
        errors.append(f"processes outlived their worker: {runner.stray}")
    if leaked and not runner.killed:
        errors.append(f"run left shared-memory segments: {leaked}")
    if remaining or children:
        errors.append(f"could not clean up: segments {remaining}, children {children}")

    if result is None or "end_to_end" not in result:
        if result is not None:
            errors.extend(result.get("errors", []))
        for line in errors:
            print(line, file=sys.stderr)
        print(f"benchmark produced no measurements (timed out: {runner.killed}, "
              f"unlinked segments: {leaked})", file=sys.stderr)
        return 1

    setups.append(result["setup"])
    errors.extend(result["errors"])
    e2e = dict(result["end_to_end"], setup_s=statistics.median(s["setup_s"] for s in setups))
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in spec.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in spec.END_TO_END.items()}
    manifest.update(
        config=result["config"],
        weights_sha256=result["weights_sha256"],
        host=result["host"],
        digests=result["digests"],
        serial_digest=result["serial_digest"],
        sessions=result["sessions"],
        setup_s_samples=setups,
        details=result["details"],
        trace_details=result.get("trace_details"),
        end_to_end=e2e,
        per_layer=result.get("per_layer"),
        errors=errors,
    )
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    for line in errors:
        print(line, file=sys.stderr)
    correct = not errors and result["failed"] == 0
    print(json.dumps({"manifest": manifest}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
