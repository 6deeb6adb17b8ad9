"""One benchmark run: measure a workload, check its outputs, derive metrics.

Untraced runs report the end-to-end metrics. A traced run measures one
setup, one training run and one scoring pass untraced, then the same work
with every layer wrapped (tracing.py); it reports per-layer calls and self
times, the redundancy counts, how much of the traced wall time the layers
cover, and the tracing overhead. Its work is fixed rather than timed, so its
counts repeat exactly from run to run.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np

from .tracing import Tracer
from .workloads import FULL, WORKLOADS, Measurement, Sizes, SpeedProbe, layer_targets, measure

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
REL_TOL = 1e-9
ABS_TOL = 1e-12  # values that should be 0 differ only in rounding noise
# flips precede risk_threshold within a day (alerts.py)
_KIND_RANK = {"bearish_flip": 0, "bullish_flip": 0, "risk_threshold": 1}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _match(a, b, exact: bool) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return a == b if exact else math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_match(x, y, exact) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_match(a[k], b[k], exact) for k in a)
    return a == b


def _alerts_by_date(found: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for a in found:
        out.setdefault(a["date"], []).append(a)
    return out


def check(res: Measurement, reference: dict | None, baseline: Measurement | None = None
          ) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); an operation is a training step or a scored window.

    Every run and pass must equal the first one bit for bit (the baseline's
    first when given) and must hold the invariants; with a reference, each
    must also match it within REL_TOL.
    """
    first = baseline or res
    attempted = failed = 0
    problems: list[str] = []
    for i, out in enumerate(res.train_outputs):
        for arch, steps in res.steps_per_run.items():
            attempted += steps
            mine = {k: v.get(arch) for k, v in out.items()}
            why = None
            if not all(math.isfinite(x) for row in mine["losses"] for x in row):
                why = "non-finite loss"
            elif not _match(mine, {k: v.get(arch) for k, v in first.train_outputs[0].items()},
                            exact=True):
                why = "differs from the first run"
            elif reference and not _match(
                    mine, {k: v.get(arch) for k, v in reference["train"].items()}, exact=False):
                why = "differs from the reference"
            if why:
                failed += steps
                problems.append(f"training run {i} arch {arch}: {why}")

    for i, out in enumerate(res.pass_outputs):
        rows, found = out["predictions"], out["alerts"]
        attempted += len(rows)
        keys = [(a["date"], _KIND_RANK[a["kind"]]) for a in found]
        if keys != sorted(keys):
            failed += len(rows)
            problems.append(f"scoring pass {i}: alerts out of chronological order")
            continue
        mine = _alerts_by_date(found)
        firsts = [(first.pass_outputs[0], True)] + ([(reference["score"], False)] if reference else [])
        expected = [(o["predictions"], _alerts_by_date(o["alerts"]), exact) for o, exact in firsts]
        for j, row in enumerate(rows):
            probs = row[2:]
            ok = (all(math.isfinite(x) for x in row[1:]) and min(probs) >= 0.0
                  and abs(sum(probs) - 1.0) <= 1e-9)
            for exp_rows, exp_alerts, exact in expected:
                ok = ok and j < len(exp_rows) and _match(row, exp_rows[j], exact) and _match(
                    mine.get(row[0], []), exp_alerts.get(row[0], []), exact)
            if not ok:
                failed += 1
                problems.append(f"scoring pass {i}: window {row[0]} failed its check")
    return attempted, failed, problems


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def write_reference(workload: str, res: Measurement) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    obj = {"seed": REFERENCE_SEED, "train": res.train_outputs[0], "score": res.pass_outputs[0]}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def end_to_end(res: Measurement) -> dict[str, tuple[float, str]]:
    train_s = statistics.median(res.train_s)
    lat_ms = [x * 1e3 for x in res.window_s]
    return {
        "setup_s": (statistics.median(res.setup_s), "s"),
        "train_s": (train_s, "s"),
        "train_samples_per_s": (res.train_windows_per_run / train_s, "1/s"),
        "score_windows_per_s": (len(res.window_s) / sum(res.pass_s), "1/s"),
        "score_window_ms_p50": (statistics.median(lat_ms), "ms"),
        "score_window_ms_p99": (_p99(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "prepared_mb": (res.prepared_bytes / 1e6, "MB"),
    }


def per_layer(plain: Measurement, traced: Measurement, tracer: Tracer
              ) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name, st in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = (st.calls, "count")
        out[f"{name}.self_s"] = (st.self_s, "s")
    out["layers.conv1d_forward.calls_per_distinct_doc"] = (
        traced.conv_calls_in_training / (len(traced.train_s) * traced.distinct_docs_per_run)
        if traced.distinct_docs_per_run else 0.0, "ratio")
    out["data.prepared_bytes"] = (traced.prepared_bytes, "B")
    out["data.day_copies_per_day"] = (traced.day_copies_per_day, "ratio")
    out["alerts.emitted"] = (len(traced.pass_outputs[0]["alerts"]), "count")
    covered = sum(st.self_s for st in tracer.stats.values())
    out["trace.wall_s"] = (traced.wall_s, "s")
    out["trace.coverage"] = (covered / traced.wall_s, "ratio")
    p, t = end_to_end(plain), end_to_end(traced)
    out["trace.overhead.train_s"] = (t["train_s"][0] - p["train_s"][0], "s")
    out["trace.overhead.score_window_ms_p50"] = (
        t["score_window_ms_p50"][0] - p["score_window_ms_p50"][0], "ms")
    return out


def host_facts(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    sha = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30, check=True)
            sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
    }


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, work_root: Path,
        sizes: Sizes = FULL, save_reference: bool = False) -> dict:
    """Returns correct/attempted/failed/metrics plus problems and sample counts."""
    wl = WORKLOADS[workload]
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = wl.make_inputs(work, seed, sizes)
        if trace:
            once = replace(sizes, setup_reps=1, min_scored=0)
            # wall times: the probe's signal would land inside traced spans
            plain = measure(wl, inputs, work, 0.0, once, SpeedProbe())
            tracer = Tracer()
            try:
                tracer.install(layer_targets())
                res = measure(wl, inputs, work, 0.0, once, SpeedProbe(), tracer)
            finally:
                tracer.restore()
            metrics = per_layer(plain, res, tracer)
            baseline, slowdown = plain, 1.0
        else:
            with SpeedProbe() as probe:
                res = measure(wl, inputs, work, seconds, sizes, probe)
            metrics = end_to_end(res)
            baseline, slowdown = None, probe.slowdown
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if save_reference:
        write_reference(workload, res)
    reference = load_reference(workload) if seed == REFERENCE_SEED and sizes == FULL else None
    attempted, failed, problems = check(res, reference, baseline)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "windows_scored": len(res.window_s),
        "slowdown": slowdown,
        "checked_against_reference": reference is not None,
    }
