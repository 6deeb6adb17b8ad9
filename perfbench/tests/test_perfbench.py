"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
ONCE = replace(workloads.SMOKE, setup_reps=1, min_scored=0)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    result = harness.run(name, seed=1, seconds=0.0, trace=False, work_root=tmp_path,
                         sizes=workloads.SMOKE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = harness.run(name, seed=2, seconds=0.0, trace=True, work_root=tmp_path,
                         sizes=workloads.SMOKE)
    assert result["correct"], result["problems"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_are_bit_identical_to_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(tmp_path, 3, ONCE)
    with workloads.SpeedProbe() as probe:
        plain = workloads.measure(wl, inputs, tmp_path, 0.0, ONCE, probe)
    tracer = Tracer()
    try:
        tracer.install(workloads.layer_targets())
        traced = workloads.measure(wl, inputs, tmp_path, 0.0, ONCE, workloads.SpeedProbe(),
                                   tracer)
    finally:
        tracer.restore()
    assert traced.train_outputs == plain.train_outputs
    assert traced.pass_outputs == plain.pass_outputs
    assert tracer.stats["model.model_forward"].calls > 0


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sentirisk" or mod_name.startswith("sentirisk."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type):
                    for m_name, m_value in vars(value).items():
                        out[(f"{mod_name}.{attr}", m_name)] = m_value
    return out


def test_every_wrapped_function_is_restored(tmp_path):
    from sentirisk import layers, model, optim

    before = _bindings()
    tracer = Tracer()
    try:
        tracer.install(workloads.layer_targets())
        # wrapped where defined and where model.py imported it by name
        assert layers.conv1d_forward is not before[("sentirisk.layers", "conv1d_forward")]
        assert model.conv1d_forward is layers.conv1d_forward
        assert optim.Optimizer.apply is not before[("sentirisk.optim.Optimizer", "apply")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    harness.run("demo-train", seed=1, seconds=0.0, trace=True, work_root=tmp_path,
                sizes=workloads.SMOKE)
    after_run = _bindings()
    assert all(after_run.get(k) is v for k, v in before.items())


def test_mismatch_against_reference_counts_as_failure(tmp_path):
    wl = workloads.WORKLOADS["ablation"]
    res = workloads.measure(wl, wl.make_inputs(tmp_path, 0, ONCE), tmp_path, 0.0, ONCE,
                            workloads.SpeedProbe())
    reference = {"train": res.train_outputs[0], "score": res.pass_outputs[0]}
    assert harness.check(res, reference)[1] == 0

    bad = json.loads(json.dumps(reference))
    bad["train"]["losses"]["gru"][0][1] *= 1 + 1e-6
    bad["score"]["predictions"][3][1] *= 1 + 1e-6
    attempted, failed, problems = harness.check(res, bad)
    assert failed == res.steps_per_run["gru"] + 1
    assert len(problems) == 2

    near = json.loads(json.dumps(reference))
    near["score"]["predictions"][3][1] *= 1 + 1e-12
    assert harness.check(res, near)[1] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
