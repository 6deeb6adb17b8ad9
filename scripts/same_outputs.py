#!/usr/bin/env python3
"""Same outputs: one fixed journey through sentirisk on a base revision and
on the working tree, every output file and stream compared.

    python3 scripts/same_outputs.py --base HEAD~1
    python3 scripts/same_outputs.py --base HEAD~1 --declared days.json,windows.json
    python3 scripts/same_outputs.py --base 87bab81 --change ea44515 --declared '*.ckpt.json:1e-9'

Extracts REV's committed files (``git archive``, scripts/archive.py) and runs
the journey on them and on the working tree (or on --change's revision), each
side in its own temporary directory, with its own ``src`` first on PYTHONPATH
and its own scripts. The full journey: ``scripts/make_demo_data.py`` at 60 and
160 days, then ``prepare``; on each, seeded ``train`` of all three archs with
attention on and off, ``evaluate``, ``predict`` and ``alert`` of every
checkpoint on every split, and ``compare --out``; then ``alert --predictions``
of tests/fixtures/alert_stream.jsonl and ``scripts/run_ablation.py --out``.
journey("tiny"), the 60-day demo with one tiny one-epoch model and its
scoring, is for tests that call run_journey and compare_trees directly.

Every file the journey leaves is compared byte for byte, with each step's
stdout and stderr and the list of steps and their exit codes (journey.txt);
the one wall-clock time printed (run_ablation's) is masked first. For a file
that differs the script prints the largest relative difference of its
numbers: per tensor of a checkpoint, else over every number of the JSON
document, JSON lines or text, with where it is. The exit code is 1 when a
file is on one side only or differs without being declared, or when a
declared file's numbers differ by more than its bound, or when a step
exits other than 0 on either side (the journey runs nothing that should
fail); 0 otherwise.
--declared takes NAME[:BOUND] items, comma-separated: NAME matches a file's
path or base name (shell wildcards allowed), and BOUND (default 0: every
number equal, only the bytes differ) is the largest relative difference it
may have.
"""

from __future__ import annotations

import argparse
import base64
import fnmatch
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from archive import ROOT, extract_revision

ALERT_STREAM = ROOT / "tests" / "fixtures" / "alert_stream.jsonl"
ARCHS = ("cnn", "gru", "cnn-gru")
SPLITS = ("train", "val", "test")
TINY_CONFIG = {"window": 5, "epochs": 1, "embed_dim": 4, "num_filters": 3, "gru_hidden": 3}
# run_ablation.py's wall-clock time, the one output that is not a function of code and seeds
TIMING = re.compile(r"^\((\d+) samples, \d+s\)$", re.M)
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN)")


def journey(kind: str) -> list[list[str]]:
    """The steps, each an argv run in the side's work directory: "sentirisk"
    is the side's CLI, and a leading scripts/ path one of its scripts."""
    cli = ["sentirisk"]
    if kind == "tiny":
        d, ckpt = "d60", "d60/cnn-gru.ckpt.json"
        common = ["--data-dir", d, "--config", "tiny.json"]
        return [["scripts/make_demo_data.py", "--out", d, "--days", "60"],
                [*cli, "prepare", *common],
                [*cli, "train", *common, "--seed", "0", "--model-out", ckpt],
                [*cli, "evaluate", *common, "--model-in", ckpt],
                [*cli, "predict", *common, "--model-in", ckpt, "--out", "d60/test.csv"],
                [*cli, "alert", *common, "--model-in", ckpt],
                [*cli, "alert", "--predictions", "alert_stream.jsonl"]]
    steps = []
    for days in (60, 160):
        d = f"d{days}"
        steps += [["scripts/make_demo_data.py", "--out", d, "--days", str(days)],
                  [*cli, "prepare", "--data-dir", d]]
        for arch in ARCHS:
            for attention in ("on", "off"):
                name = f"{d}/{arch}-{attention}"
                steps.append([*cli, "train", "--data-dir", d, "--arch", arch, "--attention",
                              attention, "--seed", "0", "--model-out", f"{name}.ckpt.json"])
                for split in SPLITS:
                    scoring = ["--data-dir", d, "--model-in", f"{name}.ckpt.json",
                               "--split", split]
                    steps += [[*cli, "evaluate", *scoring],
                              [*cli, "predict", *scoring, "--out", f"{name}-{split}.csv"],
                              [*cli, "alert", *scoring, "--out", f"{name}-{split}.jsonl"]]
        steps.append([*cli, "compare", "--data-dir", d, "--seed", "0",
                      "--out", f"{d}/compare.json"])
    return [*steps, [*cli, "alert", "--predictions", "alert_stream.jsonl"],
            ["scripts/run_ablation.py", "--out", "ablation.json"]]


def run_journey(code: Path, work: Path, steps: list[list[str]]) -> list[str]:
    """Runs steps with code's sentirisk and scripts in work, each step's
    stdout and stderr kept in work/out/ (named by step number and command),
    and every argv and exit code in work/journey.txt; the lines of the steps
    that did not exit 0."""
    work.mkdir(parents=True)
    shutil.copyfile(ALERT_STREAM, work / "alert_stream.jsonl")
    (work / "tiny.json").write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    (work / "out").mkdir()
    env = {**os.environ, "PYTHONPATH": str(code / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    log = []
    for i, argv in enumerate(steps):
        command = (["-m", "sentirisk.cli", *argv[1:]] if argv[0] == "sentirisk"
                   else [str(code / argv[0]), *argv[1:]])
        proc = subprocess.run([sys.executable, *command], cwd=work, env=env,
                              capture_output=True, text=True, check=False)
        stdout = TIMING.sub(r"(\1 samples, <time>s)", proc.stdout)
        name = argv[1] if argv[0] == "sentirisk" else Path(argv[0]).stem
        out = work / "out" / f"{i:03d}-{name}"
        out.with_suffix(".stdout").write_text(stdout, encoding="utf-8")
        out.with_suffix(".stderr").write_text(proc.stderr, encoding="utf-8")
        log.append(f"{i:03d} exit {proc.returncode}: {' '.join(argv)}")
    (work / "journey.txt").write_text("\n".join(log) + "\n", encoding="utf-8")
    return [line for line in log if " exit 0: " not in line]


class Mismatch(Exception):
    """Two outputs that differ in more than their numbers; the message says where."""


def relative_difference(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude: 0 for equal numbers (NaN
    with NaN too), inf where only one is infinite or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_numbers(a, b, where: str):
    """(where, a number, its counterpart) for every number of two JSON
    values, both ints or both floats; Mismatch where they differ otherwise
    (an int against a float too)."""
    if type(a) is type(b) and type(a) in (int, float):
        yield where, float(a), float(b)
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Mismatch(f"{where or 'top level'}: keys {list(a)} against {list(b)}")
        for key in a:
            yield from _json_numbers(a[key], b[key], f"{where}.{key}" if where else key)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where or 'top level'}: {len(a)} entries against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_numbers(x, y, f"{where}[{i}]")
    elif type(a) is not type(b) or a != b:
        raise Mismatch(f"{where or 'top level'}: {json.dumps(a)} against {json.dumps(b)}")


def _tensors(ckpt: dict) -> dict[str, np.ndarray]:
    """A checkpoint's tensors by name: its "values" payload of little-endian
    float64, split in the order and shapes of its "tensors" index."""
    flat = np.frombuffer(base64.b64decode(ckpt["values"]), dtype="<f8")
    out, at = {}, 0
    for name, (rows, cols) in ckpt["tensors"].items():
        out[name], at = flat[at : at + rows * cols], at + rows * cols
    return out


def _largest(pairs) -> tuple[float, str]:
    """The largest relative difference of (where, a, b) triples, and where."""
    return max(((relative_difference(a, b), where) for where, a, b in pairs),
               key=lambda found: found[0], default=(0.0, ""))


def differences(name: str, a: bytes, b: bytes) -> list[tuple[float, str]]:
    """The largest relative differences of the numbers of two versions of
    the file name, as (difference, where) items: one per tensor for a
    checkpoint, one for any other file. Mismatch where they differ in more
    than their numbers."""
    try:
        if name.endswith(".jsonl"):
            x, y = ([json.loads(line) for line in v.decode().splitlines() if line.strip()]
                    for v in (a, b))
        else:
            x, y = json.loads(a), json.loads(b)
    except ValueError:  # text, CSV: the numbers in the same words
        parts_a, parts_b = NUMBER.split(a.decode()), NUMBER.split(b.decode())
        if parts_a[0::2] != parts_b[0::2]:
            raise Mismatch("the text differs outside its numbers") from None
        return [_largest((f"number {i}", float(p), float(q))
                         for i, (p, q) in enumerate(zip(parts_a[1::2], parts_b[1::2])))]
    if all(isinstance(v, dict) and isinstance(v.get("values"), str) and "tensors" in v
           for v in (x, y)):
        rest = [{k: v for k, v in c.items() if k != "values"} for c in (x, y)]
        list(_json_numbers(*rest, ""))  # the index, config and arch: Mismatch unless equal
        ta, tb = _tensors(x), _tensors(y)
        return [(_largest(("", p, q) for p, q in zip(ta[n].tolist(), tb[n].tolist()))[0], n)
                for n in ta]
    return [_largest(_json_numbers(x, y, ""))]


def _files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def _bound(path: str, declared: dict[str, float]) -> float | None:
    """The bound of the first --declared NAME that path or its base name matches."""
    for pattern, bound in declared.items():
        if fnmatch.fnmatch(path, pattern) or fnmatch.fnmatch(path.rsplit("/", 1)[-1], pattern):
            return bound
    return None


def compare_trees(base: Path, change: Path, declared: dict[str, float]) -> tuple[bool, list[str]]:
    """(whether the trees are the same outputs, the report lines): every file
    present on both sides, equal or declared and within its bound."""
    a, b = _files(base), _files(change)
    ok, lines = True, []
    for path in sorted(a.keys() ^ b.keys()):
        ok = False
        lines.append(f"ONLY IN {'BASE' if path in a else 'CHANGE'}: {path}")
    same = 0
    for path in sorted(a.keys() & b.keys()):
        x, y = a[path].read_bytes(), b[path].read_bytes()
        if x == y:
            same += 1
            continue
        bound = _bound(path, declared)
        try:
            found = differences(path, x, y)
        except Mismatch as exc:
            ok = False
            lines.append(f"DIFFERS: {path}: {exc}")
            continue
        worst = max(d for d, _ in found)
        passed = bound is not None and worst <= bound
        ok &= passed
        verdict = (f"declared, bound {bound:g}" if passed
                   else f"past its declared bound {bound:g}" if bound is not None
                   else "not declared")
        detail = ", ".join(f"{where} {d:.3g}" for d, where in found if d)
        lines.append(f"{'differs' if passed else 'DIFFERS'}: {path} ({verdict}): largest relative "
                     f"difference {detail or '0, every number equal'}")
    lines.insert(0, f"{same} of {len(a.keys() | b.keys())} files identical")
    return ok, lines


def _declared(text: str) -> dict[str, float]:
    out = {}
    for item in filter(None, text.split(",")):
        name, _, bound = item.partition(":")
        out[name] = float(bound) if bound else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", metavar="REV", required=True,
                    help="git revision to compare against")
    ap.add_argument("--change", metavar="REV",
                    help="git revision to check (default: the working tree)")
    ap.add_argument("--declared", type=_declared, default={}, metavar="NAME[:BOUND],...",
                    help="files that may differ, each within its bound (default 0)")
    args = ap.parse_args(argv)

    steps = journey("full")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        base_code = extract_revision(args.base, tmp / "base-code")
        change_code = ROOT if args.change is None else extract_revision(args.change,
                                                                        tmp / "change-code")
        failed = [f"FAILED ON {side.upper()}: {line}"
                  for code, side in ((base_code, "base"), (change_code, "change"))
                  for line in run_journey(code.resolve(), tmp / side, steps)]
        ok, lines = compare_trees(tmp / "base", tmp / "change", args.declared)
    ok, lines = ok and not failed, [*lines, *failed]
    print(f"journey of {len(steps)} steps: base {args.base} vs "
          f"{args.change or 'working tree'} ({time.perf_counter() - started:.0f} s)")
    print("\n".join(lines))
    print("same outputs" if ok else "DIFFERENT OUTPUTS")
    return 0 if ok else 1


if __name__ == "__main__":
    # a terminated run still removes its directories: SystemExit unwinds main's with
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
