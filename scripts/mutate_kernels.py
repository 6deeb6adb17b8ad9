#!/usr/bin/env python3
"""Mutation check of the batched kernels: every listed mutant must fail the kernel tests.

    python3 scripts/mutate_kernels.py

Each mutant is one source edit of a kernel in src/sentirisk: a dropped term,
a swapped gate, an off-by-one winner. For each, the script copies src/ and
tests/ into a temporary directory, applies the edit there (the checkout is
never written) and runs the kernel tests on the copy, stopping at the first
failure: test_batched_kernels.py, test_losses_optim.py, and of
test_model.py TestRowSums, the attention kernels' value tests in
TestKernelWorkspaces and TestBatchedCore (the per-window oracle's check,
kept until the oracle goes), and test_columns.py's TestColumnTables (a
prepared dataset's column-built day tables against the tables of its window
objects). A mutant is killed when that run fails. The
unmutated copy runs first and must pass, or no kill means anything.

An edit's old text must occur exactly once in its file, so a refactor that
moves or rewrites the code makes the script fail instead of silently
skipping the mutant: update the entry with the code. A kernel change adds a
mutant for each new code path.

Exit status: 0 when every mutant is killed, 1 when one survives, an edit
does not apply or the unmutated tests fail.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_batched_kernels.py", "tests/test_losses_optim.py",
         "tests/test_model.py::TestRowSums",
         "tests/test_model.py::TestKernelWorkspaces::test_attention_forward_equals_plain_loops",
         "tests/test_model.py::TestKernelWorkspaces::"
         "test_attention_backward_equals_plain_expressions",
         "tests/test_model.py::TestBatchedCore",
         "tests/test_columns.py::TestColumnTables"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    Mutant("GRU: a feature-column weight gradient dropped", "src/sentirisk/model.py",
           "    d_w[:, h + k :] = np.matmul(d_pre, feats).sum(axis=0)\n",
           "    d_w[:, h + k :] = np.matmul(d_pre, feats).sum(axis=0)\n"
           "    d_w[2 * h :, h + k :] = 0.0\n"),
    Mutant("GRU: row U (days without text) left out of the text-row sums",
           "src/sentirisk/model.py",
           "    d_w[:, h : h + k] = sums @ vecs\n",
           "    sums[:, -1] = 0.0\n    d_w[:, h : h + k] = sums @ vecs\n"),
    # W_text (3h, k) read as if stored (k, 3h): every shape holds
    Mutant("GRU: W_text transposed in the input projection", "src/sentirisk/model.py",
           "np.take(vecs @ w_x[:, :k].T, day_index,",
           "np.take(vecs @ w_x[:, :k].reshape(k, -1), day_index,"),
    Mutant("GRU: z and r swapped in the pre-loop factors", "src/sentirisk/model.py",
           "    np.subtract(cand, h_prev, out=d_pre[:, :h])\n    d_pre[:, h : 2 * h] = h_prev\n",
           "    np.subtract(cand, h_prev, out=d_pre[:, h : 2 * h])\n    d_pre[:, :h] = h_prev\n"),
    Mutant("GRU: the r half of [1 - z | r] left as 1 - r", "src/sentirisk/model.py",
           "    keep[:, h:] = zr[:, h:]", "    pass"),
    Mutant("GRU: the halves of [dh | d(r h)] swapped", "src/sentirisk/model.py",
           "out=pair[:h])\n        d_c[t] *= pair[:h]\n        np.dot(w_hh_t, d_c[t], out=pair[h:])",
           "out=pair[h:])\n        d_c[t] *= pair[h:]\n        np.dot(w_hh_t, d_c[t], out=pair[:h])"),
    Mutant("GRU: the t = 0 stop before d_zr[0] is scaled", "src/sentirisk/model.py",
           "        d_zr[t] *= pair\n        if t == 0:\n            break\n",
           "        if t == 0:\n            break\n        d_zr[t] *= pair\n"),
    Mutant("GRU: the gates' (1 - g) factor missing", "src/sentirisk/model.py",
           "    d_zr *= keep\n", ""),
    Mutant("attention: softmax normalized over the batch axis", "src/sentirisk/model.py",
           "alpha = ex / ex.sum(axis=0, keepdims=True)",
           "alpha = ex / ex.sum(axis=1, keepdims=True)"),
    Mutant("attention: the tanh slope (1 - acts^2) dropped", "src/sentirisk/model.py",
           "    d_act *= slope\n", ""),
    Mutant("attention: d_w_a taken from acts instead of d_act", "src/sentirisk/model.py",
           "d_w_a = np.matmul(d_act, hid.transpose(0, 2, 1))",
           "d_w_a = np.matmul(acts, hid.transpose(0, 2, 1))"),
    Mutant("conv: a dropped scatter term in _conv_backward", "src/sentirisk/model.py",
           "        for k in range(width):\n            at = row[",
           "        for k in range(1, width):\n            at = row["),
    Mutant("conv: max-pool winners off by one", "src/sentirisk/model.py",
           "winners[s : s + step] = len(windows) - top.max(axis=0)",
           "winners[s : s + step] = len(windows) + 1 - top.max(axis=0)"),
    Mutant("embedding: the pad row's gradient not zeroed", "src/sentirisk/model.py",
           "d_items, d_embed, ws)\n    d_embed[0, :] = 0.0  # pad row is frozen\n",
           "d_items, d_embed, ws)\n"),
    Mutant("Adam: the first moment's bias correction skipped", "src/sentirisk/optim.py",
           "np.divide(self.m, 1.0 - ADAM_BETA1 ** self.t, out=a)",
           "np.divide(self.m, 1.0, out=a)"),
    Mutant("SGD: the weight decay term dropped", "src/sentirisk/optim.py",
           "np.multiply(params, self.cfg.weight_decay, out=a)",
           "np.multiply(params, 0.0, out=a)"),
    Mutant("row sums: every column of a row added into its first", "src/sentirisk/model.py",
           "    flat += np.arange(width)\n", ""),
    Mutant("gather: text rows numbered from 1, the last one onto the textless row",
           "src/sentirisk/model.py",
           "number[values[first]] = np.arange(len(first))",
           "number[values[first]] = np.arange(1, len(first) + 1)"),
    Mutant("GRU-only: pad tokens counted in a text's mean embedding", "src/sentirisk/model.py",
           "counts[s : s + n_rows] = rows[:, 1:].sum(axis=1)",
           "counts[s : s + n_rows] = rows.sum(axis=1)"),
    Mutant("GRU-only: the embedding gradient not divided by the token counts",
           "src/sentirisk/model.py",
           "d_vecs = d_vecs[:-1] / np.maximum(cache.counts, 1)[:, None]",
           "d_vecs = d_vecs[:-1]"),
    Mutant("GRU-only: every chunk's text vectors written from the first row",
           "src/sentirisk/model.py",
           "out=vecs[start : start + len(rows)])", "out=vecs[: len(rows)])"),
    Mutant("GRU-only: every chunk's embedding gradient read from the first row",
           "src/sentirisk/model.py",
           "rows.T @ d_vecs[start : start + len(rows)]", "rows.T @ d_vecs[: len(rows)]"),
    Mutant("GRU-only: chunks sized by the vocabulary, not by the batch's ids",
           "src/sentirisk/model.py",
           "step = max(1, CHUNK_VALUES // len(batch_ids))",
           "step = max(1, CHUNK_VALUES // len(seen))"),
    Mutant("GRU-only: every chunk given a column for each of the batch's ids",
           "src/sentirisk/model.py",
           "        if n_rows < len(n_docs):", "        if False:"),
    Mutant("conv: the trim keeps one window too few", "src/sentirisk/model.py",
           "n_windows = conv_output_length(ids.shape[1], cfg.kernel_width, cfg.conv_stride)",
           "n_windows = max(1, conv_output_length(ids.shape[1], cfg.kernel_width, "
           "cfg.conv_stride) - 1)"),
    Mutant("day table: no room for a window that starts at the longest document's last token",
           "src/sentirisk/model.py",
           "max(longest, (max(longest, 1) - 1) // cfg.conv_stride",
           "max(longest, (max(longest, 2) - 2) // cfg.conv_stride"),
    Mutant("column table: a window's day rows shifted by one", "src/sentirisk/model.py",
           "flat = (starts[:, None] + np.arange(cfg.window)).ravel()",
           "flat = (starts[:, None] + np.arange(1, cfg.window + 1)).ravel()"),
    Mutant("column table: texts keyed by their untruncated ids", "src/sentirisk/model.py",
           "key = tuple(seq[: cfg.max_doc_len] for seq in seqs)", "key = seqs"),
    Mutant("column table: features read from the previous day's row", "src/sentirisk/model.py",
           "ds.features[days],", "ds.features[days - 1],"),
]


def mutated(mutant: Mutant, root: Path) -> str:
    """The source of mutant's file under root with its edit applied;
    ValueError unless its old text occurs exactly once there."""
    source = (root / mutant.path).read_text(encoding="utf-8")
    if (n := source.count(mutant.old)) != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {n} times in {mutant.path}, "
                         "not once")
    return source.replace(mutant.old, mutant.new)


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def tests_pass(where: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=where, env=env, capture_output=True, text=True, check=False)
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    try:  # every edit applies before any test runs
        sources = [mutated(mutant, ROOT) for mutant in MUTANTS]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        clean, work = Path(tmp) / "clean", Path(tmp) / "mutant"
        copy_tree(clean)
        if not tests_pass(clean):
            print("the unmutated kernel tests fail", file=sys.stderr)
            return 1
        for mutant, source in zip(MUTANTS, sources):
            shutil.copytree(clean, work)
            (work / mutant.path).write_text(source, encoding="utf-8")
            killed = not tests_pass(work)
            shutil.rmtree(work)
            print(f"{'killed  ' if killed else 'SURVIVED'}  {mutant.name}", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
