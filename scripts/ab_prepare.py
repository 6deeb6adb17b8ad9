#!/usr/bin/env python3
"""A/B prepare_dataset in-process, on texts that repeat and on texts that do not.

    python3 scripts/ab_prepare.py --base HEAD~1 --pairs 10

Both benchmark workloads that call prepare (score and demo-train) repeat
their texts heavily: make_demo_docs draws from a few templates, 15 distinct
texts among 1,963 documents on score. A change to prepare that works per
distinct text shows only its gain there. This script times prepare_dataset
on score's corpus (1,020 days, market seed 3, docs seed 4) in two forms:
"repeated", as generated, and "distinct", with a word of its own appended
to each document's text (" u0", " u1", ...), so that no text repeats.

Each run is a fresh python3 process in one tree (REV's committed files,
extracted as scripts/ab.py does, or the working tree). It loads the corpus
with load_market_csv and load_text_jsonl, makes one untimed call, and
reports the median of --calls timed calls with Lexicon.bundled() and the
default PrepareConfig. Each pair runs both trees, the first side
alternating. For each corpus it prints ab.py's summary row: the medians,
the base's quartiles, the change in percent, the bootstrap interval of the
ratio, the pairs won, and ``worse`` past a 5% slowdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import render, summarize
from archive import ROOT, extract_revision

CHILD = """
import json, statistics, sys, time
from pathlib import Path
from sentirisk import data
from sentirisk.text import Lexicon
raw, calls = Path(sys.argv[1]), int(sys.argv[2])
bars = data.load_market_csv(raw / "market.csv")
docs = data.load_text_jsonl(raw / "texts.jsonl")
lexicon, cfg = Lexicon.bundled(), data.PrepareConfig()
data.prepare_dataset(bars, docs, lexicon, cfg)
times = []
for _ in range(calls):
    t0 = time.perf_counter()
    data.prepare_dataset(bars, docs, lexicon, cfg)
    times.append(time.perf_counter() - t0)
print(json.dumps({"metrics": {"prepare_ms": {"value": 1e3 * statistics.median(times)}}}))
"""

METRIC = {"name": "prepare_ms", "unit": "ms", "better": "lower", "bound": 0.05}


def write_corpora(root: Path) -> dict[str, Path]:
    """The score corpus as generated and with every text made distinct,
    each a directory holding market.csv and texts.jsonl."""
    sys.path.insert(0, str(ROOT / "src"))
    from sentirisk.synthetic import (make_demo_docs, make_demo_market, write_docs_jsonl,
                                     write_market_csv)

    bars = make_demo_market(n_days=1020, seed=3)
    docs = make_demo_docs(bars, seed=4)
    distinct = [dataclasses.replace(d, text=f"{d.text} u{i}") for i, d in enumerate(docs)]
    dirs = {}
    for name, corpus in (("repeated", docs), ("distinct", distinct)):
        dirs[name] = root / name
        dirs[name].mkdir()
        write_market_csv(bars, dirs[name] / "market.csv")
        write_docs_jsonl(corpus, dirs[name] / "texts.jsonl")
        print(f"{name}: {len({d.text for d in corpus})} distinct texts among "
              f"{len(corpus)} documents")
    return dirs


def run_once(tree: Path, raw: Path, calls: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, "-c", CHILD, str(raw), str(calls)], cwd=tree,
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--calls", type=int, default=21, help="timed calls per run")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-prepare-") as tmp:
        base = extract_revision(args.base, Path(tmp) / "base")
        for name, raw in write_corpora(Path(tmp)).items():
            pairs = []
            for i in range(args.pairs):
                order = [("base", base), ("change", ROOT)][:: -1 if i % 2 else 1]
                runs = {side: run_once(tree, raw, args.calls) for side, tree in order}
                pairs.append((runs["base"], runs["change"]))
            print(f"{name}: base {args.base} vs working tree, {args.pairs} pairs, "
                  f"median of {args.calls} calls per run")
            print(render(summarize(pairs, [METRIC])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
