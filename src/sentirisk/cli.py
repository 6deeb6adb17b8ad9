"""Command-line interface: prepare / train / evaluate / compare / predict / alert.

Each subcommand's parser declares only the flags its code reads, plus
--config, which every subcommand takes so that one config file serves the
whole pipeline. The parser that owns a usage error (no subcommand, an unknown
flag or a prefix of one, a missing flag, alert's flag mix, a non-integer
SENTI_RISK_SEED) prints its usage line and the error. Exit codes: 0 success,
1 usage error, 2 data validation error, 3 runtime or numeric failure.
Progress goes to standard error; results (metrics JSON, CSV, alert JSONL) go
to standard output unless an output path is given. A failed run leaves a
previous checkpoint, history, predict CSV or alert file as it was; train,
compare, predict and alert check that their output directories exist before
any work. evaluate, predict and alert load their inputs through one loader
(a checkpoint whose vocab_size or window differs from the dataset's is a
data error) and score the split with train.score_windows.

Configuration is a flat JSON object whose keys are the fields of ModelConfig,
TrainConfig, PrepareConfig and AlertRuleConfig, which alone define each
setting's default, type and range. Three names differ: "attention" is
attention_enabled, the three *_ratio keys are PrepareConfig.ratios, and the
two lexicon_* paths are CLI-only. A key that several dataclasses share (seed,
window) sets every one of them. data.read_json reads the file. A value of
the wrong JSON type or out of range is a data error. Flags override the
file; for train and compare, SENTI_RISK_SEED stands in for an absent --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path
from typing import Sequence

from . import alerts as alerts_mod
from . import data as data_mod
from . import train as train_mod
from .errors import CheckpointError, DataValidationError, NumericError, ShapeError
from .losses import softmax_rows
from .model import ArchKind, CnnGruModel, ModelConfig, build_model, load_checkpoint, save_checkpoint
from .text import Lexicon

log = logging.getLogger(__name__)

ARCH_BY_FLAG = {
    "cnn": ArchKind.CNN_ONLY,
    "gru": ArchKind.GRU_ONLY,
    "cnn-gru": ArchKind.CNN_GRU,
}

SPLITS = ("train", "val", "test")

CONFIG_CLASSES = (ModelConfig, train_mod.TrainConfig, data_mod.PrepareConfig,
                  alerts_mod.AlertRuleConfig)
_KEY_OF_FIELD = {"attention_enabled": "attention"}
_RATIO_KEYS = ("train_ratio", "val_ratio", "test_ratio")  # PrepareConfig.ratios
# CLI-only: null selects the bundled lexicons
_LEXICON_KEYS = ("lexicon_positive", "lexicon_negative")


def _config_schema() -> tuple[dict, dict]:
    """(default, annotation) of every config key, read off CONFIG_CLASSES."""
    defaults: dict = {}
    types: dict = {}
    for cls in CONFIG_CLASSES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING:  # vocab_size: from the prepared dataset
                continue
            if f.name == "ratios":
                for key, default in zip(_RATIO_KEYS, f.default):
                    defaults[key], types[key] = default, float
            else:
                key = _KEY_OF_FIELD.get(f.name, f.name)
                defaults[key], types[key] = f.default, hints[f.name]
    for key in _LEXICON_KEYS:
        defaults[key], types[key] = None, str | None
    return defaults, types


CONFIG_DEFAULTS, _CONFIG_TYPES = _config_schema()


class _Parser(argparse.ArgumentParser):
    """Reports its usage errors, leftovers included, with exit code 1 (argparse's is 2)."""

    def parse_known_args(self, args=None, namespace=None):  # type: ignore[override]
        # else argparse hands a subcommand's leftovers up to the top-level parser
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _path(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="sentirisk",
                     description="Market-sentiment sequence learner with risk alerting.")
    sub = parser.add_subparsers(required=True, parser_class=_Parser)

    def command(name: str, func, help: str, required: bool = True) -> _Parser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func, parser=p)  # the commands report usage errors through parser
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--data-dir", metavar="DIR", type=_path, required=required,
                       help="raw data dir (prepare) or prepared dataset dir")
        return p

    def seed_and_attention(p: _Parser) -> None:
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--attention", choices=["on", "off"],
                       help="attention pooling over GRU hidden states")

    def scoring(p: _Parser, model_in) -> None:
        # model_in is p, or alert's mutually exclusive group, whose flags are optional
        model_in.add_argument("--model-in", metavar="PATH", type=_path,
                              required=model_in is p, help="checkpoint to load")
        # None, not test: alert refuses a --split given with --predictions
        p.add_argument("--split", choices=SPLITS, help="split to score (default test)")

    p = command("prepare", cmd_prepare, "ingest market.csv + texts.jsonl into a prepared dataset")
    p.add_argument("--out", metavar="DIR", help="output dir (default DATA_DIR/prepared)")

    p = command("train", cmd_train, "train a model")
    seed_and_attention(p)
    p.add_argument("--arch", choices=sorted(ARCH_BY_FLAG), default="cnn-gru",
                   help="architecture (default cnn-gru)")
    p.add_argument("--model-out", metavar="PATH", type=_path, required=True,
                   help="checkpoint to write")
    p.add_argument("--history-out", metavar="PATH",
                   help="epoch history JSONL (default derived from --model-out)")

    p = command("evaluate", cmd_evaluate, "metrics on one split")
    scoring(p, p)

    p = command("compare", cmd_compare, "train all three architectures and tabulate metrics")
    seed_and_attention(p)
    p.add_argument("--out", metavar="PATH", help="also write metrics JSON here")

    p = command("predict", cmd_predict, "export date,true_close,pred_close CSV")
    scoring(p, p)
    p.add_argument("--out", metavar="PATH", type=_path, required=True, help="output CSV path")

    p = command("alert", cmd_alert, "emit risk-alert JSONL", required=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--predictions", metavar="PATH",
                        help="precomputed prediction JSONL instead of a model run")
    scoring(p, source)
    p.add_argument("--out", metavar="PATH", help="output JSONL path (default stdout)")

    return parser


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    file_cfg = data_mod.read_json(args.config, _CONFIG_TYPES) if args.config else {}
    cfg.update(file_cfg)
    cfg["_explicit"] = set(file_cfg)
    env = os.environ.get("SENTI_RISK_SEED")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    elif "seed" in args and env is not None:  # read only where --seed is taken
        try:
            cfg["seed"] = int(env)
        except ValueError:
            args.parser.error(f"SENTI_RISK_SEED must be an integer, got {env!r}")
    if getattr(args, "attention", None) is not None:
        cfg["attention"] = args.attention == "on"
    return cfg


def build_config(cls: type, cfg: dict, **given):
    """One of CONFIG_CLASSES from a resolved config; ``given`` fields win.

    Each field reads its own key, so a shared key reaches every dataclass
    that holds it. A value the dataclass rejects is a data error.
    """
    values = {f.name: (tuple(cfg[k] for k in _RATIO_KEYS) if f.name == "ratios"
                       else cfg[_KEY_OF_FIELD.get(f.name, f.name)])
              for f in dataclasses.fields(cls) if f.name not in given}
    try:
        return cls(**values, **given)
    except ShapeError as exc:
        raise DataValidationError(str(exc)) from None


def _model_config(cfg: dict, vocab_size: int, window: int) -> ModelConfig:
    if "window" in cfg["_explicit"] and cfg["window"] != window:
        raise DataValidationError(
            f"config window {cfg['window']} does not match prepared dataset window {window}"
        )
    return build_config(ModelConfig, cfg, vocab_size=vocab_size, window=window)


def _find_prepared(data_dir: str) -> Path:
    root = Path(data_dir)
    if (root / "norm_stats.json").is_file():
        return root
    if (root / "prepared" / "norm_stats.json").is_file():
        return root / "prepared"
    raise DataValidationError(
        f"no prepared dataset under {root}: no {root / 'norm_stats.json'} or "
        f"{root / 'prepared' / 'norm_stats.json'} (run `sentirisk prepare`)")


def _check_out_dirs(*paths: str | None) -> None:
    """FileNotFoundError naming the first given path whose directory is missing."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: no directory {Path(path).parent}")


def _lexicon(cfg: dict) -> Lexicon:
    pos, neg = cfg["lexicon_positive"], cfg["lexicon_negative"]
    if (pos is None) != (neg is None):
        raise DataValidationError(
            "lexicon_positive and lexicon_negative must be set together"
        )
    if pos is None:
        return Lexicon.bundled()
    return Lexicon.from_files(pos, neg)


def _load_for_scoring(args: argparse.Namespace
                      ) -> tuple[CnnGruModel, data_mod.PreparedDataset, list]:
    """The --model-in checkpoint, checked against the prepared dataset, and --split's split."""
    prepared = _find_prepared(args.data_dir)
    model = load_checkpoint(args.model_in)
    ds = data_mod.load_prepared(prepared)
    for key, have, want in (("vocab_size", model.cfg.vocab_size, ds.vocab.size),
                            ("window", model.cfg.window, ds.window)):
        if have != want:
            raise DataValidationError(
                f"checkpoint {args.model_in} has {key} {have}, "
                f"but the prepared dataset {prepared} has {want}")
    split_name = args.split or "test"
    split = dict(zip(SPLITS, ds.splits()))[split_name]
    if not split:
        raise DataValidationError(f"{split_name} split is empty")
    return model, ds, split


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    data_dir = Path(args.data_dir)
    market = data_dir / "market.csv"
    texts = data_dir / "texts.jsonl"
    bars = data_mod.load_market_csv(market)
    # exists(), not is_file(): a texts.jsonl that is a pipe is read, not skipped
    docs = data_mod.load_text_jsonl(texts) if texts.exists() else []
    if not texts.exists():
        log.info("no %s; preparing a market-only dataset", texts)
    pcfg = build_config(data_mod.PrepareConfig, cfg)
    ds = data_mod.prepare_dataset(bars, docs, _lexicon(cfg), pcfg)
    out = Path(args.out) if args.out else data_dir / "prepared"
    data_mod.save_prepared(ds, out)
    print(f"prepared {len(ds.windows.start)} samples "
          f"({len(bars)} bars, {len(docs)} docs, vocab {ds.vocab.size}) -> {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _check_out_dirs(args.model_out, args.history_out)
    prepared = _find_prepared(args.data_dir)
    model_out = Path(args.model_out)
    ds = data_mod.load_prepared(prepared)
    mcfg = _model_config(cfg, ds.vocab.size, ds.window)
    model = build_model(mcfg, ARCH_BY_FLAG[args.arch])
    train_s, val_s, _ = ds.splits()
    best, history = train_mod.train(model, train_s, val_s,
                                    build_config(train_mod.TrainConfig, cfg))
    save_checkpoint(best, model_out)
    if args.history_out:
        history_path = Path(args.history_out)
    else:
        name = model_out.name
        stem = name[: -len(".ckpt.json")] if name.endswith(".ckpt.json") else model_out.stem
        history_path = model_out.with_name(stem + ".history.jsonl")
    train_mod.save_history(history, history_path)
    last = history[-1]
    print(f"trained {best.arch.value} for {len(history)} epochs "
          f"(final train {last['train_loss']:.6f}, val {last['val_loss']:.6f}); "
          f"checkpoint -> {model_out}, history -> {history_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    resolve_config(args)
    model, _, split = _load_for_scoring(args)
    report = train_mod.evaluate(model, split)
    print(json.dumps({"split": args.split or "test", **report.to_dict()}, indent=2))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _check_out_dirs(args.out)
    ds = data_mod.load_prepared(_find_prepared(args.data_dir))
    mcfg = _model_config(cfg, ds.vocab.size, ds.window)
    reports = train_mod.compare_ablations(ds.samples, mcfg,
                                          build_config(train_mod.TrainConfig, cfg),
                                          ratios=ds.ratios)
    print(train_mod.render_comparison_table(reports))
    if args.out:
        obj = {arch.value: r.to_dict() for arch, r in reports.items()}
        with data_mod.atomic_write(args.out) as fh:
            fh.write(json.dumps(obj, indent=2) + "\n")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    resolve_config(args)
    _check_out_dirs(args.out)
    model, ds, split = _load_for_scoring(args)
    train_mod.export_predictions(model, split, ds.stats, args.out)
    print(f"wrote {len(split)} predictions -> {args.out}")
    return 0


def cmd_alert(args: argparse.Namespace) -> int:
    # argparse lets exactly one of --model-in and --predictions through
    model_inputs = {"--data-dir": args.data_dir, "--split": args.split}
    if args.predictions and (given := [f for f, v in model_inputs.items() if v is not None]):
        args.parser.error(f"--predictions takes no {', '.join(given)}")
    if args.model_in and args.data_dir is None:
        args.parser.error("--model-in needs --data-dir")
    cfg = resolve_config(args)
    _check_out_dirs(args.out)
    rules = build_config(alerts_mod.AlertRuleConfig, cfg)
    if args.predictions:
        preds = alerts_mod.load_predictions_jsonl(args.predictions)
    else:
        model, _, split = _load_for_scoring(args)
        pred, logits = train_mod.score_windows(model, split)
        probs = softmax_rows(logits)
        # argmax breaks ties toward the first class
        preds = [alerts_mod.DailyPrediction(s.target_date, int(c), p, r)
                 for s, c, p, r in zip(split, probs.argmax(axis=1), probs, pred.tolist())]
    found = alerts_mod.detect_inflections(preds, rules)
    if args.out:
        with data_mod.atomic_write(args.out) as fh:
            alerts_mod.write_alerts_jsonl(found, fh)
        log.info("wrote %d alerts -> %s", len(found), args.out)
    else:
        alerts_mod.write_alerts_jsonl(found, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error (1) or --help (0), reported by its parser
        return int(exc.code) if exc.code is not None else 0
    except (DataValidationError, CheckpointError) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as exc:
        print(f"{parser.prog}: numeric/runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{parser.prog}: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
