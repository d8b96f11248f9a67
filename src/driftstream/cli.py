"""Command-line interface: run experiments, generate streams, diff vocabularies.

Configuration precedence is flags > JSON config file > built-in defaults;
unknown config-file keys are rejected.  The ``DRIFTSTREAM_OUT`` environment
variable, when set, overrides the output directory.  Exit codes: 0 on
success, 1 on runtime failure, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .errors import ConfigError, DriftStreamError
from .evaluation import METRIC_NAMES, export_reports, write_json
from .features import FeatureExtractorModel, vocabulary_diff
from .pipeline import (ExperimentConfig, FnFPipeline, ModelPoolPipeline,
                       run_cross_validation, run_iwc, run_multiple_time_spans,
                       run_temporal_split)
from .stream import load_stream, save_stream
from .synth import SynthStreamSpec, generate_synth_stream

_RUN_ONLY_KEYS = ("input", "format", "out")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One CLI flag per ExperimentConfig field, defaults left unset so that
    the merge step can tell explicit flags from omissions."""
    for spec in fields(ExperimentConfig):
        flag = "--" + spec.name.replace("_", "-")
        if spec.type == "bool":
            parser.add_argument(flag, default=None, type=_parse_bool,
                                metavar="0|1",
                                help=f"{spec.name} (default: {spec.default})")
        elif spec.name == "warmup":
            parser.add_argument(flag, default=None, type=_parse_warmup,
                                help=f"sample count or duration such as 365d "
                                     f"(default: {spec.default})")
        elif spec.type in ("int", "int | None"):
            parser.add_argument(flag, default=None, type=int,
                                help=f"{spec.name} (default: {spec.default})")
        elif spec.type == "float":
            parser.add_argument(flag, default=None, type=float,
                                help=f"{spec.name} (default: {spec.default})")
        else:
            parser.add_argument(flag, default=None,
                                help=f"{spec.name} (default: {spec.default})")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_warmup(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Streaming malware classification with drift detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one experiment strategy and export reports",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--input", help="stream file (JSONL or CSV)")
    run.add_argument("--format", choices=("jsonl", "csv"), default=None,
                     help="input format (default: jsonl)")
    run.add_argument("--out", default=None,
                     help="output directory (default: out; DRIFTSTREAM_OUT "
                          "overrides)")
    run.add_argument("--grid", help="JSON file with a list of run configs to "
                                    "execute in parallel")
    run.add_argument("--workers", type=int, default=None,
                     help="parallel workers for --grid, at most one per "
                          "entry (default: cpu count)")
    _add_config_flags(run)

    gen = sub.add_parser(
        "gen", help="generate a synthetic labeled stream",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--drift-at", type=int, action="append", default=None,
                     help="drift point (repeatable)")
    gen.add_argument("--kind", choices=("abrupt", "vocabulary-shift"),
                     default="vocabulary-shift", help="concept change kind")
    gen.add_argument("--malware-rate", type=float, default=0.35)
    gen.add_argument("--attributes", type=int, default=2,
                     help="number of token attributes")
    gen.add_argument("--tokens-mean", type=float, default=8.0,
                     help="mean tokens per attribute")
    gen.add_argument("--step-seconds", type=int, default=1,
                     help="seconds between consecutive timestamps")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSONL file")

    diff = sub.add_parser(
        "diff-vocab", help="diff the vocabularies of two extractor models",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    diff.add_argument("old", help="JSON file of the older extractor")
    diff.add_argument("new", help="JSON file of the newer extractor")
    diff.add_argument("--out", default=None,
                      help="directory for vocab_diffs.json (default: "
                           "print only)")
    return parser


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def _merge_run_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(payload)  # _build_config rejects unknown keys
    for spec in fields(ExperimentConfig):
        value = getattr(args, spec.name, None)
        if value is not None:
            merged[spec.name] = value
    for key in _RUN_ONLY_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _print_summary(summary: dict) -> None:
    print("metric       value")
    for key in METRIC_NAMES:
        print(f"{key:<12} {summary[key]:.6f}")
    print(f"{'drifts':<12} {summary['drifts']}")


def _build_config(merged: dict) -> ExperimentConfig:
    """The validated experiment config of a merged run config dict."""
    config = ExperimentConfig.from_dict(
        {key: value for key, value in merged.items()
         if key not in _RUN_ONLY_KEYS})
    config.validate()
    return config


def _execute_run(merged: dict, out_dir: Path) -> dict:
    """Run one experiment from a merged config dict; returns the summary."""
    if merged.get("input") is None:
        raise ConfigError("an --input stream file is required")
    config = _build_config(merged)
    stream = load_stream(merged["input"], merged.get("format") or "jsonl")
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.strategy in ("temporal", "cross-val"):
        if config.strategy == "temporal":
            result = run_temporal_split(stream, config)
        else:
            result = run_cross_validation(stream, config)
            write_json(out_dir / "folds.json",
                       [{"fold": i, **asdict(counts)}
                        for i, counts in enumerate(result["per_fold"])])
        summary = {name: result[name] for name in METRIC_NAMES}
        summary["drifts"] = 0
    elif config.strategy == "mts":
        report = run_multiple_time_spans(stream, config)
        summary = report.summary
        write_json(out_dir / "mts.json", {
            "folds": [{"iteration": r.iteration,
                       "warmup_size": r.warmup_size, **r.summary}
                      for r in report.folds],
            "f1_mean": report.f1_mean, "f1_std": report.f1_std})
    else:  # prequential runs; export_reports writes their summary.json
        diffs, extractor = [], None
        if config.strategy == "pool":
            timeline = ModelPoolPipeline(config).run(stream)
        elif config.strategy == "iwc":
            timeline = run_iwc(stream, config)
            write_json(out_dir / "periods.json",
                       [{"period": p.label, **asdict(p.counts)}
                        for p in timeline.periods])
        else:
            pipe = FnFPipeline(config)
            timeline = pipe.run(stream)
            diffs, extractor = pipe.vocab_diff_events, pipe.extractor
        export_reports(timeline, diffs, out_dir)
        if extractor is not None:
            extractor.save(out_dir / "extractor_final.json")
        return timeline.summary()
    write_json(out_dir / "summary.json", summary)
    return summary


def _resolve_out_dir(requested: str | None) -> Path:
    env = os.environ.get("DRIFTSTREAM_OUT")
    if env:
        return Path(env)
    return Path(requested) if requested else Path("out")


def _grid_worker(job: tuple[dict, str]) -> tuple[str, dict]:
    merged, out_dir = job
    return out_dir, _execute_run(merged, Path(out_dir))


def cmd_run(args: argparse.Namespace) -> int:
    if args.grid:
        return _cmd_run_grid(args)
    merged = _merge_run_config(args)
    out_dir = _resolve_out_dir(merged.pop("out", None))
    summary = _execute_run(merged, out_dir)
    _print_summary(summary)
    print(f"reports written to {out_dir}")
    return 0


def _cmd_run_grid(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    path = Path(args.grid)
    if not path.exists():
        raise ConfigError(f"grid file {path} does not exist")
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid file {path} is not valid JSON: {exc}")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("grid file must hold a non-empty JSON array")
    base = _merge_run_config(args)
    root = _resolve_out_dir(base.pop("out", None))
    jobs = []
    names = set()
    allowed = ({spec.name for spec in fields(ExperimentConfig)}
               | set(_RUN_ONLY_KEYS) | {"name"})
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"grid entry {i} is not an object")
        unknown = set(entry) - allowed
        if unknown:
            raise ConfigError(f"grid entry {i}: unknown keys {sorted(unknown)}")
        entry = dict(entry)
        name = entry.pop("name", f"job{i:03d}")
        if name in names:
            raise ConfigError(f"grid entry {i}: duplicate name {name!r}; "
                              f"entries would share one output directory")
        names.add(name)
        merged = dict(base)
        merged.update(entry)
        merged.pop("out", None)
        _build_config(merged)  # config mistakes exit with code 2 up front
        jobs.append((merged, str(root / name)))
    workers = min(len(jobs), args.workers or os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_grid_worker, jobs)
    else:
        results = [_grid_worker(job) for job in jobs]
    for out_dir, summary in results:
        print(f"{out_dir}: "
              + " ".join(f"{key}={summary[key]:.6f}"
                         for key in METRIC_NAMES)
              + f" drifts={summary['drifts']}")
    return 0


# ---------------------------------------------------------------------------
# gen and diff-vocab subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    spec = SynthStreamSpec(
        n_samples=args.n,
        drift_points=tuple(args.drift_at or ()),
        kind=args.kind,
        malware_rate=args.malware_rate,
        n_attributes=args.attributes,
        tokens_mean=args.tokens_mean,
        step_seconds=args.step_seconds,
        seed=args.seed,
    )
    stream = generate_synth_stream(spec)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    save_stream(stream, out)
    print(f"wrote {len(stream)} samples to {out}")
    return 0


def cmd_diff_vocab(args: argparse.Namespace) -> int:
    old = FeatureExtractorModel.load(args.old)
    new = FeatureExtractorModel.load(args.new)
    diffs = vocabulary_diff(old, new)
    for diff in diffs:
        print(f"{diff.attribute_name}: +{len(diff.added)} "
              f"-{len(diff.removed)} ={len(diff.retained)}")
        for token in sorted(diff.added):
            print(f"  + {token}")
        for token in sorted(diff.removed):
            print(f"  - {token}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "vocab_diffs.json",
                   [{"step": 0, "diffs": [d.to_dict() for d in diffs]}])
        print(f"wrote {out_dir / 'vocab_diffs.json'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_diff_vocab(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DriftStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
