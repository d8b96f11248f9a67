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
import reprlib
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
_FLAG_TYPES = {"int": int, "float": float}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One CLI flag per ExperimentConfig field, defaults left unset so that
    the merge step can tell explicit flags from omissions."""
    for spec in fields(ExperimentConfig):
        flag = "--" + spec.name.replace("_", "-")
        if spec.name == "warmup":
            parser.add_argument(flag, default=None, type=_parse_warmup,
                                help=f"sample count or duration such as 365d "
                                     f"(default: {spec.default})")
        else:
            parser.add_argument(flag, default=None,
                                type=_FLAG_TYPES.get(spec.type, str),
                                help=f"{spec.name} (default: {spec.default})")


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

    # each help text names its own default; the run flags default to None,
    # so that the merge step can tell them from omissions
    run = sub.add_parser(
        "run", help="run one experiment strategy and export reports")
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

    gen = sub.add_parser("gen", help="generate a synthetic labeled stream")
    gen.add_argument("--n", type=int, required=True, help="number of samples")
    gen.add_argument("--drift-at", type=int, action="append", default=None,
                     help="drift point, repeatable (default: no drift)")
    gen.add_argument("--kind", choices=("abrupt", "vocabulary-shift"),
                     default="vocabulary-shift",
                     help="concept change kind (default: %(default)s)")
    gen.add_argument("--malware-rate", type=float, default=0.35,
                     help="share of malware samples (default: %(default)s)")
    gen.add_argument("--attributes", type=int, default=2,
                     help="number of token attributes (default: %(default)s)")
    gen.add_argument("--tokens-mean", type=float, default=8.0,
                     help="mean tokens per attribute, <= 1000 (default: %(default)s)")
    gen.add_argument("--step-seconds", type=int, default=1,
                     help="seconds between timestamps (default: %(default)s)")
    gen.add_argument("--seed", type=int, default=0,
                     help="random seed (default: %(default)s)")
    gen.add_argument("--out", required=True, help="output JSONL file")

    diff = sub.add_parser(
        "diff-vocab", help="diff the vocabularies of two extractor models")
    diff.add_argument("old", help="JSON file of the older extractor")
    diff.add_argument("new", help="JSON file of the newer extractor")
    diff.add_argument("--out", default=None,
                      help="directory for vocab_diffs.json (default: "
                           "print only)")
    return parser


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def _read_json_file(path: str, what: str):
    """The JSON value of a ``what`` file ("config", "grid") named by a flag."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file {path} does not exist")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")


def _merge_run_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if args.config:
        payload = _read_json_file(args.config, "config")
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
    """The experiment config of a merged run config dict, after checking
    its run-only keys."""
    for key in _RUN_ONLY_KEYS:
        value = merged.get(key, "")
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be str, got {reprlib.repr(value)}")
        if "\0" in value:  # no path or format holds one
            raise ConfigError(f"{key} holds a NUL byte: {reprlib.repr(value)}")
    if "input" not in merged:
        raise ConfigError("an --input stream file is required")
    if merged.get("format", "jsonl") not in ("jsonl", "csv"):
        raise ConfigError(f"format must be jsonl or csv, got "
                          f"{reprlib.repr(merged['format'])}")
    return ExperimentConfig.from_dict(
        {key: value for key, value in merged.items()
         if key not in _RUN_ONLY_KEYS})


def _execute_run(config: ExperimentConfig, merged: dict,
                 out_dir: Path) -> dict:
    """Run ``config``, built from ``merged``; returns the summary.  The
    reports directory is made once the strategy has returned, not before."""
    stream = load_stream(merged["input"], merged.get("format", "jsonl"))
    reports, timeline, diffs, extractor = {}, None, [], None
    if config.strategy == "temporal":
        summary, _ = run_temporal_split(stream, config)
    elif config.strategy == "cross-val":
        summary, per_fold = run_cross_validation(stream, config)
        reports["folds.json"] = [{"fold": i, **asdict(counts)}
                                 for i, counts in enumerate(per_fold)]
    elif config.strategy == "mts":
        summary, reports["mts.json"] = run_multiple_time_spans(stream, config)
    elif config.strategy == "pool":
        timeline = ModelPoolPipeline(config).run(stream)
    elif config.strategy == "iwc":
        timeline = run_iwc(stream, config)
        reports["periods.json"] = [{"period": p.label, **asdict(p.counts)}
                                   for p in timeline.periods]
    else:
        pipe = FnFPipeline(config)
        timeline = pipe.run(stream)
        diffs, extractor = pipe.vocab_diff_events, pipe.extractor

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in reports.items():
        write_json(out_dir / name, payload)
    if timeline is None:
        write_json(out_dir / "summary.json", summary)
        return summary
    export_reports(timeline, diffs, out_dir)  # writes summary.json
    if extractor is not None:
        extractor.save(out_dir / "extractor_final.json")
    return timeline.summary()


def _resolve_out_dir(requested: str | None) -> Path:
    env = os.environ.get("DRIFTSTREAM_OUT")
    if env:
        return Path(env)
    return Path(requested) if requested else Path("out")


def _grid_worker(job: tuple[ExperimentConfig, dict, str]) -> tuple[str, dict]:
    config, merged, out_dir = job
    return out_dir, _execute_run(config, merged, Path(out_dir))


def cmd_run(args: argparse.Namespace) -> int:
    if args.grid:
        return _cmd_run_grid(args)
    merged = _merge_run_config(args)
    config = _build_config(merged)
    out_dir = _resolve_out_dir(merged.get("out"))
    summary = _execute_run(config, merged, out_dir)
    _print_summary(summary)
    print(f"reports written to {out_dir}")
    return 0


def _cmd_run_grid(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    entries = _read_json_file(args.grid, "grid")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("grid file must hold a non-empty JSON array")
    base = _merge_run_config(args)
    checked = {}  # name -> (config, merged); every mistake exits 2 up front
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"grid entry {i} is not an object")
        entry = dict(entry)
        name = entry.pop("name", f"job{i:03d}")
        # each entry writes to <out>/<name>/ and nowhere else
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "\0" in name or Path(name).name != name):
            raise ConfigError(f"grid entry {i}: name must be one path "
                              f"component, got {reprlib.repr(name)}")
        if name in checked:
            raise ConfigError(f"grid entry {i}: duplicate name {name!r}; "
                              f"entries would share one output directory")
        if "out" in entry:
            raise ConfigError(f"grid entry {i}: out is set for the whole "
                              f"grid only")
        merged = {**base, **entry}
        try:
            checked[name] = (_build_config(merged), merged)
        except ConfigError as exc:
            raise ConfigError(f"grid entry {i}: {exc}") from None
    root = _resolve_out_dir(base.get("out"))
    jobs = [(config, merged, str(root / name))
            for name, (config, merged) in checked.items()]
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
