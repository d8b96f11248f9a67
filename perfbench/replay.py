"""One replay of a workload, in a fresh process.

    python3 perfbench/replay.py MODE WORKLOAD SEED STREAM_FILE OUT_DIR

MODE is ``plain`` (timed, untraced), ``traced`` (timed, with per-layer
spans) or ``cli`` (the same run through ``driftstream.cli.main``).  The
timed modes make the calls that ``driftstream run`` makes: ``load_stream``,
the strategy runner, ``export_reports`` and ``FeatureExtractorModel.save``.
They then check the reports against the run's own timeline and print one
JSON object as the last line of standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_program

REPORT_FILES = ("summary.json", "metrics.csv", "events.jsonl",
                "vocab_diffs.json", "extractor_final.json")


def steal_ticks() -> int | None:
    """Host steal time in clock ticks, summed over all CPUs (Linux only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


# The probe's time on the host that the reported times are scaled to.
REFERENCE_PROBE_MS = 10.0


def speed_probe_ms(repeats: int = 5) -> float:
    """Median CPU time of a fixed pure-Python loop, in ms.

    A core shared with other tenants runs the same code up to 1.5 times
    slower for seconds to minutes at a time, with no steal ticks and no
    gap between wall and CPU time.  The loop slows down with it, and no
    change to the program can move it.
    """
    times = []
    for _ in range(repeats):
        start = time.process_time()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.process_time() - start)
    return sorted(times)[repeats // 2] * 1e3


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in REPORT_FILES if (out_dir / name).exists()}


def run_strategy(config, stream):
    """The strategy runner ``driftstream run`` picks for ``config``.

    Returns (timeline, vocab diffs, final extractor or None, rebuilds,
    degenerate drifts).  The pool's aging events count as its rebuilds.
    """
    from driftstream.pipeline import FnFPipeline, ModelPoolPipeline
    if config.strategy in ("fnf-update", "fnf-retrain", "static"):
        pipe = FnFPipeline(config)
        timeline = pipe.run(stream)
        return (timeline, pipe.vocab_diff_events, pipe.extractor,
                pipe.rebuild_count, pipe.degenerate_drifts)
    if config.strategy == "pool":
        pipe = ModelPoolPipeline(config)
        timeline = pipe.run(stream)
        return timeline, [], None, pipe.aging_events, 0
    raise ValueError(f"no replay for strategy {config.strategy!r}")


def evaluated_samples(config, stream) -> list:
    """The samples a strategy must evaluate, worked out independently."""
    return list(stream)[config.warmup:]


def check_reports(config, stream, timeline, extractor, rebuilds, degenerate,
                  out_dir: Path) -> list[str]:
    """Failed checks of the written reports, as messages (empty when all pass)."""
    problems = []
    expected = evaluated_samples(config, stream)
    if timeline.labels != [s.label for s in expected]:
        problems.append(f"timeline does not cover the {len(expected)} "
                        f"evaluated samples in stream order")
    pairs = list(zip(timeline.predictions, timeline.labels))
    tp = sum(1 for p, y in pairs if p == 1 and y == 1)
    fp = sum(1 for p, y in pairs if p == 1 and y == 0)
    fn = sum(1 for p, y in pairs if p == 0 and y == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    accuracy = sum(1 for p, y in pairs if p == y) / len(pairs) if pairs else 0.0
    summary = json.loads((out_dir / "summary.json").read_text("utf-8"))
    for key, value in (("accuracy", accuracy), ("precision", precision),
                       ("recall", recall), ("f1", f1)):
        if abs(summary[key] - value) > 1e-6:
            problems.append(f"summary {key} {summary[key]} != recomputed "
                            f"{value:.6f}")
    events = [json.loads(line) for line in
              (out_dir / "events.jsonl").read_text("utf-8").splitlines()]
    steps = [e["step"] for e in events]
    if steps != sorted(set(steps)) or any(not 1 <= s <= len(pairs)
                                          for s in steps):
        problems.append("event steps are not increasing within the run")
    drifts = sum(1 for e in events if e["level"] == "drift")
    if summary["drifts"] != drifts:
        problems.append(f"summary drifts {summary['drifts']} != {drifts} "
                        f"drift events")
    rows = (out_dir / "metrics.csv").read_text("utf-8").splitlines()[1:]
    if len(rows) != math.ceil(len(pairs) / config.metrics_window) \
            or (rows and int(rows[-1].split(",")[0]) != len(pairs)):
        problems.append("metrics.csv windows do not cover the run")
    if config.strategy.startswith("fnf-") and rebuilds + degenerate != drifts:
        problems.append(f"{rebuilds} rebuilds + {degenerate} degenerate "
                        f"drifts != {drifts} drifts")
    if extractor is not None:
        from driftstream.features import FeatureExtractorModel
        saved = FeatureExtractorModel.load(out_dir / "extractor_final.json")
        if saved.fingerprint() != extractor.fingerprint():
            problems.append("saved extractor does not reload to the same model")
    return problems


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(tracer, n_samples, stream_bytes, export_s, bytes_written,
                  drift_signals, rebuilds, degenerate) -> dict[str, float]:
    """The per-layer metrics of one traced replay."""
    root = tracer.root_ns
    out = {"stream.load.us_per_sample":
               tracer.total_ns["stream.load_stream"] / 1e3 / n_samples,
           "stream.bytes_read": stream_bytes}

    def op(prefix, select, per_call=True):
        calls, ns = tracer.child_totals(select)
        out[f"{prefix}.calls"] = calls
        if per_call:
            out[f"{prefix}.us_per_call"] = ns / 1e3 / calls if calls else 0.0
        out[f"{prefix}.share"] = ns / root
        return ns

    op("features.transform",
       lambda n: n == "features.FeatureExtractorModel.transform")
    fit_ns = op("features.fit", lambda n: n == "features.fit_extractor",
                per_call=False)
    out["features.fit.samples"] = tracer.fit_samples
    out["features.fit.us_per_sample"] = (fit_ns / 1e3 / tracer.fit_samples
                                         if tracer.fit_samples else 0.0)
    out["features.vocab_hit_ratio"] = (tracer.tokens_known / tracer.tokens_seen
                                       if tracer.tokens_seen else 0.0)

    def is_classifier(method):
        return lambda n: (n.startswith("learners.") and n.endswith(method)
                          and ".PoolMember." not in n)
    op("learners.predict", is_classifier(".predict"))
    op("learners.partial_fit", is_classifier(".partial_fit"))
    for method in ("predict", "partial_fit"):
        calls, ns = tracer.child_totals(
            lambda n: n == f"learners.PoolMember.{method}")
        out[f"learners.pool.{method}.us_per_call"] = (ns / 1e3 / calls
                                                      if calls else 0.0)
    out["learners.pool.share"] = tracer.child_totals(
        lambda n: n.startswith("learners.PoolMember."))[1] / root

    op("drift.update", lambda n: n.startswith("drift.")
       and n.endswith(".update"))
    out["drift.warnings"] = tracer.warnings
    out["drift.drifts"] = tracer.drifts

    out["pipeline.self.share"] = 1.0 - sum(tracer.child_ns.values()) / root
    calls, ns = tracer.child_totals(
        lambda n: n == "pipeline.TokenIndexer.encode")
    out["pipeline.encode.us_per_call"] = ns / 1e3 / calls if calls else 0.0
    starts = tracer.record_starts
    steps_us = [(b - a) / 1e3 for a, b in zip(starts, starts[1:])]
    out["pipeline.step_us.p50"] = percentile(steps_us, 0.50)
    out["pipeline.step_us.p99"] = percentile(steps_us, 0.99)
    stalls_ms = [ns / 1e6 for ns in tracer.stalls_ns]
    out["pipeline.rebuild_stall_ms.p50"] = percentile(stalls_ms, 0.50)
    out["pipeline.rebuild_stall_ms.max"] = max(stalls_ms, default=0.0)
    out["pipeline.rebuilds"] = rebuilds
    out["pipeline.degenerate_drifts"] = degenerate
    out["pipeline.rebuild_ratio"] = (rebuilds / drift_signals
                                     if drift_signals else 0.0)

    calls, ns = tracer.child_totals(
        lambda n: n == "evaluation.MetricsTimeline.record")
    out["evaluation.record.us_per_call"] = ns / 1e3 / calls if calls else 0.0
    out["evaluation.record.share"] = ns / root
    out["evaluation.export_ms"] = export_s * 1e3
    out["evaluation.bytes_written"] = bytes_written
    return out


def cli_argv(config_fields: dict, seed: int, stream_file: str,
             out_dir: str) -> list[str]:
    argv = ["run", "--input", stream_file, "--out", out_dir,
            "--seed", str(seed)]
    for key, value in config_fields.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def replay_cli(workload, seed, stream_file, out_dir) -> dict:
    from driftstream.cli import main as cli_main
    argv = cli_argv(workload.config, seed, stream_file, out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    return {"exit": code, "digests": digests(Path(out_dir))}


def replay(workload, seed, stream_file, out_dir, traced) -> dict:
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # Imported after the tracer so that the names bound here are wrapped.
    from driftstream.evaluation import export_reports
    from driftstream.pipeline import ExperimentConfig
    from driftstream.stream import load_stream

    out_dir = Path(out_dir)
    config = ExperimentConfig(**workload.config, seed=seed)
    # The end-to-end times are CPU time, because wall time also counts the
    # time the host ran other tenants, scaled by the speed probes taken
    # around the timed sections to the host where a probe takes
    # REFERENCE_PROBE_MS.
    speed_probe_ms(2)       # the first loops of a fresh process run slow
    probes = [speed_probe_ms()]
    steal_before = steal_ticks()
    marks = [(time.process_time(), time.perf_counter())]
    stream = load_stream(stream_file)
    marks.append((time.process_time(), time.perf_counter()))
    probes.append(speed_probe_ms())
    marks.append((time.process_time(), time.perf_counter()))
    with tracer.root() if tracer else contextlib.nullcontext():
        timeline, diffs, extractor, rebuilds, degenerate = run_strategy(
            config, stream)
    marks.append((time.process_time(), time.perf_counter()))
    paths = export_reports(timeline, diffs, out_dir)
    marks.append((time.process_time(), time.perf_counter()))
    if extractor is not None:
        extractor.save(out_dir / "extractor_final.json")
    marks.append((time.process_time(), time.perf_counter()))
    steal_after = steal_ticks()
    probes.append(speed_probe_ms())
    (c0, t0), (c1, t1), (c2, t2), (c3, t3), (c4, t4), (c5, t5) = marks
    scale = REFERENCE_PROBE_MS / statistics.median(probes)
    cpu_total = (c1 - c0) + (c5 - c2)

    summary = timeline.summary()
    result = {
        "setup_s": (c1 - c0) * scale,
        "strategy_s": (c3 - c2) * scale,
        "total_s": cpu_total * scale,
        "cpu_setup_s": c1 - c0,
        "cpu_strategy_s": c3 - c2,
        "cpu_total_s": cpu_total,
        "wall_total_s": (t1 - t0) + (t5 - t2),
        "probe_ms": probes,
        "steal_ticks": (steal_after - steal_before
                        if steal_before is not None else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "samples": len(stream),
        "evaluated": timeline.n_steps,
        "f1": summary["f1"],
        "drifts": summary["drifts"],
        "warnings": timeline.warning_count(),
        "rebuilds": rebuilds,
        "degenerate_drifts": degenerate,
        "digests": digests(out_dir),
        "problems": check_reports(config, stream, timeline, extractor,
                                  rebuilds, degenerate, out_dir),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, len(stream), Path(stream_file).stat().st_size, t4 - t3,
            sum(p.stat().st_size for p in paths.values()), summary["drifts"],
            rebuilds, degenerate)
        children = sum(tracer.child_ns.values()) / tracer.root_ns
        if children > 1.0:
            result["problems"].append(f"child spans cover {children:.4f} "
                                      f"of the strategy call, more than 1")
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, stream_file, out_dir = argv
    import_program()
    workload = WORKLOADS[name]
    if mode == "cli":
        result = replay_cli(workload, int(seed), stream_file, out_dir)
    else:
        result = replay(workload, int(seed), stream_file, out_dir,
                        traced=mode == "traced")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
