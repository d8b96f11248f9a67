"""Replay benchmark for driftstream: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1 [--results FILE]

For one workload it generates the streams from the seed, writes them as
JSONL and only then starts timing.  The load is a closed loop with one
client: a batch replay of a time-ordered stream, each sample processed
after the one before it.  So the benchmark reports work per second at a
fixed input size, not a sustainable arrival rate.

A run replays three streams, generated from the seeds 3N, 3N+1 and 3N+2
for ``--seed N``: one stream's work depends on where its drifts fall, and
three of them average that out.  Each replay runs in its own fresh,
single-threaded process, one after another, in rounds that replay every
stream once, until the next round would end after S seconds (at least
two rounds).  The first stream first goes once through
``driftstream.cli.main``; its report digests are the reference every
timed replay of that stream must match, and the first replay of each
other stream is the reference for the rest.  Every replay's F1 must reach
its stream seed's reference F1 in ``results/``.  With ``--trace 1``
traced and untraced rounds alternate, and the per-layer metrics come from
the traced ones.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` replays, and the metrics with their units.
Times are CPU seconds of the replay process, scaled by the speed probes
taken around its timed sections (``replay.REFERENCE_PROBE_MS``).  Setup
time and peak RSS are medians over the replays; throughput is all
evaluated samples over all strategy time, and total time a mean, because
the host's speed changes in steps that last from seconds to minutes, and
a median jumps from one step to the other where a mean moves with the
share of each.  The metric names and units are those of BENCHMARK.json.
``--workload all`` runs every workload in turn and names each metric
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (ROOT, WORKLOADS, MissingProgram, import_program,
                       metric_specs)

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
STREAMS_PER_RUN = 3       # independent streams replayed in one run
MIN_ROUNDS = 2
DEADLINE_S = 170          # one invocation must end within 180 s

F1_TOLERANCE = 0.005      # relative; room for floating-point reordering
REFERENCE = HERE / "results" / "reference_f1.json"


def f1_floor(name: str, seed: int) -> float | None:
    """Lowest F1 a run of ``name`` at ``seed`` may reach, or None when the
    reference holds no F1 for that seed.

    F1 repeats exactly at a fixed seed, so a change that lowers it has
    changed what the program computes, however fast it got.
    """
    try:
        table = json.loads(REFERENCE.read_text("utf-8"))
    except FileNotFoundError:
        return None
    f1 = table.get(name, {}).get(str(seed))
    return None if f1 is None else f1 * (1.0 - F1_TOLERANCE)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DRIFTSTREAM_OUT", None)    # would redirect the CLI's reports
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_child(mode, name, seed, stream_file, out_dir, deadline) -> dict:
    """Run one replay process to its end; returns its JSON result or the error."""
    out_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "replay.py"), mode, name, str(seed),
            str(stream_file), str(out_dir)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: "
                         + proc.stderr.strip()[-2000:]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line: " + proc.stdout.strip()[-2000:]}


def write_stream(name: str, seed: int, work: Path) -> Path:
    """Generate the workload's stream from ``seed`` into ``work``."""
    from driftstream.stream import save_stream
    from driftstream.synth import SynthStreamSpec, generate_synth_stream

    work.mkdir(parents=True)
    stream_file = work / "stream.jsonl"
    save_stream(generate_synth_stream(
        SynthStreamSpec(**WORKLOADS[name].stream, seed=seed)), stream_file)
    return stream_file


def stream_seeds(seed: int) -> list[int]:
    """Seeds of the run's streams: disjoint between runs, fixed by ``seed``."""
    return [STREAMS_PER_RUN * seed + i for i in range(STREAMS_PER_RUN)]


def check_replay(result: dict, stream: dict) -> None:
    """Add the checks against the stream's references to ``problems``."""
    if stream["reference"] is None:
        stream["reference"] = result["digests"]
    if result["digests"] != stream["reference"]:
        result["problems"].append("report digests differ from the reference "
                                  "run's")
    floor = stream["f1_floor"]
    if floor is not None and result["f1"] < floor:
        result["problems"].append(
            f"f1 {result['f1']:.6f} is below the reference floor "
            f"{floor:.6f} for stream seed {stream['seed']}")


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   work: Path, deadline: float) -> dict:
    streams = [{"seed": stream_seed, "reference": None,
                "f1_floor": f1_floor(name, stream_seed),
                "file": write_stream(name, stream_seed,
                                     work / f"s{stream_seed}")}
               for stream_seed in stream_seeds(seed)]
    # One run through the CLI shows that the replays time the user's path;
    # the other streams' replays are checked against their first replay.
    first = streams[0]
    cli = start_child("cli", name, first["seed"], first["file"],
                      work / "cli", deadline)
    cli_ok = "error" not in cli and cli["exit"] == 0
    if cli_ok:
        first["reference"] = cli["digests"]

    # A round replays every stream once, so each stream weighs the same.
    modes = ("traced", "plain") if trace else ("plain",)
    replays = []
    rounds = 0
    started = time.monotonic()
    while True:
        mode = modes[rounds % len(modes)]
        for stream in streams:
            result = start_child(mode, name, stream["seed"], stream["file"],
                                 work / f"r{len(replays)}", deadline)
            result["mode"] = mode
            result["stream_seed"] = stream["seed"]
            if "error" not in result:
                check_replay(result, stream)
            replays.append(result)
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= max(MIN_ROUNDS, len(modes)) and (
                elapsed * (rounds + 1) / rounds > seconds):
            break
        if time.monotonic() + elapsed / rounds > deadline:
            break

    failed = [r for r in replays if "error" in r or r["problems"]]
    good = [r for r in replays if r not in failed]
    plain = [r for r in good if r["mode"] == "plain"]
    traced = [r for r in good if r["mode"] == "traced"]
    metrics = {}
    if plain:
        metrics = {
            "setup_s": statistics.median([r["setup_s"] for r in plain]),
            "throughput_sps": (sum(r["evaluated"] for r in plain)
                               / sum(r["strategy_s"] for r in plain)),
            "total_s": statistics.fmean([r["total_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
    layers = {}
    if traced and plain:
        layers = {key: statistics.median([r["layers"][key] for r in traced])
                  for key in traced[0]["layers"]}
        layers["trace.overhead"] = (
            sum(r["strategy_s"] for r in traced) / len(traced)
            / (sum(r["strategy_s"] for r in plain) / len(plain)) - 1.0)
    f1 = {}
    for r in good:
        f1.setdefault(r["stream_seed"], r["f1"])
    for stream in streams:
        del stream["file"]
    return {"workload": name, "seed": seed, "streams": streams, "f1": f1,
            "cli": cli, "attempted": len(replays) + 1,
            "failed": len(failed) + (0 if cli_ok else 1),
            "metrics": metrics, "layers": layers, "replays": replays}


def print_replays(result: dict) -> None:
    tag = f"[{result['workload']}]"
    cli = result["cli"]
    print(f"{tag} cli parity run on stream seed "
          f"{result['streams'][0]['seed']}: "
          + ("ok" if "error" not in cli and cli["exit"] == 0
             else f"FAILED {cli.get('error', cli.get('exit'))}"))
    for stream in result["streams"]:
        floor = stream["f1_floor"]
        print(f"{tag} stream seed {stream['seed']}: f1 floor "
              + (f"{floor:.6f}" if floor is not None else "none, f1 not checked"))
    for i, r in enumerate(result["replays"]):
        if "error" in r:
            print(f"{tag} replay {i} {r['mode']} stream {r['stream_seed']}: "
                  f"FAILED {r['error']}")
            continue
        steal = r["steal_ticks"]
        print(f"{tag} replay {i} {r['mode']} stream {r['stream_seed']}: "
              f"scaled: setup {r['setup_s']:.4f} s, strategy "
              f"{r['strategy_s']:.4f} s, total {r['total_s']:.4f} s; "
              f"cpu total {r['cpu_total_s']:.4f} s, "
              f"wall total {r['wall_total_s']:.4f} s, probe "
              + "/".join(f"{ms:.2f}" for ms in r["probe_ms"]) + " ms, "
              f"steal {'n/a' if steal is None else f'+{steal}'} ticks, "
              f"rss {r['peak_rss_mb']:.1f} MB, f1 {r['f1']:.6f}, "
              f"drifts {r['drifts']}, rebuilds {r['rebuilds']}"
              + "".join(f"\n    FAILED CHECK: {p}" for p in r["problems"]))


def print_table(results: list[dict], units: dict[str, str]) -> None:
    print(f"{'workload':<20} {'metric':<34} {'value':>14}  unit")
    for result in results:
        name = result["workload"]
        for key, value in {**result["metrics"], **result["layers"]}.items():
            print(f"{name:<20} {key:<34} {value:>14.4f}  {units[key]}")
        share = result["failed"] / result["attempted"]
        print(f"{name:<20} {'failed_share':<34} {share:>14.4f}  ratio")
        for stream_seed, f1 in result["f1"].items():
            label = f"f1 (stream seed {stream_seed})"
            print(f"{name:<20} {label:<34} {f1:>14.4f}  ratio")


def purpose_checks(results: list[dict]) -> list[tuple[bool, str]]:
    """Whether each traced workload still stresses what it was chosen for.

    Informational: a change that speeds up the stressed layer may rightly
    make one of these fail, so they do not decide ``correct``.
    """
    layers = {r["workload"]: r["layers"] for r in results if r["layers"]}
    checks = []
    if "retrain-sgd-adwin" in layers:
        m = layers["retrain-sgd-adwin"]
        checks.append((m["pipeline.rebuilds"] >= 1,
                       f"retrain-sgd-adwin rebuilds {m['pipeline.rebuilds']} >= 1"))
        both = m["features.transform.share"] + m["drift.update.share"]
        checks.append((both > 0.5, f"retrain-sgd-adwin transform + drift "
                                   f"share {both:.3f} > 0.5"))
    if "pool-vocab-shift" in layers:
        m = layers["pool-vocab-shift"]
        calls = (m["features.transform.calls"] + m["features.fit.calls"]
                 + m["drift.update.calls"])
        checks.append((calls == 0, f"pool-vocab-shift features + drift "
                                   f"calls {calls} == 0"))
    return checks


def environment(seed: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "seed": seed, "commit": commit,
            "load_model": "closed loop, 1 client: batch replay of a "
                          "time-ordered stream"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the timed replays of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="also write every replay's record to this file")
    args = parser.parse_args(argv)
    units = {kind: {name: m["unit"] for name, m in metric_specs(kind).items()}
             for kind in ("end_to_end", "per_layer")}
    reported = units["per_layer" if args.trace else "end_to_end"]
    try:
        import_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{os.getpid()}"
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result = bench_workload(name, args.seed, args.seconds,
                                    bool(args.trace), work / name, deadline)
            print_replays(result)
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_table(results, {**units["end_to_end"], **units["per_layer"]})
    checks = purpose_checks(results) if args.trace else []
    for ok, text in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] purpose: {text}")
    if args.results:
        args.results.parent.mkdir(parents=True, exist_ok=True)
        args.results.write_text(json.dumps(
            {"environment": environment(args.seed), "seconds": args.seconds,
             "trace": args.trace, "results": results,
             "purpose_checks": [{"ok": ok, "check": text}
                                for ok, text in checks]},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        values = r["layers"] if args.trace else r["metrics"]
        metrics.update({prefix + k: {"value": values[k], "unit": unit}
                        for k, unit in reported.items() if k in values})
    complete = all((r["layers"] if args.trace else r["metrics"]).keys()
                   == reported.keys() for r in results)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
