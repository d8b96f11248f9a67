"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10-19 --seconds 45 [--out FILE]
    python3 perfbench/spread.py --seeds 0 --repeat 10 --seconds 45

Runs ``run.py --trace 0`` ``--repeat`` times per workload and seed, one
run after another, and prints for each workload and metric the median over
the runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median.

Over several seeds the spread holds both the host's noise and the
difference in work between seeds (one seed's stream raises more drifts
than another's).  Repeats of one seed hold the host's noise alone.  A
spread above a metric's bound in ``BENCHMARK.json`` means the benchmark
cannot tell a regression of that size from noise on this machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS, metric_specs


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"),
                        help="inclusive range such as 10-19")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per seed")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--out", type=Path,
                        help="also write every run's result to this file")
    args = parser.parse_args(argv)
    bounds = {name: m["bound"]
              for name, m in metric_specs("end_to_end").items()}

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    report = {}
    for name in names:
        runs = []
        for seed in [s for s in args.seeds for _ in range(args.repeat)]:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            runs.append({"seed": seed, "exit": proc.returncode, **result})
            print(f"{name} seed {seed}: exit {proc.returncode}, "
                  f"correct {result.get('correct')}, "
                  f"failed {result.get('failed')}/{result.get('attempted')}",
                  flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r.get("metrics", {})]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[metric] = {"median": median,
                               "spread": (q3 - q1) / median, "bound": bound}
            print(f"{name:<20} {metric:<16} median {median:>12.4f}  "
                  f"spread {(q3 - q1) / median:.4f}  bound {bound}")
        report[name] = {"runs": runs, "summary": summary}

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "repeat": args.repeat,
             "seconds": args.seconds, "workloads": report},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    ok = all(r["exit"] == 0 and r.get("correct")
             for w in report.values() for r in w["runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
