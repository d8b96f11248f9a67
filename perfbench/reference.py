"""Reference F1 of every workload at each stream seed, the floor run.py checks.

    python3 perfbench/reference.py --seeds 0-95 [--workload NAME]

The seeds are stream seeds: ``run.py --seed N`` replays the streams of
seeds 3N, 3N+1 and 3N+2, so stream seeds 0-95 cover run seeds 0-31.
For each workload and seed it generates the stream, runs it once through
``driftstream.cli.main(["run", ...])`` in a fresh process and stores the
F1 of the written ``summary.json`` in ``results/reference_f1.json``,
keeping the seeds already there.  F1 repeats exactly at a fixed seed, so
run.py fails a replay whose F1 falls below its seed's reference by more
than ``run.F1_TOLERANCE``: a change that computes something else shows up
as a failed run, however fast it got.  Measure the reference only on the
commit that defines the benchmark, never on a change that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from run import DEADLINE_S, REFERENCE, WORK, start_child, write_stream
from spread import seed_range
from workloads import WORKLOADS, MissingProgram, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-95"),
                        help="inclusive range such as 0-95")
    args = parser.parse_args(argv)
    try:
        import_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table = (json.loads(REFERENCE.read_text("utf-8"))
             if REFERENCE.exists() else {})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"ref-{os.getpid()}"
    failed = 0
    try:
        for name in names:
            for seed in args.seeds:
                run_dir = work / name / str(seed)
                stream_file = write_stream(name, seed, run_dir)
                cli = start_child("cli", name, seed, stream_file,
                                  run_dir / "cli", time.monotonic() + DEADLINE_S)
                if "error" in cli or cli["exit"] != 0:
                    print(f"{name} seed {seed}: FAILED "
                          f"{cli.get('error', cli.get('exit'))}", flush=True)
                    failed += 1
                    continue
                summary = json.loads((run_dir / "cli" / "summary.json")
                                     .read_text("utf-8"))
                table.setdefault(name, {})[str(seed)] = summary["f1"]
                print(f"{name} seed {seed}: f1 {summary['f1']:.6f}, "
                      f"drifts {summary['drifts']}", flush=True)
                shutil.rmtree(run_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(
        {name: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
         for name, seeds in sorted(table.items())},
        indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
