"""Workload definitions: one synthetic stream shape plus one run config each.

A workload fixes everything but the seed.  The seed given on the command
line goes both into the stream generator and into the run config, so one
seed names one input file and one deterministic run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


class MissingProgram(RuntimeError):
    pass


def import_program() -> None:
    """Put the checkout's own ``src/`` first on the import path.

    Raises MissingProgram when the checkout holds no program sources, so
    that an installed copy of the package is never measured instead.
    """
    if not (SOURCES / "driftstream" / "__init__.py").is_file():
        raise MissingProgram(f"no driftstream sources under {SOURCES}")
    sys.path.insert(0, str(SOURCES))
    import driftstream
    if Path(driftstream.__file__).resolve().parent != SOURCES / "driftstream":
        raise MissingProgram(f"imported driftstream from {driftstream.__file__}")


def metric_specs(kind: str) -> dict[str, dict]:
    """name -> entry of the ``end_to_end`` or ``per_layer`` metrics of
    BENCHMARK.json, in file order."""
    spec = json.loads(BENCHMARK.read_text("utf-8"))
    return {m["name"]: m for m in spec[kind]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # SynthStreamSpec fields, without the seed
    stream: dict
    # ExperimentConfig fields, without the seed
    config: dict


WORKLOADS = {w.name: w for w in (
    Workload(
        name="retrain-sgd-adwin",
        why="The paper's headline path: vocabulary shifts make ADWIN fire, "
            "and each drift refits the extractor and the SGD classifier. "
            "Transform and ADWIN dominate.",
        stream=dict(n_samples=20000, drift_points=(5000, 10000, 15000),
                    kind="vocabulary-shift", n_attributes=2, tokens_mean=8.0),
        config=dict(strategy="fnf-retrain", detector="adwin",
                    classifier="sgd", warmup=1000),
    ),
    Workload(
        name="pool-vocab-shift",
        why="The only run of TokenIndexer and the sparse pool members, with "
            "no extractor and no detector; the largest stream in memory.",
        stream=dict(n_samples=10000, drift_points=(3333, 6667),
                    kind="vocabulary-shift", n_attributes=4, tokens_mean=20.0),
        config=dict(strategy="pool", warmup=1000),
    ),
)}
