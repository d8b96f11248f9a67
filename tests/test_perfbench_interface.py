"""The program interface the replay benchmark relies on.

``perfbench/replay.py`` runs each workload through ``run_strategy`` and
checks the written reports with ``check_reports``, reading the timeline's
``predictions`` and ``labels`` lists and the pipeline's rebuild counters.
This runs both on short versions of every workload, so a change that
breaks the benchmark fails here first.
"""

import importlib
from pathlib import Path

import pytest

from driftstream.evaluation import export_reports
from driftstream.pipeline import ExperimentConfig
from driftstream.synth import SynthStreamSpec, generate_synth_stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
N_SAMPLES = 3000
WARMUP = 300


@pytest.fixture(scope="module")
def replay():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("replay")


@pytest.mark.parametrize("name", ["retrain-sgd-adwin", "pool-vocab-shift"])
def test_replay_checks_pass_on_a_short_workload(replay, name, tmp_path):
    workload = replay.WORKLOADS[name]
    shape = dict(workload.stream)
    shape["drift_points"] = tuple(point * N_SAMPLES // shape["n_samples"]
                                  for point in shape["drift_points"])
    shape["n_samples"] = N_SAMPLES
    stream = generate_synth_stream(SynthStreamSpec(**shape, seed=0))
    config = ExperimentConfig(**{**workload.config, "warmup": WARMUP}, seed=0)
    timeline, diffs, extractor, rebuilds, degenerate = replay.run_strategy(
        config, stream)
    export_reports(timeline, diffs, tmp_path)
    if extractor is not None:
        extractor.save(tmp_path / "extractor_final.json")
    assert replay.check_reports(config, stream, timeline, extractor, rebuilds,
                                degenerate, tmp_path) == []
    assert timeline.n_steps == N_SAMPLES - WARMUP
