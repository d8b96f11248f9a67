"""Command line interface: gen, run (all strategies), grids, diff-vocab."""

import json

import pytest

from driftstream import (FeatureExtractorModel, RawSample, fit_extractor,
                         load_stream)
from driftstream.cli import main


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.jsonl"
    code = main(["gen", "--n", "600", "--seed", "3", "--out", str(path)])
    assert code == 0
    return path


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_requested_line_count(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    assert main(["gen", "--n", "150", "--out", str(out)]) == 0
    assert "wrote 150 samples" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 150
    stream = load_stream(out)
    assert len(stream) == 150
    assert {s.label for s in stream} == {0, 1}


def test_gen_is_deterministic_per_seed(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(["gen", "--n", "100", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "100", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_spec(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    code = main(["gen", "--n", "100", "--drift-at", "500", "--out", str(out)])
    assert code == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_streaming_strategy_exports_reports(tmp_path, stream_file, capsys):
    out = tmp_path / "reports"
    code = run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", "fnf-update", "--detector", "adwin",
                    "--classifier", "sgd", "--warmup", "100",
                    "--metrics-window", "100"])
    assert code == 0
    for name in ("summary.json", "metrics.csv", "events.jsonl",
                 "vocab_diffs.json", "extractor_final.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"accuracy", "f1", "recall", "precision", "drifts"}
    printed = capsys.readouterr().out
    assert "accuracy" in printed and "drifts" in printed
    FeatureExtractorModel.load(out / "extractor_final.json")  # valid model


def test_run_is_byte_identical_across_reruns(tmp_path, stream_file):
    args = ["run", "--input", str(stream_file), "--strategy", "fnf-retrain",
            "--detector", "adwin", "--classifier", "sgd",
            "--warmup", "100", "--metrics-window", "100"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    for name in ("summary.json", "metrics.csv", "events.jsonl",
                 "vocab_diffs.json", "extractor_final.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_temporal_summary_has_zero_drifts(tmp_path, stream_file):
    out = tmp_path / "t"
    code = run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", "temporal", "--classifier", "sgd"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["drifts"] == 0


def test_run_cross_val_writes_folds(tmp_path, stream_file):
    out = tmp_path / "cv"
    code = run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", "cross-val", "--classifier", "sgd",
                    "--cv-folds", "4"])
    assert code == 0
    folds = json.loads((out / "folds.json").read_text())
    assert len(folds) == 4
    assert sum(f["tp"] + f["fp"] + f["tn"] + f["fn"] for f in folds) == 600


def test_run_iwc_writes_periods(tmp_path):
    path = tmp_path / "months.jsonl"
    main(["gen", "--n", "90", "--step-seconds", "86400", "--out", str(path)])
    out = tmp_path / "iwc"
    code = run_cli(["run", "--input", str(path), "--out", str(out),
                    "--strategy", "iwc", "--classifier", "sgd"])
    assert code == 0
    periods = json.loads((out / "periods.json").read_text())
    assert [p["period"] for p in periods] == ["2009-02", "2009-03"]


def test_run_iwc_rejects_timestamp_past_year_9999(tmp_path, capsys):
    path = tmp_path / "far.jsonl"
    lines = [json.dumps({"id": f"s{i}", "timestamp": 86400 * i,
                         "label": i % 2, "attributes": {"api": [f"t{i}"]}})
             for i in range(40)]
    lines[30] = lines[30].replace(str(86400 * 30), str(10**12))
    path.write_text("\n".join(lines) + "\n")
    code = run_cli(["run", "--input", str(path), "--out", str(tmp_path / "o"),
                    "--strategy", "iwc", "--classifier", "sgd"])
    assert code == 1
    assert "error: line 31" in capsys.readouterr().err


def test_run_mts_writes_report(tmp_path, stream_file):
    out = tmp_path / "mts"
    code = run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", "mts", "--mts-folds", "4",
                    "--mts-inner", "fnf-update", "--classifier", "sgd",
                    "--metrics-window", "100"])
    assert code == 0
    report = json.loads((out / "mts.json").read_text())
    assert len(report["folds"]) == 3
    assert "f1_mean" in report and "f1_std" in report
    assert (out / "summary.json").exists()


def test_run_pool_strategy(tmp_path, stream_file):
    out = tmp_path / "pool"
    code = run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", "pool", "--warmup", "100",
                    "--pool-interval", "50", "--metrics-window", "100"])
    assert code == 0
    assert (out / "summary.json").exists()
    assert (out / "events.jsonl").exists()


# ---------------------------------------------------------------------------
# config file and precedence
# ---------------------------------------------------------------------------

def test_config_file_drives_run(tmp_path, stream_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "strategy": "temporal", "classifier": "sgd",
        "input": str(stream_file), "out": str(tmp_path / "from_cfg")}))
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_cfg" / "summary.json").exists()


def test_flags_override_config_file(tmp_path, stream_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "temporal", "classifier": "sgd",
                               "input": str(stream_file)}))
    out = tmp_path / "cv_override"
    code = run_cli(["run", "--config", str(cfg), "--strategy", "cross-val",
                    "--cv-folds", "3", "--out", str(out)])
    assert code == 0
    assert (out / "folds.json").exists()  # cross-val ran, not temporal


def test_unknown_config_key_exits_2(tmp_path, stream_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "temporal",
                               "detectorr": "adwin",
                               "input": str(stream_file)}))
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["update_mode", "adwin_check_interval"])
def test_removed_config_key_exits_2(tmp_path, stream_file, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "fnf-update", "classifier": "sgd",
                               "warmup": 100, key: 1,
                               "input": str(stream_file)}))
    out = tmp_path / "x"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--warmup", "infd"], ["--warmup", "1e400d"],
    ["--classifier", "arf", "--hoeffding-delta", "0"],
    ["--hoeffding-delta", "2"], ["--arf-lambda", "-1"],
    ["--sgd-learning-rate", "nan"], ["--sgd-l2", "200"],
    ["--classifier", "arf", "--hoeffding-grace", "-5"], ["--seed", "-1"],
])
def test_bad_knob_exits_2_before_running(tmp_path, stream_file, capsys,
                                         flags):
    out = tmp_path / "x"
    code = run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", "fnf-retrain", "--classifier", "sgd",
                    "--warmup", "100", *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("kswin_sampled", "no"), ("warmup", True), ("vocab_size", "100"),
    ("adwin_delta", "0.01"), ("metrics_window", None), ("seed", 1.5),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, stream_file, capsys,
                                            key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "fnf-retrain", "classifier": "sgd",
                               "warmup": 100, key: value,
                               "input": str(stream_file)}))
    out = tmp_path / "x"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_bad_strategy_value_exits_2(tmp_path, stream_file, capsys):
    code = run_cli(["run", "--input", str(stream_file),
                    "--out", str(tmp_path / "x"), "--strategy", "bogus"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    assert run_cli(["run", "--strategy", "temporal",
                    "--out", str(tmp_path / "x")]) == 2
    assert "--input" in capsys.readouterr().err


def test_nonexistent_input_exits_1(tmp_path, capsys):
    code = run_cli(["run", "--input", str(tmp_path / "missing.jsonl"),
                    "--strategy", "temporal", "--out", str(tmp_path / "x")])
    assert code == 1


def test_env_var_overrides_out_dir(tmp_path, stream_file, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("DRIFTSTREAM_OUT", str(env_dir))
    code = run_cli(["run", "--input", str(stream_file),
                    "--out", str(tmp_path / "ignored"),
                    "--strategy", "temporal", "--classifier", "sgd"])
    assert code == 0
    assert (env_dir / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_runs_each_entry(tmp_path, stream_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"name": "upd", "strategy": "fnf-update", "detector": "adwin"},
        {"name": "ret", "strategy": "fnf-retrain", "detector": "adwin"},
    ]))
    out = tmp_path / "gridout"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--classifier", "sgd",
                    "--warmup", "100", "--metrics-window", "100",
                    "--workers", "1"])
    assert code == 0
    for name in ("upd", "ret"):
        assert (out / name / "summary.json").exists()
    printed = capsys.readouterr().out
    assert "upd" in printed and "ret" in printed


def test_grid_rejects_unknown_entry_keys(tmp_path, stream_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategyy": "temporal"}]))
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(tmp_path / "g")])
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err


def test_grid_rejects_duplicate_names(tmp_path, stream_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategy": "temporal"},
                                {"name": "a", "strategy": "cross-val"}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "duplicate name 'a'" in capsys.readouterr().err
    assert not out.exists()  # no job ran


def test_grid_rejects_out_of_range_knob_before_running(tmp_path,
                                                       stream_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategy": "temporal"},
                                {"name": "b", "adwin_delta": 0}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "adwin_delta" in capsys.readouterr().err
    assert not out.exists()  # no job ran


def test_grid_rejects_negative_seed_before_running(tmp_path, stream_file,
                                                   capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategy": "temporal"},
                                {"name": "b", "seed": -1}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()  # no job ran


def test_grid_rejects_wrong_type_before_running(tmp_path, stream_file,
                                               capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategy": "temporal"},
                                {"name": "b", "kswin_sampled": "no"}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "kswin_sampled must be bool" in capsys.readouterr().err
    assert not out.exists()  # no job ran


def test_grid_rejects_non_finite_knob_before_running(tmp_path, stream_file,
                                                    capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"name": "a", "strategy": "temporal"}, '
                    '{"name": "b", "sgd_learning_rate": NaN}]')
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "sgd_learning_rate must be finite" in capsys.readouterr().err
    assert not out.exists()  # no job ran


class FakePool:
    """In-process stand-in for multiprocessing.Pool that records its size."""

    sizes: list = []

    def __init__(self, processes):
        FakePool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, jobs):
        return [func(job) for job in jobs]


@pytest.mark.parametrize("workers,expected", [
    (["--workers", "64"], [2]), (["--workers", "1"], []), ([], [2]),
])
def test_grid_pool_has_at_most_one_worker_per_entry(
        tmp_path, stream_file, monkeypatch, workers, expected):
    monkeypatch.setattr("driftstream.cli.multiprocessing.Pool", FakePool)
    monkeypatch.setattr("driftstream.cli.os.cpu_count", lambda: 8)
    monkeypatch.setattr(FakePool, "sizes", [])
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategy": "temporal"},
                                {"name": "b", "strategy": "temporal"}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--classifier", "sgd", *workers])
    assert code == 0
    assert FakePool.sizes == expected
    assert (out / "a" / "summary.json").exists()
    assert (out / "b" / "summary.json").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_grid_rejects_workers_below_one(tmp_path, stream_file, monkeypatch,
                                        capsys, workers):
    monkeypatch.setattr("driftstream.cli.multiprocessing.Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "a", "strategy": "temporal"}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", workers])
    assert code == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert FakePool.sizes == []
    assert not out.exists()


def test_grid_runs_mts_entry(tmp_path, stream_file):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"name": "m", "strategy": "mts",
                                 "mts_folds": 2, "mts_inner": "fnf-update"}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--classifier", "sgd",
                    "--workers", "1"])
    assert code == 0
    assert (out / "m" / "mts.json").exists()


def test_grid_requires_array(tmp_path, stream_file):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"strategy": "temporal"}))
    assert run_cli(["run", "--input", str(stream_file),
                    "--grid", str(grid)]) == 2


# ---------------------------------------------------------------------------
# diff-vocab
# ---------------------------------------------------------------------------

def test_diff_vocab_prints_and_writes(tmp_path, capsys):
    def doc(sid, tokens):
        return RawSample(id=sid, timestamp=1, label=0,
                         attributes={"api_calls": list(tokens)})

    old = fit_extractor([doc("a", ["x", "y"]), doc("b", ["y"])], k=2)
    new = fit_extractor([doc("a", ["z", "y"]), doc("b", ["z"])], k=2)
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old.save(old_path)
    new.save(new_path)

    out = tmp_path / "diffout"
    code = run_cli(["diff-vocab", str(old_path), str(new_path),
                    "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "api_calls: +1 -1 =1" in printed
    assert "+ z" in printed and "- x" in printed
    payload = json.loads((out / "vocab_diffs.json").read_text())
    assert payload[0]["diffs"][0]["added"] == ["z"]
