"""Command line interface: gen, run (all strategies), grids, diff-vocab."""

import json
import math
from dataclasses import fields

import pytest

from driftstream import (ExperimentConfig, FeatureExtractorModel, RawSample,
                         fit_extractor, load_stream, stream_from_samples)
from driftstream.cli import main
from driftstream.stream import MAX_TIMESTAMP


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


@pytest.mark.parametrize("flags,message", [
    # numpy's seeding and Poisson draws reject these mid-generation
    (["--seed", "-1"], "seed must be >= 0"),
    (["--tokens-mean", "nan"], "tokens_mean must be positive and finite"),
    (["--tokens-mean", "inf"], "tokens_mean must be positive and finite"),
    (["--tokens-mean", "1e20"], "tokens_mean must be <= 1000, got 1e+20"),
    # the 50th timestamp would be past what load_stream accepts
    (["--step-seconds", "100000000000"],
     "last timestamp 4901230768000 is past 9999-12-31T23:59:59Z"),
], ids=["negative-seed", "nan-tokens-mean", "inf-tokens-mean",
        "huge-tokens-mean", "past-year-9999"])
def test_gen_rejects_spec_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "s.jsonl"
    assert main(["gen", "--n", "50", *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_last_timestamp_may_be_the_loader_bound(tmp_path):
    out = tmp_path / "s.jsonl"
    step = MAX_TIMESTAMP - 1230768000  # the default start timestamp
    assert main(["gen", "--n", "2", "--step-seconds", str(step),
                 "--out", str(out)]) == 0
    assert load_stream(out)[1].timestamp == MAX_TIMESTAMP


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


def _nested(depth):
    return "[" * depth + "0" + "]" * depth


# JSON text of a field whose value's full repr runs to thousands of
# characters (written by hand: encoding deep nesting would recurse)
HUGE_FIELDS = {
    "timestamp-4000-digits": ("timestamp", "1" + "0" * 3999),
    "label-nested-500-deep": ("label", _nested(500)),
    "label-3000-characters": ("label", json.dumps("x" * 3000)),
    "attribute-name-3000-characters": ("attributes",
                                       json.dumps({"n" * 3000: 5})),
}


@pytest.mark.parametrize("field, text", HUGE_FIELDS.values(),
                         ids=HUGE_FIELDS)
def test_run_error_quotes_a_bounded_value(tmp_path, capsys, field, text):
    record = {"id": '"a"', "timestamp": "1", "label": "0",
              "attributes": '{"api": ["t"]}', field: text}
    path = tmp_path / "huge.jsonl"
    path.write_text(
        "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}\n")
    code = run_cli(["run", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 1: ")
    assert len(lines[0]) < 200


# a 3,000-character column name, repeated or missing from a row
LONG_NAME = "n" * 3000
HUGE_CSV_HEADERS = {
    "repeated-column": (f"id,timestamp,label,{LONG_NAME},{LONG_NAME}\n"
                        "s1,1,0,x,y\n", "error: line 1: CSV header repeats"),
    "missing-column": (f"id,timestamp,label,a,{LONG_NAME}\ns1,1,0,x\n",
                       "error: line 2: missing column"),
}


@pytest.mark.parametrize("text, start", HUGE_CSV_HEADERS.values(),
                         ids=HUGE_CSV_HEADERS)
def test_csv_error_quotes_a_bounded_column_name(tmp_path, capsys, text,
                                                start):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    code = run_cli(["run", "--input", str(path), "--format", "csv",
                    "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start)
    assert len(lines[0]) < 200


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


@pytest.mark.parametrize("strategy", ["fnf-retrain", "static", "pool"])
def test_run_whose_warmup_covers_the_stream_exits_1(tmp_path, stream_file,
                                                    capsys, strategy):
    # the default warmup, 365d, covers the 600 samples one second apart
    out = tmp_path / "o"
    assert run_cli(["run", "--input", str(stream_file), "--out", str(out),
                    "--strategy", strategy, "--classifier", "sgd"]) == 1
    assert capsys.readouterr().err == (
        "error: warmup covers all 600 samples; none is left to evaluate\n")
    assert not out.exists()


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


# bytes of a JSON file that does not decode
UNDECODABLE_JSON = {"not-utf8": b'{"seed": "caf\xe9"}',
                    "deep-nesting": b"[" * 100_000}


@pytest.mark.parametrize("data,message", [
    (None, "config file {path} does not exist"),
    (b'{"strategy": ', "config file {path} is not valid JSON: "),
    *((data, "config file {path} is not valid JSON: ")
      for data in UNDECODABLE_JSON.values()),
    (b'["temporal"]', "config file must hold a JSON object"),
], ids=["missing", "not-json", *UNDECODABLE_JSON, "not-object"])
def test_bad_config_file_exits_2(tmp_path, stream_file, capsys, data,
                                 message):
    cfg = tmp_path / "cfg.json"
    if data is not None:
        cfg.write_bytes(data)
    out = tmp_path / "o"
    assert run_cli(["run", "--config", str(cfg), "--input", str(stream_file),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: " + message.format(path=cfg))
    assert not out.exists()


# run-only keys of a config file without a usable value (None: key left out)
BAD_RUN_ONLY_KEYS = {
    "input-not-str": ({"input": 5}, "input must be str, got 5"),
    "input-missing": ({"input": None}, "an --input stream file is required"),
    "out-not-str": ({"out": 5}, "out must be str, got 5"),
    "format-not-str": ({"format": 5}, "format must be str, got 5"),
    "format-unknown": ({"format": "xml"},
                       "format must be jsonl or csv, got 'xml'"),
    # open and mkdir raise ValueError on a NUL byte
    "input-nul": ({"input": "s\0.jsonl"},
                  "input holds a NUL byte: 's\\x00.jsonl'"),
    "out-nul": ({"out": "o\0x"}, "out holds a NUL byte: 'o\\x00x'"),
}


@pytest.mark.parametrize("keys,message", BAD_RUN_ONLY_KEYS.values(),
                         ids=BAD_RUN_ONLY_KEYS)
def test_bad_run_only_key_exits_2(tmp_path, stream_file, monkeypatch, capsys,
                                  keys, message):
    payload = {"strategy": "temporal", "input": str(stream_file), **keys}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value for key, value in payload.items()
                               if value is not None}))
    monkeypatch.chdir(tmp_path)  # where the default out directory would go
    before = set(tmp_path.iterdir())
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert set(tmp_path.iterdir()) == before


REMOVED_KNOBS = [
    "ddm_min_instances", "ddm_warning_factor", "ddm_drift_factor",
    "eddm_min_errors", "eddm_warning_ratio", "eddm_drift_ratio",
    "adwin_delta", "adwin_max_buckets",
    "kswin_window", "kswin_stat_size", "kswin_alpha", "kswin_sampled",
    "sgd_learning_rate", "sgd_l2",
    "hoeffding_grace", "hoeffding_delta", "hoeffding_tie", "arf_lambda",
    "pool_tau_low", "pool_tau_high", "fading",
]


@pytest.mark.parametrize("key", ["update_mode", "adwin_check_interval",
                                 *REMOVED_KNOBS])
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
    ["--classifier", "arf", "--arf-trees", "0"],
    ["--metrics-window", "0"], ["--vocab-size", "0"],
    ["--split-fraction", "nan"], ["--pool-interval", "0"],
    ["--strategy", "cross-val", "--cv-folds", "1"], ["--seed", "-1"],
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


@pytest.mark.parametrize("flags", [
    ["--ddm-min-instances", "10"], ["--eddm-min-errors", "10"],
    ["--adwin-delta", "0.01"], ["--kswin-sampled", "1"],
    ["--sgd-l2", "200"], ["--hoeffding-grace", "50"], ["--arf-lambda", "1"],
    ["--pool-tau-low", "0.2"], ["--fading", "0.99"],
])
def test_removed_knob_flag_is_unknown(stream_file, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as caught:
        run_cli(["run", "--input", str(stream_file),
                 "--out", str(tmp_path / "x"), *flags])
    assert caught.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_run_help_lists_no_removed_knob(capsys):
    with pytest.raises(SystemExit) as caught:
        run_cli(["run", "--help"])
    assert caught.value.code == 0
    text = capsys.readouterr().out
    assert "--metrics-window" in text
    for key in REMOVED_KNOBS:
        assert "--" + key.replace("_", "-") not in text


def test_run_help_shows_each_default_once(capsys):
    with pytest.raises(SystemExit) as caught:
        run_cli(["run", "--help"])
    assert caught.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: None)" not in text
    # every config flag, --format, --out and --workers name one default
    assert text.count("(default: ") == len(fields(ExperimentConfig)) + 3
    assert "--seed SEED seed (default: 0) --vocab-size" in text
    assert "input format (default: jsonl) --out" in text
    with pytest.raises(SystemExit):
        run_cli(["gen", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: None)" not in text
    # every flag but the required --n and --out names one default
    assert text.count("(default: ") == 7
    assert "share of malware samples (default: 0.35)" in text
    assert "--seed SEED random seed (default: 0) --out" in text


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


def _jsonl_with(bad_line: bytes, line_no: int) -> bytes:
    lines = [json.dumps({"id": f"s{i}", "timestamp": i, "label": i % 2,
                         "attributes": {"api": [f"t{i}"]}}).encode()
             for i in range(6)]
    lines.insert(line_no - 1, bad_line)
    return b"\n".join(lines) + b"\n"


def _csv_with(bad_row: bytes, line_no: int) -> bytes:
    rows = [b"id,timestamp,label,api"]
    rows += [f"s{i},{i},{i % 2},t{i} u".encode() for i in range(6)]
    rows.insert(line_no - 1, bad_row)
    return b"\r\n".join(rows) + b"\r\n"


@pytest.mark.parametrize("name,data,message", [
    ("long.jsonl", _jsonl_with(b'{"id": "x", "timestamp": ' + b"9" * 5000
                               + b', "attributes": {"api": []}}', 4),
     "invalid JSON (integer longer than"),
    ("deep.jsonl", _jsonl_with(b"[" * 100_000, 4),
     "invalid JSON (nested too deeply)"),
    ("latin1.jsonl", _jsonl_with(b'{"id": "x", "timestamp": 1, '
                                 b'"attributes": {"api": ["caf\xe9"]}}', 4),
     "not UTF-8 text"),
    ("latin1.csv", _csv_with(b"x,1,0,t \xff", 4), "not UTF-8 text"),
], ids=["long-integer", "deep-nesting", "jsonl-not-utf8", "csv-not-utf8"])
def test_undecodable_input_exits_1_naming_the_line(tmp_path, capsys, name,
                                                   data, message):
    path = tmp_path / name
    path.write_bytes(data)
    fmt = path.suffix[1:]
    code = run_cli(["run", "--input", str(path), "--format", fmt,
                    "--strategy", "temporal", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line 4: {message}")
    assert "Traceback" not in err


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
    assert capsys.readouterr().err == (
        "config error: grid entry 0: unknown config keys: ['strategyy']\n")


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
                                {"name": "b", "cv_folds": 1}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "cv_folds must be >= 2" in capsys.readouterr().err
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
                                {"name": "b", "vocab_size": "100"}]))
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "vocab_size must be int, got '100'" in capsys.readouterr().err
    assert not out.exists()  # no job ran


def test_grid_rejects_non_finite_knob_before_running(tmp_path, stream_file,
                                                    capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"name": "a", "strategy": "temporal"}, '
                    '{"name": "b", "split_fraction": NaN}]')
    out = tmp_path / "g"
    code = run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "split_fraction must be finite" in capsys.readouterr().err
    assert not out.exists()  # no job ran


# second grid entries that must stop the grid before any entry runs
# (None: key left out; ABSOLUTE: a path outside the grid's out directory)
BAD_GRID_ENTRIES = {
    "name-parent": ({"name": "../escaped"}, "name must be one path "
                                            "component, got '../escaped'"),
    "name-absolute": ({"name": "ABSOLUTE"}, "name must be one path "
                                            "component, got '"),
    "name-nested": ({"name": "sub/escaped"}, "name must be one path "
                                             "component, got 'sub/escaped'"),
    "name-empty": ({"name": ""}, "name must be one path component, got ''"),
    "name-dot": ({"name": "."}, "name must be one path component, got '.'"),
    "name-dotdot": ({"name": ".."},
                    "name must be one path component, got '..'"),
    "name-not-str": ({"name": 5}, "name must be one path component, got 5"),
    "name-nul": ({"name": "a\0b"},
                 "name must be one path component, got 'a\\x00b'"),
    "out": ({"out": "elsewhere"}, "out is set for the whole grid only"),
    "input-not-str": ({"input": 5}, "input must be str, got 5"),
    "input-missing": ({"input": None}, "an --input stream file is required"),
    "input-nul": ({"input": "s\0.jsonl"}, "input holds a NUL byte: "),
}


@pytest.mark.parametrize("keys,message", BAD_GRID_ENTRIES.values(),
                         ids=BAD_GRID_ENTRIES)
def test_bad_grid_entry_exits_2_before_running(tmp_path, stream_file, capsys,
                                               keys, message):
    entry = {"name": "b", "input": str(stream_file), **keys}
    if entry["name"] == "ABSOLUTE":
        entry["name"] = str(tmp_path / "escaped")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"name": "a", "strategy": "temporal", "input": str(stream_file)},
        {key: value for key, value in entry.items() if value is not None}]))
    out = tmp_path / "g"
    assert run_cli(["run", "--grid", str(grid), "--out", str(out),
                    "--classifier", "sgd", "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: grid entry 1: " + message)
    assert not out.exists()  # no entry ran
    assert not any(path.name == "escaped" for path in tmp_path.rglob("*"))


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


@pytest.mark.parametrize("data,message", [
    (None, "grid file {path} does not exist"),
    (b'[{"name": ', "grid file {path} is not valid JSON: "),
    *((data, "grid file {path} is not valid JSON: ")
      for data in UNDECODABLE_JSON.values()),
    (b'[{"name": "a"}, "temporal"]', "grid entry 1 is not an object"),
], ids=["missing", "not-json", *UNDECODABLE_JSON, "entry-not-object"])
def test_bad_grid_file_exits_2(tmp_path, stream_file, capsys, data, message):
    grid = tmp_path / "grid.json"
    if data is not None:
        grid.write_bytes(data)
    out = tmp_path / "g"
    assert run_cli(["run", "--input", str(stream_file), "--grid", str(grid),
                    "--out", str(out), "--workers", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: " + message.format(path=grid))
    assert not out.exists()


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

    old = fit_extractor(stream_from_samples(
        [doc("a", ["x", "y"]), doc("b", ["y"])]), k=2)
    new = fit_extractor(stream_from_samples(
        [doc("a", ["z", "y"]), doc("b", ["z"])]), k=2)
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


def _extractor_payload(**changes):
    old = fit_extractor(stream_from_samples(
        [RawSample("a", 1, 0, {"api": ["x", "y"]})]), k=2)
    return json.dumps({**old.to_dict(), **changes})


MALFORMED_EXTRACTORS = {
    "not-json": ('{"kind": ', "invalid JSON (Expecting value)"),
    "missing-key": (json.dumps({"kind": "tfidf-minmax-extractor"}),
                    "missing key 'schema'"),
    "k-zero": (_extractor_payload(k=0), "not an extractor model (vocabulary "
                                        "size k must be >= 1, got 0)"),
    "repeated-tokens": (
        _extractor_payload(attributes=[{
            "name": "api", "tokens": ["x", "x"], "document_frequency": [1, 1],
            "n_train_docs": 1}]),
        "not an extractor model (vocabulary tokens must be unique)"),
    "min-above-max": (
        _extractor_payload(minmax_min=[1.0, 1.0], minmax_max=[0.0, 0.0]),
        "not an extractor model (per-dimension min must not exceed max)"),
    "attribute-count": (
        _extractor_payload(attributes=[]),
        "not an extractor model (one vocabulary per schema attribute "
        "required)"),
    "attribute-name": (
        _extractor_payload(attributes=[{
            "name": "perm", "tokens": ["x"], "document_frequency": [1],
            "n_train_docs": 1}]),
        "not an extractor model (vocabulary for 'perm' does not match "
        "schema attribute 'api')"),
    "tokens-above-k": (
        _extractor_payload(attributes=[{
            "name": "api", "tokens": ["x", "y", "z"],
            "document_frequency": [1, 1, 1], "n_train_docs": 1}]),
        "not an extractor model (vocabulary larger than block size k)"),
    "minmax-length": (
        _extractor_payload(minmax_min=[0.0], minmax_max=[1.0]),
        "not an extractor model (min-max arrays must have length dim)"),
    # each of these loaded, and transformed to values outside [0, 1]
    "minmax-nan": (
        _extractor_payload(minmax_min=[float("nan"), 0.0]),
        "not an extractor model (min-max values must be finite)"),
    "minmax-minus-infinity": (
        _extractor_payload(minmax_min=[-math.inf, 0.0]),
        "not an extractor model (min-max values must be finite)"),
    **{f"document-frequency-{name}": (
        _extractor_payload(attributes=[{
            "name": "api", "tokens": ["x", "y"],
            "document_frequency": frequencies, "n_train_docs": 1}]),
        "not an extractor model (need one document frequency per token, an "
        "integer from 0 to n_train_docs)")
       for name, frequencies in [
           ("nan", [1, float("nan")]), ("minus-1", [1, -1]),
           ("minus-5", [1, -5]), ("above-docs", [1, 10**6]),
           ("fraction", [1, 0.5]), ("too-few", [1]), ("too-many", [1, 1, 1]),
           # each of these loaded, keeping the string, bool or float
           ("string", ["1", 1]), ("bool", [True, 1]), ("float", [1.0, 1])]},
}


@pytest.mark.parametrize("text, message", MALFORMED_EXTRACTORS.values(),
                         ids=MALFORMED_EXTRACTORS)
def test_diff_vocab_malformed_extractor_exits_1(tmp_path, capsys, text,
                                                message):
    good = tmp_path / "good.json"
    fit_extractor(stream_from_samples(
        [RawSample("a", 1, 0, {"api": ["x"]})]), k=2).save(good)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli(["diff-vocab", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {bad}: {message}"]
