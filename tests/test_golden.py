"""Golden report digests: the safety net for refactors.

Every strategy (plus a few detector/classifier variants) runs through the
CLI on one fixed synthetic stream, and the sha256 of every file each run
writes is pinned here.  A refactor must leave all of them unchanged.  A
deliberate behaviour change updates the digests of the runs it changes and
says which runs changed, and why, in CHANGES.md.
"""

import ctypes
import glob
import hashlib
import os

import numpy
import pytest

from driftstream.cli import main

GEN_ARGS = ["--n", "3000", "--drift-at", "1500", "--seed", "4",
            "--step-seconds", "2000"]
COMMON_ARGS = ["--warmup", "300", "--metrics-window", "250",
               "--cv-folds", "3", "--mts-folds", "3", "--arf-trees", "3"]

# run name -> (strategy, detector, classifier)
RUNS = {
    "fnf-update": ("fnf-update", "adwin", "sgd"),
    "fnf-retrain": ("fnf-retrain", "adwin", "sgd"),
    "static": ("static", "adwin", "sgd"),
    "temporal": ("temporal", "adwin", "sgd"),
    "cross-val": ("cross-val", "adwin", "sgd"),
    "iwc": ("iwc", "adwin", "sgd"),
    "mts": ("mts", "adwin", "sgd"),
    "pool": ("pool", "adwin", "sgd"),
    "fnf-retrain+ddm": ("fnf-retrain", "ddm", "sgd"),
    "fnf-retrain+kswin": ("fnf-retrain", "kswin", "sgd"),
    "fnf-update+arf": ("fnf-update", "adwin", "arf"),
    # ARF rebuilt on each ADWIN drift: the one run whose forests are
    # replaced mid-run
    "fnf-retrain+arf": ("fnf-retrain", "adwin", "arf"),
}

GOLDEN = {
    "cross-val": {
        "folds.json":
            "9e9689c8b963665c7fd79acbca883a729cbf468532005fb6b076dd63143de452",
        "summary.json":
            "5f2d7164ad0fd4bf0361e2396a6b6c83e0ef8f62e410dff75b6ffb19660496a3",
    },
    "fnf-retrain": {
        "events.jsonl":
            "5a04ccc98dd72cf15d34edac6127c50c13da825a1540901da2f72f5cbebdcac5",
        "extractor_final.json":
            "39b5750a57beb66a225db019b63f0ca1a55933fab62fdb1019d61c0efc16e7a9",
        "metrics.csv":
            "d8ac2875468eefa7c7e3355b1dcd7b20937868c362b6dcc0d6934c218a17e87a",
        "summary.json":
            "674cfff4d344407d5ee6d207e980999e39794a08557edde8bcd97f16c9029627",
        "vocab_diffs.json":
            "f55fc24ce271338be3cf35d803d51f5af30c52e8583260412f087f45e0f76a07",
    },
    "fnf-retrain+arf": {
        "events.jsonl":
            "c2b249f801b0b6fdd653f9cde2fb39b6fcc9098d7314525f0dba3820ba1c5694",
        "extractor_final.json":
            "e4173f7b273fd1b17da1410992f15b9b8460078ca0b970824183b5aa7179a567",
        "metrics.csv":
            "3acff8301ff006393f421b8cac19628ba46c2be563780d84a8065ba5d2d06932",
        "summary.json":
            "b3e1352fc532d5fc30d034fdebd7d907476f4c74847c860b7fc8b6d7967cf2d4",
        "vocab_diffs.json":
            "f3f1d4cb5db2f8b8d78d63991248f1ba4976eba50bed9024af597869e182e127",
    },
    "fnf-retrain+ddm": {
        "events.jsonl":
            "f3bab25f3db81a7704adb2c4cdd7baa9c95f2009d531faeb9afda91d151077e7",
        "extractor_final.json":
            "bbdddf11e4be85e46c1ee6059aa2f572383576d4a3546147730e7a0a0b0e0739",
        "metrics.csv":
            "c388154e7a22e2a20f3238c2f3adf7ecb6ebfd458efa415b54020f0a453eeb52",
        "summary.json":
            "46c6992a8764132a910fd9bbf385c3d30a87a18a8f82e33b18a65f3ca47ffdf9",
        "vocab_diffs.json":
            "0b905124bf84bd48e1855d5aef0e680af3dd956e5163a824a15cdf954f14c507",
    },
    "fnf-retrain+kswin": {
        "events.jsonl":
            "c3f84e7d2bdad378b2bdf5caf33f72678326b8da4bcf9e1bfa9324805a680206",
        "extractor_final.json":
            "ff7f73768fa71e5d7af95cb5adb7484e224ed791ae76c636611158d1ea01cc76",
        "metrics.csv":
            "36d8b0476f9f75837f07a51c673e8614404421cccd2f0239d96d3407411a7b03",
        "summary.json":
            "105f156baf1eb7c425b0eae1fbefa83df336f42f1862f33b9eb7d406646e1b0d",
        "vocab_diffs.json":
            "0ad877e244ad6521a115d16751da6867bcb4f8c7bb51ea15c7fb697df86e8d32",
    },
    "fnf-update": {
        "events.jsonl":
            "906918de603c2cb0b7e16560ddb7b85c8f26ff6dc4ec1641ba27dce054be0980",
        "extractor_final.json":
            "b5c06dade812bb8ea063b833660166543b37b80a58004d7c136f44636940e18c",
        "metrics.csv":
            "5ee9549da7909754bf4ec0f7be85a1f08342bad2d51340dcdf4627a64f313932",
        "summary.json":
            "aa138071e0c1932c80590e78c3dc74ee7f6b547c431eef7200e9a00a5137a4ae",
        "vocab_diffs.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "fnf-update+arf": {
        "events.jsonl":
            "b0509c105d6a864ef1d3c613cda846c231d23a192072de34e06a1337bcf49797",
        "extractor_final.json":
            "b5c06dade812bb8ea063b833660166543b37b80a58004d7c136f44636940e18c",
        "metrics.csv":
            "a3abd026df3b2cfd5fdae09d15040fde7d49710dc95fdddf074f63a91c8adfe3",
        "summary.json":
            "3bccff29aa7ee11e83d7f1ca859752b61b37782bc1210cb3d66b8231e3724c30",
        "vocab_diffs.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "iwc": {
        "events.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "metrics.csv":
            "f27dd1418c51b7318087ba24402a5a7b669e9207deb841befebf129cd49713a1",
        "periods.json":
            "d1e9630c6bf6dec45d6ad4891cbd692bc2982670ce5a4a996aec9840c4624e0d",
        "summary.json":
            "9c196bec7531ad9fac1ad1c1ba07f327da1edbe1082ed2c295951838b416bbdd",
        "vocab_diffs.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "mts": {
        "mts.json":
            "591d3246044a012edee8b534c77363b09764c9ec8801c8da4d53cf24f4a62df6",
        "summary.json":
            "4c02b8b2e943d18f9d5533203f19744d49bf2afb35ccbe55f4b0441a6da17d63",
    },
    "pool": {
        "events.jsonl":
            "32fd5d40e6425f049547bd74489e8e34cbb077777e087790c7a8b0d1143ba0f1",
        "metrics.csv":
            "bbf6da1962f823debfa016e7c7668819791e17c3a0544064d7552222a95397aa",
        "summary.json":
            "4e02edbce1f732b22a0c5dfe3cbfebe846564978577b52358b2d05f86d5ceb2a",
        "vocab_diffs.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "static": {
        "events.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "extractor_final.json":
            "b5c06dade812bb8ea063b833660166543b37b80a58004d7c136f44636940e18c",
        "metrics.csv":
            "83678ed77052d49f0d7220e1ecc2b205b8b0d90829b4c01b9e9fd7797c72bc8d",
        "summary.json":
            "63017aa98324717379e3d895430fd33983652c0960a06f2b11572f72725adff5",
        "vocab_diffs.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "temporal": {
        "summary.json":
            "cc6e2a1dbdbbd8a31d783940ba0fd26df171c62039c5350568ffedf09e875c20",
    },
}


def openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS picked for this CPU (or
    ``OPENBLAS_CORETYPE``), or ``unknown`` without that library."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                  "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "stream.jsonl"
    assert main(["gen", *GEN_ARGS, "--out", str(path)]) == 0
    return path


def run_digests(stream_file, out_dir, run_name) -> dict[str, str]:
    strategy, detector, classifier = RUNS[run_name]
    code = main(["run", "--input", str(stream_file), "--out", str(out_dir),
                 *COMMON_ARGS, "--strategy", strategy,
                 "--detector", detector, "--classifier", classifier])
    assert code == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("run_name", sorted(RUNS))
def test_report_digests_are_unchanged(run_name, stream_file, tmp_path,
                                      monkeypatch):
    monkeypatch.delenv("DRIFTSTREAM_OUT", raising=False)
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    assert run_digests(stream_file, tmp_path / "out", run_name) \
        == GOLDEN[run_name], (f"reports written with numpy "
                              f"{numpy.__version__} on BLAS "
                              f"{blas.get('name')} {blas.get('version')}, "
                              f"OpenBLAS core {openblas_core()}; the digests "
                              f"were made with numpy 2.4.6 on core SkylakeX")
