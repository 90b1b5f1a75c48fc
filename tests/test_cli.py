"""End-to-end tests of ``cli.run`` on a tiny bundle, plus the solver table it
reads solver parameters through."""
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srckit
from srckit import classify, cli, data, solvers
from srckit.classify import SOLVER_NAMES, SOLVER_PARAMS, classify_testset, evaluate, sweep
from srckit.data import (LabeledCube, Split, draw_splits, extract_pixels, load_bundle,
                         make_split, pixels_to_cube, save_bundle)
from srckit.dictionary import assemble
from srckit.network import NetParams, TrainingDiverged, grad_check, train
from srckit.synthetic import gradcheck_instance
from synthetic_problems import subspace_classes

# 20 pixels per class: 4 dictionary atoms, 4 train and 12 test pixels each
DATA = ["--dict-frac", "0.2", "--train-frac", "0.25"]


def tiny_cube():
    data = subspace_classes(0, n_classes=3, dim=12, sub_dim=3, n_dict=4,
                            n_train=6, n_test=10, noise=0.05)
    pixels = np.hstack([data.dict_pixels, data.train_pixels, data.test_pixels])
    labels = np.concatenate([data.dict_labels, data.train_labels, data.test_labels])
    return pixels_to_cube(pixels, labels)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "tiny"
    save_bundle(tiny_cube(), path)
    return path


@pytest.fixture(scope="module")
def trained(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    status = cli.run(["train", "--bundle", str(bundle), *DATA, "--seed", "3",
                      "--stages", "2", "--epochs", "1", "--batch-size", "6",
                      "--init-eta", "0.01", "--out", str(out)])
    assert status == 0
    return out


def run(capsys, *argv):
    """Exit status of one CLI run and its parsed stderr error (or None)."""
    status = cli.run([str(a) for a in argv])
    err = capsys.readouterr().err.strip()
    return status, (json.loads(err) if err else None)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExitCodes:
    def test_success(self, capsys, bundle, tmp_path):
        status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "omp",
                          "--K", 2, "--out", tmp_path)
        assert (status, err) == (0, None)
        assert 0.0 <= read_json(tmp_path / "report.json")["oa"] <= 1.0

    def test_runtime_failure(self, capsys, monkeypatch, bundle, tmp_path):
        # a solver that fails while coding is the program's fault, not the config's
        def failing(dictionary, x, **kwargs):
            raise FloatingPointError("overflow encountered while coding")
        monkeypatch.setattr(solvers, "omp", failing)
        status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "omp",
                          "--K", 2, "--out", tmp_path)
        assert status == 1
        assert err["kind"] == "runtime"

    def test_sweep_runtime_failure(self, capsys, monkeypatch, bundle, tmp_path):
        def failing(dictionary, x, **kwargs):
            raise FloatingPointError("overflow encountered while coding")
        monkeypatch.setattr(solvers, "fista", failing)
        status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "fista",
                          "--param", "lam", "--grid", "0.1", "--runs", 1,
                          "--out", tmp_path / "out")
        assert (status, err["kind"]) == (1, "runtime")
        assert "sweep failed at lam=0.1: overflow encountered" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [[], ["eval", "--frobnicate"],
                                      ["eval", "--solver", "magic"]])
    def test_usage_error(self, capsys, argv):
        status, err = run(capsys, *argv)
        assert status == 2
        assert err["kind"] == "usage"

    def test_config_error(self, capsys, tmp_path):
        status, err = run(capsys, "eval", "--bundle", tmp_path / "missing",
                          "--solver", "omp", "--K", 2, "--out", tmp_path)
        assert status == 3
        assert "bundle directory not found" in err["message"]

    @pytest.mark.parametrize("command, config", [
        ("train", {"epochs": "two"}),
        ("train", {"init_eta": [0.1]}),
        ("eval", {"seed": "zero"}),
        ("sweep", {"grid": 0.5}),
        ("sweep", {"grid": ["a"]}),
        ("sweep", {"grid": []}),
        ("sweep", {"runs": "2x"}),
        ("gradcheck", {"bands": "twenty"}),
        ("eval", {"normalize": "false"}),
        ("train", {"normalize": 0}),
        ("train", {"epochs": 1.9}),
        ("train", {"epochs": True}),
        ("eval", {"k": 9.7}),
        ("eval", {"k": True}),
        ("sweep", {"runs": 2.5}),
        ("sweep", {"lam": True}),
        ("train", {"learning_rate": "0.5"}),
        ("train", {"init_eta": float("nan")}),
        ("gradcheck", {"tol": float("inf")}),
        ("train", {"init_eta": 10**400}),
        ("eval", {"solver_params": [["lambda", 5.0]]}),
    ])
    def test_badly_typed_config_value(self, capsys, bundle, tmp_path, command, config):
        """A config value of the wrong type is a config error found before
        the output directory is made."""
        base = {"eval": {"solver": "omp", "k": 2},
                "sweep": {"solver": "fista", "param": "lam", "grid": "0.1"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**base.get(command, {}), **config}), encoding="utf-8")
        data = [] if command == "gradcheck" else ["--bundle", bundle, *DATA]
        out = tmp_path / "out"
        status, err = run(capsys, command, "--config", path, *data, "--out", out)
        assert (status, err["kind"]) == (3, "config")
        assert all(key in err["message"] for key in config)
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, named", [
        ("gradcheck", ["--tol", "nan"], "tol"),
        ("eval", ["--solver", "omp", "--K", 2, "--tol", "nan"], "tol"),
        ("eval", ["--solver", "admm_fixed", "--lam", "inf"], "lam"),
        ("train", ["--epochs", 0], "epochs"),
        ("train", ["--init-rho", 0], "rho"),
        ("train", ["--stages", 0], "stage"),
        ("gradcheck", ["--stages", 0], "stage"),
        ("gradcheck", ["--fd-step", -1], "step must be positive"),
        ("gradcheck", ["--bands", 0], "bands"),
        ("gradcheck", ["--classes", 0], "n_classes"),
        ("eval", ["--solver", "omp", "--K", 2, "--dict-frac", 1], "dict_frac"),
        ("sweep", ["--solver", "fista", "--param", "lam", "--grid", "0.1", "--runs", 0],
         "runs"),
        ("eval", ["--solver", "fista", "--max-iters", 0], "max_iters"),
        ("eval", ["--solver", "samp", "--max-iters", 0], "max_iters"),
        ("eval", ["--solver", "omp", "--K", 2, "--tol", -1], "tol"),
        ("eval", ["--solver", "admm_fixed", "--rho", 0], "rho"),
        ("eval", ["--solver", "admm_fixed", "--relax", 2.5], "relax"),
        ("eval", ["--solver", "admm_fixed", "--tau", 0], "tau"),
        ("sweep", ["--solver", "fista", "--param", "max_iters", "--grid", "0:2"], "max_iters"),
        ("gradcheck", ["--tol", -1], "tol"),
        ("train", ["--train-frac", 0, "--epochs", 1], "train set is empty"),
        ("eval", ["--solver", "omp", "--K", 1, "--train-frac", 0.999], "test set is empty"),
        ("gradcheck", ["--classes", 1], "n_classes"),
        ("sweep", ["--solver", "fista", "--param", "lam", "--grid", "0.1", "--runs", 1,
                   "--train-frac", 0.999], "the split's test set is empty"),
        ("train", ["--lr", -1], "learning_rate must be nonnegative, got -1.0"),
        ("train", ["--batch-size", 0], "batch_size must be >= 1, got 0"),
        ("gradcheck", ["--bands", 1, "--atoms", 2, "--classes", 2], "class residuals"),
        ("train", ["--seed", -1], "seed must be >= 0, got -1"),
        ("train", ["--train-seed", -1], "train_seed must be >= 0, got -1"),
        ("eval", ["--solver", "omp", "--K", 2, "--seed", -1], "seed must be >= 0, got -1"),
        ("split", ["--seed", -1], "seed must be >= 0, got -1"),
        ("sweep", ["--solver", "fista", "--param", "lam", "--grid", "0.1", "--runs", 1,
                   "--base-seed", -1], "base_seed must be >= 0, got -1"),
        ("gradcheck", ["--seed", -1], "seed must be >= 0, got -1"),
        # SplitMix64 would alias a split seed to seed mod 2**64
        ("split", ["--seed", 2**64], f"seed must lie in [0, 2**64), got {2**64}"),
        ("sweep", ["--solver", "omp", "--param", "k", "--grid", "1", "--runs", 2,
                   "--base-seed", 2**64 - 1], f"seed must lie in [0, 2**64), got {2**64}"),
        # the minus copy of the check would put an eta below its floor of 0
        ("gradcheck", ["--fd-step", 0.1], "step 0.1 would move an entry of eta below its floor"),
    ])
    def test_rejected_flag_value(self, capsys, bundle, tmp_path, command, argv, named):
        """A non-finite real, or a value out of range for the table or the
        library, is a config error raised before the output directory is made."""
        data = [] if command == "gradcheck" else ["--bundle", bundle, *DATA]
        out = tmp_path / "out"
        status, err = run(capsys, command, *data, *argv, "--out", out)
        assert (status, err["kind"]) == (3, "config")
        assert named in err["message"]
        assert not out.exists()

    def test_sweep_checks_its_last_seed_before_coding(self, capsys, monkeypatch, bundle,
                                                      tmp_path):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return classify_testset(*args, **kwargs)
        monkeypatch.setattr(classify, "classify_testset", counted)
        status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "omp",
                          "--param", "k", "--grid", "1,2", "--runs", 2,
                          "--base-seed", 2**64 - 1, "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert f"seed must lie in [0, 2**64), got {2**64}" in err["message"]
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_bad_config_file(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json", encoding="utf-8")
        status, err = run(capsys, "eval", "--config", config)
        assert status == 3
        assert err["kind"] == "config"

    def test_config_file_repeating_a_key(self, capsys, bundle, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"solver": "omp", "k": 2, "k": 3}', encoding="utf-8")
        status, err = run(capsys, "eval", "--config", config, "--bundle", bundle, *DATA,
                          "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert "key 'k' is repeated" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_config_file_holding_a_list(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]", encoding="utf-8")
        status, err = run(capsys, "eval", "--config", config)
        assert (status, err["kind"]) == (3, "config")
        assert "JSON object" in err["message"]

    def test_missing_required_key(self, capsys, bundle, tmp_path):
        out = tmp_path / "out"
        status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--out", out)
        assert (status, err["kind"]) == (3, "config")
        assert "missing required key: solver" in err["message"]
        assert not out.exists()


def reals(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# the smallest eta of gradcheck's instance at its default seed and sizes and
# one stage: the largest --fd-step whose minus copy stays at or above eta's floor
GRADCHECK_ETA = float(gradcheck_instance(0, n_stages=1)[3].eta.min())
# each key whose range the library checks, with the cheapest run that reads
# it and (out-of-range values, in-range edge values)
RANGE_RULES = {
    "dict_frac": ("split", [], st.one_of(st.sampled_from([0.0, 1.0]), reals(max_value=0.0),
                                         reals(min_value=1.0)), [5e-324, 1 - 2**-53]),
    "train_frac": ("split", [], st.one_of(st.sampled_from([-5e-324, 1.0]),
                                          reals(max_value=-5e-324), reals(min_value=1.0)),
                   [0.0, 1 - 2**-53]),
    "learning_rate": ("train", ["--stages", 1, "--epochs", 1],
                      st.one_of(st.just(-5e-324), reals(max_value=-5e-324)), [0.0]),
    "epochs": ("train", ["--stages", 1], st.integers(max_value=0), [1]),
    "batch_size": ("train", ["--stages", 1, "--epochs", 1], st.integers(max_value=0), [1]),
    "runs": ("sweep", ["--solver", "omp", "--param", "k", "--grid", "1"],
             st.integers(max_value=0), [1]),
    "n_classes": ("gradcheck", ["--stages", 1, "--tol", 2], st.integers(max_value=1), [2]),
    "fd_step": ("gradcheck", ["--stages", 1, "--tol", 2],
                st.one_of(st.sampled_from([0.0, float(np.nextafter(GRADCHECK_ETA, 1.0))]),
                          reals(max_value=0.0), reals(min_value=GRADCHECK_ETA, exclude_min=True)),
                [GRADCHECK_ETA]),
}


def run_key(bundle, key, value, out):
    """(exit status, stdout, stderr) of the run RANGE_RULES names for ``key``
    with ``key`` set to ``value`` (the flag given last, so it wins)."""
    command, argv, _, _ = RANGE_RULES[key]
    data = [] if command == "gradcheck" else ["--bundle", bundle, *DATA]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.run([str(a) for a in (command, *data, *argv, "--out", out)]
                         + [f"{cli.KEYS[key].flags[0]}={value!r}"])
    return status, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("key", RANGE_RULES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_value_out_of_its_library_range_is_config_error(bundle, key, data):
    """Each range the CLI leaves to the library is still a config error
    naming its key, with one JSON line on stderr and no --out."""
    value = data.draw(RANGE_RULES[key][2], label=key)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        status, stdout, stderr = run_key(bundle, key, value, out)
        assert (status, stdout) == (3, "")
        lines = stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["status"], err["kind"]) == ("error", "config")
        assert ("step" if key == "fd_step" else key) in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("key, value", [(key, value) for key, rule in RANGE_RULES.items()
                                        for value in rule[3]])
def test_value_at_the_edge_of_its_library_range_runs(bundle, tmp_path, key, value):
    status, stdout, stderr = run_key(bundle, key, value, tmp_path / "out")
    assert (status, stderr) == (0, "")
    assert json.loads(stdout)["status"] == "ok"
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_grid_ranges():
    assert cli.parse_grid("1:3") == [1.0, 2.0, 3.0]
    stepped = cli.parse_grid("0.1:0.3:0.1")
    assert len(stepped) == 3
    assert abs(stepped[-1] - 0.3) <= 1e-12
    # each value is lo + i*step to 15 significant digits, not 0.30000000000000004
    assert cli.parse_grid("0:1:0.1") == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert cli.parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    # rounded at the range's scale, so the value that should be 0 is 0, not
    # 5.55e-17 (15 digits of the value itself) and not -0.0
    grid = cli.parse_grid("-0.3:0.3:0.1")
    assert grid == [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]
    assert [repr(v) for v in grid] == ["-0.3", "-0.2", "-0.1", "0.0", "0.1", "0.2", "0.3"]
    assert cli.parse_grid("1e-3:5e-3:1e-3") == [0.001, 0.002, 0.003, 0.004, 0.005]


@pytest.mark.parametrize("text", ["3:1", "0:1:0", "1:2:3:4", "0.5:2", "3:1:0.5"])
def test_bad_grid_is_config_error(text):
    with pytest.raises(cli.ConfigError, match="bad grid"):
        cli.parse_grid(text)


@pytest.mark.parametrize("text", ["0:1:1e-300", "0:1000000000", "-1e308:1e308:1",
                                  "1:10001", "0:1:0.0001", f"0:{10 ** 400}"])
def test_huge_grid_range_is_rejected_before_it_is_built(text):
    with pytest.raises(cli.ConfigError, match=f"more than {cli.GRID_CAP} values"):
        cli.parse_grid(text)


def test_grid_range_at_the_cap_is_built():
    assert len(cli.parse_grid("1:10000")) == cli.GRID_CAP == 10000
    assert len(cli.parse_grid("0:0.9999:0.0001")) == cli.GRID_CAP


@pytest.mark.parametrize("grid, named", [
    ("1:inf:1", "upper bound"), ("1:1e400:1", "upper bound"), ("-inf:1:1", "lower bound"),
    ("nan:1:1", "lower bound"), ("0.1:0.2:inf", "step"),
])
def test_non_finite_grid_range_is_config_error(capsys, bundle, tmp_path, grid, named):
    status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "fista",
                      "--param", "lam", f"--grid={grid}", "--runs", 1, "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert f"the {named} must be finite" in err["message"]
    assert not (tmp_path / "out").exists()


# every subcommand that reads a bundle, with the flags it needs to run
BUNDLE_COMMANDS = {
    "ingest": [],
    "split": DATA,
    "train": [*DATA, "--stages", 2, "--epochs", 1],
    "eval": [*DATA, "--solver", "omp", "--K", 2],
    "sweep": [*DATA, "--solver", "omp", "--param", "k", "--grid", "1,2", "--runs", 1],
}


def skip_class_2(path):
    # labels 1 and 3 only: the header's 3 classes still match the largest label
    labels = np.fromfile(path / "labels.bin", dtype="<i4")
    np.where(labels == 2, 3, labels).astype("<i4").tofile(path / "labels.bin")


def unlabel_all(path):
    # header classes 0 matches the largest label, so the bundle loads
    labels = np.fromfile(path / "labels.bin", dtype="<i4")
    np.zeros_like(labels).tofile(path / "labels.bin")
    header = read_json(path / "header.json")
    (path / "header.json").write_text(json.dumps({**header, "classes": 0}), encoding="utf-8")


def boolean_height(path):
    # JSON true is a Python bool, which is an int
    header = read_json(path / "header.json")
    (path / "header.json").write_text(json.dumps({**header, "height": True}), encoding="utf-8")


BUNDLE_FAULTS = {
    "class 2 has no labeled pixels": skip_class_2,
    "cube has no labeled pixels": unlabel_all,
    "height: expected nonnegative integer, got True": boolean_height,
    "data.bin: expected": lambda path: (path / "data.bin").write_bytes(
        (path / "data.bin").read_bytes()[:-8]),
    "bundle file missing": lambda path: (path / "labels.bin").unlink(),
}


@pytest.mark.parametrize("command, message", [
    (command, message) for command in BUNDLE_COMMANDS for message in BUNDLE_FAULTS])
def test_bad_bundle_is_config_error(capsys, tmp_path, command, message):
    save_bundle(tiny_cube(), tmp_path / "bundle")
    BUNDLE_FAULTS[message](tmp_path / "bundle")
    status, err = run(capsys, command, "--bundle", tmp_path / "bundle",
                      *BUNDLE_COMMANDS[command], "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert message in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_labels_rewritten_after_the_split_fail_the_run(capsys, monkeypatch, tmp_path, command):
    """A run's splits and cube come from one version of labels.bin: one
    rewritten between the labels-only read and the load is a config error."""
    save_bundle(tiny_cube(), tmp_path / "bundle")
    labels_path = tmp_path / "bundle" / "labels.bin"
    draw = data.make_split

    def rewriting(*args, **kwargs):
        labels = np.fromfile(labels_path, dtype="<i4")
        labels[[0, -1]] = labels[[-1, 0]]
        labels.tofile(labels_path)
        return draw(*args, **kwargs)
    monkeypatch.setattr(data, "make_split", rewriting)  # sweep draws through data.draw_splits
    monkeypatch.setattr(cli, "make_split", rewriting)
    status, err = run(capsys, command, "--bundle", tmp_path / "bundle",
                      *BUNDLE_COMMANDS[command], "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert err["message"] == f"bundle file {labels_path} changed while the run read it"
    assert not (tmp_path / "out").exists()


def test_flag_overrides_config_key(capsys, bundle, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bundle": str(bundle), "dict_frac": 0.2,
                                  "train_frac": 0.25, "solver": "omp", "k": 1}),
                      encoding="utf-8")
    status, _ = run(capsys, "eval", "--config", config, "--K", 3, "--out", tmp_path / "a")
    assert status == 0
    assert read_json(tmp_path / "a" / "manifest.json")["config"]["k"] == 3
    status, _ = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "omp",
                    "--K", 3, "--out", tmp_path / "b")
    assert status == 0
    assert read_json(tmp_path / "a" / "report.json") == read_json(tmp_path / "b" / "report.json")


def test_train_eval_round_trip(capsys, bundle, trained, tmp_path):
    split_path, params_path = trained / "split.json", trained / "params.json"
    # the saved split wins over a different --seed
    status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--seed", 11,
                      "--split", split_path, "--solver", "asdn",
                      "--params", params_path, "--out", tmp_path)
    assert (status, err) == (0, None)

    cube = load_bundle(bundle)
    split = Split.from_json(read_json(split_path))
    dict_pixels, dict_labels = extract_pixels(cube, split.dictionary_flat(), True)
    test_pixels, test_labels = extract_pixels(cube, split.test_flat(), True)
    pred = classify_testset(assemble(dict_pixels, dict_labels), test_pixels, "asdn",
                            {"net": NetParams.from_json(read_json(params_path))})
    expected = evaluate(pred, test_labels, cube.n_classes)
    assert read_json(tmp_path / "report.json") == expected.to_json()


class TestManifestHashes:
    def test_eval_hashes_split_and_params(self, capsys, bundle, trained, tmp_path):
        split_path, params_path = trained / "split.json", trained / "params.json"
        status, _ = run(capsys, "eval", "--bundle", bundle, *DATA, "--split", split_path,
                        "--solver", "asdn", "--params", params_path, "--out", tmp_path)
        assert status == 0
        inputs = read_json(tmp_path / "manifest.json")["inputs"]
        assert inputs[str(split_path)] == sha256(split_path)
        assert inputs[str(params_path)] == sha256(params_path)
        assert len(inputs) == 5  # the bundle's three files plus both

    def test_train_hashes_split(self, capsys, bundle, trained, tmp_path):
        split_path = trained / "split.json"
        status, _ = run(capsys, "train", "--bundle", bundle, *DATA, "--split", split_path,
                        "--stages", 1, "--epochs", 1, "--out", tmp_path)
        assert status == 0
        inputs = read_json(tmp_path / "manifest.json")["inputs"]
        assert inputs[str(split_path)] == sha256(split_path)

    def test_sweep_params_is_usage_error(self, capsys, bundle, trained, tmp_path):
        # a trained network fixes n_stages, the only parameter asdn could sweep
        status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "asdn",
                          "--params", trained / "params.json", "--param", "n_stages",
                          "--grid", "1", "--runs", 1, "--out", tmp_path / "out")
        assert status == 2
        assert "unrecognized arguments" in err["message"]
        assert not (tmp_path / "out").exists()


def bundle_files(path):
    """A bundle's three files, the only ones a run reads from it."""
    return [path / name for name in ("data.bin", "header.json", "labels.bin")]


def disk_hashes(*paths):
    """The manifest's inputs as hashing the files on disk gives them."""
    files = [f for p in paths for f in (sorted(p.iterdir()) if p.is_dir() else [p])]
    return {str(f): sha256(f) for f in files}


class TestManifestDigests:
    """A manifest takes the bundle's hashes from the bytes the run read; they
    must equal hashing the files on disk, and the bundle is not read again."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        seen = []
        file_sha256 = cli._file_sha256

        def spy(path):
            seen.append(Path(path).name)
            return file_sha256(path)
        monkeypatch.setattr(cli, "_file_sha256", spy)
        return seen

    @pytest.mark.parametrize("argv", [
        ["split"], ["ingest"],
        ["eval", "--solver", "omp", "--K", 2],
        ["sweep", "--solver", "omp", "--param", "k", "--grid", "1,2", "--runs", 1],
        ["train", "--stages", 1, "--epochs", 1],
    ], ids=["split", "ingest", "eval", "sweep", "train"])
    def test_bundle_hashes_equal_disk_hashes(self, capsys, hashed, bundle, tmp_path, argv):
        status, _ = run(capsys, argv[0], "--bundle", bundle,
                        *(DATA if argv[0] != "ingest" else []), *argv[1:], "--out", tmp_path)
        assert status == 0
        assert read_json(tmp_path / "manifest.json")["inputs"] == disk_hashes(bundle)
        assert hashed == []

    def test_saved_inputs_are_hashed_from_disk_and_other_bundle_files_are_not_inputs(
            self, capsys, hashed, bundle, trained, tmp_path):
        copy = tmp_path / "bundle"
        copy.mkdir()
        for f in bundle.iterdir():
            (copy / f.name).write_bytes(f.read_bytes())
        (copy / "notes.txt").write_text("extra file\n", encoding="utf-8")
        split_path, params_path = trained / "split.json", trained / "params.json"
        status, _ = run(capsys, "eval", "--bundle", copy, *DATA, "--split", split_path,
                        "--solver", "asdn", "--params", params_path, "--out", tmp_path / "out")
        assert status == 0
        inputs = read_json(tmp_path / "out" / "manifest.json")["inputs"]
        assert inputs == disk_hashes(*bundle_files(copy), split_path, params_path)
        assert sorted(hashed) == ["params.json", "split.json"]

    def test_ingest_into_its_bundle_lists_only_what_it_read(self, capsys, tmp_path):
        # a second run finds the first's summary.json and manifest.json in --out
        save_bundle(tiny_cube(), tmp_path)
        want = disk_hashes(*bundle_files(tmp_path))
        manifests = []
        for _ in range(2):
            status, _ = run(capsys, "ingest", "--bundle", tmp_path, "--out", tmp_path)
            assert status == 0
            manifests.append((tmp_path / "manifest.json").read_bytes())
            assert json.loads(manifests[-1])["inputs"] == want
        assert manifests[0] == manifests[1]

    def test_train_into_its_split_directory_hashes_the_split_it_read(
            self, capsys, bundle, trained, tmp_path):
        # stored with other formatting than train's, so the first run rewrites it
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(read_json(trained / "split.json"), indent=1),
                              encoding="utf-8")
        manifests = []
        for _ in range(3):
            read = sha256(split_path)
            status, _ = run(capsys, "train", "--bundle", bundle, *DATA, "--split", split_path,
                            "--stages", 1, "--epochs", 1, "--out", tmp_path)
            assert status == 0
            manifests.append((tmp_path / "manifest.json").read_bytes())
            assert json.loads(manifests[-1])["inputs"][str(split_path)] == read
        assert manifests[0] != manifests[1] == manifests[2]

    def test_report_hashes_the_report_before_csv_overwrites_it(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(evaluate([1, 2], [1, 2], 2).to_json()), encoding="utf-8")
        read = sha256(path)
        status, _ = run(capsys, "report", "--report", path, "--csv", path,
                        "--out", tmp_path / "out")
        assert status == 0
        assert sha256(path) != read
        assert read_json(tmp_path / "out" / "manifest.json")["inputs"] == {str(path): read}


class TestSplitValidation:
    def write_split(self, tmp_path, edit):
        doc = make_split(tiny_cube(), 0.2, 0.25, 0).to_json()
        edit(doc)
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def eval_with(self, capsys, bundle, tmp_path, path):
        return run(capsys, "eval", "--bundle", bundle, *DATA, "--split", path,
                   "--solver", "omp", "--K", 2, "--out", tmp_path / "out")

    def test_dictionary_ids_among_test_ids(self, capsys, bundle, tmp_path):
        def leak(doc):
            doc["test_ids"]["1"] = doc["test_ids"]["1"] + doc["dictionary_ids"]["1"]
        status, err = self.eval_with(capsys, bundle, tmp_path, self.write_split(tmp_path, leak))
        assert status == 3
        assert "both the dictionary and test sets" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_id_under_wrong_class(self, capsys, bundle, tmp_path):
        def swap(doc):
            doc["train_ids"]["1"], doc["train_ids"]["2"] = \
                doc["train_ids"]["2"], doc["train_ids"]["1"]
        status, err = self.eval_with(capsys, bundle, tmp_path, self.write_split(tmp_path, swap))
        assert status == 3
        assert "cube label is 2" in err["message"]

    @pytest.mark.parametrize("command, argv", [
        ("eval", ["--solver", "omp", "--K", 2]),
        ("train", ["--stages", 1, "--epochs", 1, "--batch-size", 6])])
    @pytest.mark.parametrize("name", ["dictionary_ids", "train_ids", "test_ids"])
    def test_id_set_that_is_a_list(self, capsys, bundle, tmp_path, command, argv, name):
        path = self.write_split(tmp_path, lambda doc: doc.update({name: ["1"]}))
        status, err = run(capsys, command, "--bundle", bundle, *DATA, "--split", path, *argv,
                          "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert f"{name} is not a JSON object" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_id_outside_cube(self, capsys, bundle, tmp_path):
        def outside(doc):
            doc["test_ids"]["3"].append(10_000)
        status, err = self.eval_with(capsys, bundle, tmp_path,
                                     self.write_split(tmp_path, outside))
        assert status == 3
        assert "outside" in err["message"]

    def test_id_repeated_within_a_set(self, capsys, bundle, tmp_path):
        def repeat(doc):
            doc["test_ids"]["1"] = doc["test_ids"]["1"] + doc["test_ids"]["1"][:1]
        path = self.write_split(tmp_path, repeat)
        repeated = json.loads(path.read_text(encoding="utf-8"))["test_ids"]["1"][0]
        status, err = self.eval_with(capsys, bundle, tmp_path, path)
        assert status == 3
        assert f"test id {repeated} is listed more than once" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["test_ids"]["2"].__setitem__(0, doc["test_ids"]["2"][0] + 0.5),
         r"test_ids id \d+\.5 is not an integer"),
        (lambda doc: doc["dictionary_ids"]["1"].__setitem__(0, doc["dictionary_ids"]["1"][0] + 0.9),
         r"dictionary_ids id \d+\.9 is not an integer"),
        (lambda doc: doc["train_ids"]["3"].__setitem__(0, float(doc["train_ids"]["3"][0])),
         r"train_ids id \d+\.0 is not an integer"),
        (lambda doc: doc["train_ids"]["1"].__setitem__(0, True),
         "train_ids id True is not an integer"),
        (lambda doc: doc["test_ids"]["1"].__setitem__(0, str(doc["test_ids"]["1"][0])),
         r"test_ids id '\d+' is not an integer"),
        (lambda doc: doc.update(seed=0.5), "seed 0.5 is not an integer"),
        (lambda doc: doc.update(seed=0.0), "seed 0.0 is not an integer"),
        (lambda doc: doc.update(seed="0"), "seed '0' is not an integer"),
        (lambda doc: doc.update(seed=False), "seed False is not an integer"),
    ], ids=["fractional-test-id", "fractional-dictionary-id", "integral-float-id", "bool-id",
            "string-id", "fractional-seed", "integral-float-seed", "string-seed", "bool-seed"])
    def test_non_integer_value_is_config_error(self, capsys, bundle, tmp_path, edit, message):
        status, err = self.eval_with(capsys, bundle, tmp_path, self.write_split(tmp_path, edit))
        assert (status, err["kind"]) == (3, "config")
        assert re.search(message, err["message"])
        assert not (tmp_path / "out").exists()

    def test_id_beyond_int64_is_config_error(self, capsys, bundle, tmp_path):
        def huge(doc):
            doc["test_ids"]["1"].append(2 ** 70)
        status, err = self.eval_with(capsys, bundle, tmp_path, self.write_split(tmp_path, huge))
        assert (status, err["kind"]) == (3, "config")
        assert "OverflowError" in err["message"]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["dictionary_ids"].pop("3"), "class 3 has no dictionary ids"),
        (lambda doc: doc["dictionary_ids"].pop("2"), "class 2 has no dictionary ids"),
        (lambda doc: doc.update(dictionary_ids={}), "class 1 has no dictionary ids"),
        (lambda doc: doc["train_ids"].update({"4": []}), "train class 4 lies outside 1..3"),
    ], ids=["class-3-without-atoms", "class-2-without-atoms", "no-atoms", "class-beyond-cube"])
    def test_class_fault_is_config_error(self, capsys, bundle, tmp_path, edit, message):
        status, err = self.eval_with(capsys, bundle, tmp_path, self.write_split(tmp_path, edit))
        assert (status, err["kind"]) == (3, "config")
        assert message in err["message"]
        assert not (tmp_path / "out").exists()

    def test_unlabeled_pixel_under_class_zero(self, capsys, tmp_path):
        cube = tiny_cube()
        labels = cube.labels.copy()
        labels.flat[59] = 0
        cube = LabeledCube(labels, cube.spectra)
        save_bundle(cube, tmp_path / "bundle")
        doc = make_split(cube, 0.2, 0.25, 0).to_json()
        doc["test_ids"]["0"] = [59]
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, err = self.eval_with(capsys, tmp_path / "bundle", tmp_path, path)
        assert (status, err["kind"]) == (3, "config")
        assert "test class 0 lies outside 1..3" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spelling", ["01", " 1", "+1"])
    def test_class_key_spelled_otherwise_is_config_error(self, capsys, bundle, tmp_path,
                                                         spelling):
        # int() reads each as class 1, whose ids under "1" it would replace
        def respell(doc):
            ids = doc["train_ids"]["1"]
            doc["train_ids"]["1"], doc["train_ids"][spelling] = ids[:2], ids[2:]
        status, err = self.eval_with(capsys, bundle, tmp_path,
                                     self.write_split(tmp_path, respell))
        assert (status, err["kind"]) == (3, "config")
        assert f"train_ids class key {spelling!r} is not written '1'" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_key_repeated_verbatim_is_config_error(self, capsys, bundle, tmp_path):
        # json.loads would keep the second "1" and drop the first one's ids
        path = self.write_split(tmp_path, lambda doc: None)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"train_ids": {', '"train_ids": {"1": [], ', 1),
                        encoding="utf-8")
        status, err = self.eval_with(capsys, bundle, tmp_path, path)
        assert (status, err["kind"]) == (3, "config")
        assert f"split file {path} is malformed" in err["message"]
        assert "key '1' is repeated" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_saved_split_is_accepted(self, capsys, bundle, tmp_path):
        status, _ = self.eval_with(capsys, bundle, tmp_path,
                                   self.write_split(tmp_path, lambda doc: None))
        assert status == 0


@pytest.fixture(scope="module")
def written_split(bundle, tmp_path_factory):
    """The split.json document ``srckit split`` writes for the tiny bundle."""
    out = tmp_path_factory.mktemp("split") / "out"
    assert cli.run(["split", "--bundle", str(bundle), *DATA, "--out", str(out)]) == 0
    return read_json(out / "split.json")


SPLIT_SETS = ("dictionary_ids", "train_ids", "test_ids")


@st.composite
def split_faults(draw, doc):
    """A copy of the split document ``doc`` with one thing changed: a class
    key dropped or spelled "01", an id moved under another class, an id
    listed in two sets, or an id outside the cube or not an integer."""
    doc = json.loads(json.dumps(doc))
    name = draw(st.sampled_from(SPLIT_SETS), label="set")
    key = draw(st.sampled_from(sorted(doc[name])), label="class")
    ids = doc[name][key]
    at = draw(st.integers(0, len(ids) - 1), label="position")
    fault = draw(st.sampled_from(["drop-key", "respell-key", "move", "two-sets", "outside",
                                  "non-integer"]), label="fault")
    if fault == "drop-key":
        del doc[name][key]
    elif fault == "respell-key":
        doc[name]["0" + key] = doc[name].pop(key)
    elif fault == "move":
        other = draw(st.sampled_from([k for k in sorted(doc[name]) if k != key]), label="to")
        doc[name][other].append(ids.pop(at))
    elif fault == "two-sets":
        other = draw(st.sampled_from([n for n in SPLIT_SETS if n != name]), label="also in")
        doc[other][draw(st.sampled_from(sorted(doc[other])), label="under")].append(ids[at])
    elif fault == "outside":
        ids[at] = draw(st.one_of(st.integers(max_value=-1), st.integers(60, 2 ** 63 - 1)))
    else:
        ids[at] = draw(st.one_of(st.floats(), st.text(max_size=3), st.booleans(), st.none(),
                                 st.lists(st.integers(0, 59), max_size=2)))
    return doc


@pytest.mark.filterwarnings("ignore:classes .* absent from the test draw")
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_generated_split_file_fault(bundle, written_split, data):
    """Each one-change fault of a split file that ``srckit split`` wrote
    either runs, or is a config error: one JSON line on stderr and no --out."""
    doc = data.draw(split_faults(written_split), label="split")
    commands = {"eval": ["--solver", "omp", "--K", 2],
                "train": ["--stages", 1, "--epochs", 1, "--batch-size", 6]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command, argv in commands.items():
            out = Path(tmp) / command
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.run([str(a) for a in (command, "--bundle", bundle, *DATA, "--split",
                                                   path, *argv, "--out", out)])
            assert status in (0, 3), (command, stderr.getvalue())
            if status == 3:
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1 and json.loads(lines[0])["kind"] == "config", command
                assert stdout.getvalue() == "" and not out.exists(), command
            else:
                assert (out / "manifest.json").is_file(), command


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"], ["sweep", "--split", "s.json"],
    ["ingest", "--threads", "2"], ["split", "--threads", "2"],
    ["gradcheck", "--threads", "2"], ["report", "--threads", "2"],
    ["split", "--split", "s.json"], ["split", "--normalize"],
    ["eval", "--threads", "2"], ["sweep", "--threads", "2"],
])
def test_unread_flags_are_usage_errors(capsys, argv):
    status, err = run(capsys, *argv)
    assert status == 2
    assert "unrecognized arguments" in err["message"]


def test_unread_config_keys_stay_accepted(capsys, bundle, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 2, "normalize": False,
                                  "split_file": "unused.json"}), encoding="utf-8")
    status, err = run(capsys, "split", "--config", config, "--bundle", bundle, *DATA,
                      "--out", tmp_path / "out")
    assert (status, err) == (0, None)


class TestSolverParameters:
    def test_sweep_lambda_config_with_lam_sweep(self, capsys, bundle, tmp_path):
        # a config "lambda" must not override the swept "lam"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver_params": {"lambda": 5.0}}), encoding="utf-8")
        grid = [0.001, 0.02]
        status, _ = run(capsys, "sweep", "--config", config, "--bundle", bundle, *DATA,
                        "--solver", "fista", "--max-iters", 200, "--param", "lam",
                        "--grid", ",".join(map(str, grid)), "--runs", 1,
                        "--base-seed", 4, "--out", tmp_path / "sweep")
        assert status == 0
        rows = read_json(tmp_path / "sweep" / "sweep.json")

        def single_eval_oa(lam):
            out = tmp_path / f"eval-{lam}"
            status, _ = run(capsys, "eval", "--bundle", bundle, *DATA, "--seed", 4,
                            "--solver", "fista", "--max-iters", 200, "--lam", lam,
                            "--out", out)
            assert status == 0
            return read_json(out / "report.json")["oa"]

        assert rows["oa_mean"] == [single_eval_oa(lam) for lam in grid]
        assert rows["oa_mean"][0] != single_eval_oa(5.0)  # the check can tell

    def test_lambda_spellings_agree(self, capsys, bundle, tmp_path):
        """A config file's "lambda" names lam as --lambda and a solver_params
        record do: every spelling codes at lam 5 and the manifest says so.
        Sweep's --param lambda sweeps lam, and its outputs name lam."""
        spellings = {"file_lambda": ({"lambda": 5.0}, []), "file_lam": ({"lam": 5.0}, []),
                     "flag": ({}, ["--lambda", 5]),
                     "record": ({"solver_params": {"lambda": 5.0}}, []),
                     "default": ({}, [])}
        reports = {}
        for name, (config, flags) in spellings.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"solver": "fista", **config}), encoding="utf-8")
            out = tmp_path / name
            status, err = run(capsys, "eval", "--config", path, "--bundle", bundle, *DATA,
                              *flags, "--out", out)
            assert (status, err) == (0, None)
            reports[name] = read_json(out / "report.json")
            recorded = read_json(out / "manifest.json")["config"]
            lam = {**recorded, **recorded.get("solver_params", {})}.get("lam")
            assert lam == (None if name == "default" else 5.0)
        default = reports.pop("default")
        assert all(report == reports["flag"] for report in reports.values())
        assert reports["flag"] != default  # the check can tell
        sweeps = {}
        for name in ("lambda", "lam"):
            out = tmp_path / f"sweep-{name}"
            status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "fista",
                              "--param", name, "--grid", "5", "--runs", 1, "--out", out)
            assert (status, err) == (0, None)
            assert read_json(out / "manifest.json")["config"]["param"] == "lam"
            sweeps[name] = read_json(out / "sweep.json")
        assert sweeps["lambda"] == sweeps["lam"]
        assert sweeps["lam"]["parameter"] == "lam"
        assert sweeps["lam"]["oa_mean"] == [reports["flag"]["oa"]]

    def test_missing_k_is_named(self, capsys, bundle, tmp_path):
        status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "omp",
                          "--out", tmp_path / "out")
        assert status == 3
        assert "'k'" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_sweep_over_untaken_parameter(self, capsys, bundle, tmp_path):
        status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "fista",
                          "--param", "k", "--grid", "1,2", "--out", tmp_path / "out")
        assert status == 3
        assert "'k'" in err["message"]

    def test_sweep_fails_before_drawing_a_split(self, capsys, monkeypatch, bundle, tmp_path):
        """The CLI checks the parameter before it draws a split; the library
        sweep checks it before it extracts a pixel of the splits it is given."""
        cube, splits = tiny_cube(), draw_splits(tiny_cube(), 1)

        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn or read")
        monkeypatch.setattr(data, "make_split", no_split)
        monkeypatch.setattr(classify, "split_inputs", no_split)
        status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "fista",
                          "--param", "k", "--grid", "1,2", "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config") and "'k'" in err["message"]
        with pytest.raises(ValueError, match="'k'"):
            sweep(cube, "fista", "k", [1, 2], splits)
        with pytest.raises(ValueError, match="'k'"):
            sweep(cube, "omp", "tol", [1e-3], splits)
        with pytest.raises(ValueError, match="numeric parameter 'net'"):
            sweep(cube, "asdn", "net", [1], splits)

    # written out, not read from the signatures SOLVER_PARAMS is derived from
    PINNED = {"omp": ("k", "tol"), "sp": ("k", "tol", "max_iters"), "romp": ("k", "tol"),
              "gomp": ("k", "s", "tol"), "samp": ("step", "tol", "max_iters"),
              "fista": ("lam", "max_iters", "tol"),
              "admm_fixed": ("lam", "rho", "relax", "tau", "max_iters", "tol"),
              "asdn": ("net", "n_stages")}

    def test_solver_names_are_pinned(self):
        assert SOLVER_NAMES == ("omp", "sp", "romp", "gomp", "samp", "fista", "admm_fixed",
                                "asdn")
        assert tuple(self.PINNED) == SOLVER_NAMES

    @pytest.mark.parametrize("name", ["omp", "sp", "romp", "gomp", "samp", "fista",
                                      "admm_fixed", "asdn"])
    def test_table_lists_every_keyword(self, name):
        assert SOLVER_PARAMS[name] == self.PINNED[name]

    @pytest.mark.parametrize("name", SOLVER_PARAMS)
    def test_every_solver_checks_its_ranges(self, name):
        """Called directly or through the table, each solver rejects a value
        outside the range of every parameter it takes, naming it."""
        bad = {"s": 0, "step": 0, "max_iters": 0, "lam": -1e-9, "tol": -1e-9,
               "rho": 0.0, "tau": 0.0, "relax": 2.5, "n_stages": 0}
        assert set(bad) == set(solvers.PARAM_RANGES)
        d = assemble(np.eye(4), [1, 1, 2, 2])
        base = {"k": 2} if "k" in SOLVER_PARAMS[name] else {}
        solve = getattr(classify.SOLVER_MODULES[name], name)
        for key in set(SOLVER_PARAMS[name]) & set(bad):  # "k" and "net" have no range
            with pytest.raises(ValueError, match=key):
                solve(d, np.ones(4), **base, **{key: bad[key]})
            with pytest.raises(ValueError, match=repr(key)):
                classify.solver_kwargs(name, {**base, key: bad[key]})

    def test_every_parameter_has_a_type(self):
        # a keyword added to a solver's signature reaches the CLI only with a type
        taken = {key for keys in SOLVER_PARAMS.values() for key in keys}
        assert taken <= set(classify.PARAM_TYPES)

    @pytest.mark.parametrize("name, params", [
        ("omp", {"k": 2, "tol": 0.5}), ("sp", {"k": 2, "tol": 0.5, "max_iters": 3}),
        ("romp", {"k": 2, "tol": 0.5}), ("gomp", {"k": 2, "s": 1, "tol": 0.5}),
        ("samp", {"step": 2, "tol": 0.5, "max_iters": 3}),
    ])
    def test_every_parameter_reaches_the_solver(self, monkeypatch, name, params):
        seen = {}
        d = assemble(np.eye(4), [1, 1, 2, 2])

        def record(dictionary, x, **kw):
            seen.update(kw)
            return solvers.SparseCode(np.zeros((d.n_atoms, x.shape[1])))
        # looked up on the module at each block, so the replacement is called
        monkeypatch.setattr(solvers, name, record)
        classify_testset(d, np.ones((4, 1)), name, params)
        assert seen == params


@pytest.mark.parametrize("command, argv, message", [
    ("eval", ["--solver", "omp", "--K", 50], "sparsity level K=50 outside 1..12"),
    ("eval", ["--solver", "omp", "--K", 99], "sparsity level K=99 outside 1..12"),
    ("eval", ["--solver", "samp", "--step", 50], "size increment step=50 outside 1..6"),
    ("eval", ["--solver", "gomp", "--K", 12, "--S", 5], "S*iterations = 15 exceeds"),
    ("sweep", ["--solver", "omp", "--param", "k", "--grid", "1,50"], "K=50 outside"),
    ("sweep", ["--solver", "samp", "--param", "step", "--grid", "1,50"], "step=50 outside"),
])
def test_size_beyond_the_dictionary_is_config_error(capsys, monkeypatch, bundle, tmp_path,
                                                    command, argv, message):
    # the tiny bundle's dictionary is 12 bands by 12 atoms; the bound is
    # checked against it before any pixel is coded or any output written
    def no_coding(*args, **kwargs):
        raise AssertionError("a pixel was coded")
    monkeypatch.setattr(classify, "classify_testset", no_coding)
    monkeypatch.setattr(cli, "classify_testset", no_coding)
    status, err = run(capsys, command, "--bundle", bundle, *DATA, *argv,
                      "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert message in err["message"]
    assert not (tmp_path / "out").exists()


def test_divergence_raises_in_pool_threads():
    data = subspace_classes(5, n_classes=2, dim=16, sub_dim=3, n_dict=5,
                            n_train=12, n_test=5, noise=0.01)
    d = assemble(data.dict_pixels, data.dict_labels)
    px = data.train_pixels.copy()
    px[:, 0] = 1e200
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(d, px, data.train_labels, learning_rate=1e-2, epochs=2, batch_size=4, seed=6)


def test_misplaced_solver_flag_is_config_error(capsys, bundle, tmp_path):
    status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "fista",
                      "--K", 3, "--rho", 9, "--out", tmp_path / "out")
    assert status == 3
    assert "'k', 'rho'" in err["message"]
    assert not (tmp_path / "out").exists()


def test_misplaced_sweep_flag_is_config_error(capsys, bundle, tmp_path):
    status, err = run(capsys, "sweep", "--bundle", bundle, *DATA, "--solver", "fista",
                      "--param", "lam", "--grid", "0.1", "--S", 2, "--out", tmp_path / "out")
    assert status == 3
    assert "'s'" in err["message"]


def test_train_threads_is_usage_error(capsys):
    status, err = run(capsys, "train", "--threads", "2")
    assert status == 2
    assert "unrecognized arguments" in err["message"]


class TestManifestUnderSplit:
    def test_eval_omits_draw_keys(self, capsys, bundle, trained, tmp_path):
        # the split in ``trained`` was drawn at seed 3
        status, _ = run(capsys, "eval", "--bundle", bundle, *DATA, "--seed", 11,
                        "--split", trained / "split.json", "--solver", "omp", "--K", 2,
                        "--out", tmp_path)
        assert status == 0
        config = read_json(tmp_path / "manifest.json")["config"]
        assert not {"seed", "dict_frac", "train_frac"} & set(config)
        assert config["split_file"] == str(trained / "split.json")

    def test_train_records_its_training_seed(self, capsys, bundle, trained, tmp_path):
        status, _ = run(capsys, "train", "--bundle", bundle, *DATA, "--seed", 11,
                        "--split", trained / "split.json", "--stages", 1,
                        "--epochs", 1, "--out", tmp_path)
        assert status == 0
        config = read_json(tmp_path / "manifest.json")["config"]
        assert "seed" not in config
        assert config["train_seed"] == 11

    def test_drawn_split_keeps_draw_keys(self, capsys, bundle, tmp_path):
        status, _ = run(capsys, "eval", "--bundle", bundle, *DATA, "--seed", 11,
                        "--solver", "omp", "--K", 2, "--out", tmp_path)
        assert status == 0
        config = read_json(tmp_path / "manifest.json")["config"]
        assert (config["seed"], config["dict_frac"], config["train_frac"]) == (11, 0.2, 0.25)


def test_manifest_records_the_effective_config(capsys, bundle, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 2}), encoding="utf-8")
    status, _ = run(capsys, "eval", "--config", config, "--bundle", bundle,
                    "--train-frac", 0.25, "--solver", "omp", "--K", 2, "--out", tmp_path / "out")
    assert status == 0
    recorded = read_json(tmp_path / "out" / "manifest.json")["config"]
    assert (recorded["seed"], recorded["dict_frac"], recorded["normalize"]) == (0, 0.01, True)
    assert recorded["train_frac"] == 0.25
    assert "threads" not in recorded


class TestNetWithStages:
    """A trained network fixes its own depth, so "n_stages" beside "net" is a
    config error rather than a value the network silently ignores."""

    def test_eval(self, capsys, bundle, trained, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_stages": 1}), encoding="utf-8")
        status, err = run(capsys, "eval", "--config", config, "--bundle", bundle, *DATA,
                          "--solver", "asdn", "--params", trained / "params.json",
                          "--out", tmp_path / "out")
        assert status == 3
        assert "'n_stages'" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_sweep(self, capsys, bundle, trained, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"net_params": str(trained / "params.json")}),
                          encoding="utf-8")
        status, err = run(capsys, "sweep", "--config", config, "--bundle", bundle, *DATA,
                          "--solver", "asdn", "--param", "n_stages", "--grid", "1,2",
                          "--runs", 1, "--out", tmp_path / "out")
        assert status == 3
        assert "'n_stages'" in err["message"]


@pytest.mark.parametrize("command, config, argv", [
    ("eval", {"n_stages": 0}, []),
    ("eval", {"n_stages": -3}, []),
    ("sweep", {}, ["--param", "n_stages", "--grid", "0,2"]),
])
def test_network_depth_below_one_is_config_error(capsys, monkeypatch, bundle, tmp_path,
                                                 command, config, argv):
    def no_bundle(*args, **kwargs):
        raise AssertionError("the bundle was read")
    monkeypatch.setattr(cli, "load_bundle", no_bundle)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    status, err = run(capsys, command, "--config", path, "--bundle", bundle, *DATA,
                      "--solver", "asdn", *argv, "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert "n_stages (network depth) must be >= 1" in err["message"]
    assert not (tmp_path / "out").exists()


def test_split_json_is_one_line(capsys, bundle, trained, tmp_path):
    status, _ = run(capsys, "split", "--bundle", bundle, *DATA, "--seed", 3,
                    "--out", tmp_path)
    assert status == 0
    for path in (trained / "split.json", tmp_path / "split.json"):
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert read_json(path) == make_split(tiny_cube(), 0.2, 0.25, 3).to_json()


def write_pixel_csv(path):
    cube = tiny_cube()
    rows = [",".join(map(repr, spectrum.tolist())) + f",{label}"
            for spectrum, label in zip(cube.spectra.T, cube.labels[0])]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return cube


class TestIngest:
    def test_csv_to_bundle_then_validate(self, capsys, tmp_path):
        cube = write_pixel_csv(tmp_path / "pixels.csv")
        status, err = run(capsys, "ingest", "--csv", tmp_path / "pixels.csv",
                          "--bundle", tmp_path / "bundle", "--out", tmp_path / "a")
        assert (status, err) == (0, None)
        loaded = load_bundle(tmp_path / "bundle")
        assert np.array_equal(loaded.spectra, cube.spectra)
        assert np.array_equal(loaded.labels, cube.labels)

        status, err = run(capsys, "ingest", "--bundle", tmp_path / "bundle",
                          "--out", tmp_path / "b")
        assert (status, err) == (0, None)
        summary = read_json(tmp_path / "b" / "summary.json")
        assert summary == read_json(tmp_path / "a" / "summary.json")
        assert (summary["bands"], summary["classes"]) == (12, 3)
        assert summary["class_counts"] == {"1": 20, "2": 20, "3": 20}

    @pytest.mark.parametrize("text, message", [
        ("0.5,0.25,-1\n", "negative label -1"),
        # labels.bin holds int32: 2**32 + 2 would be ingested as class 2
        ("0.5,0.25,1\n0.5,0.25,4294967298\n", "pixels.csv:2: label 4294967298 exceeds 2**31 - 1"),
        ("0.5,abc,1\n", "malformed row"),
        ("0.5,0.25,1.5\n", "malformed row"),
        ("\n,\n", "no pixel rows"),
        ("0.5,nan,1\n", "non-finite values"),
        ("0.5,0.25,1\n0.5,1\n", "inconsistent column counts"),
        ("1\n", "at least one band column"),
    ])
    def test_malformed_csv(self, capsys, tmp_path, text, message):
        (tmp_path / "pixels.csv").write_text(text, encoding="utf-8")
        status, err = run(capsys, "ingest", "--csv", tmp_path / "pixels.csv",
                          "--bundle", tmp_path / "bundle", "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert message in err["message"]
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "bundle").exists()

    def test_csv_whose_labels_skip_a_class(self, capsys, tmp_path):
        # a bundle no split can be drawn from is refused before it is written
        write_pixel_csv(tmp_path / "pixels.csv")
        rows = (tmp_path / "pixels.csv").read_text(encoding="utf-8").splitlines()
        rows = [row[:-2] + ",3" if row.endswith(",2") else row for row in rows]
        (tmp_path / "pixels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        status, err = run(capsys, "ingest", "--csv", tmp_path / "pixels.csv",
                          "--bundle", tmp_path / "bundle", "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert "class 2 has no labeled pixels" in err["message"]
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "bundle").exists()

    def test_missing_csv(self, capsys, tmp_path):
        status, err = run(capsys, "ingest", "--csv", tmp_path / "missing.csv",
                          "--bundle", tmp_path / "bundle", "--out", tmp_path / "out")
        assert status == 3
        assert "csv file not found" in err["message"]
        assert not (tmp_path / "bundle").exists()


class TestGradcheck:
    def test_passes_at_defaults(self, capsys, tmp_path):
        status, err = run(capsys, "gradcheck", "--out", tmp_path)
        assert (status, err) == (0, None)
        doc = read_json(tmp_path / "gradcheck.json")
        assert 0.0 <= doc["max_rel_error"] <= 1e-5
        assert sorted(doc) == ["eta_rel_error", "loss", "max_rel_error", "rho_rel_error",
                               "tau_rel_error", "zero_gradient"]
        assert sorted(doc["zero_gradient"]) == ["eta", "rho", "tau"]
        assert [len(doc["rho_rel_error"]), len(doc["zero_gradient"]["tau"])] == [6, 5]

    def test_fails_above_tolerance(self, capsys, tmp_path):
        status, err = run(capsys, "gradcheck", "--tol", "1e-300", "--out", tmp_path)
        assert status == 1
        assert "gradient check failed" in err["message"]
        # the one write on a failure: the errors show why the check failed
        assert sorted(path.name for path in tmp_path.iterdir()) == ["gradcheck.json",
                                                                   "manifest.json"]

    def test_failing_check_prints_only_the_error(self, capsys, tmp_path):
        assert cli.run(["gradcheck", "--tol", "0", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in (captured.out + captured.err).splitlines()]
        assert [line["status"] for line in lines] == ["error"]
        assert "gradient check failed" in lines[0]["message"]


def run_ok(capsys, *argv):
    """One CLI run that must succeed: exit 0, nothing on stderr, and exactly
    one JSON line on stdout, with "status" "ok"."""
    status = cli.run([str(a) for a in argv])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["status"] == "ok"


# every run shape on the tiny bundle; {params} is the trained fixture's network
RUN_SHAPES = {
    "split": ["split", "--bundle", "{bundle}", *DATA, "--seed", 3],
    "train": ["train", "--bundle", "{bundle}", *DATA, "--stages", 2, "--epochs", 1,
              "--batch-size", 6, "--init-eta", 0.01],
    "eval-omp": ["eval", "--bundle", "{bundle}", *DATA, "--solver", "omp", "--K", 2],
    "eval-asdn": ["eval", "--bundle", "{bundle}", *DATA, "--solver", "asdn",
                  "--params", "{params}"],
    "eval-fista": ["eval", "--bundle", "{bundle}", *DATA, "--solver", "fista",
                   "--lam", 0.05, "--max-iters", 50],
    "sweep": ["sweep", "--bundle", "{bundle}", *DATA, "--solver", "omp", "--param", "k",
              "--grid", "1,2", "--runs", 2],
    "gradcheck": ["gradcheck"],
    "ingest": ["ingest", "--bundle", "{bundle}"],
}


@pytest.mark.parametrize("shape", RUN_SHAPES)
def test_run_replays_from_its_manifest(capsys, bundle, trained, tmp_path, shape):
    """A run's manifest config, given back as --config, reproduces every
    output byte for byte and the same manifest apart from "out"."""
    argv = [str(a).format(bundle=bundle, params=trained / "params.json")
            for a in RUN_SHAPES[shape]]
    first, again = tmp_path / "first", tmp_path / "again"
    run_ok(capsys, *argv, "--out", first)
    manifest = read_json(first / "manifest.json")
    (tmp_path / "config.json").write_text(json.dumps(manifest["config"]), encoding="utf-8")
    run_ok(capsys, argv[0], "--config", tmp_path / "config.json", "--out", again)

    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
    replayed = read_json(again / "manifest.json")
    assert (manifest["config"].pop("out"), replayed["config"].pop("out")) == (str(first),
                                                                             str(again))
    assert replayed == manifest


class TestNoOutAfterAFailure:
    def test_diverged_training(self, capsys, tmp_path):
        # one training pixel of 1e200, kept raw: its residual overflows
        cube = tiny_cube()
        spectra = cube.spectra.copy()
        spectra[:, make_split(cube, 0.2, 0.25, 3).train_flat()[0]] = 1e200
        save_bundle(LabeledCube(cube.labels, spectra), tmp_path / "bundle")
        status, err = run(capsys, "train", "--bundle", tmp_path / "bundle", *DATA, "--seed", 3,
                          "--no-normalize", "--stages", 2, "--epochs", 1, "--batch-size", 6,
                          "--init-eta", 0.01, "--out", tmp_path / "out")
        assert (status, err["kind"]) == (1, "runtime")
        assert err["message"].startswith(f"{TrainingDiverged.__name__}: ")
        assert not (tmp_path / "out").exists()

    def test_failed_grad_check(self, capsys, monkeypatch, tmp_path):
        def failing(*args, **kwargs):
            raise FloatingPointError("overflow encountered in the forward pass")
        monkeypatch.setattr(cli, "grad_check", failing)
        status, err = run(capsys, "gradcheck", "--out", tmp_path / "out")
        assert (status, err["kind"]) == (1, "runtime")
        assert "overflow encountered in the forward pass" in err["message"]
        assert not (tmp_path / "out").exists()


class TestOneClassPrediction:
    """eval warns when every test pixel gets one class while the truth has more."""

    def test_collapsed_eval_warns(self, bundle, tmp_path):
        # at lam 10 every code is zero, so every residual ties and class 1 wins
        with pytest.warns(UserWarning, match="every prediction is class 1, while the truth "
                                             "covers 3 classes"):
            assert cli.run(["eval", "--bundle", str(bundle), *DATA, "--solver", "fista",
                            "--lam", "10", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "report.json")["confusion"][1][0] == 12

    def test_eval_that_separates_classes_is_quiet(self, bundle, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["eval", "--bundle", str(bundle), *DATA, "--solver", "omp",
                            "--K", "2", "--out", str(tmp_path)]) == 0


class TestReport:
    @pytest.fixture
    def report_path(self, tmp_path):
        report = evaluate([1, 2, 2, 3, 3, 3], [1, 2, 3, 3, 3, 1], 3)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report.to_json()), encoding="utf-8")
        return path

    def test_prints_summary_line(self, capsys, report_path):
        assert cli.run(["report", "--report", str(report_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "classes: 3  samples: 6"
        assert lines[-1] == "OA 66.67%  AA 72.22%  kappa 47.83"  # kappa = 11/23

    def test_csv_rows(self, capsys, report_path, tmp_path):
        status, err = run(capsys, "report", "--report", report_path,
                          "--csv", tmp_path / "classes.csv")
        assert (status, err) == (0, None)
        rows = (tmp_path / "classes.csv").read_text(encoding="utf-8").splitlines()
        assert rows == ["class,accuracy_percent,n", "1,50.0,2", "2,100.0,1",
                        "3,66.6666666667,3"]

    def test_out_gets_a_manifest(self, capsys, report_path, tmp_path):
        status, err = run(capsys, "report", "--report", report_path, "--out", tmp_path / "out")
        assert (status, err) == (0, None)
        manifest = read_json(tmp_path / "out" / "manifest.json")
        assert manifest["command"] == "report"
        assert manifest["inputs"] == {str(report_path): sha256(report_path)}

    def test_missing_report(self, capsys, tmp_path):
        status, err = run(capsys, "report", "--report", tmp_path / "missing.json")
        assert status == 3
        assert "report file not found" in err["message"]

    def test_report_that_is_not_json(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{oa: 1", encoding="utf-8")
        status, err = run(capsys, "report", "--report", path, "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert f"report file {path} is malformed" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [
        {"confusion": [1, 2], "per_class_acc": [1.0, 1.0]},
        {"confusion": [[1, 0], [0, 1]], "per_class_acc": [1.0]},
        {"confusion": [[1, 0], [0, 1]], "per_class_acc": [[1.0], [1.0]]},
        {"confusion": [[1, 0, 0], [0, 1, 0]], "per_class_acc": [1.0, 1.0]},
        {"confusion": [], "per_class_acc": []},
        {"confusion": [[1, 0], [0, 1.5]], "per_class_acc": [1.0, 1.0]},
        {"confusion": [[1, 0], [0, True]], "per_class_acc": [1.0, 1.0]},
        {"confusion": [[1, -1], [0, 1]], "per_class_acc": [1.0, 1.0]},
        {"confusion": [[1, 0], [0]], "per_class_acc": [1.0, 1.0]},
    ], ids=["1-D-confusion", "one-accuracy-for-two-classes", "2-D-accuracies",
            "non-square-confusion", "no-classes", "fractional-count", "bool-count",
            "negative-count", "ragged-confusion"])
    def test_report_no_evaluate_could_make(self, capsys, tmp_path, doc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**doc, "oa": 1, "aa": 1, "kappa": 1}), encoding="utf-8")
        status, err = run(capsys, "report", "--report", path, "--out", tmp_path / "out")
        assert (status, err["kind"]) == (3, "config")
        assert str(path) in err["message"]
        assert re.search("confusion|per_class_acc", err["message"])
        assert capsys.readouterr().out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [
        {"confusion": [[3, 1], [0, 4]], "per_class_acc": [7.5, -1.0], "oa": "nan", "aa": True,
         "kappa": 1e308},
        {"confusion": [[3, 0], [0, 4]], "per_class_acc": [1.0, 1.0], "oa": 0.5, "aa": 1.0,
         "kappa": 1.0},
    ], ids=["scores-out-of-range", "oa-not-the-confusions"])
    def test_scores_are_tied_to_the_confusion(self, capsys, tmp_path, doc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status = cli.run(["report", "--report", str(path), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert status == 3 and len(lines) == 1 and json.loads(lines[0])["kind"] == "config"
        message = json.loads(lines[0])["message"]
        assert message.startswith(f"report file {path} is malformed: ")
        assert re.search(r"\b(per_class_acc|oa)\b", message.split("malformed: ")[1])
        assert out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("per_class_acc", [0.5, 1.0, 7.5]), ("per_class_acc", [0.5, 1.0, "0.6666666666666666"]),
        ("oa", float("nan")), ("oa", float("inf")), ("aa", True), ("kappa", 1e308),
        ("kappa", 11 / 23 + 1e-11), ("oa", None)])
    def test_each_score_is_checked(self, capsys, report_path, field, value):
        doc = read_json(report_path)
        doc[field] = value
        report_path.write_text(json.dumps(doc), encoding="utf-8")
        status, err = run(capsys, "report", "--report", report_path)
        assert (status, err["kind"]) == (3, "config")
        assert re.search(rf"\b{field}\b", err["message"].split("malformed: ")[1])

    def test_scores_within_rounding_of_the_confusion(self, capsys, report_path):
        doc = read_json(report_path)
        doc["kappa"] += 1e-13
        report_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(["report", "--report", str(report_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "OA 66.67%  AA 72.22%  kappa 47.83"

    def test_report_eval_wrote_prints_its_values(self, capsys, bundle, tmp_path):
        assert cli.run(["eval", "--bundle", str(bundle), *DATA, "--solver", "omp", "--K", "2",
                        "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "report.json")
        capsys.readouterr()
        assert cli.run(["report", "--report", str(tmp_path / "report.json")]) == 0
        confusion = np.array(doc["confusion"])
        want = [f"classes: {len(confusion)}  samples: {confusion.sum()}"]
        want += [f"  class {i}: accuracy {100.0 * acc:.2f}%  (n={confusion[i - 1].sum()})"
                 for i, acc in enumerate(doc["per_class_acc"], start=1)]
        want.append(f"OA {100.0 * doc['oa']:.2f}%  AA {100.0 * doc['aa']:.2f}%  "
                    f"kappa {100.0 * doc['kappa']:.2f}")
        assert capsys.readouterr().out.splitlines() == want

    def test_report_without_confusion(self, capsys, report_path):
        doc = read_json(report_path)
        del doc["confusion"]
        report_path.write_text(json.dumps(doc), encoding="utf-8")
        status, err = run(capsys, "report", "--report", report_path)
        assert (status, err["kind"]) == (3, "config")
        assert str(report_path) in err["message"] and "confusion" in err["message"]


@pytest.mark.parametrize("field, value, named", [
    ("rho", ["1", "2", "3"], "rho entry '1'"),
    ("tau", [True, 1.0], "tau entry True"),
    ("relax", True, "relax True"),
    ("relax", "1.5", "relax '1.5'"),
    ("n_stages", 2.0, "n_stages 2.0"),
    ("n_stages", "2", "n_stages '2'"),
])
@pytest.mark.parametrize("route", ["params", "net"])
def test_network_field_that_is_not_a_json_number(capsys, bundle, trained, tmp_path,
                                                  field, value, named, route):
    """A --params file or a config "net" record whose group entry or relax is
    not a JSON number, or whose n_stages is not a JSON integer, is a config
    error."""
    doc = {**read_json(trained / "params.json"), field: value}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc if route == "params" else {"net": doc}), encoding="utf-8")
    flag = "--params" if route == "params" else "--config"
    status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "asdn",
                      flag, path, "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert named in err["message"]
    if route == "net":
        assert "bad value for net" in err["message"]
    assert not (tmp_path / "out").exists()


def test_params_file_without_eta(capsys, bundle, trained, tmp_path):
    doc = read_json(trained / "params.json")
    del doc["eta"]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "asdn",
                      "--params", path, "--out", tmp_path / "out")
    assert (status, err["kind"]) == (3, "config")
    assert str(path) in err["message"] and "eta" in err["message"]
    assert not (tmp_path / "out").exists()


# each subcommand's flags, as the hand-written parser declared them
HELP_FLAGS = {
    "ingest": "--bundle --config --csv --out",
    "split": "--bundle --config --dict-frac --out --seed --train-frac",
    "train": "--batch-size --bundle --config --dict-frac --epochs --init-eta --init-rho "
             "--init-tau --lr --no-normalize --normalize --out --seed --split --stages "
             "--train-frac --train-seed",
    "eval": "--K --S --bundle --config --dict-frac --lam --lambda --max-iters "
            "--no-normalize --normalize --out --params --relax --rho --seed --solver "
            "--split --step --tau --tol --train-frac",
    "sweep": "--K --S --base-seed --bundle --config --dict-frac --grid --lam --lambda "
             "--max-iters --no-normalize --normalize --out --param --relax --rho --runs "
             "--solver --step --tau --tol --train-frac",
    "gradcheck": "--atoms --bands --classes --config --fd-step --out --seed --stages --tol",
    "report": "--config --csv --out --report",
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_returns_zero_and_lists_the_flags(capsys, command):
    assert cli.run([command, "--help"]) == 0
    listed = set()
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):  # an option row: "  -h, --help  text"
            invocation = re.split(r"\s{2,}", line.strip())[0]
            listed.update(part.split()[0] for part in invocation.split(", "))
    assert listed == {"-h", "--help", *HELP_FLAGS[command].split()}


@pytest.mark.parametrize("argv, status", [([], 2), (["split"], 3)])
def test_main_exits_with_the_run_status(capsys, monkeypatch, argv, status):
    monkeypatch.setattr(sys, "argv", ["srckit", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == status


def test_import_leaves_scipy_out():
    # importing scipy.linalg once took about half of every CLI run's fixed cost
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = "import sys, srckit, srckit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_package_exports_exactly_the_names_it_binds():
    tree = ast.parse(Path(srckit.__file__).read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    assert sorted(srckit.__all__) == sorted(name for name in bound if not name.startswith("_"))
    assert [name for name in srckit.__all__ if not hasattr(srckit, name)] == []


def test_src_holds_no_test_only_code():
    """Every public top-level function and class of srckit's modules, and
    every public method of those classes, is named (as a Name or an
    attribute) by srckit's own modules, __init__ aside, or by perfbench/. A
    solver reached by its name through classify.SOLVER_MODULES counts."""
    package = Path(srckit.__file__).parent
    defined = []  # (where, name)
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
    users = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    users += (Path(__file__).parents[1] / "perfbench").glob("*.py")
    named = set(classify.SOLVER_MODULES)
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = sorted(where for where, name in defined
                    if not name.startswith("_") and name not in named)
    assert unused == [], (f"only the tests use {unused}: move each into tests/, "
                          "or call it from src/")


# (key, command or None for every command that reads it, function, parameter);
# train_seed is left out: the CLI's None means "the split seed"
LIBRARY_DEFAULTS = [
    ("learning_rate", None, train, "learning_rate"),
    ("epochs", None, train, "epochs"),
    ("batch_size", None, train, "batch_size"),
    ("init_rho", None, NetParams.default, "rho"),
    ("init_eta", None, NetParams.default, "eta"),
    ("init_tau", None, NetParams.default, "tau"),
    ("stages", "train", NetParams.default, "n_stages"),
    ("bands", None, gradcheck_instance, "n_bands"),
    ("atoms", None, gradcheck_instance, "n_atoms"),
    ("n_classes", None, gradcheck_instance, "n_classes"),
    ("stages", "gradcheck", gradcheck_instance, "n_stages"),
    ("fd_step", None, grad_check, "step"),
    ("dict_frac", None, make_split, "dict_frac"),
    ("train_frac", None, make_split, "train_frac"),
    ("dict_frac", None, draw_splits, "dict_frac"),
    ("train_frac", None, draw_splits, "train_frac"),
    ("runs", None, draw_splits, "runs"),
    ("base_seed", None, draw_splits, "base_seed"),
]


@pytest.mark.parametrize("key, command, function, parameter", LIBRARY_DEFAULTS)
def test_cli_default_equals_the_library_default(key, command, function, parameter):
    default = inspect.signature(function).parameters[parameter].default
    commands = cli.KEYS[key].commands
    taken = [commands[command]] if command else list(commands.values())
    assert taken and all(value == default for value in taken), (key, commands, default)
