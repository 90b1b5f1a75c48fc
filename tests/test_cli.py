"""End-to-end tests of ``cli.run`` on a tiny bundle, plus the solver table it
reads solver parameters through."""
import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest

from srckit import classify, cli, solvers
from srckit.classify import (SOLVER_PARAMS, classify_testset, evaluate,
                             make_solver, sweep)
from srckit.data import (Split, extract_pixels, load_bundle, make_split,
                         pixels_to_cube, save_bundle)
from srckit.dictionary import assemble
from srckit.network import NetParams, TrainConfig, TrainingDiverged, train
from srckit.synthetic import subspace_classes

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

    def test_runtime_failure(self, capsys, bundle, tmp_path):
        # K beyond min(bands, atoms) = 12 fails inside the solver
        status, err = run(capsys, "eval", "--bundle", bundle, *DATA, "--solver", "omp",
                          "--K", 99, "--out", tmp_path)
        assert status == 1
        assert err["kind"] == "runtime"

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

    def test_bad_config_file(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json", encoding="utf-8")
        status, err = run(capsys, "eval", "--config", config)
        assert status == 3
        assert err["kind"] == "config"


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
                            {"net": NetParams.load(params_path)})
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

    def test_id_outside_cube(self, capsys, bundle, tmp_path):
        def outside(doc):
            doc["test_ids"]["3"].append(10_000)
        status, err = self.eval_with(capsys, bundle, tmp_path,
                                     self.write_split(tmp_path, outside))
        assert status == 3
        assert "outside" in err["message"]

    def test_saved_split_is_accepted(self, capsys, bundle, tmp_path):
        status, _ = self.eval_with(capsys, bundle, tmp_path,
                                   self.write_split(tmp_path, lambda doc: None))
        assert status == 0


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

    def test_sweep_fails_before_drawing_a_split(self, monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn")
        monkeypatch.setattr(classify, "make_split", no_split)
        with pytest.raises(ValueError, match="'k'"):
            sweep(tiny_cube(), "fista", "k", [1, 2], runs=1)
        with pytest.raises(ValueError, match="'k'"):
            sweep(tiny_cube(), "omp", "tol", [1e-3], runs=1)
        with pytest.raises(ValueError, match="numeric parameter 'net'"):
            sweep(tiny_cube(), "asdn", "net", [1], runs=1)

    @pytest.mark.parametrize("name", ["omp", "sp", "romp", "gomp", "samp", "fista"])
    def test_table_lists_every_keyword(self, name):
        taken = set(inspect.signature(getattr(solvers, name)).parameters)
        assert set(SOLVER_PARAMS[name]) == taken - {"dictionary", "x", "callback"}

    def test_admm_table_lists_every_config_field(self):
        fields = {f.name for f in dataclasses.fields(solvers.AdmmConfig)}
        assert set(SOLVER_PARAMS["admm_fixed"]) == fields

    @pytest.mark.parametrize("name, params", [
        ("omp", {"k": 2, "tol": 0.5}), ("sp", {"k": 2, "tol": 0.5, "max_iters": 3}),
        ("romp", {"k": 2, "tol": 0.5}), ("gomp", {"k": 2, "s": 1, "tol": 0.5}),
        ("samp", {"step": 2, "tol": 0.5, "max_iters": 3}),
    ])
    def test_every_parameter_reaches_the_solver(self, monkeypatch, name, params):
        seen = {}
        d = assemble(np.eye(4), [1, 1, 2, 2])
        solve = make_solver(d, name, params)
        # looked up at call time, so a replacement made afterwards is called
        monkeypatch.setattr(solvers, name, lambda dictionary, x, **kw: seen.update(kw))
        solve(np.ones(4))
        assert seen == params


def test_divergence_raises_in_pool_threads():
    data = subspace_classes(5, n_classes=2, dim=16, sub_dim=3, n_dict=5,
                            n_train=12, n_test=5, noise=0.01)
    d = assemble(data.dict_pixels, data.dict_labels)
    px = data.train_pixels.copy()
    px[:, 0] = 1e200
    cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=4, seed=6)
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(d, px, data.train_labels, cfg, threads=2)


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
            for spectrum, label in zip(cube.data[0], cube.labels[0])]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return cube


class TestIngest:
    def test_csv_to_bundle_then_validate(self, capsys, tmp_path):
        cube = write_pixel_csv(tmp_path / "pixels.csv")
        status, err = run(capsys, "ingest", "--csv", tmp_path / "pixels.csv",
                          "--bundle", tmp_path / "bundle", "--out", tmp_path / "a")
        assert (status, err) == (0, None)
        loaded = load_bundle(tmp_path / "bundle")
        assert np.array_equal(loaded.data, cube.data)
        assert np.array_equal(loaded.labels, cube.labels)

        status, err = run(capsys, "ingest", "--bundle", tmp_path / "bundle",
                          "--out", tmp_path / "b")
        assert (status, err) == (0, None)
        summary = read_json(tmp_path / "b" / "summary.json")
        assert summary == read_json(tmp_path / "a" / "summary.json")
        assert (summary["bands"], summary["classes"]) == (12, 3)
        assert summary["class_counts"] == {"1": 20, "2": 20, "3": 20}

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

    def test_fails_above_tolerance(self, capsys, tmp_path):
        status, err = run(capsys, "gradcheck", "--tol", "1e-300", "--out", tmp_path)
        assert status == 1
        assert "gradient check failed" in err["message"]


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

    def test_missing_report(self, capsys, tmp_path):
        status, err = run(capsys, "report", "--report", tmp_path / "missing.json")
        assert status == 3
        assert "report file not found" in err["message"]
