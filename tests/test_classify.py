import warnings
from fractions import Fraction

import numpy as np
import pytest

from srckit import solvers
from srckit.classify import (ClassificationReport, check_fit, check_sweep, classify_testset,
                             evaluate, solver_kwargs, src_decide, sweep)
from srckit.data import LabeledCube, draw_splits, pixels_to_cube
from srckit.dictionary import assemble
from srckit.network import NetParams
from srckit.solvers import SparseCode
from synthetic_problems import subspace_classes


def brute_force_kappa(confusion):
    """Expected-agreement by exhaustive pair enumeration (independent of the
    marginal-product formula)."""
    truth, pred = [], []
    c = confusion.shape[0]
    for i in range(c):
        for j in range(c):
            truth.extend([i] * confusion[i, j])
            pred.extend([j] * confusion[i, j])
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n = len(truth)
    p_o = float((truth == pred).sum()) / n
    p_e = float((truth[:, None] == pred[None, :]).sum()) / (n * n)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


class TestSrcDecide:
    def test_argmin_class(self):
        data = subspace_classes(0, n_classes=3, dim=20, sub_dim=3, n_dict=5,
                                n_train=1, n_test=1, noise=0.0)
        d = assemble(data.dict_pixels, data.dict_labels)
        x = data.test_pixels[:, 1]  # a class-2 pixel
        assert src_decide(d, solvers.omp(d, x, 3), x) == 2

    def test_tie_breaks_to_lowest_class(self):
        # identical sub-dictionaries and a zero code: all residuals equal
        atoms = np.tile(np.eye(3), (1, 2))
        d = assemble(atoms, [1, 1, 1, 2, 2, 2])
        x = np.array([1.0, 0.0, 0.0])
        code = SparseCode(np.zeros(6))
        assert src_decide(d, code, x) == 1

    def test_scale_invariance(self):
        data = subspace_classes(1, n_classes=2, dim=12, sub_dim=3, n_dict=4,
                                n_train=1, n_test=3, noise=0.01)
        d = assemble(data.dict_pixels, data.dict_labels)
        x = data.test_pixels[:, 0]
        code = solvers.omp(d, x, 3)
        scaled = SparseCode(code.coeffs * 4.5)
        assert src_decide(d, code, x) == src_decide(d, scaled, 4.5 * x)

    def test_matches_projection_oracle(self):
        data = subspace_classes(2, n_classes=3, dim=30, sub_dim=4, n_dict=6,
                                n_train=1, n_test=34, noise=0.01)
        d = assemble(data.dict_pixels, data.dict_labels)
        for j in range(100):
            x = data.test_pixels[:, j % data.test_pixels.shape[1]]
            residuals = []
            for c in range(1, 4):
                sub = d.atoms[:, d.class_slice(c)]
                coef = np.linalg.lstsq(sub, x, rcond=None)[0]
                residuals.append(np.linalg.norm(x - sub @ coef))
            assert src_decide(d, solvers.omp(d, x, 4), x) == int(np.argmin(residuals)) + 1


class TestEvaluate:
    def test_perfect_agreement(self):
        report = evaluate([1, 2, 3, 1], [1, 2, 3, 1], 3)
        assert report.oa == 1.0 and report.aa == 1.0 and report.kappa == 1.0

    def test_hand_worked_example(self):
        report = evaluate(pred=[1, 2, 2, 2], truth=[1, 1, 2, 2], n_classes=2)
        assert report.confusion.tolist() == [[1, 1], [0, 2]]
        assert report.oa == 0.75
        assert report.aa == 0.75
        assert report.kappa == pytest.approx(0.5, abs=1e-15)

    def test_constant_prediction_is_chance_level(self):
        report = evaluate([1, 1, 1, 1], [1, 1, 2, 2], 2)
        assert report.oa == 0.5
        assert report.kappa == pytest.approx(0.0, abs=1e-15)

    def test_kappa_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            confusion = rng.integers(0, 21, size=(c, c))
            while confusion.sum() == 0 or (confusion.sum(axis=1) == 0).any():
                confusion = rng.integers(0, 21, size=(c, c))
            pred, truth = [], []
            for i in range(c):
                for j in range(c):
                    truth.extend([i + 1] * confusion[i, j])
                    pred.extend([j + 1] * confusion[i, j])
            report = evaluate(pred, truth, c)
            assert report.kappa == pytest.approx(brute_force_kappa(confusion),
                                                 abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(1, 4, 60)
        pred = rng.integers(1, 4, 60)
        base = evaluate(pred, truth, 3)
        perm = rng.permutation(60)
        shuffled = evaluate(pred[perm], truth[perm], 3)
        assert np.array_equal(base.confusion, shuffled.confusion)
        assert base.kappa == shuffled.kappa

    def test_scores_of_counts_whose_products_pass_int64(self):
        confusion = [[4_000_000_000, 1], [2, 4_000_000_000]]
        total, rows = sum(map(sum, confusion)), [sum(row) for row in confusion]
        cols = [sum(col) for col in zip(*confusion)]
        oa = Fraction(8_000_000_000, total)
        p_e = Fraction(sum(r * c for r, c in zip(rows, cols)), total ** 2)
        doc = {"confusion": confusion, "per_class_acc": [4e9 / rows[0], 4e9 / rows[1]],
               "oa": float(oa), "aa": (4e9 / rows[0] + 4e9 / rows[1]) / 2,
               "kappa": float((oa - p_e) / (1 - p_e))}
        report = ClassificationReport.from_json(doc)
        assert report.kappa == pytest.approx(doc["kappa"], abs=1e-15)

    def test_one_class_prediction_warns(self):
        with pytest.warns(UserWarning, match="every prediction is class 2, while the truth "
                                             "covers 3 classes"):
            evaluate([2, 2, 2], [1, 2, 3], 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate([1, 2, 2], [1, 1, 2], 2)  # two classes predicted
            evaluate([1, 1], [1, 1], 1)  # the truth is one class too

    def test_absent_class_warns_and_counts_zero(self):
        with pytest.warns(UserWarning, match="absent"):
            report = evaluate([1, 1], [1, 1], 2)
        assert report.per_class_acc.tolist() == [1.0, 0.0]
        assert report.aa == 0.5

    def test_errors(self):
        with pytest.raises(ValueError, match="evaluate"):
            evaluate([], [], 2)
        with pytest.raises(ValueError, match="labels"):
            evaluate([1, 3], [1, 1], 2)
        with pytest.raises(ValueError, match="predictions"):
            evaluate([1], [1, 1], 2)

    def test_json_round_trip(self):
        report = evaluate([1, 2, 2, 2], [1, 1, 2, 2], 2)
        back = ClassificationReport.from_json(report.to_json())
        assert np.array_equal(back.confusion, report.confusion)
        assert back.kappa == report.kappa
        assert set(report.to_json()) == {"confusion", "per_class_acc", "oa", "aa", "kappa"}


class TestClassifyTestset:
    @pytest.fixture(scope="class")
    def problem(self):
        data = subspace_classes(3, n_classes=3, dim=30, sub_dim=4, n_dict=6,
                                n_train=1, n_test=20, noise=0.01)
        return assemble(data.dict_pixels, data.dict_labels), data

    def test_high_accuracy_on_synthetic(self, problem):
        d, data = problem
        pred = classify_testset(d, data.test_pixels, "omp", {"k": 4})
        report = evaluate(pred, data.test_labels, 3)
        assert report.oa >= 0.99

    def test_every_solver_name_runs(self, problem):
        d, data = problem
        px = data.test_pixels[:, :4]
        for name, params in [
            ("omp", {"k": 3}), ("sp", {"k": 3}), ("romp", {"k": 3}),
            ("gomp", {"k": 3, "s": 2}), ("samp", {"step": 1}),
            ("fista", {"lam": 0.05}), ("admm_fixed", {"lam": 0.05}),
            ("asdn", {"net": NetParams.default(5)}),
        ]:
            pred = classify_testset(d, px, name, params)
            assert pred.shape == (4,)
            assert set(pred.tolist()) <= {1, 2, 3}

    def test_unknown_solver(self, problem):
        d, data = problem
        with pytest.raises(ValueError, match="unknown solver"):
            classify_testset(d, data.test_pixels, "magic", {})

    def test_empty_testset(self, problem):
        d, _ = problem
        with pytest.raises(ValueError, match="empty"):
            classify_testset(d, np.zeros((30, 0)), "omp", {"k": 3})

    def test_order_and_chunking_independence(self, problem):
        d, data = problem
        px = data.test_pixels[:, :12]
        serial = classify_testset(d, px, "omp", {"k": 4})
        threaded = classify_testset(d, px, "omp", {"k": 4})
        assert np.array_equal(serial, threaded)
        perm = np.random.default_rng(0).permutation(12)
        permuted = classify_testset(d, px[:, perm], "omp", {"k": 4})
        assert np.array_equal(permuted, serial[perm])


def make_cube(seed=4) -> LabeledCube:
    data = subspace_classes(seed, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                            n_train=20, n_test=30, noise=0.01)
    pixels = np.hstack([data.dict_pixels, data.train_pixels, data.test_pixels])
    labels = np.concatenate([data.dict_labels, data.train_labels,
                             data.test_labels])
    return pixels_to_cube(pixels, labels)


class TestSweep:
    def test_degenerate_sweep_equals_single_run(self):
        from srckit.data import extract_pixels, make_split
        cube = make_cube()
        result = sweep(cube, "omp", "k", [3], draw_splits(cube, 1, 5, 0.1, 0.2))
        split = make_split(cube, 0.1, 0.2, seed=5)
        dp, dl = extract_pixels(cube, split.dictionary_flat(), True)
        d = assemble(dp, dl)
        tp, tl = extract_pixels(cube, split.test_flat(), True)
        report = evaluate(classify_testset(d, tp, "omp", {"k": 3}), tl, 3)
        assert result.oa_mean[0] == report.oa
        assert result.kappa_mean[0] == report.kappa
        assert result.oa_std[0] == 0.0

    def test_grid_curve_with_std(self):
        cube = make_cube()
        result = sweep(cube, "omp", "k", range(1, 6), draw_splits(cube, 2, 0, 0.1, 0.2))
        assert len(result.grid) == 5
        assert result.oa_mean.shape == (5,)
        assert np.isfinite(result.oa_std).all()
        assert result.seeds == [0, 1]

    def test_default_runs_is_five(self):
        import inspect
        assert inspect.signature(draw_splits).parameters["runs"].default == 5

    def test_error_names_grid_value(self):
        cube = make_cube()
        with pytest.raises(solvers.SizeError, match="k=99"):
            sweep(cube, "omp", "k", [99], draw_splits(cube, 1, 0, 0.1, 0.2))

    def test_coding_failure_names_grid_value(self, monkeypatch):
        def failing(dictionary, x, **kwargs):
            raise FloatingPointError("overflow while coding")
        monkeypatch.setattr(solvers, "fista", failing)
        with pytest.raises(RuntimeError, match="sweep failed at lam=0.5: overflow") as info:
            sweep(make_cube(), "fista", "lam", [0.5], draw_splits(make_cube(), 1, 0, 0.1, 0.2))
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_empty_grid_and_no_runs(self):
        with pytest.raises(ValueError, match="parameter grid is empty"):
            sweep(make_cube(), "omp", "k", [], draw_splits(make_cube(), 1))
        with pytest.raises(ValueError, match="runs must be >= 1, got 0"):
            draw_splits(make_cube(), 0)
        with pytest.raises(ValueError, match="sweep needs at least one split"):
            sweep(make_cube(), "omp", "k", [2], [])

    def test_csv_format(self):
        cube = make_cube()
        result = sweep(cube, "omp", "k", [2, 3], draw_splits(cube, 2, 0, 0.1, 0.2))
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "value,oa_mean,oa_std,aa_mean,aa_std,kappa_mean,kappa_std"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 2.0
        assert 0.0 <= float(first[1]) <= 100.0  # percent scale
        fields = (result.oa_mean, result.oa_std, result.aa_mean, result.aa_std,
                  result.kappa_mean, result.kappa_std)
        assert first[1:] == [repr(round(100.0 * float(field[0]), 10)) for field in fields]

    def test_draws_each_split_once(self, monkeypatch):
        from srckit import classify, data, dictionary
        calls = {"make_split": 0, "assemble": 0, "gram": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(data, "make_split", counted("make_split", data.make_split))
        monkeypatch.setattr(classify, "assemble", counted("assemble", classify.assemble))
        monkeypatch.setattr(dictionary.GramCache, "__init__",
                            counted("gram", dictionary.GramCache.__init__))
        # one Gram per draw for a solver that solves with it, none otherwise
        for solver, parameter, grid, params, grams in [
                ("omp", "k", [2, 3, 4], None, 0),
                ("admm_fixed", "lam", [0.01, 0.1, 1.0], {"max_iters": 20}, 2)]:
            calls.update(make_split=0, assemble=0, gram=0)
            cube = make_cube()
            sweep(cube, solver, parameter, grid, draw_splits(cube, 2, 0, 0.1, 0.2), params=params)
            assert calls == {"make_split": 2, "assemble": 2, "gram": grams}, solver

    def test_json_round_trip(self):
        cube = make_cube()
        result = sweep(cube, "omp", "k", [2], draw_splits(cube, 1, 0, 0.1, 0.2))
        doc = result.to_json()
        assert doc["parameter"] == "k"
        assert len(doc["grid"]) == 1
        assert set(doc) == {"parameter", "grid", "oa_mean", "oa_std", "aa_mean", "aa_std",
                            "kappa_mean", "kappa_std", "seeds"}


def test_gram_built_only_for_solvers_that_solve_with_it(monkeypatch):
    from srckit import dictionary as dictionary_module

    def no_gram(dictionary):
        raise AssertionError("GramCache built for a solver that never solves with it")

    data = subspace_classes(3, n_classes=3, dim=30, sub_dim=4, n_dict=6,
                            n_train=1, n_test=2, noise=0.01)
    d = assemble(data.dict_pixels, data.dict_labels)
    monkeypatch.setattr(dictionary_module, "GramCache", no_gram)
    for name, params in [("omp", {"k": 3}), ("fista", {"lam": 0.05, "max_iters": 20})]:
        assert classify_testset(d, data.test_pixels, name, params).shape == (6,)
    with pytest.raises(AssertionError, match="GramCache built"):
        classify_testset(d, data.test_pixels, "asdn", {"n_stages": 1})


def test_asdn_net_with_n_stages_raises():
    data = subspace_classes(3, n_classes=2, dim=10, sub_dim=2, n_dict=3,
                            n_train=1, n_test=1, noise=0.01)
    d = assemble(data.dict_pixels, data.dict_labels)
    with pytest.raises(ValueError, match="'n_stages'"):
        classify_testset(d, data.test_pixels, "asdn", {"net": NetParams.default(9), "n_stages": 1})


def test_integer_parameters_are_not_truncated():
    assert solver_kwargs("gomp", {"k": 4.0, "s": np.int64(2)}) == {"k": 4, "s": 2}
    assert type(solver_kwargs("omp", {"k": 2.0})["k"]) is int
    for bad in (9.7, True, "3", float("nan"), float("inf")):
        with pytest.raises(ValueError, match="'k'"):
            solver_kwargs("omp", {"k": bad})
    check_sweep("omp", "k", None, [1.0, 2.0])
    with pytest.raises(ValueError, match="2.5"):
        check_sweep("omp", "k", None, [1.0, 2.5])


def test_real_parameters_reject_integers_too_large_for_a_float():
    assert solver_kwargs("fista", {"lam": 10**300}) == {"lam": 1e300}
    for bad in (10**400, -10**400):
        with pytest.raises(ValueError, match="'lam'"):
            solver_kwargs("fista", {"lam": bad})
    with pytest.raises(ValueError, match="finite"):
        check_sweep("admm_fixed", "rho", None, [1.0, 10**400])


def test_real_parameters_reject_booleans_strings_and_non_finite_values():
    assert solver_kwargs("fista", {"lam": np.float64(0.5), "tol": 1}) == {"lam": 0.5, "tol": 1.0}
    assert type(solver_kwargs("fista", {"tol": 1})["tol"]) is float
    for bad in (True, "0.5", float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="'lam'"):
            solver_kwargs("admm_fixed", {"lam": bad})
    check_sweep("fista", "lam", None, [0.1, 1])
    with pytest.raises(ValueError, match="nan"):
        check_sweep("fista", "lam", None, [0.1, float("nan")])


def test_network_document_without_a_field_names_net():
    doc = NetParams.default(2).to_json()
    del doc["eta"]
    with pytest.raises(ValueError, match="'net'"):
        solver_kwargs("asdn", {"net": doc})


def test_check_fit_takes_the_solver_defaults():
    # 4 bands, 3 atoms: K = 3 fits, but gomp's default S = 2 takes 2 * 2 = 4 atoms
    d = assemble(np.eye(4)[:, :3], [1, 1, 2])
    check_fit(d, "gomp", {"k": 3, "s": 1})
    check_fit(d, "samp", {})
    for call in (lambda: check_fit(d, "gomp", {"k": 3}), lambda: solvers.gomp(d, np.ones(4), 3)):
        with pytest.raises(solvers.SizeError, match=r"S\*iterations = 4 exceeds"):
            call()
    with pytest.raises(solvers.SizeError, match="step=2 outside 1..1"):
        check_fit(d, "samp", {"step": 2})
    check_fit(d, "fista", {"lam": 0.1})
    check_fit(d, "asdn", {"n_stages": 2})
