"""Differential tests of the blocked network, greedy and l1 paths against the
per-pixel reference paths, and the hooks the benchmark harness wraps."""
import ast
import functools
import importlib
import inspect
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from srckit import dictionary, network, solvers
from srckit.classify import classify_testset, make_solver, src_decide, sweep
from srckit.data import pixels_to_cube
from srckit.dictionary import GramCache, assemble
from srckit.network import (RHO_FLOOR, NetParams, TrainConfig, backward,
                            class_residuals, forward, one_hot, train)
from srckit.synthetic import subspace_classes

# 24 atoms over 16 bands: D^T D is singular, so the rho floor is stiff
DATA = subspace_classes(7, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                        n_train=1, n_test=30, noise=0.02)
D = assemble(DATA.dict_pixels, DATA.dict_labels)
PIXELS = DATA.test_pixels
LABELS = DATA.test_labels

widths = st.integers(1, 40)
seeds = st.integers(0, 2**32 - 1)
examples = settings(max_examples=30, deadline=None)


def random_net(rng) -> NetParams:
    stages = int(rng.integers(1, 6))
    return NetParams(rho=rng.uniform(1e-3, 3.0, stages + 1),
                     eta=rng.uniform(1e-3, 0.2, stages),
                     tau=rng.uniform(0.5, 1.5, stages),
                     relax=float(rng.uniform(0.5, 1.8)))


def pick(rng, width):
    cols = rng.choice(PIXELS.shape[1], size=width, replace=False)
    return PIXELS[:, cols], LABELS[cols]


def relative_residual(cache, rho, rhs, w):
    return np.linalg.norm(rhs - (cache.gram @ w + rho * w)) / np.linalg.norm(rhs)


@examples
@given(width=widths, seed=seeds, rho=st.sampled_from([RHO_FLOOR, 1e-3, 1.0, 30.0]))
def test_solve_block_matches_columns(width, seed, rho):
    cache = GramCache(D)
    rng = np.random.default_rng(seed)
    # tiny-norm and large columns side by side: each is held to its own target
    rhs = rng.standard_normal((D.n_atoms, width)) * 10.0 ** rng.uniform(-12, 6, width)
    block = cache.solve(rho, rhs)
    assert block.shape == rhs.shape
    conditioning = 1.0 + np.linalg.norm(cache.gram, 2) / rho
    for j in range(width):
        column = cache.solve(rho, rhs[:, j])
        got = relative_residual(cache, rho, rhs[:, j], block[:, j])
        assert got <= max(1e-12, 4.0 * relative_residual(cache, rho, rhs[:, j], column))
        assert np.linalg.norm(block[:, j] - column) <= \
            1e-13 * conditioning * np.linalg.norm(column)


def cholesky_one_round(d, rho, rhs):
    """The Cholesky solve with one refinement round the spectral kernel replaced."""
    gram = d.atoms.T @ d.atoms
    factor = cho_factor(gram + rho * np.eye(d.n_atoms), lower=False)
    w = cho_solve(factor, rhs)
    return w + cho_solve(factor, rhs - (gram @ w + rho * w))


TALL = assemble(np.random.default_rng(5).standard_normal((40, 24)), np.repeat([1, 2, 3], 8))
ZERO = assemble(np.zeros((16, 24)), np.repeat([1, 2, 3], 8))


@examples
@given(d=st.sampled_from([D, TALL, ZERO]), width=widths, seed=seeds,
       rho=st.sampled_from([RHO_FLOOR, 1e-3, 1.0, 30.0]))
def test_spectral_solve_matches_cholesky_with_one_round(d, width, seed, rho):
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((d.n_atoms, width)) * 10.0 ** rng.uniform(-12, 6, width)
    # at the floor a float64 residual is rounding noise as large as the
    # residual itself, and it favours the method that refined with the same
    # products; extended precision measures the residual each w really has
    atoms, b = d.atoms.astype(np.longdouble), rhs.astype(np.longdouble)

    def residuals(w):
        w = w.astype(np.longdouble)
        return np.linalg.norm((b - (atoms.T @ (atoms @ w) + rho * w)).astype(float), axis=0)

    got = residuals(GramCache(d).solve(rho, rhs))
    bound = np.maximum(1e-12 * np.linalg.norm(rhs, axis=0),
                       4.0 * residuals(cholesky_one_round(d, rho, rhs)))
    assert (got <= bound).all()


def test_misses_count_columns_above_their_own_target():
    cache = GramCache(D)
    assert cache.misses == 0
    rng = np.random.default_rng(1)
    big, small = rng.standard_normal((2, D.n_atoms))
    # at the floor every nonzero column misses 1e-12 of its own norm, however
    # small that norm is next to its neighbour's; a zero column meets it at once
    cache.solve(RHO_FLOOR, np.stack([big, 1e-12 * small], axis=1))
    assert cache.misses == 2
    cache.solve(RHO_FLOOR, np.stack([big, np.zeros(D.n_atoms)], axis=1))
    assert cache.misses == 3
    cache.solve(1.0, np.stack([big, 1e-12 * small], axis=1))
    assert cache.misses == 3
    with pytest.raises(AttributeError):
        cache.misses = 0


def test_solve_rejects_non_finite_columns():
    cache = GramCache(D)
    rhs = np.ones((D.n_atoms, 3))
    rhs[5, 2] = np.nan
    for bad in (rhs, rhs[:, 2]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            cache.solve(1.0, bad)


def test_solve_one_column_block_equals_vector_solve():
    cache = GramCache(D)
    rhs = np.random.default_rng(0).standard_normal(D.n_atoms)
    for rho in (RHO_FLOOR, 1.0):
        assert np.array_equal(cache.solve(rho, rhs[:, None])[:, 0], cache.solve(rho, rhs))


@examples
@given(width=widths, seed=seeds)
def test_forward_and_residuals_match_per_pixel(width, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x, _ = pick(rng, width)
    code, trace = forward(D, x, net)
    residuals = class_residuals(D, code, x)
    assert code.coeffs.shape == (D.n_atoms, width)
    assert residuals.shape == (D.n_classes, width)
    for j in range(width):
        one, one_trace = forward(D, x[:, j], net)
        scale = np.linalg.norm(one.coeffs) + 1e-300
        assert np.linalg.norm(code.coeffs[:, j] - one.coeffs) <= 1e-10 * scale
        for seq, one_seq in ((trace.z_seq, one_trace.z_seq), (trace.u_seq, one_trace.u_seq)):
            for got, want in zip(seq, one_seq):
                assert np.linalg.norm(got[:, j] - want) <= 1e-10 * (np.linalg.norm(want) + 1.0)
        want = class_residuals(D, one, x[:, j])
        assert np.allclose(residuals[:, j], want, rtol=1e-10, atol=1e-14)


@examples
@given(width=widths, seed=seeds)
def test_backward_block_is_sum_of_pixels(width, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x, labels = pick(rng, width)
    y = np.stack([one_hot(int(label), D.n_classes) for label in labels], axis=1)
    _, trace = forward(D, x, net)
    block = backward(D, x, y, net, trace)
    pixels = []
    for j in range(width):
        _, one_trace = forward(D, x[:, j], net)
        pixels.append(backward(D, x[:, j], y[:, j], net, one_trace))
    for name in ("d_rho", "d_eta", "d_tau"):
        terms = np.array([getattr(g, name) for g in pixels])
        # relative to the summed magnitudes, since the terms may cancel
        scale = np.abs(terms).sum(axis=0) + 1e-300
        assert (np.abs(getattr(block, name) - terms.sum(axis=0)) <= 1e-10 * scale).all(), name
    losses = [g.loss_value for g in pixels]
    assert block.loss_value == pytest.approx(sum(losses), rel=1e-10)


@examples
@given(width=widths, seed=seeds)
def test_classify_asdn_matches_per_pixel_solver(width, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x, _ = pick(rng, width)
    solve = make_solver(D, "asdn", {"net": net})
    want = [src_decide(D, solve(x[:, j]), x[:, j]) for j in range(width)]
    got = classify_testset(D, x, "asdn", {"net": net})
    assert got.dtype == np.int64
    assert got.tolist() == want


def greedy_block(rng, width, k):
    """Test pixels, some replaced by exact sparse combinations of at most k
    atoms (a 1-sparse one stops on tol after one step), zero columns and
    repeats of column 0."""
    x = pick(rng, width)[0].copy()
    kind = rng.integers(0, 4, width)
    for j in np.flatnonzero(kind == 1):
        atoms = rng.choice(D.n_atoms, size=int(rng.integers(1, k + 1)), replace=False)
        x[:, j] = D.atoms[:, atoms] @ (rng.uniform(0.5, 2.0, atoms.size)
                                       * rng.choice([-1.0, 1.0], atoms.size))
    x[:, kind == 2] = 0.0
    x[:, kind == 3] = x[:, [0]]
    return x


@examples
@given(width=widths, s=st.sampled_from([1, 2, 3]), seed=seeds)
def test_gomp_block_matches_per_pixel_growth(width, s, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    x = greedy_block(rng, width, k)
    block = solvers.gomp(D, x, k, s)
    assert block.coeffs.shape == (D.n_atoms, width)

    def top_s(correlations, floor, support):
        return solvers._top_candidates(correlations, s, floor, support)

    for j in range(width):
        want = solvers._grow(D, x[:, j], solvers.GREEDY_TOL, math.ceil(k / s),
                             top_s, sort=False)
        got = block.coeffs[:, j]
        # on an exact-sparse column, atoms picked beside the true ones get
        # roundoff-level coefficients that either path may round to zero
        tiny = 1e-10 * np.linalg.norm(want.coeffs)
        assert np.array_equal(np.flatnonzero(np.abs(got) > tiny),
                              np.flatnonzero(np.abs(want.coeffs) > tiny)), j
        assert np.linalg.norm(got - want.coeffs) <= tiny, j


@examples
@given(width=widths, seed=seeds)
def test_classify_omp_matches_per_pixel_solver(width, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    x = greedy_block(rng, width, k)
    solve = make_solver(D, "omp", {"k": k})
    want = [src_decide(D, solve(x[:, j]), x[:, j]) for j in range(width)]
    got = classify_testset(D, x, "omp", {"k": k})
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_gomp_block_stops_each_column_on_its_own():
    # a 1-sparse column meets tol after one step while its neighbour runs
    # all K steps; a zero column never starts
    x = np.stack([D.atoms[:, 5] * 2.0, PIXELS[:, 0], np.zeros(D.n_bands)], axis=1)
    code = solvers.gomp(D, x, 6, s=1)
    assert np.flatnonzero(code.coeffs[:, 0]).tolist() == [5]
    assert np.count_nonzero(code.coeffs[:, 1]) == 6
    assert not code.coeffs[:, 2].any()


def test_block_refit_falls_back_per_pixel_on_a_singular_sub_gram():
    # a zero atom makes the second sub-Gram singular, so cho_factor would
    # fail on it: the whole stack is refit as _ls_on_support refits a pixel
    atoms_s = np.stack([D.atoms[:, [0, 1]].T, np.stack([D.atoms[:, 2], np.zeros(D.n_bands)])])
    x = PIXELS[:, :2].T
    got = solvers._ls_on_supports(atoms_s, x)
    for j in range(2):
        assert np.array_equal(got[j], solvers._ls_on_support(atoms_s[j].T, x[j]))


# Block l1 codes against one-column calls of the same solver. The columns
# differ only by BLAS rounding (a product over a block against one over a
# column), so each is held to 1e-9 of ||code|| + ||x||; a 3000-seed stress
# run of these draws gave at most 1.7e-11 of ||code||. A stop decided at
# working precision (tol 0) may come an iteration apart on the two paths,
# where FISTA's iterates still move by about sqrt(eps): 1e-6 there.
L1_TOL = 1e-9
L1_TOL_AT_PRECISION = 1e-6


def l1_block(rng, width):
    """Test pixels scaled over three decades, with zero columns and repeats
    of column 0: columns that stop at different iterations."""
    x = pick(rng, width)[0] * 10.0 ** rng.uniform(-2.0, 1.0, width)
    kind = rng.integers(0, 4, width)
    x[:, kind == 2] = 0.0
    x[:, kind == 3] = x[:, [0]]
    return x


def assert_columns_match(block, solve, x, rel=L1_TOL):
    assert block.coeffs.shape == (D.n_atoms, x.shape[1])
    for j in range(x.shape[1]):
        want = solve(x[:, j]).coeffs
        scale = np.linalg.norm(want) + np.linalg.norm(x[:, j])
        assert np.linalg.norm(block.coeffs[:, j] - want) <= rel * scale, j


@examples
@given(width=widths, seed=seeds, lam=st.sampled_from([0.0, 1e-3, 0.01, 0.1, 1.0]),
       tol=st.sampled_from([1e-8, 1e-4]))
def test_fista_block_matches_one_column_calls(width, seed, lam, tol):
    rng = np.random.default_rng(seed)
    x = l1_block(rng, width)
    max_iters = int(rng.integers(1, 150))
    block = solvers.fista(D, x, lam, max_iters, tol)
    assert_columns_match(block, lambda column: solvers.fista(D, column, lam, max_iters, tol), x)


@settings(max_examples=15, deadline=None)
@given(width=widths, seed=seeds, lam=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
       rho=st.sampled_from([0.1, 1.0, 10.0]), tol=st.sampled_from([1e-8, 1e-4]))
def test_admm_fixed_block_matches_one_column_calls(width, seed, lam, rho, tol):
    rng = np.random.default_rng(seed)
    x = l1_block(rng, width)
    cfg = solvers.AdmmConfig(lam=lam, rho=rho, relax=float(rng.uniform(0.5, 1.8)),
                             max_iters=int(rng.integers(1, 100)), tol=tol)
    block = solvers.admm_fixed(D, x, cfg)
    assert_columns_match(block, lambda column: solvers.admm_fixed(D, column, cfg), x)


@settings(max_examples=15, deadline=None)
@given(width=widths, seed=seeds, solver=st.sampled_from(["fista", "admm_fixed"]))
def test_classify_l1_matches_per_pixel_solver(width, seed, solver):
    rng = np.random.default_rng(seed)
    x = l1_block(rng, width)
    params = {"lam": float(rng.choice([0.01, 0.1])), "max_iters": 60}
    solve = make_solver(D, solver, params)
    want = [src_decide(D, solve(x[:, j]), x[:, j]) for j in range(width)]
    got = classify_testset(D, x, solver, params)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_l1_block_stops_each_column_on_its_own():
    # a zero column stops after one step; the others run to their own stop
    x = np.stack([PIXELS[:, 0], np.zeros(D.n_bands), 0.1 * PIXELS[:, 1], PIXELS[:, 2]], axis=1)
    fista_widths, admm_widths = [], []
    code = solvers.fista(D, x, 0.05, max_iters=2000,
                         callback=lambda alpha, obj: fista_widths.append(obj.size))
    assert_columns_match(code, lambda column: solvers.fista(D, column, 0.05, max_iters=2000), x)
    cfg = solvers.AdmmConfig(lam=0.05, max_iters=2000, tol=1e-6)
    code = solvers.admm_fixed(D, x, cfg, callback=lambda a, z, u: admm_widths.append(z.shape[1]))
    assert_columns_match(code, lambda column: solvers.admm_fixed(D, column, cfg), x)
    for seen, cap in ((fista_widths, 2000), (admm_widths, 2000)):
        assert seen[:2] == [4, 3]
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == 4 and len(seen) < cap


def test_fista_column_that_restarts_then_gets_stuck(monkeypatch):
    """With tol 0 a column stops at an unchanged objective or when a restarted
    step cannot lower it; a block of both kinds matches one-column calls."""
    prox_calls = []
    threshold = solvers.soft_threshold

    def counted(v, eta):
        prox_calls.append(1)
        return threshold(v, eta)

    monkeypatch.setattr(solvers, "soft_threshold", counted)
    lam, cap = 0.1, 20000
    exits = {}
    for j in range(PIXELS.shape[1]):
        prox_calls.clear()
        history = []
        solvers.fista(D, PIXELS[:, j], lam, cap, 0.0, lambda alpha, obj: history.append(obj))
        assert 1 < len(history) < cap
        assert all(isinstance(obj, float) for obj in history)
        stuck = history[-1] < history[-2]  # else the tol exit, at an unchanged objective
        # a stuck exit's last iteration takes a step and its restart and accepts neither
        assert not stuck or len(prox_calls) > len(history) + 1
        exits.setdefault(stuck, j)
    assert set(exits) == {True, False}
    x = PIXELS[:, [exits[True], exits[False]]]
    code = solvers.fista(D, x, lam, cap, 0.0)
    assert_columns_match(code, lambda column: solvers.fista(D, column, lam, cap, 0.0), x,
                         L1_TOL_AT_PRECISION)


def test_l1_all_zero_column_codes_to_zero():
    x = np.stack([np.zeros(D.n_bands), PIXELS[:, 0]], axis=1)
    assert not solvers.fista(D, x, 0.1).coeffs[:, 0].any()
    assert not solvers.admm_fixed(D, x, solvers.AdmmConfig(lam=0.1)).coeffs[:, 0].any()
    seen = []
    one = solvers.fista(D, np.zeros(D.n_bands), 0.1, callback=lambda a, obj: seen.append(obj))
    assert not one.coeffs.any() and one.support.size == 0
    assert seen == [0.0]


def test_classify_asdn_threads_bit_identical():
    net = random_net(np.random.default_rng(3))
    assert PIXELS.shape[1] > 2 * network.BLOCK_COLUMNS  # several blocks
    serial = classify_testset(D, PIXELS, "asdn", {"net": net})
    threaded = classify_testset(D, PIXELS, "asdn", {"net": net})
    assert serial.tobytes() == threaded.tobytes()


def test_classify_codes_on_the_calling_thread(monkeypatch):
    idents = []

    def on_thread(fn):
        def recorded(*args, **kwargs):
            idents.append(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(network, "forward", on_thread(network.forward))
    monkeypatch.setattr(solvers, "omp", on_thread(solvers.omp))
    net = random_net(np.random.default_rng(3))
    classify_testset(D, PIXELS, "asdn", {"net": net})
    classify_testset(D, PIXELS, "omp", {"k": 3})
    blocks = -(-PIXELS.shape[1] // network.BLOCK_COLUMNS)
    assert idents == [threading.get_ident()] * (2 * blocks)


class TestBenchmarkHooks:
    """The benchmark wraps these attributes by replacement; a pixel that
    bypassed them would go unseen and a missing one would crash its tracer."""

    def counting_forward(self, monkeypatch):
        seen = []
        original = network.forward

        def counted(dictionary_, x, params):
            seen.append(1 if np.ndim(x) == 1 else x.shape[1])
            return original(dictionary_, x, params)

        monkeypatch.setattr(network, "forward", counted)
        return seen

    def test_classify_asdn_reaches_forward(self, monkeypatch):
        seen = self.counting_forward(monkeypatch)
        classify_testset(D, PIXELS, "asdn", {"n_stages": 2})
        assert sum(seen) == PIXELS.shape[1]
        assert max(seen) == network.BLOCK_COLUMNS

    def test_train_reaches_forward_and_stepped(self, monkeypatch):
        seen = self.counting_forward(monkeypatch)
        steps = []
        stepped = NetParams.stepped

        def counted_step(self_, learning_rate, grads):
            steps.append(1)
            return stepped(self_, learning_rate, grads)

        monkeypatch.setattr(NetParams, "stepped", counted_step)
        cfg = TrainConfig(epochs=2, batch_size=40, init=NetParams.default(2, eta=0.01))
        train(D, PIXELS, LABELS, cfg)
        assert sum(seen) == 2 * PIXELS.shape[1]
        assert max(seen) == network.BLOCK_COLUMNS  # a batch of 40 runs as 32 + 8
        assert len(steps) == 2 * 3

    def test_cho_factor_names_are_called(self, monkeypatch):
        calls = set()

        def counting(name, original):
            def counted(*args, **kwargs):
                calls.add(name)
                return original(*args, **kwargs)
            return counted

        for module in (dictionary, solvers):
            monkeypatch.setattr(module, "cho_factor",
                                counting(module.__name__, module.cho_factor))
        classify_testset(D, PIXELS[:, :3], "asdn", {"n_stages": 1})
        assert calls == set()  # the spectral solve factors nothing
        classify_testset(D, PIXELS[:, :3], "sp", {"k": 2})
        assert calls == {"srckit.solvers"}

    def test_gram_built_once_per_dictionary(self, monkeypatch):
        builds = []
        init = dictionary.GramCache.__init__

        def counted(self_, dictionary_):
            builds.append(1)
            init(self_, dictionary_)

        # the benchmark wraps this attribute as dictionary.gram_init
        monkeypatch.setattr(dictionary.GramCache, "__init__", counted)
        fresh = assemble(DATA.dict_pixels, DATA.dict_labels)
        classify_testset(fresh, PIXELS[:, :3], "asdn", {"n_stages": 2})
        classify_testset(fresh, PIXELS[:, :3], "asdn", {"n_stages": 3})
        solvers.admm_fixed(fresh, PIXELS[:, 0], solvers.AdmmConfig(max_iters=5))
        train(fresh, PIXELS, LABELS, TrainConfig(epochs=1, init=NetParams.default(2)))
        assert len(builds) == 1

    def test_classify_fista_reaches_fista_once_per_block(self, monkeypatch):
        # the benchmark binds callback and max_iters by name and counts one
        # iteration per callback call
        signature = inspect.signature(solvers.fista)
        original = solvers.fista
        calls = []

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            steps = []
            bound.arguments["callback"] = lambda alpha, objective: steps.append(1)
            try:
                return original(*bound.args, **bound.kwargs)
            finally:
                calls.append((len(steps), bound.arguments["max_iters"]))

        monkeypatch.setattr(solvers, "fista", counted)
        classify_testset(D, PIXELS, "fista", {"lam": 0.05, "max_iters": 40})
        assert len(calls) == -(-PIXELS.shape[1] // network.BLOCK_COLUMNS)
        assert all(1 <= steps <= cap for steps, cap in calls)

    def test_lipschitz_computed_once_per_dictionary(self, monkeypatch):
        runs = []
        power_iteration = dictionary.Dictionary.lipschitz.func

        def counted(self_):
            runs.append(1)
            return power_iteration(self_)

        lipschitz = functools.cached_property(counted)
        lipschitz.__set_name__(dictionary.Dictionary, "lipschitz")
        monkeypatch.setattr(dictionary.Dictionary, "lipschitz", lipschitz)
        data = subspace_classes(4, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                                n_train=20, n_test=30, noise=0.01)
        cube = pixels_to_cube(np.hstack([data.dict_pixels, data.test_pixels]),
                              np.concatenate([data.dict_labels, data.test_labels]))
        sweep(cube, "fista", "lam", [0.01, 0.1, 1.0], runs=2, dict_frac=0.1,
              train_frac=0.2, params={"max_iters": 20})
        assert len(runs) == 2  # one per draw, for all three grid values

    def test_gram_cache_surface(self):
        assert list(inspect.signature(GramCache.solve).parameters) == ["self", "rho", "rhs"]
        assert callable(GramCache.__init__)
        cache = GramCache(D)
        assert cache.gram.shape == (D.n_atoms, D.n_atoms)
        np.testing.assert_array_equal(cache.gram, D.atoms.T @ D.atoms)
        assert callable(NetParams.stepped)
        # every attribute the benchmark's child process wraps: a missing one
        # would crash its traced runs
        wrapped = [(dictionary, "cho_factor"), (solvers, "cho_factor"),
                   (GramCache, "__init__"), (GramCache, "solve"), (NetParams, "stepped")]
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "child.py").read_text())
        tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                  and node.targets[0].id in ("SETUP_FUNCTIONS", "TRACED_FUNCTIONS",
                                             "PIXEL_ENTRY_POINTS")}
        assert len(tables) == 3
        for _, home, name in tables["SETUP_FUNCTIONS"] + tables["TRACED_FUNCTIONS"]:
            wrapped.append((importlib.import_module("srckit." + home), name))
        wrapped += [(importlib.import_module("srckit." + home), name)
                    for home, name in tables["PIXEL_ENTRY_POINTS"]]
        for owner, name in wrapped:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
