"""Differential tests of the blocked network path against the per-pixel
reference path, and the hooks the benchmark harness wraps."""
import inspect
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srckit import dictionary, network, solvers
from srckit.classify import classify_testset, make_solver, src_decide
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


def test_refinement_takes_only_columns_above_their_own_target(monkeypatch):
    widths = []
    real = dictionary.cho_solve

    def spy(factor, b, **kwargs):
        widths.append(b.shape[1])
        return real(factor, b, **kwargs)

    monkeypatch.setattr(dictionary, "cho_solve", spy)
    cache = GramCache(D)
    rng = np.random.default_rng(1)
    big, small = rng.standard_normal((2, D.n_atoms))
    # at the floor every nonzero column misses 1e-12 of its own norm, however
    # small that norm is next to its neighbour's; a zero column meets it at once
    cache.solve(RHO_FLOOR, np.stack([big, 1e-12 * small], axis=1))
    assert widths == [2, 2, 2, 2]
    widths.clear()
    cache.solve(RHO_FLOOR, np.stack([big, np.zeros(D.n_atoms)], axis=1))
    assert widths == [2, 1, 1, 1]
    widths.clear()
    cache.solve(1.0, np.stack([big, 1e-12 * small], axis=1))
    assert widths == [2]


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
    cache = GramCache(D)
    code, trace = forward(D, x, net, cache)
    residuals = class_residuals(D, code, x)
    assert code.coeffs.shape == (D.n_atoms, width)
    assert residuals.shape == (D.n_classes, width)
    for j in range(width):
        one, one_trace = forward(D, x[:, j], net, cache)
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
    cache = GramCache(D)
    _, trace = forward(D, x, net, cache)
    block = backward(D, x, y, net, trace, cache)
    pixels = []
    for j in range(width):
        _, one_trace = forward(D, x[:, j], net, cache)
        pixels.append(backward(D, x[:, j], y[:, j], net, one_trace, cache))
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


def test_classify_asdn_threads_bit_identical():
    net = random_net(np.random.default_rng(3))
    assert PIXELS.shape[1] > 2 * network.BLOCK_COLUMNS  # several blocks
    serial = classify_testset(D, PIXELS, "asdn", {"net": net})
    threaded = classify_testset(D, PIXELS, "asdn", {"net": net}, threads=4)
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
    classify_testset(D, PIXELS, "asdn", {"net": net}, threads=4)
    classify_testset(D, PIXELS, "omp", {"k": 3}, threads=4)
    blocks = -(-PIXELS.shape[1] // network.BLOCK_COLUMNS)
    assert idents == [threading.get_ident()] * (blocks + PIXELS.shape[1])


class TestBenchmarkHooks:
    """The benchmark wraps these attributes by replacement; a pixel that
    bypassed them would go unseen and a missing one would crash its tracer."""

    def counting_forward(self, monkeypatch):
        seen = []
        original = network.forward

        def counted(dictionary_, x, params, cache=None):
            seen.append(1 if np.ndim(x) == 1 else x.shape[1])
            return original(dictionary_, x, params, cache)

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
        classify_testset(D, PIXELS[:, :3], "omp", {"k": 2})
        assert calls == {"srckit.dictionary", "srckit.solvers"}

    def test_gram_cache_surface(self):
        assert list(inspect.signature(GramCache.solve).parameters) == ["self", "rho", "rhs"]
        assert callable(GramCache.__init__)
        cache = GramCache(D)
        assert cache.gram.shape == (D.n_atoms, D.n_atoms)
        assert callable(NetParams.stepped)
