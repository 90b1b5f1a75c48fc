"""Differential tests of the blocked network, greedy and l1 paths against the
per-pixel reference paths, and the hooks the benchmark harness wraps."""
import ast
import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_factor, cho_solve

import greedy_reference as reference
from srckit import classify, dictionary, network, solvers
from srckit.classify import check_fit, classify_testset, solver_kwargs, src_decide, sweep
from srckit.data import draw_splits, pixels_to_cube, save_bundle
from srckit.dictionary import GramCache, assemble
from srckit.network import (FLOORS, RHO_FLOOR, NetParams, backward,
                            class_residuals, forward, one_hot, train)
from synthetic_problems import subspace_classes

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


def test_columns_miss_their_own_target_only_at_the_floor():
    cache = GramCache(D)
    rng = np.random.default_rng(1)
    big, small = rng.standard_normal((2, D.n_atoms))

    def misses(rho, rhs):
        """Per column: is the residual of the solve above 1e-12 of its own norm?"""
        w = cache.solve(rho, rhs)
        residual = rhs - (D.atoms.T @ (D.atoms @ w) + rho * w)
        return (np.linalg.norm(residual, axis=0) > 1e-12 * np.linalg.norm(rhs, axis=0)).tolist()

    # at the floor every nonzero column misses 1e-12 of its own norm, however
    # small that norm is next to its neighbour's; a zero column meets it at once
    assert misses(RHO_FLOOR, np.stack([big, 1e-12 * small], axis=1)) == [True, True]
    assert misses(RHO_FLOOR, np.stack([big, np.zeros(D.n_atoms)], axis=1)) == [True, False]
    assert misses(1.0, np.stack([big, 1e-12 * small], axis=1)) == [False, False]


def spectral_one_round(d, rho, rhs):
    """The spectral apply of (D^T D + rho*I)^-1, then one refinement round
    with the residual taken through D."""
    _, s, vt = d.spectrum
    s2 = s * s

    def inverse(b):
        return b / rho - vt.T @ ((s2 / (rho * (s2 + rho)))[:, None] * (vt @ b))

    w = inverse(rhs)
    return w + inverse(rhs - (d.atoms.T @ (d.atoms @ w) + rho * w))


@pytest.mark.parametrize("width", [1, 32])
@pytest.mark.parametrize("rho", [RHO_FLOOR, 0.05, 1.0, 30.0])
def test_solve_is_one_refinement_round(width, rho):
    rng = np.random.default_rng(width)
    rhs = rng.standard_normal((D.n_atoms, width)) * 10.0 ** rng.uniform(-12, 6, width)
    assert np.array_equal(GramCache(D).solve(rho, rhs), spectral_one_round(D, rho, rhs))


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
    block, block_loss = backward(D, x, y, net, trace)
    pixels = []
    for j in range(width):
        _, one_trace = forward(D, x[:, j], net)
        pixels.append(backward(D, x[:, j], y[:, j], net, one_trace))
    for name in FLOORS:
        terms = np.array([grads[name] for grads, _ in pixels])
        # relative to the summed magnitudes, since the terms may cancel
        scale = np.abs(terms).sum(axis=0) + 1e-300
        assert (np.abs(block[name] - terms.sum(axis=0)) <= 1e-10 * scale).all(), name
    losses = [loss_value for _, loss_value in pixels]
    assert block_loss == pytest.approx(sum(losses), rel=1e-10)


@examples
@given(width=widths, seed=seeds)
def test_classify_asdn_matches_per_pixel_solver(width, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x, _ = pick(rng, width)
    want = [src_decide(D, network.asdn(D, x[:, j], net=net), x[:, j]) for j in range(width)]
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
        return reference._top_candidates(correlations, s, floor, support)

    for j in range(width):
        want = reference._grow(D, x[:, j], solvers.GREEDY_TOL, math.ceil(k / s),
                               top_s, sort=False)
        got = block.coeffs[:, j]
        # on an exact-sparse column, atoms picked beside the true ones get
        # roundoff-level coefficients that either path may round to zero
        tiny = 1e-10 * np.linalg.norm(want.coeffs)
        assert np.array_equal(np.flatnonzero(np.abs(got) > tiny),
                              np.flatnonzero(np.abs(want.coeffs) > tiny)), j
        assert np.linalg.norm(got - want.coeffs) <= tiny, j


@pytest.mark.parametrize("solver", ["sp", "romp", "samp"])
@examples
@given(width=widths, seed=seeds)
@example(width=15, seed=1124)  # romp: a sub-Gram that Cholesky passes and solve finds singular
def test_greedy_block_matches_per_pixel_reference(solver, width, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    x = greedy_block(rng, width, k)
    params = {"step": int(rng.integers(1, 4))} if solver == "samp" else {"k": k}
    block = getattr(solvers, solver)(D, x, **params)
    assert block.coeffs.shape == (D.n_atoms, width)
    for j in range(width):
        want = getattr(reference, solver)(D, x[:, j], **params).coeffs
        got = block.coeffs[:, j]
        assert np.array_equal(np.flatnonzero(got), np.flatnonzero(want)), j
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), j


def test_block_sp_falls_back_to_lstsq_on_a_singular_sub_gram(monkeypatch):
    # K = 5 over 6 bands: a trial's 10 candidate atoms have a singular
    # sub-Gram, so its refit leaves the batched solve for lstsq
    rng = np.random.default_rng(11)
    atoms = rng.standard_normal((6, 12))
    d = assemble(atoms / np.linalg.norm(atoms, axis=0), np.repeat([1, 2, 3], 4))
    x = np.hstack([rng.standard_normal((6, 3)), d.atoms[:, :5] @ rng.uniform(1.0, 2.0, (5, 29))])
    lstsq, calls = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    block = solvers.sp(d, x, 5)
    assert calls
    for j in range(x.shape[1]):
        want = reference.sp(d, x[:, j], 5).coeffs
        assert np.array_equal(block.coeffs[:, j], want), j


@examples
@given(width=widths, seed=seeds)
def test_classify_omp_matches_per_pixel_solver(width, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    x = greedy_block(rng, width, k)
    want = [src_decide(D, solvers.omp(D, x[:, j], k), x[:, j]) for j in range(width)]
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


def test_gomp_falls_back_to_lstsq_where_a_schur_block_fails(monkeypatch):
    # atom 23 is the normalised sum of atoms 3 and 11; a pixel close to their
    # span takes all three in gomp's first step, where the Schur block (the
    # three atoms' sub-Gram) fails cho_factor. That column then refits with
    # lstsq on every step; its healthy neighbour keeps the bordered factor
    rng = np.random.default_rng(0)
    atoms = rng.standard_normal((16, 24))
    atoms /= np.linalg.norm(atoms, axis=0)
    atoms[:, 23] = atoms[:, 3] + atoms[:, 11]
    atoms[:, 23] /= np.linalg.norm(atoms[:, 23])
    d = assemble(atoms, np.repeat([1, 2, 3], 8))
    x = np.stack([atoms[:, 3] + atoms[:, 11] + 0.05 * atoms[:, 5],
                  rng.standard_normal(16)], axis=1)
    refit, fit = [], solvers._Block.fit

    def recorded(self_, cols, support, size):
        refit.extend(cols.tolist())
        return fit(self_, cols, support, size)

    monkeypatch.setattr(solvers._Block, "fit", recorded)
    block = solvers.gomp(d, x, 6, 3)
    assert sorted(set(refit)) == [0]

    def top_3(correlations, floor, support):
        return reference._top_candidates(correlations, 3, floor, support)

    wants = [reference._grow(d, x[:, j], solvers.GREEDY_TOL, 2, top_3, sort=False).coeffs
             for j in range(2)]
    assert {3, 11, 23} <= set(np.flatnonzero(wants[0]).tolist())
    np.testing.assert_array_equal(block.coeffs[:, 0], wants[0])
    assert np.array_equal(np.flatnonzero(block.coeffs[:, 1]), np.flatnonzero(wants[1]))
    assert np.linalg.norm(block.coeffs[:, 1] - wants[1]) <= 1e-10 * np.linalg.norm(wants[1])


@examples
@given(width=st.integers(1, 8), s=st.sampled_from([1, 2, 3]), seed=seeds)
def test_bordered_refit_meets_lstsq_as_the_rebuild_does(width, s, seed):
    # supports of 1-10 TALL atoms grown s at a time (the last step may take
    # fewer). W = L^-1 is bordered, not (D_S^T D_S)^-1, whose condition number
    # is the square of W's
    rng = np.random.default_rng(seed)
    size = rng.integers(1, 11, width)
    order = np.stack([rng.permutation(TALL.n_atoms)[:10] for _ in range(width)])
    x = rng.standard_normal((TALL.n_bands, width))
    block = solvers._Block(TALL, x, 10, bordered=True)
    while (block.size < size).any():
        cols = np.flatnonzero(block.size < size)
        slots = np.minimum(block.size[cols, None] + np.arange(s), 9)
        block.border(cols, np.take_along_axis(order[cols], slots, axis=1),
                     np.minimum(s, size[cols] - block.size[cols]))
        for j in cols:
            atoms_s, t = TALL.atoms[:, order[j, :block.size[j]]], block.size[j]
            want = np.linalg.lstsq(atoms_s, x[:, j], rcond=None)[0]
            rebuilt = solvers._ls_on_supports(atoms_s.T[None], x[None, :, j])[0]
            assert np.linalg.norm(block.coef[j, :t] - want) <= max(
                1e-12 * np.linalg.norm(want), 4.0 * np.linalg.norm(rebuilt - want)), (j, t)
    assert block.factored.all()


def test_block_code_support_lists_atom_indices():
    # one entry per nonzero of the (n_atoms, n) block, naming its atom
    x = PIXELS[:, :12]
    codes = [solvers.omp(D, x, 4), solvers.gomp(D, x, 4, 2), solvers.sp(D, x, 3),
             solvers.fista(D, x, 0.05, max_iters=50), forward(D, x, NetParams.default(2))[0]]
    for code in codes:
        assert code.support.size == np.count_nonzero(code.coeffs) > 0
        assert ((0 <= code.support) & (code.support < D.n_atoms)).all()
        union = sorted(set().union(*(np.flatnonzero(column).tolist()
                                     for column in code.coeffs.T)))
        assert np.unique(code.support).tolist() == union
    one = solvers.omp(D, x[:, 0], 4)
    assert np.array_equal(one.support, np.flatnonzero(one.coeffs))


@settings(max_examples=80, deadline=None)
@given(coeffs=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                         elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))),
       where=st.integers(0, 11))
def test_a_code_has_one_representation(coeffs, where):
    # a pixel (n_atoms,) or a block (n_atoms, n): the support is read off
    # the coefficients, so the two can never disagree
    assert [field.name for field in dataclasses.fields(solvers.SparseCode)] == ["coeffs"]
    code = solvers.SparseCode(coeffs)
    assert np.array_equal(code.support, np.nonzero(coeffs)[0])
    atom = where % len(coeffs)
    code.coeffs[atom] = 0.0 if code.coeffs[atom].any() else 1.5
    assert np.array_equal(code.support, np.nonzero(code.coeffs)[0])


def test_block_refit_falls_back_per_pixel_on_a_singular_sub_gram():
    # a zero atom makes the second sub-Gram singular, so cho_factor would
    # fail on it: the whole stack is refit as _ls_on_support refits a pixel
    atoms_s = np.stack([D.atoms[:, [0, 1]].T, np.stack([D.atoms[:, 2], np.zeros(D.n_bands)])])
    x = PIXELS[:, :2].T
    got = solvers._ls_on_supports(atoms_s, x)
    for j in range(2):
        assert np.array_equal(got[j], reference._ls_on_support(atoms_s[j].T, x[j]))
    assert np.array_equal(got[1], np.linalg.lstsq(atoms_s[1].T, x[1], rcond=None)[0])
    want = cholesky_refit(atoms_s[0].T, x[0])
    assert np.linalg.norm(got[0] - want) <= 1e-12 * np.linalg.norm(want)


def cholesky_refit(atoms_s, x):
    """The scipy Cholesky refit with one refinement round that the numpy
    kernel replaced: normal equations on the sub-Gram of atoms_s (bands, t)."""
    gram, rhs = atoms_s.T @ atoms_s, atoms_s.T @ x
    factor = cho_factor(gram, lower=False)
    coef = cho_solve(factor, rhs)
    return coef + cho_solve(factor, rhs - gram @ coef)


@examples
@given(size=st.integers(1, 10), seed=seeds)
def test_refit_matches_cholesky_with_one_round(size, seed):
    # TALL's sub-Grams of up to 10 atoms have condition numbers below 15; a
    # 3000-seed run gave at most 8e-16 relative difference
    rng = np.random.default_rng(seed)
    atoms_s = TALL.atoms[:, np.sort(rng.choice(TALL.n_atoms, size=size, replace=False))]
    x = rng.standard_normal(TALL.n_bands)
    want = cholesky_refit(atoms_s, x)
    got = reference._ls_on_support(atoms_s, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
    cfg = dict(lam=lam, rho=rho, relax=float(rng.uniform(0.5, 1.8)),
               max_iters=int(rng.integers(1, 100)), tol=tol)
    block = solvers.admm_fixed(D, x, **cfg)
    assert_columns_match(block, lambda column: solvers.admm_fixed(D, column, **cfg), x)


@settings(max_examples=15, deadline=None)
@given(width=widths, seed=seeds, solver=st.sampled_from(["fista", "admm_fixed"]))
def test_classify_l1_matches_per_pixel_solver(width, seed, solver):
    rng = np.random.default_rng(seed)
    x = l1_block(rng, width)
    params = {"lam": float(rng.choice([0.01, 0.1])), "max_iters": 60}
    solve = getattr(solvers, solver)
    want = [src_decide(D, solve(D, x[:, j], **params), x[:, j]) for j in range(width)]
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
    cfg = dict(lam=0.05, max_iters=2000, tol=1e-6)
    code = solvers.admm_fixed(D, x, **cfg, callback=lambda a, z, u: admm_widths.append(z.shape[1]))
    assert_columns_match(code, lambda column: solvers.admm_fixed(D, column, **cfg), x)
    for seen, cap in ((fista_widths, 2000), (admm_widths, 2000)):
        assert seen[:2] == [4, 3]
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == 4 and len(seen) < cap


def test_fista_column_that_restarts_then_gets_stuck(monkeypatch):
    """With tol 0 a column stops at an unchanged objective or when a restarted
    step cannot lower it; a block of both kinds matches one-column calls."""
    prox_calls = []
    threshold = solvers.soft_threshold

    def counted(v, eta, **kwargs):
        prox_calls.append(1)
        return threshold(v, eta, **kwargs)

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
    assert not solvers.admm_fixed(D, x, lam=0.1).coeffs[:, 0].any()
    seen = []
    one = solvers.fista(D, np.zeros(D.n_bands), 0.1, callback=lambda a, obj: seen.append(obj))
    assert not one.coeffs.any() and one.support.size == 0
    assert seen == [0.0]


def block_widths(n):
    """The widths classify_testset codes n pixels in: ceil(n / W) blocks
    for W = classify.BLOCK_COLUMNS, the first n % blocks one column wider."""
    blocks = -(-n // classify.BLOCK_COLUMNS)
    return [n // blocks + (i < n % blocks) for i in range(blocks)]


# PIXELS' 90 columns make one block at the module's width and three at 32
BLOCK_WIDTHS = (classify.BLOCK_COLUMNS, 32)


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
    for width in BLOCK_WIDTHS:
        monkeypatch.setattr(classify, "BLOCK_COLUMNS", width)
        idents.clear()
        classify_testset(D, PIXELS, "asdn", {"net": net})
        classify_testset(D, PIXELS, "omp", {"k": 3})
        blocks = len(block_widths(PIXELS.shape[1]))
        assert idents == [threading.get_ident()] * (2 * blocks)


@pytest.mark.parametrize("solver, params", [
    ("omp", {"k": 3}), ("gomp", {"k": 4, "s": 2}), ("sp", {"k": 3}), ("romp", {"k": 3}),
    ("samp", {})])
def test_classify_calls_each_greedy_solver_once_per_block(monkeypatch, solver, params):
    widths_seen = []
    original = getattr(solvers, solver)

    def counted(dictionary_, x, **kwargs):
        widths_seen.append(x.shape[1])
        return original(dictionary_, x, **kwargs)

    monkeypatch.setattr(solvers, solver, counted)
    for width in BLOCK_WIDTHS:
        monkeypatch.setattr(classify, "BLOCK_COLUMNS", width)
        widths_seen.clear()
        classify_testset(D, PIXELS, solver, params)
        assert widths_seen == block_widths(PIXELS.shape[1])


def test_classify_labels_do_not_depend_on_the_block_width(monkeypatch):
    # 300 pixels: two blocks of 150 at the module's width, ten of 30 at 32
    data = subspace_classes(8, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                            n_train=1, n_test=100, noise=0.02)
    d = assemble(data.dict_pixels, data.dict_labels)
    runs = [("omp", {"k": 3}), ("fista", {"lam": 0.05, "max_iters": 100}),
            ("asdn", {"net": random_net(np.random.default_rng(4))})]
    labels = []
    for width in BLOCK_WIDTHS:
        monkeypatch.setattr(classify, "BLOCK_COLUMNS", width)
        labels.append([classify_testset(d, data.test_pixels, solver, params).tolist()
                       for solver, params in runs])
    assert labels[0] == labels[1]


class TestBenchmarkHooks:
    """The benchmark wraps these attributes by replacement; a pixel that
    bypassed them would go unseen and a missing one would crash its tracer."""

    def counting_forward(self, monkeypatch):
        seen = []
        original = network.forward

        def counted(dictionary_, x, params, **kwargs):
            seen.append(1 if np.ndim(x) == 1 else x.shape[1])
            return original(dictionary_, x, params, **kwargs)

        monkeypatch.setattr(network, "forward", counted)
        return seen

    def test_classify_asdn_reaches_forward(self, monkeypatch):
        seen = self.counting_forward(monkeypatch)
        for width in BLOCK_WIDTHS:
            monkeypatch.setattr(classify, "BLOCK_COLUMNS", width)
            seen.clear()
            classify_testset(D, PIXELS, "asdn", {"n_stages": 2})
            assert sum(seen) == PIXELS.shape[1]
            assert seen == block_widths(PIXELS.shape[1])

    def test_train_reaches_forward_and_stepped(self, monkeypatch):
        seen = self.counting_forward(monkeypatch)
        steps = []
        stepped = NetParams.stepped

        def counted_step(self_, learning_rate, grads):
            steps.append(1)
            return stepped(self_, learning_rate, grads)

        monkeypatch.setattr(NetParams, "stepped", counted_step)
        train(D, PIXELS, LABELS, epochs=2, batch_size=40, init=NetParams.default(2, eta=0.01))
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
        solvers.admm_fixed(fresh, PIXELS[:, 0], max_iters=5)
        train(fresh, PIXELS, LABELS, epochs=1, init=NetParams.default(2))
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
        for width in BLOCK_WIDTHS:
            monkeypatch.setattr(classify, "BLOCK_COLUMNS", width)
            calls.clear()
            classify_testset(D, PIXELS, "fista", {"lam": 0.05, "max_iters": 40})
            assert len(calls) == len(block_widths(PIXELS.shape[1]))
            assert all(1 <= steps <= cap for steps, cap in calls)

    def test_lipschitz_computed_once_per_dictionary(self, monkeypatch):
        runs = []
        top_eigenvalue = dictionary.Dictionary.lipschitz.func

        def counted(self_):
            runs.append(1)
            return top_eigenvalue(self_)

        lipschitz = functools.cached_property(counted)
        lipschitz.__set_name__(dictionary.Dictionary, "lipschitz")
        monkeypatch.setattr(dictionary.Dictionary, "lipschitz", lipschitz)
        data = subspace_classes(4, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                                n_train=20, n_test=30, noise=0.01)
        cube = pixels_to_cube(np.hstack([data.dict_pixels, data.test_pixels]),
                              np.concatenate([data.dict_labels, data.test_labels]))
        sweep(cube, "fista", "lam", [0.01, 0.1, 1.0], draw_splits(cube, 2, 0, 0.1, 0.2),
              params={"max_iters": 20})
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

    def test_traced_child_runs(self, tmp_path):
        """perfbench/child.py --trace 1 runs each workload's command shape on
        a tiny bundle: its wrappers, its first-pixel marker and its hooks
        (the omp support read off each block's code, fista's iteration
        count) all see the calls classify makes. Each command's set-up stays
        inside the calls the benchmark times as set-up: one load_bundle, after
        every make_split, and two extract_pixels per draw."""
        root = Path(__file__).parents[1]
        data = subspace_classes(0, n_classes=3, dim=12, sub_dim=3, n_dict=4,
                                n_train=6, n_test=10, noise=0.05)
        save_bundle(pixels_to_cube(
            np.hstack([data.dict_pixels, data.train_pixels, data.test_pixels]),
            np.concatenate([data.dict_labels, data.train_labels, data.test_labels])),
            tmp_path / "bundle")
        (tmp_path / "params.json").write_text(NetParams.default(2, eta=0.01).to_text(),
                                              encoding="utf-8")
        common = ["--bundle", str(tmp_path / "bundle"), "--dict-frac", "0.2",
                  "--train-frac", "0.25"]
        shapes = {
            "eval-omp": (["eval", *common, "--solver", "omp", "--K", "2"],
                         "solvers.omp", "solvers.omp.support"),
            "eval-asdn": (["eval", *common, "--solver", "asdn",
                           "--params", str(tmp_path / "params.json")],
                          "network.forward", "data.load_bundle.bytes"),
            "train": (["train", *common, "--stages", "2", "--epochs", "1", "--batch-size", "6",
                       "--init-eta", "0.01"], "network.stepped", "data.load_bundle.bytes"),
            "sweep-fista": (["sweep", *common, "--solver", "fista", "--param", "lam",
                             "--grid", "0.01,0.1", "--runs", "2", "--max-iters", "20"],
                            "solvers.fista", "solvers.fista.iters"),
        }
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        setup = {"cli.run", "data.load_bundle", "data.make_split", "data.extract_pixels",
                 "dictionary.assemble", "bench.first_pixel"}
        for name, (argv, span, value) in shapes.items():
            report = tmp_path / f"{name}.json"
            done = subprocess.run(
                [sys.executable, str(root / "perfbench" / "child.py"), "--trace", "1",
                 "--report", str(report), "--", *argv, "--out", str(tmp_path / name)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, (name, done.stderr)
            doc = json.loads(report.read_text(encoding="utf-8"))
            spans = [entry[0] for entry in doc["spans"]]
            assert doc["status"] == 0 and setup | {span} <= set(spans), name
            assert doc["values"][value] and all(v > 0 for v in doc["values"][value]), name
            loads = [entry for entry in doc["spans"] if entry[0] == "data.load_bundle"]
            draws = [entry for entry in doc["spans"] if entry[0] == "data.make_split"]
            assert len(loads) == 1 and len(draws) == (2 if name == "sweep-fista" else 1), name
            assert all(end <= loads[0][1] for _, _, end, _ in draws), name
            assert spans.count("data.extract_pixels") == 2 * len(draws), name
        support = json.loads((tmp_path / "eval-omp.json").read_text())["values"]
        # one support count per omp block: 36 test px make one block
        assert len(support["solvers.omp.support"]) == 1
        assert 0 < support["solvers.omp.support"][0] <= 2 * 36

    def test_signature_less_wrappers_change_nothing(self, monkeypatch):
        """Until the first coded pixel the benchmark replaces every pixel entry
        point with a ``(*args, **kwargs)`` forwarder; the solver table, the
        dictionary-size check and the coded labels must not change under it."""
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "child.py").read_text())
        entry_points = next(ast.literal_eval(node.value) for node in tree.body
                            if isinstance(node, ast.Assign)
                            and getattr(node.targets[0], "id", None) == "PIXEL_ENTRY_POINTS")
        three_atoms = assemble(np.eye(4)[:, :3], [1, 1, 2])
        one_atom = assemble(np.eye(4)[:, :1], [1])
        fits = [(three_atoms, "gomp", {"k": 3}), (one_atom, "samp", {}),
                (three_atoms, "gomp", {"k": 3, "s": 1}), (three_atoms, "asdn", {})]
        coded = [("omp", {"k": 3}), ("gomp", {"k": 4}), ("sp", {"k": 2}),
                 ("romp", {"k": 2}), ("samp", {}), ("fista", {"lam": 0.05, "max_iters": 40}),
                 ("admm_fixed", {"lam": 0.05, "max_iters": 40}), ("asdn", {"n_stages": 2})]

        def outcomes():
            out = []
            for d, name, params in fits:
                out.append(solver_kwargs(name, params))
                try:
                    check_fit(d, name, params)
                    out.append(None)
                except solvers.SizeError as exc:
                    out.append(str(exc))
            out += [classify_testset(D, PIXELS, name, params).tolist()
                    for name, params in coded]
            return out

        unwrapped = outcomes()
        assert unwrapped[1] == "S*iterations = 4 exceeds dictionary size 3"
        assert unwrapped[3] == "size increment step=1 outside 1..0"
        for home, name in entry_points:
            owner = importlib.import_module("srckit." + home)
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, _fn=original, **kwargs: _fn(*args, **kwargs))
        assert outcomes() == unwrapped
