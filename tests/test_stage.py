"""Differential tests of the band-space ADMM stage (``GramCache.stage``
through ``solvers.admm_stage``) and its reverse node (``GramCache.stage_vjp``
through ``network.backward``) against the solve-based reference in
``network_reference``, plus gradient checks on the dictionary shapes the
band-space forms treat differently."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import network_reference as reference
from srckit import solvers
from srckit.classify import BLOCK_COLUMNS, classify_testset
from srckit.dictionary import assemble
from srckit.network import (FLOORS, RHO_FLOOR, NetParams, TrainingDiverged, asdn, backward,
                            forward, grad_check, kink_margin, one_hot, train)
from srckit.synthetic import gradcheck_instance
from synthetic_problems import subspace_classes, traced_peak


def pavia_shaped(seed):
    """103 bands, 426 atoms in 9 classes: each class near its own 6-dimensional
    subspace on a shared offset spectrum, normalized, so the atoms are as
    coherent as reflectance spectra and D is full rank but ill-conditioned."""
    rng = np.random.default_rng(seed)
    bands, counts = 103, [66, 186, 21, 31, 13, 50, 13, 37, 9]
    t = np.linspace(0.0, 1.0, bands)
    offset = 1.0 + 0.4 * np.sin(2.0 * np.pi * 1.3 * t + 0.7) + 0.3 * t
    pixels = []
    for n in counts:
        basis = rng.standard_normal((bands, 6)) / np.sqrt(bands)
        signal = offset[:, None] + 0.35 * basis @ rng.standard_normal((6, n))
        pixels.append(rng.uniform(0.7, 1.3, n) * (signal + 0.02 * rng.standard_normal((bands, n))))
    pixels = np.hstack(pixels)
    return assemble(pixels / np.linalg.norm(pixels, axis=0), np.repeat(np.arange(1, 10), counts))


_data = subspace_classes(7, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                         n_train=1, n_test=30, noise=0.02)
_rng = np.random.default_rng(5)
WIDE = assemble(_data.dict_pixels, _data.dict_labels)  # 16 x 24, D^T D singular
TALL = assemble(_rng.standard_normal((40, 24)), np.repeat([1, 2, 3], 8))
RANK6 = assemble(_rng.standard_normal((16, 6)) @ _rng.standard_normal((6, 24)),
                 np.repeat([1, 2, 3], 8))
PAVIA = pavia_shaped(0)
DICTIONARIES = [WIDE, TALL, RANK6, PAVIA]
assert PAVIA.atoms.shape == (103, 426)

dictionaries = st.sampled_from(DICTIONARIES)
rhos = st.floats(math.log(RHO_FLOOR), math.log(30.0)).map(math.exp)
widths = st.sampled_from([None, 1, 2, 32])  # None: one pixel (bands,)
seeds = st.integers(0, 2**32 - 1)
examples = settings(max_examples=40, deadline=None)


def pixels(d, rng, width):
    """Unit pixels: atoms plus noise on the Pavia-shaped dictionary (whose
    pixels, like real ones, lie near its top singular directions), Gaussian
    elsewhere; (bands,) for width None."""
    if d is PAVIA:
        x = d.atoms[:, rng.integers(0, d.n_atoms, width or 1)]
        x = x + 0.02 * rng.standard_normal(x.shape)
    else:
        x = rng.standard_normal((d.n_bands, width or 1))
    x /= np.linalg.norm(x, axis=0)
    return x[:, 0] if width is None else x


def codes(d, rng, width):
    """A (z, u) pair of code scale up to that of a unit pixel's code."""
    shape = (d.n_atoms,) if width is None else (d.n_atoms, width)
    scale = 10.0 ** rng.uniform(-3.0, 0.0, shape[1:]) / np.sqrt(d.n_atoms)
    return rng.standard_normal(shape) * scale, rng.standard_normal(shape) * scale


def columns(a):
    return a.reshape(len(a), -1)


@examples
@given(d=dictionaries, rho=rhos, width=widths, seed=seeds)
def test_stage_solves_to_rounding_and_matches_reference(d, rho, width, seed):
    rng = np.random.default_rng(seed)
    x = pixels(d, rng, width)
    z, u = codes(d, rng, width)
    relax, eta, tau = rng.uniform(0.5, 1.8), rng.uniform(0.0, 0.1), rng.uniform(0.5, 1.5)
    cache = d.gram_cache
    got = solvers.admm_stage(d, cache.project(x), z, u, rho, relax, eta, tau)
    want = reference.admm_stage(d, d.atoms.T @ x, z, u, rho, relax, eta, tau)
    assert got[1].shape == (min(d.atoms.shape),) + np.shape(x)[1:]

    # the solve's residual, measured in extended precision so that it is the
    # residual w really has and not the rounding of its evaluation
    w, _ = cache.stage(rho, cache.project(x), z - u)
    rhs = columns(d.atoms.T @ x + rho * (z - u))
    atoms, b, w = (a.astype(np.longdouble) for a in (d.atoms, rhs, columns(w)))
    residual = np.linalg.norm((b - (atoms.T @ (atoms @ w) + rho * w)).astype(float), axis=0)
    assert (residual <= 1e-12 * np.linalg.norm(rhs, axis=0)).all()

    # the two stages solve one system; at the rho floor the reference's own
    # error grows with the conditioning of D^T D + rho I
    conditioning = 1.0 + d.lipschitz / rho
    bound = 1e-13 * conditioning * np.linalg.norm(columns(want[0]), axis=0)
    for new, old in zip(got[:1] + got[2:], want):
        assert new.shape == old.shape
        assert (np.linalg.norm(columns(new - old), axis=0) <= 4.0 * bound).all()


def random_net(rng, floor=False) -> NetParams:
    stages = int(rng.integers(1, 5))
    low = math.log(2.0 * RHO_FLOOR) if floor else math.log(1e-3)
    return NetParams(rho=np.exp(rng.uniform(low, math.log(3.0), stages + 1)),
                     eta=rng.uniform(1e-3, 0.1, stages),
                     tau=rng.uniform(0.5, 1.5, stages),
                     relax=float(rng.uniform(0.5, 1.8)))


@examples
@given(d=dictionaries, width=widths, seed=seeds, floor=st.booleans())
def test_backward_matches_reference(d, width, seed, floor):
    rng = np.random.default_rng(seed)
    x = pixels(d, rng, width)
    labels = rng.integers(1, d.n_classes + 1, width or 1)
    y = np.stack([one_hot(int(label), d.n_classes) for label in labels], axis=1)
    y = y[:, 0] if width is None else y
    params = random_net(rng, floor)
    code, trace = forward(d, x, params)
    want_code, _ = reference.forward(d, x, params)
    conditioning = 1.0 + d.lipschitz / params.rho.min()
    assert np.linalg.norm(code.coeffs - want_code.coeffs) <= \
        1e-11 * conditioning * max(np.linalg.norm(want_code.coeffs), 1e-300)
    # on one trace the two passes differ only in their reverse nodes, where
    # the reference's solve loses accuracy with the conditioning
    got = gradient(backward(d, x, y, params, trace))
    want = gradient(reference.backward(d, x, y, params, trace))
    assert got[-1] == want[-1]  # the loss
    assert np.linalg.norm(got - want) <= 1e-12 * conditioning * np.linalg.norm(want)


def gradient(result):
    grads, loss_value = result
    return np.concatenate([grads[name] for name in FLOORS] + [[loss_value]])


def test_benchmark_shaped_training_step_matches_reference():
    # 9 stages at the rho of a trained network on a 32-pixel block of the
    # Pavia-shaped dictionary, each pass end to end
    rng = np.random.default_rng(9)
    x = pixels(PAVIA, rng, 32)
    y = np.stack([one_hot(int(c), 9) for c in rng.integers(1, 10, 32)], axis=1)
    params = NetParams(rho=rng.uniform(0.05, 0.19, 10), eta=np.full(9, 0.01),
                       tau=rng.uniform(0.9, 1.1, 9))
    code, trace = forward(PAVIA, x, params)
    want_code, want_trace = reference.forward(PAVIA, x, params)
    assert np.linalg.norm(code.coeffs - want_code.coeffs) <= \
        1e-12 * np.linalg.norm(want_code.coeffs)
    got = gradient(backward(PAVIA, x, y, params, trace))
    want = gradient(reference.backward(PAVIA, x, y, params, want_trace))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def kink_free(d, seed, rho=None, relax=1.0, n_stages=4, margin=1e-4):
    """(x, y, params) on ``d`` whose pre-activations all sit ``margin`` away
    from their thresholds, with every rho set to ``rho`` when given."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        params = NetParams(rho=np.full(n_stages + 1, rho) if rho else
                           1.0 + 0.2 * rng.uniform(-1.0, 1.0, n_stages + 1),
                           eta=0.05 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, n_stages)),
                           tau=1.0 + 0.2 * rng.uniform(-1.0, 1.0, n_stages), relax=relax)
        label = int(rng.integers(1, d.n_classes + 1))
        x = d.atoms[:, d.class_slice(label)] @ rng.standard_normal(d.class_slice(label).stop
                                                          - d.class_slice(label).start)
        x = x / np.linalg.norm(x) + 0.05 * rng.standard_normal(d.n_bands)
        _, trace = forward(d, x, params)
        if kink_margin(trace, params) > margin:
            return x, one_hot(label, d.n_classes), params
    raise RuntimeError(f"no kink-free instance in 200 draws (seed {seed})")


class TestGradCheckShapes:
    """grad_check, the oracle, on the shapes where the band space differs:
    r = atoms < bands, r above the rank of D, and rho at the floor."""

    def test_tall_dictionary(self):
        d, x, y, params = gradcheck_instance(3, n_bands=40, n_atoms=24, n_stages=4)
        assert d.n_atoms < d.n_bands
        assert grad_check(d, x, y, params, step=1e-6).max_rel_error <= 1e-5

    def test_rank_deficient_dictionary(self):
        rng = np.random.default_rng(8)
        atoms = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 40))
        d = assemble(atoms / np.linalg.norm(atoms, axis=0), np.repeat([1, 2], 20))
        assert np.linalg.matrix_rank(d.atoms) == 5
        x, y, params = kink_free(d, 8)
        assert grad_check(d, x, y, params, step=1e-6).max_rel_error <= 1e-5

    def test_rho_near_the_floor_with_relax(self):
        d, *_ = gradcheck_instance(11, n_stages=3)
        x, y, params = kink_free(d, 11, rho=3.0 * RHO_FLOOR, relax=1.4, n_stages=3)
        report = grad_check(d, x, y, params, step=1e-8)
        assert not report.zero["rho"].all()
        assert report.max_rel_error <= 1e-5


class TestNonFinitePixels:
    """A NaN or inf pixel is rejected at entry, before any stage runs."""

    d = WIDE

    @pytest.fixture(params=[np.nan, np.inf])
    def bad(self, request):
        x = pixels(self.d, np.random.default_rng(0), 3)
        x[4, 1] = request.param
        return x

    def test_forward(self, bad):
        for x in (bad, bad[:, 1]):
            with pytest.raises(ValueError, match="infs or NaNs"):
                forward(self.d, x, NetParams.default(2))

    def test_admm_fixed_runs_no_iteration(self, bad):
        seen = []
        with pytest.raises(ValueError, match="infs or NaNs"):
            solvers.admm_fixed(self.d, bad, callback=lambda *state: seen.append(1))
        assert seen == []

    def test_backward(self, bad):
        params = NetParams.default(2)
        good = np.nan_to_num(bad, posinf=0.0)
        _, trace = forward(self.d, good, params)
        y = np.stack([one_hot(1, self.d.n_classes)] * 3, axis=1)
        with pytest.raises(ValueError, match="infs or NaNs"):
            backward(self.d, bad, y, params, trace)

    def test_train(self, bad):
        labels = np.array([1, 2, 3])
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(self.d, bad, labels, epochs=1, init=NetParams.default(2))


def garbage_like(a):
    return None if a is None else np.full(np.shape(a), np.nan)


@examples
@given(d=dictionaries, rho=rhos, width=st.sampled_from([None, 32]),
       relax=st.sampled_from([0.5, 1.0, 1.7]), final=st.booleans(), seed=seeds)
def test_stage_into_buffers_equals_allocating_stage(d, rho, width, relax, final, seed):
    """admm_stage(out=...) fills NaN buffers with the bytes of the allocating
    call, and both equal the stage written one allocating expression a node
    (at relax 1 the skipped blend may flip the sign of an exact zero)."""
    rng = np.random.default_rng(seed)
    utx = d.gram_cache.project(pixels(d, rng, width))
    z, u = codes(d, rng, width)
    eta, tau = (None, None) if final else (rng.uniform(0.0, 0.1), rng.uniform(0.5, 1.5))
    want = solvers.admm_stage(d, utx, z, u, rho, relax, eta, tau)
    out = [garbage_like(a) for a in want]
    out[2] = np.full(np.shape(z), np.nan)  # the final node's v is scratch
    got = solvers.admm_stage(d, utx, z, u, rho, relax, eta, tau, out=out)
    assert all(g is o for g, o in zip(got[:2] + got[3:], out[:2] + out[3:]))
    for new, old in zip(got, want):
        assert (new is None and old is None) or new.tobytes() == old.tobytes()

    w, c = d.gram_cache.stage(rho, utx, z - u)
    bufs = garbage_like(w), garbage_like(c)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(d.gram_cache.stage(rho, utx, z - u, out=bufs), (w, c)))
    alpha = relax * w + (1.0 - relax) * z
    textbook = [alpha, c]
    if not final:
        v = alpha + u
        z_next = solvers.soft_threshold(v, eta)
        textbook += [v, z_next, u + tau * (alpha - z_next)]
    for new, old in zip(got, textbook):
        np.testing.assert_array_equal(new, old)


@examples
@given(d=dictionaries, rho=rhos, width=widths, relax=st.sampled_from([0.5, 1.0, 1.7]),
       tau=st.floats(0.5, 1.5), seed=seeds)
def test_stage_in_place_equals_allocating_stage(d, rho, width, relax, tau, seed):
    """admm_stage with z' = z and u' = u, v then scratch, updates the code in
    place to the bytes of the allocating call's alpha, c, z' and u'."""
    rng = np.random.default_rng(seed)
    utx = d.gram_cache.project(pixels(d, rng, width))
    z, u = codes(d, rng, width)
    eta = rng.uniform(0.0, 0.1)
    want = solvers.admm_stage(d, utx, z, u, rho, relax, eta, tau)
    alpha, c, v = (garbage_like(a) for a in want[:3])
    got = solvers.admm_stage(d, utx, z, u, rho, relax, eta, tau, out=(alpha, c, v, z, u))
    assert got[3] is z and got[4] is u
    for i in (0, 1, 3, 4):
        assert got[i].tobytes() == want[i].tobytes()


@examples
@given(d=dictionaries, width=widths, seed=seeds, relax=st.sampled_from([0.5, 1.0, 1.7]))
def test_forward_without_trace_and_backward_on_stacked_trace(d, width, seed, relax):
    rng = np.random.default_rng(seed)
    x = pixels(d, rng, width)
    params = replace(random_net(rng), relax=relax)
    code, trace = forward(d, x, params)
    bare, none = forward(d, x, params, keep_trace=False)
    assert none is None
    assert bare.coeffs.tobytes() == code.coeffs.tobytes()
    assert bare.support.tobytes() == code.support.tobytes()
    stages, shape = params.n_stages, code.coeffs.shape
    assert trace.alpha_seq.shape == (stages + 1,) + shape
    assert trace.z_seq.shape == trace.u_seq.shape == trace.pre_activation_seq.shape == \
        (stages,) + shape
    assert trace.c_seq.shape == (stages + 1, min(d.atoms.shape)) + shape[1:]

    labels = rng.integers(1, d.n_classes + 1, width or 1)
    y = np.stack([one_hot(int(label), d.n_classes) for label in labels], axis=1)
    y = y[:, 0] if width is None else y
    got = gradient(backward(d, x, y, params, trace))
    want = gradient(reference.backward(d, x, y, params, trace))
    conditioning = 1.0 + d.lipschitz / params.rho.min()
    assert np.linalg.norm(got - want) <= 1e-12 * conditioning * np.linalg.norm(want)


def test_a_second_pass_leaves_the_first_untouched():
    rng = np.random.default_rng(4)
    x1, x2 = pixels(PAVIA, rng, 32), pixels(PAVIA, rng, 32)
    y = np.stack([one_hot(int(c), 9) for c in rng.integers(1, 10, 32)], axis=1)
    params = NetParams(rho=rng.uniform(0.05, 0.2, 6), eta=np.full(5, 0.01),
                       tau=rng.uniform(0.9, 1.1, 5), relax=1.3)
    code, trace = forward(PAVIA, x1, params)
    bare = asdn(PAVIA, x1, params)
    fields = ("alpha_seq", "z_seq", "u_seq", "pre_activation_seq", "c_seq")
    before = [getattr(trace, f).tobytes() for f in fields] + \
        [code.coeffs.tobytes(), bare.coeffs.tobytes()]
    backward(PAVIA, x1, y, params, trace)
    forward(PAVIA, x2, params)
    asdn(PAVIA, x2, params)
    backward(PAVIA, x2, y, params, forward(PAVIA, x2, params)[1])
    after = [getattr(trace, f).tobytes() for f in fields] + \
        [code.coeffs.tobytes(), bare.coeffs.tobytes()]
    assert after == before


def test_asdn_working_memory_does_not_grow_with_depth():
    """asdn keeps no trace, so its peak traced allocation over one block is
    the same at any depth, within two block arrays."""
    x = pixels(PAVIA, np.random.default_rng(6), 32)
    block = PAVIA.n_atoms * x.shape[1] * 8

    def peak(n_stages):
        asdn(PAVIA, x, n_stages=n_stages)  # the spectrum, built once, is not counted
        return traced_peak(lambda: asdn(PAVIA, x, n_stages=n_stages))[0]

    assert peak(20) <= peak(2) + 2 * block


def test_asdn_holds_four_atom_space_arrays():
    """Without a trace forward updates z and u in place, so asdn over one
    block peaks at four atom-space block arrays (alpha, v, z and u) plus its
    band-space U^T x and c, within half a block array."""
    x = pixels(PAVIA, np.random.default_rng(8), 32)
    block, band = PAVIA.n_atoms * 32 * 8, min(PAVIA.atoms.shape) * 32 * 8
    asdn(PAVIA, x)  # the spectrum, built once, is not counted
    assert traced_peak(lambda: asdn(PAVIA, x))[0] <= 4 * block + 2 * band + block // 2


def test_classify_testset_holds_one_block_at_a_time():
    """Each block is decided as it is coded, so over three blocks
    classify_testset peaks at one block's workspace (asdn's peak over a
    block, its code included), within half a code: no earlier code is kept."""
    x = pixels(PAVIA, np.random.default_rng(10), 3 * BLOCK_COLUMNS)
    first = x[:, :BLOCK_COLUMNS]
    asdn(PAVIA, first)  # the spectrum, built once, is not counted
    workspace = traced_peak(lambda: asdn(PAVIA, first))[0]
    code = PAVIA.n_atoms * BLOCK_COLUMNS * 8
    peak, labels = traced_peak(lambda: classify_testset(PAVIA, x, "asdn"))
    assert labels.shape == (3 * BLOCK_COLUMNS,)
    assert peak <= workspace + code // 2


def test_train_holds_one_trace_at_a_time():
    """train frees each block's trace before the next forward, so over three
    steps of one block it peaks at one step's forward and backward, within
    half a trace."""
    rng = np.random.default_rng(12)
    x, labels = pixels(PAVIA, rng, 96), rng.integers(1, 10, 96)
    params = NetParams.default(4, eta=0.01)
    first, y = x[:, :32], one_hot(labels[:32], 9)
    backward(PAVIA, first, y, params, forward(PAVIA, first, params)[1])  # the spectrum
    step = traced_peak(lambda: backward(PAVIA, first, y, params,
                                        forward(PAVIA, first, params)[1]))[0]
    trace = 4 * (params.n_stages + 1) * PAVIA.n_atoms * 32 * 8
    peak = traced_peak(lambda: train(PAVIA, x, labels, epochs=1, batch_size=32, init=params))[0]
    assert peak <= step + trace // 2
