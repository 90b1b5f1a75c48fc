import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from network_reference import mean_loss, stage_record, train as reference_train
from srckit import network
from srckit.classify import src_decide
from srckit.dictionary import assemble
from srckit.data import PCG64
from srckit.network import (FLOORS, NetParams, StageTrace, TrainingDiverged, backward,
                            class_residuals, forward, grad_check, kink_margin, loss, one_hot,
                            train)
from srckit.solvers import SparseCode, admm_fixed, admm_stage, soft_threshold
from srckit.synthetic import gradcheck_instance, random_unit_dictionary
from synthetic_problems import subspace_classes


def two_class_dictionary(seed, bands=12, atoms=16):
    labels = np.repeat([1, 2], atoms // 2)
    return random_unit_dictionary(seed, bands, atoms, labels)


class TestNetParams:
    def test_default_shapes(self):
        p = NetParams.default(9)
        assert p.n_stages == 9
        assert len(p.rho) == 10 and len(p.eta) == 9 and len(p.tau) == 9

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            NetParams(rho=np.ones(3), eta=np.ones(3), tau=np.ones(3))
        with pytest.raises(ValueError, match="rho"):
            NetParams(rho=np.array([1.0, 0.0]), eta=np.array([0.1]),
                      tau=np.array([1.0]))
        with pytest.raises(ValueError, match="relax"):
            NetParams.default(2, relax=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            NetParams(rho=np.ones(2), eta=np.array([-0.1]), tau=np.ones(1))

    def test_entries_and_document_checks(self):
        with pytest.raises(ValueError, match="eta contains non-finite entries"):
            NetParams(rho=np.ones(2), eta=np.array([np.nan]), tau=np.ones(1))
        with pytest.raises(ValueError, match="tau entries must be >= 1e-06"):
            NetParams(rho=np.ones(2), eta=np.array([0.1]), tau=np.zeros(1))
        doc = NetParams.default(2).to_json()
        doc["n_stages"] = 3
        with pytest.raises(ValueError, match="n_stages field 3 contradicts array lengths"):
            NetParams.from_json(doc)
        doc["n_stages"] = True  # an int to Python, but not a JSON integer
        with pytest.raises(ValueError, match="n_stages True is not an integer"):
            NetParams.from_json(doc)
        doc = {**NetParams.default(1).to_json(), "eta": ["0.1"]}
        with pytest.raises(ValueError, match="eta entry '0.1' is not a number"):
            NetParams.from_json(doc)
        doc["eta"] = [float("nan")]  # a number: the entry check names it
        with pytest.raises(ValueError, match="eta contains non-finite entries"):
            NetParams.from_json(doc)
        del doc["n_stages"]
        doc["eta"] = [1]
        assert NetParams.from_json(doc).eta.tolist() == [1.0]
        # a key to_json does not write is named, not ignored
        with pytest.raises(ValueError, match="unknown key 'gamma', 'rh0'"):
            NetParams.from_json({**doc, "rh0": doc["rho"], "gamma": 3})

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(4)
        p = NetParams(rho=1.0 + rng.random(6), eta=rng.random(5),
                      tau=1.0 + rng.random(5), relax=1.5)
        doc = json.loads(json.dumps(p.to_json()))
        back = NetParams.from_json(doc)
        assert np.array_equal(back.rho, p.rho)
        assert np.array_equal(back.eta, p.eta)
        assert np.array_equal(back.tau, p.tau)
        assert back.relax == p.relax

    def test_save_load(self):
        p = NetParams.default(3, eta=0.07)
        back = NetParams.from_json(json.loads(p.to_text()))
        assert np.array_equal(back.eta, p.eta)
        # params.json's key order and indentation are part of its format
        assert NetParams(rho=[1.0, 2.0, 0.5], eta=[0.07, 0.0], tau=[1.0, 1.25],
                         relax=1.5).to_text() == (
            '{\n  "n_stages": 2,\n  "relax": 1.5,\n'
            '  "rho": [\n    1.0,\n    2.0,\n    0.5\n  ],\n'
            '  "eta": [\n    0.07,\n    0.0\n  ],\n'
            '  "tau": [\n    1.0,\n    1.25\n  ]\n}')


class TestSoftThresholdProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(0, 5))
    def test_pointwise_definition(self, v, eta):
        out = soft_threshold(np.array([v]), eta)[0]
        assert out == math.copysign(max(abs(v) - eta, 0.0), v) or out == 0.0

    def test_worked_values(self):
        assert soft_threshold(np.array([2.0]), 0.5)[0] == 1.5
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0


class TestForward:
    def test_first_stage_formula(self):
        d = two_class_dictionary(0)
        x = np.random.default_rng(0).standard_normal(12)
        relax = 0.7
        rho1 = 1.3
        params = NetParams(rho=np.array([rho1, 1.0]), eta=np.array([0.1]),
                           tau=np.array([1.0]), relax=relax)
        _, trace = forward(d, x, params)
        gram = d.atoms.T @ d.atoms
        expected = relax * np.linalg.solve(gram + rho1 * np.eye(16), d.atoms.T @ x)
        assert np.abs(trace.alpha_seq[0] - expected).max() <= 1e-10

    def test_zero_input_propagates_zeros(self):
        d = two_class_dictionary(1)
        params = NetParams.default(4)
        code, trace = forward(d, np.zeros(12), params)
        assert not code.coeffs.any()
        record = stage_record(trace, params)  # z and u rebuilt from alpha and v
        for seq in (record.alpha_seq, record.z_seq, record.u_seq):
            for v in seq:
                assert not v.any()

    def test_matches_admm_iterates(self):
        for seed in range(3):
            d = random_unit_dictionary(seed, 30, 60)
            x = np.random.default_rng(50 + seed).standard_normal(30)
            x /= np.linalg.norm(x)
            n = 12
            rho, lam, tau, relax = 0.8, 0.12, 1.1, 1.0
            params = NetParams(rho=np.full(n + 1, rho),
                               eta=np.full(n, lam / rho),
                               tau=np.full(n, tau), relax=relax)
            _, trace = forward(d, x, params)
            record = stage_record(trace, params)  # z and u rebuilt from alpha and v
            iterates = []
            admm_fixed(d, x, lam=lam, rho=rho, relax=relax, tau=tau,
                       max_iters=n, tol=0.0,
                       callback=lambda a, z, u: iterates.append((a, z, u)))
            for k in range(n):
                a, z, u = iterates[k]
                assert np.abs(trace.alpha_seq[k] - a).max() <= 1e-12
                assert np.abs(record.z_seq[k] - z).max() <= 1e-12
                assert np.abs(record.u_seq[k] - u).max() <= 1e-12

    def test_trace_recomputable_bitwise(self):
        # backward rebuilds each z from the v the trace keeps: that must be
        # the z each stage made, and so must stage_record's u
        d = two_class_dictionary(2)
        x = np.random.default_rng(2).standard_normal(12)
        params = NetParams.default(5, eta=0.05)
        _, trace = forward(d, x, params)
        record = stage_record(trace, params)
        utx, z = d.gram_cache.project(x), np.zeros(d.n_atoms)
        u = z
        for k, v in enumerate(trace.pre_activation_seq):
            *_, z, u = admm_stage(d, utx, z, u, params.rho[k], params.relax, params.eta[k],
                                  params.tau[k])
            again = soft_threshold(v, params.eta[k])
            assert again.tobytes() == z.tobytes()
            assert record.u_seq[k].tobytes() == u.tobytes()

    def test_dimension_mismatch(self):
        d = two_class_dictionary(3)
        with pytest.raises(ValueError, match="bands"):
            forward(d, np.zeros(5), NetParams.default(2))


class TestResidualsAndLoss:
    def test_zero_code_residuals(self):
        d = two_class_dictionary(4)
        x = np.random.default_rng(4).standard_normal(12)
        r = class_residuals(d, np.zeros(16), x)
        assert np.allclose(r, 0.5 * float(x @ x))

    def test_exact_representation_zeroes_true_class(self):
        d = two_class_dictionary(5)
        coeffs = np.zeros(16)
        coeffs[8:] = np.random.default_rng(5).standard_normal(8)
        x = d.atoms[:, 8:] @ coeffs[8:]
        r = class_residuals(d, coeffs, x)
        assert r[1] <= 1e-20
        assert r[0] > 0

    def test_matches_direct_formula(self):
        d = two_class_dictionary(6)
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(16)
        x = rng.standard_normal(12)
        r = class_residuals(d, coeffs, x)
        for i in (1, 2):
            sub = d.atoms[:, d.class_slice(i)]
            block = coeffs[d.class_slice(i)]
            expected = 0.5 * np.linalg.norm(x - sub @ block) ** 2
            assert r[i - 1] == pytest.approx(expected, rel=1e-12)

    def test_uniform_residuals_give_log_c(self):
        assert loss(np.zeros(2), one_hot(1, 2))[0] == pytest.approx(math.log(2.0))

    def test_worked_example(self):
        expected = math.log(1.0 + math.exp(-2.0))
        assert loss(np.array([1.0, 3.0]), one_hot(1, 2))[0] == pytest.approx(
            expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
           st.floats(-50, 50))
    def test_shift_invariance(self, residuals, shift):
        r = np.asarray(residuals)
        y = one_hot(1, len(r))
        assert loss(r + shift, y)[0] == pytest.approx(loss(r, y)[0], abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = rng.uniform(-5, 5, size=4)
            assert loss(r, one_hot(int(rng.integers(1, 5)), 4))[0] >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 5.0, 40.0]))
    def test_block_columns_match_one_pixel_calls(self, c, n, seed, scale):
        # a block sums each column's exponentials in another order than one
        # pixel does (C >= 8); over 30 000 random blocks of 1-16 classes the
        # largest gap was 4 eps * max(1, max |r|) in E and 4 eps in dE/dr
        rng = np.random.default_rng(seed)
        r = rng.uniform(-scale, scale, (c, n))
        y = one_hot(rng.integers(1, c + 1, n), c)
        losses, seed_block = loss(r, y)
        assert losses.shape == (n,) and seed_block.shape == (c, n)
        eps = np.finfo(np.float64).eps
        for j in range(n):
            e, g = loss(r[:, j], y[:, j])
            assert isinstance(e, float) and g.shape == (c,)
            assert abs(losses[j] - e) <= 8 * eps * max(1.0, np.abs(r[:, j]).max())
            assert np.abs(seed_block[:, j] - g).max() <= 8 * eps

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_gradient_matches_central_differences(self, c, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(-5.0, 5.0, c)
        y = one_hot(int(rng.integers(1, c + 1)), c)
        _, grad = loss(r, y)
        step = 1e-5
        for i in range(c):
            plus, minus = r.copy(), r.copy()
            plus[i] += step
            minus[i] -= step
            fd = (loss(plus, y)[0] - loss(minus, y)[0]) / (2 * step)
            assert grad[i] == pytest.approx(fd, abs=1e-8)
        # each column of dE/dr = y - softmax(-r) sums to zero
        assert abs(grad.sum()) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 8), st.floats(-50, 50))
    def test_equal_residuals_give_log_c(self, c, n, value):
        labels = np.arange(n) % c + 1
        losses, grad = loss(np.full((c, n), value), one_hot(labels, c))
        assert losses == pytest.approx(np.full(n, math.log(c)), abs=1e-13)
        assert grad == pytest.approx(one_hot(labels, c) - 1.0 / c, abs=1e-15)
        e, g = loss(np.full(c, value), one_hot(1, c))
        assert e == pytest.approx(math.log(c), abs=1e-13)
        assert g == pytest.approx(one_hot(1, c) - 1.0 / c, abs=1e-15)


class TestBackward:
    def test_symmetric_two_class_seed_direction(self):
        # equal residuals, true class 1: nudging rho must move the loss the
        # way the analytic gradient says (sign sanity for the loss seed)
        d, x, y, params = gradcheck_instance(3, n_stages=3)
        _, trace = forward(d, x, params)
        grads, loss_value = backward(d, x, y, params, trace)
        eps = 1e-7
        for idx in range(len(params.rho)):
            plus = params.copy()
            plus.rho[idx] += eps
            _, t2 = forward(d, x, plus)
            _, loss_plus = backward(d, x, y, plus, t2)
            fd = (loss_plus - loss_value) / eps
            if abs(grads["rho"][idx]) > 1e-8:
                assert np.sign(fd) == np.sign(grads["rho"][idx])

    def test_matches_central_differences(self):
        for seed in range(4):
            d, x, y, params = gradcheck_instance(seed, n_stages=4)
            report = grad_check(d, x, y, params, step=1e-6)
            assert report.max_rel_error <= 1e-5

    def test_relax_not_one_gradients(self):
        d, x, y, params = gradcheck_instance(11, n_stages=3)
        params = NetParams(rho=params.rho, eta=params.eta, tau=params.tau,
                           relax=1.4)
        report = grad_check(d, x, y, params, step=1e-6)
        assert report.max_rel_error <= 1e-5

    def test_dead_stage_has_zero_eta_gradient(self):
        d = two_class_dictionary(12)
        x = np.random.default_rng(12).standard_normal(12)
        x /= np.linalg.norm(x)
        params = NetParams.default(3, eta=0.1)
        params.eta[0] = 50.0  # every entry thresholded to zero at stage 1
        _, trace = forward(d, x, params)
        assert not stage_record(trace, params).z_seq[0].any()
        grads, _ = backward(d, x, one_hot(1, 2), params, trace)
        assert grads["eta"][0] == 0.0

    def test_trace_params_mismatch(self):
        d = two_class_dictionary(13)
        x = np.random.default_rng(13).standard_normal(12)
        _, trace = forward(d, x, NetParams.default(3))
        with pytest.raises(ValueError, match="trace"):
            backward(d, x, one_hot(1, 2), NetParams.default(4), trace)


class TestGradCheck:
    def test_step_scaling(self):
        d, x, y, params = gradcheck_instance(17, n_stages=3)
        fine = grad_check(d, x, y, params, step=1e-6)
        coarse = grad_check(d, x, y, params, step=1e-2)
        assert fine.max_rel_error <= 1e-5
        assert coarse.max_rel_error > fine.max_rel_error

    def test_zero_input_flags_zero_gradients(self):
        d = two_class_dictionary(18)
        report = grad_check(d, np.zeros(12), one_hot(1, 2), NetParams.default(3))
        assert all(flags.all() for flags in report.zero.values())
        assert report.max_rel_error == 0.0

    def test_one_class_instance_is_rejected(self):
        # one class: the loss and every gradient are 0, so the check checks nothing
        with pytest.raises(ValueError, match="n_classes must be >= 2"):
            gradcheck_instance(0, n_classes=1)

    def test_kink_margin_reported(self):
        d, x, y, params = gradcheck_instance(19, n_stages=3, margin=1e-4)
        _, trace = forward(d, x, params)
        assert kink_margin(trace, params) > 1e-4

    def test_kink_margin_is_the_smallest_over_every_stage(self):
        # margins 0.375, 0.0625, 0.5 at stage 1 and 0.125, 0.09375, 0.75 at
        # stage 2 (binary fractions, so exact): the smallest is stage 1's
        params = NetParams(rho=[1.0, 1.0, 1.0], eta=[0.5, 0.25], tau=[1.0, 1.0])
        v = np.array([[0.875, -0.4375, 0.0], [0.375, -0.34375, 1.0]])
        trace = StageTrace(alpha_seq=np.zeros((3, 3)), pre_activation_seq=v,
                           c_seq=np.zeros((3, 1)))
        assert kink_margin(trace, params) == 0.0625

    def test_bad_step(self):
        d, x, y, params = gradcheck_instance(20, n_stages=2)
        with pytest.raises(ValueError, match="step"):
            grad_check(d, x, y, params, step=0.0)

    def test_step_past_a_floor_is_rejected(self, monkeypatch):
        # the minus copy would hold eta below 0, which soft_threshold rejects
        # mid-check; the step is refused before any pass instead
        d, x, y, params = gradcheck_instance(0, n_stages=1)
        eta = float(params.eta.min())
        monkeypatch.setattr(network, "forward", None)  # no pass may start
        with pytest.raises(ValueError, match=r"step 0\.1 would move an entry of eta below its "
                                             r"floor 0\.0"):
            grad_check(d, x, y, params, step=0.1)
        monkeypatch.undo()
        assert eta < 0.1
        assert grad_check(d, x, y, params, step=eta).max_rel_error >= 0.0  # the floor itself

    def test_no_kink_free_instance(self):
        with pytest.raises(ValueError, match=r"no kink-free instance found in 2 draws \(seed 21\)"):
            gradcheck_instance(21, n_stages=2, margin=1.0, max_draws=2)

    def test_tied_class_residuals_are_rejected(self):
        # one band and one atom per class: both classes reconstruct x alike at
        # every draw, so the loss is a flat ln 2 and every gradient is noise
        with pytest.raises(ValueError, match="class residuals spread by more than"):
            gradcheck_instance(0, n_bands=1, n_atoms=2, n_classes=2)


def test_subspaces_that_do_not_fit():
    with pytest.raises(ValueError, match="subspaces do not fit"):
        subspace_classes(0, n_classes=3, dim=8, sub_dim=3)


def test_class_residuals_checks_the_code_length():
    d = two_class_dictionary(22)
    with pytest.raises(ValueError, match="code length 15 != 16 atoms"):
        class_residuals(d, np.zeros(15), np.zeros(12))


def test_sparse_code_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="non-finite coefficients"):
        SparseCode(np.array([0.0, np.inf]))


class TestTrain:
    def make_problem(self, seed):
        data = subspace_classes(seed, n_classes=2, dim=16, sub_dim=3,
                                n_dict=5, n_train=12, n_test=5, noise=0.01)
        dictionary = assemble(data.dict_pixels, data.dict_labels)
        return dictionary, data.train_pixels, data.train_labels

    def test_equals_the_per_pixel_reference(self):
        # 12 pixels at batch 5 leave a last batch of 2, whose mean is over 2;
        # at eta 0.01 shrinkage passes atoms (at 0.1 eta's gradient is 0)
        data = subspace_classes(0, n_classes=2, dim=16, sub_dim=3, n_dict=5, n_train=6,
                                n_test=5, noise=0.01)
        d = assemble(data.dict_pixels, data.dict_labels)
        px, lb = data.train_pixels, data.train_labels
        init = NetParams.default(3, eta=0.01)
        cfg = dict(learning_rate=1e-2, epochs=3, batch_size=5, seed=4, init=init)
        params, history = train(d, px, lb, **cfg)
        want, mean_losses = reference_train(d, px, lb, **cfg)
        # the reference's solve-based stage rounds otherwise: 5e-15 relative here
        for name in FLOORS:
            assert not np.array_equal(getattr(params, name), getattr(init, name)), name
            np.testing.assert_allclose(getattr(params, name), getattr(want, name),
                                       rtol=1e-10, atol=1e-14, err_msg=name)
        np.testing.assert_allclose(history["mean_loss"], mean_losses, rtol=0, atol=1e-12)

    def test_zero_learning_rate_is_identity(self):
        d, px, lb = self.make_problem(0)
        init = NetParams.default(3, eta=0.2)
        params, history = train(d, px, lb, learning_rate=0.0, epochs=3, batch_size=4,
                                seed=1, init=init)
        assert np.array_equal(params.rho, init.rho)
        assert np.array_equal(params.eta, init.eta)
        assert np.array_equal(params.tau, init.tau)
        assert np.allclose(history["mean_loss"], history["mean_loss"][0])

    def test_loss_decreases_with_poor_init(self):
        d, px, lb = self.make_problem(1)
        init = NetParams.default(3, eta=0.9)
        params, history = train(d, px, lb, learning_rate=1e-2, epochs=12, batch_size=8,
                                seed=2, init=init)
        assert mean_loss(d, px, lb, params) < mean_loss(d, px, lb, init)

    def test_seed_determinism(self):
        d, px, lb = self.make_problem(2)
        cfg = dict(learning_rate=1e-2, epochs=4, batch_size=4, seed=7)
        _, h1 = train(d, px, lb, **cfg)
        _, h2 = train(d, px, lb, **cfg)
        assert h1.tobytes() == h2.tobytes()

    def test_threaded_matches_serial_bitwise(self):
        d, px, lb = self.make_problem(3)
        cfg = dict(learning_rate=1e-2, epochs=2, batch_size=5, seed=4)
        p1, h1 = train(d, px, lb, **cfg)
        p2, h2 = train(d, px, lb, **cfg)
        assert h1.tobytes() == h2.tobytes()
        assert p1.rho.tobytes() == p2.rho.tobytes()

    def test_projection_floors_hold(self):
        d, px, lb = self.make_problem(4)
        params, _ = train(d, px, lb, learning_rate=50.0, epochs=2, batch_size=6, seed=5)
        assert (params.rho >= 1e-6).all()
        assert (params.eta >= 0.0).all()
        assert (params.tau >= 1e-6).all()

    def test_divergence_guard_names_epoch(self):
        d, px, lb = self.make_problem(5)
        px = px.copy()
        px[:, 0] = 1e200  # forces an overflowing residual
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(d, px, lb, learning_rate=1e-2, epochs=2, batch_size=4, seed=6)

    @pytest.mark.parametrize("loss_value, message", [
        (math.inf, "training loss became non-finite at epoch 0"),
        (1e308, "mean training loss became non-finite at epoch 0"),  # sums to inf
    ])
    def test_non_finite_loss_without_a_floating_point_error(self, monkeypatch,
                                                            loss_value, message):
        # the errstate guard catches every loss the network itself overflows,
        # so a stub backward reaches the two checks on the loss sums
        def stub(dictionary, x, y, params, trace, predicted=None):
            return {name: np.zeros_like(getattr(params, name)) for name in FLOORS}, loss_value

        monkeypatch.setattr(network, "backward", stub)
        d, px, lb = self.make_problem(5)
        with pytest.raises(TrainingDiverged, match=f"^{message}$"):
            train(d, px, lb, epochs=1, batch_size=12)

    def test_non_finite_step_is_divergence(self, monkeypatch):
        # an infinite rate times a finite gradient is exact, so no errstate
        # guard fires: the step's own check finds rho infinite
        def stub(dictionary, x, y, params, trace, predicted=None):
            return {name: -np.ones_like(getattr(params, name)) for name in FLOORS}, 1.0

        monkeypatch.setattr(network, "backward", stub)
        d, px, lb = self.make_problem(5)
        with pytest.raises(TrainingDiverged,
                           match="^training loss became non-finite at epoch 0: rho contains "
                                 "non-finite entries$"):
            train(d, px, lb, learning_rate=math.inf, epochs=1, batch_size=12)

    def test_label_validation(self):
        d, px, lb = self.make_problem(6)
        with pytest.raises(ValueError, match="labels"):
            train(d, px, np.zeros_like(lb), epochs=1)
        with pytest.raises(ValueError, match="labels outside 1..2"):
            train(d, px, np.where(np.arange(len(lb)) == 3, d.n_classes + 1, lb), epochs=1)

    def test_pixel_and_label_counts(self):
        d, px, lb = self.make_problem(6)
        with pytest.raises(ValueError, match="no training pixels"):
            train(d, px[:, :0], lb[:0], epochs=1)
        with pytest.raises(ValueError, match=f"{len(lb)} pixels but {len(lb) - 1} labels"):
            train(d, px, lb[:-1], epochs=1)

    def test_history_holds_backwards_predictions(self):
        # at learning rate 0 every step predicts with init, so each epoch's
        # accuracy and class count are src_decide's on init's codes
        d, px, lb = self.make_problem(7)
        init = NetParams.default(3, eta=0.01)
        _, history = train(d, px, lb, learning_rate=0.0, epochs=2, batch_size=5, seed=3,
                           init=init)
        code, trace = forward(d, px, init)
        want = src_decide(d, code, px)
        predicted = np.zeros(len(lb), dtype=np.int64)
        backward(d, px, one_hot(lb, 2), init, trace, predicted=predicted)
        assert predicted.tolist() == want.tolist()
        assert history.dtype.names == ("mean_loss", "train_acc", "classes_predicted")
        assert history["train_acc"].tolist() == [np.mean(want == lb)] * 2
        assert history["classes_predicted"].tolist() == [len(set(want))] * 2

    def test_one_class_epochs_warn(self):
        # class 1's pixels, half of them labelled 2: every prediction is class 1
        d, px, lb = self.make_problem(8)
        ones = px[:, lb == 1]
        with pytest.warns(UserWarning, match=r"^epoch 0: every prediction is class 1, while the "
                                             r"truth covers 2 classes \(3 of 3 epochs predict one "
                                             r"class\)$"):
            _, history = train(d, np.hstack([ones, ones]), np.repeat([1, 2], ones.shape[1]),
                               epochs=3, batch_size=6, init=NetParams.default(3, eta=0.01))
        assert history["classes_predicted"].tolist() == [1, 1, 1]
        assert history["train_acc"].tolist() == [0.5, 0.5, 0.5]

    def test_dead_start_warns(self):
        # at eta 50 no stage's shrinkage passes an atom, so eta's gradient is 0
        d, px, lb = self.make_problem(9)
        with pytest.warns(UserWarning, match=r"^epoch 0: every eta gradient is exactly 0, so no "
                                             r"step moves it \(3 of 3 epochs\); .*dead start"):
            params, _ = train(d, px, lb, epochs=3, batch_size=6,
                              init=NetParams.default(3, eta=50.0))
        assert params.eta.tolist() == [50.0] * 3

    def test_frozen_group_is_read_over_every_batch(self):
        # 21 pixels at batch 5: the epoch's last batch is one pixel, scaled
        # to a norm of 1e-8 so that no stage's shrinkage passes an atom. That
        # batch alone leaves eta's gradient exactly 0, and the others move it
        d, px, lb = self.make_problem(11)
        px, lb = px[:, :21].copy(), lb[:21]
        order = np.arange(21)
        PCG64(3).shuffle(order)
        px[:, order[-1]] *= 1e-8
        init = NetParams.default(3, eta=0.01)
        x, y = px[:, order[-1]], one_hot(lb[order[-1]], 2)
        grads, _ = backward(d, x, y, init, forward(d, x, init)[1])
        assert not grads["eta"].any() and grads["rho"].any() and grads["tau"].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, _ = train(d, px, lb, epochs=1, batch_size=5, seed=3, init=init)
        assert not np.array_equal(params.eta, init.eta)

    def test_labels_of_one_class_do_not_warn(self):
        # every prediction is class 1, as is every label: nothing collapsed
        d, px, lb = self.make_problem(12)
        ones = px[:, lb == 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = train(d, ones, np.ones(ones.shape[1], dtype=np.int64), epochs=2,
                               batch_size=6, init=NetParams.default(3, eta=0.01))
        assert history["classes_predicted"].tolist() == [1, 1]

    def test_healthy_run_is_quiet(self):
        d, px, lb = self.make_problem(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = train(d, px, lb, epochs=3, batch_size=6,
                               init=NetParams.default(3, eta=0.01))
        assert history["classes_predicted"].tolist() == [2, 2, 2]

    @pytest.mark.parametrize("fields, message", [
        ({"learning_rate": -1e-3}, "learning_rate must be nonnegative"),
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
    ])
    def test_config_validation(self, fields, message):
        d, px, lb = self.make_problem(6)
        with pytest.raises(ValueError, match=message):
            train(d, px, lb, **fields)


def test_mean_loss_matches_manual():
    d = two_class_dictionary(30)
    rng = np.random.default_rng(30)
    px = rng.standard_normal((12, 4))
    lb = [1, 2, 1, 2]
    params = NetParams.default(3)
    manual = []
    for j, label in enumerate(lb):
        code, _ = forward(d, px[:, j], params)
        manual.append(loss(class_residuals(d, code, px[:, j]), one_hot(label, 2))[0])
    assert mean_loss(d, px, lb, params) == pytest.approx(np.mean(manual), rel=1e-12)


def test_one_hot_validation():
    assert one_hot(2, 3).tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        one_hot(0, 3)
    with pytest.raises(ValueError):
        one_hot(4, 3)
    # an array of labels gives one column per label
    assert one_hot([2, 1, 3, 2], 3).tolist() == [[0.0, 1.0, 0.0, 0.0],
                                                [1.0, 0.0, 0.0, 1.0],
                                                [0.0, 0.0, 1.0, 0.0]]
    assert one_hot(np.array([1, 2], dtype=np.int32), 2).dtype == np.float64
    assert one_hot(np.zeros(0, dtype=np.int64), 3).shape == (3, 0)
    for bad in ([1, 0, 2], [3, 4], np.array([[1], [5]])):
        with pytest.raises(ValueError, match="outside 1..3"):
            one_hot(bad, 3)
    for bad in (1.5, [1.0, 2.0], [True, False]):
        with pytest.raises(ValueError, match="integers"):
            one_hot(bad, 3)
