import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srckit.dictionary import assemble
from l1_reference import lasso_kkt_violation, lasso_objective
from srckit.solvers import admm_fixed, fista, soft_threshold
from srckit.synthetic import random_unit_dictionary
from synthetic_problems import random_orthonormal


def overdetermined_instance(seed, rows=40, cols=20):
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((rows, cols))
    atoms /= np.linalg.norm(atoms, axis=0)
    d = assemble(atoms, np.ones(cols, dtype=int))
    return d, rng.standard_normal(rows)


def orthonormal_instance(seed, n=30):
    q = random_orthonormal(seed, n)
    d = assemble(q, np.ones(n, dtype=int))
    return d, np.random.default_rng(seed).standard_normal(n)


class TestSoftThreshold:
    def test_definition(self):
        assert soft_threshold(np.array([2.0]), 0.5)[0] == pytest.approx(1.5)
        assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0
        assert soft_threshold(np.array([-2.0]), 0.5)[0] == pytest.approx(-1.5)

    def test_zero_threshold_is_identity(self):
        v = np.random.default_rng(0).standard_normal(50)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)

    @settings(max_examples=200, deadline=None)
    @given(v=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
           eta=st.one_of(st.just(0.0), st.floats(min_value=0.0, exclude_min=True,
                                                 allow_infinity=False)))
    def test_equals_sign_times_shrunk_magnitude(self, v, eta):
        v = np.array(v)
        got = soft_threshold(v, eta)
        assert (got == np.sign(v) * np.maximum(np.abs(v) - eta, 0.0)).all()
        assert not np.signbit(got[got == 0.0]).any()  # zeros are +0.0


class TestFista:
    def test_lam_zero_full_rank_least_squares(self):
        d, x = overdetermined_instance(5)
        code = fista(d, x, 0.0, max_iters=5000, tol=0.0)
        expected = np.linalg.lstsq(d.atoms, x, rcond=None)[0]
        assert np.abs(code.coeffs - expected).max() <= 1e-6

    def test_orthonormal_closed_form(self):
        d, x = orthonormal_instance(9)
        lam = 0.15
        code = fista(d, x, lam, max_iters=2000, tol=1e-14)
        closed = soft_threshold(d.atoms.T @ x, lam)
        assert np.abs(code.coeffs - closed).max() <= 1e-8

    def test_objective_monotone_nonincreasing(self):
        d = random_unit_dictionary(3, 40, 80)
        x = np.random.default_rng(3).standard_normal(40)
        history = []
        fista(d, x, 0.05, max_iters=500, tol=1e-12,
              callback=lambda a, obj: history.append(obj))
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_negative_lam_rejected(self):
        d, x = orthonormal_instance(2, n=5)
        with pytest.raises(ValueError):
            fista(d, x, -0.1)

    def test_support_matches_nonzeros(self):
        d = random_unit_dictionary(7, 30, 60)
        x = np.random.default_rng(7).standard_normal(30)
        code = fista(d, x, 0.2)
        assert np.array_equal(code.support, np.flatnonzero(code.coeffs))


class TestAdmmFixed:
    def test_lam_zero_converges_to_least_squares(self):
        d, x = overdetermined_instance(11)
        code = admm_fixed(d, x, lam=0.0, rho=1.0, relax=1.0, tau=1.0,
                          max_iters=2000, tol=1e-12)
        expected = np.linalg.lstsq(d.atoms, x, rcond=None)[0]
        assert np.abs(code.coeffs - expected).max() <= 1e-6

    def test_orthonormal_closed_form(self):
        d, x = orthonormal_instance(13)
        lam = 0.2
        code = admm_fixed(d, x, lam=lam, rho=1.0, relax=1.0, max_iters=2000, tol=1e-12)
        closed = soft_threshold(d.atoms.T @ x, lam)
        assert np.abs(code.coeffs - closed).max() <= 1e-6

    def test_returns_exactly_sparse_z(self):
        d = random_unit_dictionary(17, 30, 60)
        x = np.random.default_rng(17).standard_normal(30)
        code = admm_fixed(d, x, lam=0.3)
        assert (code.coeffs == 0.0).any()  # hard zeros, not tiny values
        assert np.array_equal(code.support, np.flatnonzero(code.coeffs))

    def test_objective_matches_fista(self):
        for seed in range(5):
            d = random_unit_dictionary(seed, 40, 80)
            x = np.random.default_rng(1000 + seed).standard_normal(40)
            x /= np.linalg.norm(x)
            for lam in (0.01, 0.1):
                a = admm_fixed(d, x, lam=lam, max_iters=5000, tol=1e-10)
                f = fista(d, x, lam, max_iters=5000, tol=1e-12)
                fa = lasso_objective(d, x, a.coeffs, lam)
                ff = lasso_objective(d, x, f.coeffs, lam)
                assert abs(fa - ff) <= 1e-6 * max(abs(fa), abs(ff))

    def test_kkt_at_convergence(self):
        d = random_unit_dictionary(23, 40, 80)
        x = np.random.default_rng(23).standard_normal(40)
        x /= np.linalg.norm(x)
        lam = 0.05
        code = admm_fixed(d, x, lam=lam, max_iters=5000, tol=1e-10)
        assert lasso_kkt_violation(d, x, lam, code.coeffs) <= 1e-4

    def test_relaxation_reaches_same_solution(self):
        d = random_unit_dictionary(29, 30, 50)
        x = np.random.default_rng(29).standard_normal(30)
        lam = 0.1
        plain = admm_fixed(d, x, lam=lam, max_iters=5000, tol=1e-12)
        relaxed = admm_fixed(d, x, lam=lam, relax=1.6, max_iters=5000, tol=1e-12)
        fp = lasso_objective(d, x, plain.coeffs, lam)
        fr = lasso_objective(d, x, relaxed.coeffs, lam)
        assert abs(fp - fr) <= 1e-8 * max(1.0, abs(fp))

    def test_callback_sees_every_iteration(self):
        d, x = orthonormal_instance(31, n=10)
        seen = []
        admm_fixed(d, x, lam=0.1, max_iters=7, tol=0.0,
                   callback=lambda a, z, u: seen.append((a.copy(), z.copy(), u.copy())))
        assert len(seen) == 7
        # z is the soft-thresholded pre-activation at every iterate
        for alpha, z, u in seen:
            assert z.shape == alpha.shape == u.shape

    def test_deterministic(self):
        d = random_unit_dictionary(37, 25, 50)
        x = np.random.default_rng(37).standard_normal(25)
        one = admm_fixed(d, x, lam=0.1, max_iters=300)
        two = admm_fixed(d, x, lam=0.1, max_iters=300)
        assert one.coeffs.tobytes() == two.coeffs.tobytes()

    def test_config_validation(self):
        d, x = orthonormal_instance(41, n=5)
        with pytest.raises(ValueError, match="lam"):
            admm_fixed(d, x, lam=-1.0)
        with pytest.raises(ValueError, match="rho"):
            admm_fixed(d, x, rho=0.0)
        with pytest.raises(ValueError, match="relax"):
            admm_fixed(d, x, relax=2.5)
        with pytest.raises(ValueError, match="tau"):
            admm_fixed(d, x, tau=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            admm_fixed(d, x, max_iters=0)
        with pytest.raises(ValueError, match="tol"):
            admm_fixed(d, x, tol=-1e-9)


class TestLassoOracles:
    """``lasso_objective`` and ``lasso_kkt_violation`` take a block's code
    (n_atoms, n) and return one value per column: the per-column values,
    up to the rounding of a block product against a column's."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12),
           lam=st.sampled_from([0.0, 0.01, 0.3]))
    def test_block_values_match_column_calls(self, seed, width, lam):
        rng = np.random.default_rng(seed)
        d = random_unit_dictionary(seed % 97, 20, 35)
        x = rng.standard_normal((20, width))
        coeffs = rng.standard_normal((35, width)) * (rng.random((35, width)) < 0.3)
        coeffs[:, 0] = 0.0  # a zero code: every atom off the support
        objective = lasso_objective(d, x, coeffs, lam)
        kkt = lasso_kkt_violation(d, x, lam, coeffs)
        assert objective.shape == kkt.shape == (width,)
        for j in range(width):
            one = lasso_objective(d, x[:, j], coeffs[:, j], lam)
            assert isinstance(one, float)
            assert objective[j] == pytest.approx(one, rel=1e-13, abs=1e-13)
            one = lasso_kkt_violation(d, x[:, j], lam, coeffs[:, j])
            assert isinstance(one, float)
            assert kkt[j] == pytest.approx(one, rel=1e-12, abs=1e-12)

    def test_pixel_values_follow_their_definitions(self):
        d = random_unit_dictionary(3, 20, 35)
        rng = np.random.default_rng(3)
        x, a, lam = rng.standard_normal(20), rng.standard_normal(35), 0.2
        a[::3] = 0.0
        r = x - d.atoms @ a
        assert lasso_objective(d, x, a, lam) == pytest.approx(
            0.5 * r @ r + lam * np.abs(a).sum(), rel=1e-14)
        g, on = d.atoms.T @ r, a != 0
        want = max(np.abs(g[on] - lam * np.sign(a[on])).max(),
                   np.maximum(np.abs(g[~on]) - lam, 0.0).max())
        assert lasso_kkt_violation(d, x, lam, a) == want
