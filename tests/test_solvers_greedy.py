import numpy as np
import pytest

from srckit.dictionary import assemble
from srckit.solvers import gomp, omp, romp, samp, sp
from srckit.synthetic import random_unit_dictionary
from synthetic_problems import planted_instance, subspace_classes


def identity_dictionary(n=6):
    return assemble(np.eye(n), np.ones(n, dtype=int))


class TestOmp:
    def test_orthonormal_single_atom(self):
        d = identity_dictionary()
        x = np.zeros(6)
        x[2] = 3.0
        code = omp(d, x, 1)
        assert code.support.tolist() == [2]
        assert code.coeffs[2] == pytest.approx(3.0, abs=1e-14)
        assert np.linalg.norm(x - d.atoms @ code.coeffs) <= 1e-14

    def test_zero_input(self):
        code = omp(identity_dictionary(), np.zeros(6), 3)
        assert code.support.size == 0
        assert not code.coeffs.any()

    def test_planted_recovery(self):
        for seed in range(10):
            d, x, coeffs, support = planted_instance(seed, n=64, k=5)
            code = omp(d, x, 5)
            assert np.array_equal(np.sort(code.support), support)
            assert np.abs(code.coeffs - coeffs).max() <= 1e-10

    def test_residual_orthogonal_to_support(self):
        d = random_unit_dictionary(3, 20, 40)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        code = omp(d, x, 8)
        r = x - d.atoms @ code.coeffs
        onsup = d.atoms[:, code.support]
        assert np.linalg.norm(onsup.T @ r) <= 1e-10 * np.linalg.norm(x)

    def test_residual_nonincreasing_in_k(self):
        d = random_unit_dictionary(5, 20, 40)
        x = np.random.default_rng(5).standard_normal(20)
        norms = [np.linalg.norm(x - d.atoms @ omp(d, x, k).coeffs)
                 for k in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_k_out_of_range(self):
        d = identity_dictionary()
        with pytest.raises(ValueError, match="K"):
            omp(d, np.ones(6), 0)
        with pytest.raises(ValueError, match="K"):
            omp(d, np.ones(6), 7)


class TestSp:
    def test_planted_recovery(self):
        for seed in range(10):
            d, x, coeffs, support = planted_instance(seed, n=64, k=5)
            code = sp(d, x, 5)
            assert np.array_equal(np.sort(code.support), support)
            assert np.abs(code.coeffs - coeffs).max() <= 1e-10

    def test_zero_input(self):
        assert sp(identity_dictionary(), np.zeros(6), 2).support.size == 0

    def test_k_equals_m_is_full_least_squares(self):
        rng = np.random.default_rng(5)
        atoms = rng.standard_normal((10, 6))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = assemble(atoms, np.ones(6, dtype=int))
        x = rng.standard_normal(10)
        code = sp(d, x, 6)
        expected = np.linalg.lstsq(atoms, x, rcond=None)[0]
        assert np.abs(code.coeffs - expected).max() <= 1e-10


class TestRomp:
    def test_one_sparse_single_iteration(self):
        d = identity_dictionary()
        x = np.zeros(6)
        x[4] = -2.0
        code = romp(d, x, 1)
        assert code.support.tolist() == [4]
        assert code.coeffs[4] == pytest.approx(-2.0, abs=1e-14)

    def test_zero_input(self):
        assert romp(identity_dictionary(), np.zeros(6), 2).support.size == 0

    def test_planted_recovery(self):
        for seed in range(10):
            d, x, coeffs, support = planted_instance(seed, n=64, k=5)
            code = romp(d, x, 5)
            assert np.array_equal(np.sort(code.support), support)
            assert np.abs(code.coeffs - coeffs).max() <= 1e-10

    def test_agrees_with_omp_on_low_coherence_instances(self):
        # cross-solver oracle; instances whose Gaussian dictionary has mutual
        # coherence < 0.3 (needs enough rows for that to ever hold)
        kept = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            d = random_unit_dictionary(seed, 256, 288)
            off_diag = d.atoms.T @ d.atoms - np.eye(288)
            if np.abs(off_diag).max() >= 0.3:
                continue
            kept += 1
            support = np.sort(rng.choice(288, 4, replace=False))
            coeffs = np.zeros(288)
            coeffs[support] = rng.uniform(1.0, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
            x = d.atoms @ coeffs
            assert np.array_equal(np.sort(romp(d, x, 4).support),
                                  np.sort(omp(d, x, 4).support))
        assert kept >= 6  # the filter must not make the check vacuous

    def test_support_bound(self):
        d = random_unit_dictionary(9, 16, 64)
        x = np.random.default_rng(9).standard_normal(16)
        code = romp(d, x, 3)
        assert code.support.size <= 2 * 3 + 3  # last group may overshoot 2K


class TestGomp:
    def test_s1_equals_omp_bitwise(self):
        for seed in range(6):
            d = random_unit_dictionary(seed, 20, 50)
            x = np.random.default_rng(100 + seed).standard_normal(20)
            a = omp(d, x, 6)
            b = gomp(d, x, 6, s=1)
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert np.array_equal(a.support, b.support)

    def test_s1_equals_omp_under_ties(self):
        d = identity_dictionary(4)
        x = np.array([1.0, 1.0, 0.0, 0.0])  # exact correlation tie at 0 and 1
        a = omp(d, x, 2)
        b = gomp(d, x, 2, s=1)
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert a.support.tolist() == [0, 1]  # lowest index first

    def test_zero_input(self):
        assert gomp(identity_dictionary(), np.zeros(6), 4, s=2).support.size == 0

    def test_planted_recovery_s2(self):
        for seed in range(10):
            d, x, coeffs, support = planted_instance(seed, n=64, k=4)
            code = gomp(d, x, 4, s=2)
            assert np.array_equal(np.sort(code.support), support)
            assert np.abs(code.coeffs - coeffs).max() <= 1e-10

    def test_parameter_validation(self):
        d = identity_dictionary()
        with pytest.raises(ValueError, match="S"):
            gomp(d, np.ones(6), 2, s=0)
        with pytest.raises(ValueError, match="exceeds"):
            gomp(d, np.ones(6), 5, s=4)  # 2 iterations * 4 atoms > 6


class TestSamp:
    def test_planted_three_sparse_step_one(self):
        d, x, coeffs, support = planted_instance(21, n=32, k=3)
        code = samp(d, x, step=1)
        assert np.array_equal(np.sort(code.support), support)
        assert code.support.size == 3  # final stage size equals the true sparsity
        assert np.abs(code.coeffs - coeffs).max() <= 1e-10

    def test_zero_input(self):
        assert samp(identity_dictionary(), np.zeros(6), 1).support.size == 0

    def test_tol_above_signal_stops_immediately(self):
        d = identity_dictionary()
        x = np.full(6, 0.1)
        code = samp(d, x, step=1, tol=np.linalg.norm(x) * 2)
        assert code.support.size == 0

    def test_step_validation(self):
        with pytest.raises(ValueError, match="step"):
            samp(identity_dictionary(), np.ones(6), step=0)

    def test_step_above_half_the_rank_bound_is_rejected(self):
        data = subspace_classes(0, n_classes=3, dim=12, sub_dim=3, n_dict=4,
                                n_train=1, n_test=10, noise=0.05)
        d = assemble(data.dict_pixels, data.dict_labels)
        assert (d.n_bands, d.n_atoms) == (12, 12)
        assert samp(d, data.test_pixels, step=6).support.size > 0
        with pytest.raises(ValueError, match=r"step=7 outside 1\.\.6"):
            samp(d, data.test_pixels, step=7)

    def test_support_cap(self):
        d = random_unit_dictionary(13, 24, 48)
        x = np.random.default_rng(13).standard_normal(24)
        code = samp(d, x, step=2)
        assert code.support.size <= min(24, 48) // 2


def test_all_greedy_supports_within_bounds():
    d = random_unit_dictionary(17, 30, 60)
    x = np.random.default_rng(17).standard_normal(30)
    k = 6
    assert omp(d, x, k).support.size <= k
    assert sp(d, x, k).support.size <= k
    assert gomp(d, x, k, s=2).support.size <= 2 * ((k + 1) // 2)


# (solver, copies of atom 0 at the end of the dictionary, how many of the
# tied atoms it must pick): gomp's second pick of a step is a tie too
TIED = {"omp": (lambda d, x: omp(d, x, 1), 1, 1),
        "gomp": (lambda d, x: gomp(d, x, 2, s=2), 2, 2),
        "romp": (lambda d, x: romp(d, x, 1), 1, 1),
        "sp": (lambda d, x: sp(d, x, 1), 1, 1),
        "samp": (lambda d, x: samp(d, x), 1, 1)}


# one pixel at 12 x 30 is the plain case, drawn 100 times; the blocks and
# the benchmark's 103 x 426 shape are drawn 10 times each
TIE_CASES = [pytest.param(name, width, bands, n_atoms, 100, id=name)
             if (bands, width) == (12, 1) else
             pytest.param(name, width, bands, n_atoms, 10, id=f"{name}-{bands}x{n_atoms}-w{width}")
             for bands, n_atoms in [(12, 30), (103, 426)] for width in [1, 2, 32] for name in TIED]


@pytest.mark.parametrize("name, width, bands, n_atoms, draws", TIE_CASES)
def test_duplicate_atom_tie_goes_to_lower_index(name, width, bands, n_atoms, draws):
    # the last atoms repeat atom 0. A gemv, or the gemm x^T D, puts them in
    # its unrolled tail and splits such ties by rounding: at 12 x 30 in
    # about one draw in five, at 103 x 426 in most
    solve, copies, picked = TIED[name]
    tied = [0] + list(range(n_atoms - copies, n_atoms))
    for seed in range(draws):
        rng = np.random.default_rng(seed)
        atoms = rng.standard_normal((bands, n_atoms))
        atoms /= np.linalg.norm(atoms, axis=0)
        atoms[:, tied[1:]] = atoms[:, [0]]
        d = assemble(atoms, np.ones(n_atoms, dtype=int))
        x = 3.0 * atoms[:, [0]] + 1e-3 * atoms[:, [7]] * np.linspace(1.0, 2.0, width)
        code = solve(d, x if width > 1 else x[:, 0])
        for j, column in enumerate(code.coeffs.reshape(n_atoms, -1).T):
            assert (column[tied] != 0).tolist() == [True] * picked + [False] * (
                copies + 1 - picked), (seed, j)
