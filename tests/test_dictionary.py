import numpy as np
import pytest

from srckit.dictionary import Dictionary, GramCache, assemble
from srckit.solvers import fista, soft_threshold
from srckit.synthetic import random_orthonormal, random_unit_dictionary, subspace_classes


def test_assemble_groups_by_class():
    samples = np.array([[1.0, 2.0, 3.0, 4.0]])
    d = assemble(samples, [2, 1, 2, 1])
    # class 1 owns [0, 2), class 2 owns [2, 4); within-class order preserved
    assert d.class_offsets.tolist() == [0, 2, 4]
    assert d.atoms[0].tolist() == [2.0, 4.0, 1.0, 3.0]
    assert d.labels_per_atom.tolist() == [1, 1, 2, 2]


def test_assemble_single_class():
    d = assemble(np.ones((2, 3)), [1, 1, 1])
    assert d.class_offsets.tolist() == [0, 3]
    assert d.n_classes == 1


def test_assemble_empty_class_rejected():
    with pytest.raises(ValueError, match="class 2"):
        assemble(np.ones((2, 3)), [1, 3, 3])


def test_assemble_bad_label():
    with pytest.raises(ValueError):
        assemble(np.ones((2, 2)), [0, 1])


def test_sub_dictionaries_reconstitute_atoms():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((5, 9))
    labels = [3, 1, 2, 1, 3, 2, 2, 1, 3]
    d = assemble(samples, labels)
    stacked = np.hstack([d.sub_dictionary(c) for c in range(1, 4)])
    assert np.array_equal(stacked, d.atoms)


def test_pavia_like_atom_counts():
    # per-class blocks sized like the published dictionary (Meadows block 186)
    sizes = [66, 186, 21, 31, 13, 50, 13, 37, 9]
    labels = np.concatenate([np.full(n, c + 1) for c, n in enumerate(sizes)])
    d = assemble(np.ones((4, len(labels))), labels)
    assert d.n_atoms == 426
    assert d.sub_dictionary(2).shape[1] == 186


class TestSolveRegularized:
    def test_zero_dictionary(self):
        d = Dictionary(atoms=np.zeros((3, 4)), class_offsets=[0, 4],
                       labels_per_atom=[1, 1, 1, 1])
        cache = GramCache(d)
        b = np.array([2.0, -4.0, 6.0, 0.5])
        assert np.allclose(cache.solve(2.0, b), b / 2.0, atol=1e-14)

    def test_orthonormal(self):
        q = random_orthonormal(3, 5)
        d = Dictionary(atoms=q, class_offsets=[0, 5], labels_per_atom=[1] * 5)
        cache = GramCache(d)
        b = np.arange(1.0, 6.0)
        assert np.allclose(cache.solve(1.0, b), b / 2.0, atol=1e-12)

    def test_against_dense_solver(self):
        rng = np.random.default_rng(7)
        atoms = rng.standard_normal((30, 60))
        d = Dictionary(atoms=atoms, class_offsets=[0, 60],
                       labels_per_atom=[1] * 60)
        cache = GramCache(d)
        for rho in (0.5, 3.0):
            rhs = rng.standard_normal(60)
            w = cache.solve(rho, rhs)
            dense = np.linalg.solve(atoms.T @ atoms + rho * np.eye(60), rhs)
            assert np.allclose(w, dense, atol=1e-9)
            residual = np.linalg.norm((atoms.T @ (atoms @ w)) + rho * w - rhs)
            assert residual <= 1e-10 * np.linalg.norm(rhs)

    def test_floor_rho_on_full_rank_gram(self):
        # the residual bound at the rho floor needs a nonsingular gram; on a
        # rank-deficient one even LAPACK's dense solve cannot reach it
        rng = np.random.default_rng(8)
        atoms = rng.standard_normal((60, 30))
        d = Dictionary(atoms=atoms, class_offsets=[0, 30],
                       labels_per_atom=[1] * 30)
        cache = GramCache(d)
        rhs = rng.standard_normal(30)
        w = cache.solve(1e-6, rhs)
        residual = np.linalg.norm((atoms.T @ (atoms @ w)) + 1e-6 * w - rhs)
        assert residual <= 1e-10 * np.linalg.norm(rhs)

    def test_rejects_nonpositive_rho(self):
        d = Dictionary(atoms=np.eye(3), class_offsets=[0, 3],
                       labels_per_atom=[1, 1, 1])
        cache = GramCache(d)
        with pytest.raises(ValueError, match="rho"):
            cache.solve(0.0, np.ones(3))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        atoms = rng.standard_normal((20, 35))
        d = Dictionary(atoms=atoms, class_offsets=[0, 35],
                       labels_per_atom=[1] * 35)
        cache = GramCache(d)
        b1, b2 = rng.standard_normal(35), rng.standard_normal(35)
        a = -2.5
        combined = cache.solve(1.3, a * b1 + b2)
        separate = a * cache.solve(1.3, b1) + cache.solve(1.3, b2)
        assert np.abs(combined - separate).max() <= 1e-10

    def test_cache_transparency(self):
        rng = np.random.default_rng(2)
        atoms = rng.standard_normal((15, 25))
        d = Dictionary(atoms=atoms, class_offsets=[0, 25],
                       labels_per_atom=[1] * 25)
        rhs = rng.standard_normal(25)
        warm = GramCache(d)
        first = warm.solve(0.7, rhs)
        again = warm.solve(0.7, rhs)
        fresh = GramCache(d).solve(0.7, rhs)
        assert first.tobytes() == again.tobytes() == fresh.tobytes()

    def test_gram_symmetry(self):
        rng = np.random.default_rng(3)
        atoms = rng.standard_normal((10, 18))
        cache = GramCache(Dictionary(atoms=atoms, class_offsets=[0, 18],
                                     labels_per_atom=[1] * 18))
        assert np.abs(cache.gram - cache.gram.T).max() <= 1e-12


def test_dictionary_invariant_checks():
    with pytest.raises(ValueError, match="non-finite"):
        Dictionary(atoms=np.array([[np.inf]]), class_offsets=[0, 1],
                   labels_per_atom=[1])
    with pytest.raises(ValueError, match="at least one atom"):
        Dictionary(atoms=np.ones((2, 2)), class_offsets=[0, 1, 1, 2],
                   labels_per_atom=[1, 3])


def test_lipschitz_is_the_top_gram_eigenvalue():
    # pixels that share a mean spectrum, as reflectances do, give D^T D a
    # well-separated top eigenvalue; an orthonormal D has no gap, but every
    # vector is an eigenvector
    rng = np.random.default_rng(0)
    for bands, atoms in ((16, 24), (103, 426)):
        mean = 1.0 + 0.4 * np.sin(np.linspace(0.0, 6.0, bands))[:, None]
        pixels = rng.uniform(0.7, 1.3, atoms) * (mean + 0.3 * rng.standard_normal((bands, atoms)))
        d = assemble(pixels / np.linalg.norm(pixels, axis=0), rng.integers(1, 4, atoms))
        top = np.linalg.eigvalsh(d.atoms.T @ d.atoms).max()
        assert abs(d.lipschitz - top) <= 1e-10 * top
    assert abs(assemble(random_orthonormal(3, 12), np.ones(12, int)).lipschitz - 1.0) <= 1e-10


def test_lipschitz_is_exact_where_top_eigenvalues_lie_close():
    # a power iteration read these 3.2 % and 3.7 % low
    unit = random_unit_dictionary(2, 40, 80)
    data = subspace_classes(1, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                            n_train=1, n_test=30, noise=0.02)
    for d in (unit, assemble(data.dict_pixels, data.dict_labels)):
        top = np.linalg.eigvalsh(d.atoms.T @ d.atoms)[-1]
        assert abs(d.lipschitz - top) <= 1e-12 * top


def test_lipschitz_zero_dictionary_and_fista_step_fallback():
    zero = assemble(np.zeros((5, 4)), [1, 1, 2, 2])
    assert zero.lipschitz == 0.0
    assert not fista(zero, np.ones(5), 0.1).coeffs.any()
    # a dictionary whose L reads 0 takes step 1: from zero, the first step is
    # soft_threshold(D^T x, lam); this D has L < 1, so that step is accepted
    d = random_unit_dictionary(2, 20, 10)
    d = assemble(0.1 * d.atoms, d.labels_per_atom)
    assert 0.0 < d.lipschitz < 1.0
    d.lipschitz = 0.0
    x = np.random.default_rng(2).standard_normal(20)
    first = []
    fista(d, x, 0.05, max_iters=1, callback=lambda alpha, obj: first.append(alpha))
    np.testing.assert_allclose(first[0], soft_threshold(d.atoms.T @ x, 0.05), rtol=1e-12)
