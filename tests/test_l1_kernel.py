"""Differential tests of the in-place, one-row-per-pixel ``solvers.fista``
against the column-major loop it replaced (``l1_reference.fista``), and of
its callback's and its working memory's contracts."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import l1_reference as reference
from srckit import solvers
from srckit.dictionary import assemble
from synthetic_problems import subspace_classes, traced_peak

# 24 atoms over 16 bands, 150 test pixels
DATA = subspace_classes(11, n_classes=3, dim=16, sub_dim=3, n_dict=8,
                        n_train=1, n_test=50, noise=0.02)
D = assemble(DATA.dict_pixels, DATA.dict_labels)
PIXELS = DATA.test_pixels

# Per column, ||new - reference|| against ||reference|| + ||x||. The two
# differ only in summation order (row against column products and sums).
# Over 1800 seeded draws of this test's cases that rounding stayed at 1e-13
# where a relative stop (tol 1e-8) fires, and reached 1.1e-10 in a column
# still running at its cap, where a restart test decided at working
# precision can go the other way on the two paths. At tol 0 every column
# runs until a step cannot lower F, for up to thousands of iterations, and
# the codes differed by up to 1.5e-5 (the reference's own block and
# one-column calls differ by up to 3.9e-6 there) while their objectives
# stayed within 2.1e-13 of F(0). The bounds are about ten times those maxima.
KERNEL_TOL = 1e-9
KERNEL_TOL_AT_PRECISION = 1e-4
OBJECTIVE_TOL_AT_PRECISION = 1e-11


def l1_block(rng, width):
    """``width`` test pixels scaled over three decades, with zero columns
    and repeats of column 0: columns that stop at different iterations."""
    x = PIXELS[:, rng.choice(PIXELS.shape[1], width, replace=False)]
    x = x * 10.0 ** rng.uniform(-2.0, 1.0, width)
    kind = rng.integers(0, 4, width)
    x[:, kind == 2] = 0.0
    x[:, kind == 3] = x[:, [0]]
    return x


def column_error(got, want, x):
    scale = np.linalg.norm(want, axis=0) + np.linalg.norm(x, axis=0)
    return np.linalg.norm(got - want, axis=0) / np.where(scale > 0.0, scale, 1.0)


@settings(max_examples=25, deadline=None)
@given(width=st.integers(1, 140), seed=st.integers(0, 2**32 - 1),
       lam=st.sampled_from([0.0, 1e-3, 0.01, 0.1, 1.0]), tol=st.sampled_from([0.0, 1e-8]))
def test_fista_matches_column_reference(width, seed, lam, tol):
    rng = np.random.default_rng(seed)
    x = l1_block(rng, width)
    max_iters = int(rng.integers(1, 2000 if tol == 0.0 else 400))
    got = solvers.fista(D, x, lam, max_iters, tol)
    want = reference.fista(D, x, lam, max_iters, tol)
    assert got.coeffs.shape == want.coeffs.shape == (D.n_atoms, width)
    assert got.coeffs.flags.c_contiguous
    assert got.support.size == np.count_nonzero(got.coeffs)
    assert not got.coeffs[:, ~x.any(axis=0)].any()  # zero columns code to zero
    if tol > 0.0:
        assert column_error(got.coeffs, want.coeffs, x).max() <= KERNEL_TOL
    else:
        assert column_error(got.coeffs, want.coeffs, x).max() <= KERNEL_TOL_AT_PRECISION
        f_got = reference.lasso_objective(D, x, got.coeffs, lam)
        f_want = reference.lasso_objective(D, x, want.coeffs, lam)
        f_zero = 0.5 * (x * x).sum(axis=0)  # F(0), which bounds both
        assert (np.abs(f_got - f_want) <= OBJECTIVE_TOL_AT_PRECISION * f_zero).all()


def test_fista_pixel_matches_column_reference():
    for j, lam in ((0, 0.01), (1, 0.1), (2, 1.0)):
        x = PIXELS[:, j]
        seen, seen_reference = [], []
        got = solvers.fista(D, x, lam, 300, callback=lambda a, obj: seen.append((a, obj)))
        want = reference.fista(D, x, lam, 300,
                               callback=lambda a, obj: seen_reference.append((a, obj)))
        assert got.coeffs.shape == (D.n_atoms,)
        assert column_error(got.coeffs[:, None], want.coeffs[:, None], x[:, None]).max() \
            <= KERNEL_TOL
        assert len(seen) == len(seen_reference)
        for (a, obj), (a_ref, obj_ref) in zip(seen, seen_reference):
            assert a.shape == (D.n_atoms,) and isinstance(obj, float)
            assert np.linalg.norm(a - a_ref) <= KERNEL_TOL * (np.linalg.norm(a_ref) + 1.0)
            assert abs(obj - obj_ref) <= KERNEL_TOL * max(1.0, obj_ref)


def test_callback_arrays_stay_unchanged_while_iteration_continues():
    # the kernel reuses its buffers every iteration; what it has handed out
    # must not be among them
    x = l1_block(np.random.default_rng(5), 40)
    for block in (x, PIXELS[:, 0]):
        given_arrays = []

        def keep(alpha, objective):
            given_arrays.append((alpha, alpha.tobytes(), objective, np.array(objective).tobytes()))

        solvers.fista(D, block, 0.01, 200, 0.0, callback=keep)
        assert len(given_arrays) > 100
        for alpha, alpha_bytes, objective, objective_bytes in given_arrays:
            assert alpha.shape[0] == D.n_atoms and np.shape(objective) == alpha.shape[1:]
            assert alpha.tobytes() == alpha_bytes
            assert np.array(objective).tobytes() == objective_bytes


def test_fista_working_memory_does_not_grow_with_max_iters():
    x = PIXELS[:, :140]
    block = D.n_atoms * x.shape[1] * 8

    def peak(max_iters):
        solvers.fista(D, x, 0.01, 1)  # the Lipschitz constant, cached once, is not counted
        return traced_peak(lambda: solvers.fista(D, x, 0.01, max_iters, 0.0))[0]

    assert peak(400) <= peak(4) + block
