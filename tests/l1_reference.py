"""FISTA as a column-major block loop that allocates its iterates every
step: the reference the in-place, one-row-per-pixel ``srckit.solvers.fista``
is tested against; then the lasso objective and KKT check l1 codes are judged by.

The same restart, stop and callback rules over (n_atoms, k) columns, with a
fresh alpha, y, D alpha and D y each iteration and column sums for F.
"""
import numpy as np

from srckit.dictionary import Dictionary
from srckit.solvers import SparseCode, check_ranges, soft_threshold


def fista(dictionary: Dictionary, x: np.ndarray, lam: float = 0.1,
          max_iters: int = 1000, tol: float = 1e-8, callback=None) -> SparseCode:
    """FISTA with function-value restart (Beck & Teboulle 2009; O'Donoghue &
    Candes 2015), so each column's lasso objective F is non-increasing; step
    1/L with L = ``dictionary.lipschitz``, the exact top eigenvalue of D^T D
    from one SVD of D (step 1 if L is 0). ``x`` is a pixel
    (bands,), coded as a one-column block, or a block (bands, n). Each column
    has its own momentum and restart, and stops on its own at
    |F_t - F_{t-1}| <= tol * max(1, F_{t-1}) or when even a plain proximal
    step cannot lower F. ``callback``, when given, sees callback(alpha, F)
    once per iteration that accepts a step, for the columns that accepted
    it: (n_atoms, k) and (k,), or (n_atoms,) and a float for a pixel."""
    check_ranges(lam=lam, max_iters=max_iters, tol=tol)
    atoms = dictionary.atoms
    step = 1.0 / dictionary.lipschitz if dictionary.lipschitz > 0 else 1.0
    xs = np.reshape(x, (len(x), -1))  # the still-running columns, indexed by cols
    cols, coeffs = np.arange(xs.shape[1]), np.zeros((dictionary.n_atoms, xs.shape[1]))
    alpha, y, t = coeffs.copy(), coeffs.copy(), np.ones(len(cols))
    d_alpha, d_y = np.zeros_like(xs), np.zeros_like(xs)  # D alpha and D y
    obj_prev = 0.5 * (xs ** 2).sum(axis=0)

    def prox_step(point, d_point, xs):
        """The proximal step c from ``point``, with D c and F(c)."""
        c = soft_threshold(point - step * (atoms.T @ (d_point - xs)), lam * step)
        dc = atoms @ c
        return c, dc, 0.5 * ((xs - dc) ** 2).sum(axis=0) + lam * np.abs(c).sum(axis=0)

    for _ in range(max_iters):
        candidate, d_candidate, obj = prox_step(y, d_y, xs)
        worse = obj > obj_prev
        if worse.any():
            # restart: kill the momentum, take a plain proximal step
            t[worse] = 1.0
            candidate[:, worse], d_candidate[:, worse], obj[worse] = prox_step(
                alpha[:, worse], d_alpha[:, worse], xs[:, worse])
        stuck = obj > obj_prev  # cannot decrease at working precision
        candidate[:, stuck] = alpha[:, stuck]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = candidate + beta * (candidate - alpha)
        d_y = d_candidate + beta * (d_candidate - d_alpha)
        alpha, d_alpha, t = candidate, d_candidate, t_next
        if callback is not None and not stuck.all():
            go = ~stuck if np.ndim(x) > 1 else 0
            callback(alpha[:, go], obj[go])
        done = stuck | (np.abs(obj - obj_prev) <= tol * np.maximum(1.0, obj_prev))
        obj_prev = obj
        if done.any():
            coeffs[:, cols[done]] = alpha[:, done]
            keep = ~done
            cols, xs, alpha, d_alpha, y, d_y, t, obj_prev = (
                a[..., keep] for a in (cols, xs, alpha, d_alpha, y, d_y, t, obj_prev))
            if cols.size == 0:
                break
    coeffs[:, cols] = alpha
    return SparseCode(coeffs.reshape((dictionary.n_atoms,) + np.shape(x)[1:]))


def lasso_objective(dictionary: Dictionary, x: np.ndarray, coeffs: np.ndarray,
                    lam: float):
    """0.5 * ||x - D a||^2 + lam * ||a||_1: a float for a pixel (bands,) and
    its code (n_atoms,), one value per column for a block (bands, n) and its
    code (n_atoms, n)."""
    r = x - dictionary.atoms @ coeffs
    value = 0.5 * np.einsum("i...,i...->...", r, r) + lam * np.abs(coeffs).sum(axis=0)
    return float(value) if np.ndim(value) == 0 else value


def lasso_kkt_violation(dictionary: Dictionary, x: np.ndarray, lam: float,
                        coeffs: np.ndarray):
    """Max stationarity violation of the lasso optimality conditions at
    ``coeffs``: a float for a pixel, one value per column for a block (as
    ``lasso_objective``).

    On the support: | d_j^T (x - D a) - lam * sign(a_j) |.
    Off the support: max(| d_j^T (x - D a) | - lam, 0).
    """
    g = dictionary.atoms.T @ (x - dictionary.atoms @ coeffs)
    on = coeffs != 0
    violation = np.where(on, np.abs(g - lam * np.sign(coeffs)), np.maximum(np.abs(g) - lam, 0.0))
    worst = violation.max(axis=0, initial=0.0)
    return float(worst) if np.ndim(worst) == 0 else worst
