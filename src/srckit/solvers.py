"""Baseline sparse solvers over a class-partitioned dictionary.

Greedy family (sparsity-level K): omp, sp, romp, gomp, samp. gomp codes a
block of pixel columns at once, with batched refits (omp is gomp with one
atom per step); romp grows one pixel's support in ``_grow``, the per-pixel
form of the same loop; one expand-prune-refit step serves sp and samp.
l1 family (weight lambda): fista, admm_fixed, each coding a block of pixel
columns with per-column stop masks. ``admm_stage`` is the one scaled-form
ADMM stage, shared by admm_fixed and the unrolled network.

Conventions shared by every solver here, per pixel column of a block:
  * correlation ties break toward the lowest atom index;
  * correlations at or below 1e-12 * ||x|| count as zero and are never
    selected (keeps exact-recovery supports free of numerical junk);
  * least-squares refits solve the SPD normal equations on the selected
    sub-Gram with one refinement step;
  * the ``tol`` stop tests the explicit residual x - D_S c, and each column
    of a block stops on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dictionary import Dictionary

GREEDY_TOL = 1e-10
_CORR_FLOOR_REL = 1e-12


@dataclass
class SparseCode:
    """A coefficient vector plus the index set of its exact nonzeros."""

    coeffs: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.support = np.asarray(self.support, dtype=np.int64)
        if not np.isfinite(self.coeffs).all():
            raise ValueError("sparse code contains non-finite coefficients")

    @classmethod
    def from_dense(cls, coeffs: np.ndarray) -> "SparseCode":
        coeffs = np.asarray(coeffs, dtype=np.float64)
        return cls(coeffs=coeffs, support=np.flatnonzero(coeffs))


@dataclass
class AdmmConfig:
    """Fixed parameters for the scaled-form ADMM lasso iteration.

    ``lam`` is the l1 weight, ``rho`` the penalty, ``relax`` the relaxation
    scalar in (0, 2], ``tau`` the dual step rate.
    """

    lam: float = 0.1
    rho: float = 1.0
    relax: float = 1.0
    tau: float = 1.0
    max_iters: int = 1000
    tol: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0.0 < self.relax <= 2.0:
            raise ValueError(f"relax must lie in (0, 2], got {self.relax}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol < 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")


def soft_threshold(v: np.ndarray, eta: float) -> np.ndarray:
    """Entrywise shrinkage sign(v) * max(|v| - eta, 0), the prox of eta*||.||_1,
    computed as v - clip(v, -eta, eta); its zeros are all +0.0."""
    if eta < 0:
        raise ValueError(f"threshold must be nonnegative, got {eta}")
    return v - np.clip(v, -eta, eta)


def lasso_objective(dictionary: Dictionary, x: np.ndarray, coeffs: np.ndarray,
                    lam: float) -> float:
    """0.5 * ||x - D a||^2 + lam * ||a||_1."""
    r = x - dictionary.atoms @ coeffs
    return 0.5 * float(r @ r) + lam * float(np.abs(coeffs).sum())


def lasso_kkt_violation(dictionary: Dictionary, x: np.ndarray, lam: float,
                        coeffs: np.ndarray) -> float:
    """Max stationarity violation of the lasso optimality conditions at ``coeffs``.

    On the support: | d_j^T (x - D a) - lam * sign(a_j) |.
    Off the support: max(| d_j^T (x - D a) | - lam, 0).
    """
    g = dictionary.atoms.T @ (x - dictionary.atoms @ coeffs)
    on = coeffs != 0
    viol_on = np.abs(g[on] - lam * np.sign(coeffs[on]))
    viol_off = np.maximum(np.abs(g[~on]) - lam, 0.0)
    worst = 0.0
    if viol_on.size:
        worst = max(worst, float(viol_on.max()))
    if viol_off.size:
        worst = max(worst, float(viol_off.max()))
    return worst


# ---------------------------------------------------------------------------
# greedy family


def _check_sparsity_level(dictionary: Dictionary, k: int) -> None:
    limit = min(dictionary.n_bands, dictionary.n_atoms)
    if not 1 <= k <= limit:
        raise ValueError(f"sparsity level K={k} outside 1..{limit}")


def _top_candidates(correlations: np.ndarray, how_many: int, floor: float,
                    selected: np.ndarray) -> np.ndarray:
    """Indices of up to ``how_many`` largest |correlations| above ``floor``,
    skipping already-selected atoms; ties go to the lowest index."""
    mags = np.abs(correlations).copy()
    if selected.size:
        mags[selected] = -1.0
    order = np.argsort(-mags, kind="stable")
    order = order[mags[order] > floor]
    return order[:how_many]


def _ls_on_support(atoms_s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least-squares coefficients on a small atom subset (normal equations
    with one refinement step; lstsq fallback for degenerate subsets)."""
    g = atoms_s.T @ atoms_s
    b = atoms_s.T @ x
    try:
        factor = cho_factor(g, lower=False)
        coef = cho_solve(factor, b)
        coef += cho_solve(factor, b - g @ coef)
    except np.linalg.LinAlgError:
        coef = np.linalg.lstsq(atoms_s, x, rcond=None)[0]
    return coef


def _ls_on_supports(atoms_s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_ls_on_support`` for a stack of subsets: atoms_s (n, t, bands) holds
    pixel j's t selected atoms as rows and x (n, bands) the pixels; returns
    (n, t) coefficients from one batched solve of the normal equations plus
    one refinement step. A stack with a sub-Gram that is not positive
    definite is refit pixel by pixel, where lstsq takes the degenerate one."""
    g = atoms_s @ atoms_s.transpose(0, 2, 1)
    b = atoms_s @ x[:, :, None]
    try:
        np.linalg.cholesky(g)  # the check cho_factor makes per pixel
    except np.linalg.LinAlgError:
        return np.stack([_ls_on_support(a.T, row) for a, row in zip(atoms_s, x)])
    coef = np.linalg.solve(g, b)
    coef += np.linalg.solve(g, b - g @ coef)
    return coef[:, :, 0]


def _code_from_support(n_atoms: int, support: np.ndarray, coef: np.ndarray) -> SparseCode:
    coeffs = np.zeros(n_atoms)
    coeffs[support] = coef
    return SparseCode.from_dense(coeffs)


def _grow(dictionary: Dictionary, x: np.ndarray, tol: float, n_steps: int,
          select, sort: bool) -> SparseCode:
    """Growth loop of gomp (hence omp) and romp: up to ``n_steps`` times, add
    the atoms ``select(correlations, floor, support)`` picks (kept ascending
    when ``sort``) and refit; stops early on residual <= tol or no picks."""
    atoms = dictionary.atoms
    floor = _CORR_FLOOR_REL * np.linalg.norm(x)
    support = np.empty(0, dtype=np.int64)
    coef = np.empty(0)
    residual = x.astype(np.float64, copy=True)
    for _ in range(n_steps):
        if np.linalg.norm(residual) <= tol:
            break
        picks = select(atoms.T @ residual, floor, support)
        if picks.size == 0:
            break
        support = np.concatenate([support, picks])
        if sort:
            support = np.sort(support)
        coef = _ls_on_support(atoms[:, support], x)
        residual = x - atoms[:, support] @ coef
    return _code_from_support(dictionary.n_atoms, support, coef)


def _expand_prune(atoms: np.ndarray, x: np.ndarray, residual: np.ndarray,
                  support: np.ndarray, size: int, floor: float):
    """Step of sp and samp: add the ``size`` atoms best correlated with the
    residual, refit, prune to the ``size`` largest coefficients, refit.
    Returns (support, coef, residual, residual norm), or None if nothing is
    left to add."""
    extra = _top_candidates(atoms.T @ residual, size, floor, support)
    if extra.size == 0:
        return None
    candidate = np.sort(np.concatenate([support, extra]))
    cand_coef = _ls_on_support(atoms[:, candidate], x)
    keep = np.sort(candidate[np.argsort(-np.abs(cand_coef), kind="stable")[:size]])
    coef = _ls_on_support(atoms[:, keep], x)
    residual = x - atoms[:, keep] @ coef
    return keep, coef, residual, np.linalg.norm(residual)


def omp(dictionary: Dictionary, x: np.ndarray, k: int,
        tol: float = GREEDY_TOL) -> SparseCode:
    """Orthogonal matching pursuit: grow the support one atom at a time by
    max correlation with the residual, refitting least squares each step.
    This is gomp with one atom per iteration, so ``x`` may be one pixel
    (bands,) or a block (bands, n)."""
    return gomp(dictionary, x, k, 1, tol)


def sp(dictionary: Dictionary, x: np.ndarray, k: int, tol: float = GREEDY_TOL,
       max_iters: int = 100) -> SparseCode:
    """Subspace pursuit: keep exactly K atoms, expand by the K best
    correlations, prune back to the K largest refit coefficients; stop when
    the residual norm stops decreasing."""
    _check_sparsity_level(dictionary, k)
    atoms = dictionary.atoms
    floor = _CORR_FLOOR_REL * np.linalg.norm(x)
    none = np.empty(0, dtype=np.int64)

    support = np.sort(_top_candidates(atoms.T @ x, k, floor, none))
    if support.size == 0:
        return _code_from_support(dictionary.n_atoms, none, np.empty(0))
    coef = _ls_on_support(atoms[:, support], x)
    residual = x - atoms[:, support] @ coef
    best_norm = np.linalg.norm(residual)

    for _ in range(max_iters):
        if best_norm <= tol:
            break
        trial = _expand_prune(atoms, x, residual, support, k, floor)
        if trial is None or trial[3] >= best_norm:
            break
        support, coef, residual, best_norm = trial
    return _code_from_support(dictionary.n_atoms, support, coef)


def romp(dictionary: Dictionary, x: np.ndarray, k: int,
         tol: float = GREEDY_TOL) -> SparseCode:
    """Regularized OMP: per iteration take up to K strongest correlations,
    keep the maximal-energy group whose magnitudes are within a factor 2,
    add the whole group, refit. Stops at |support| >= 2K or a tiny residual."""
    _check_sparsity_level(dictionary, k)

    def select(correlations, floor, support):
        if support.size >= 2 * k:
            return support[:0]
        picks = _top_candidates(correlations, k, floor, support)
        mags = np.abs(correlations[picks])  # descending by construction
        energy = np.concatenate(([0.0], np.cumsum(mags ** 2)))
        best_span, best_energy = (0, 0), -1.0
        for i in range(len(mags)):
            j = i
            while j + 1 < len(mags) and mags[i] <= 2.0 * mags[j + 1]:
                j += 1
            window_energy = energy[j + 1] - energy[i]
            if window_energy > best_energy:
                best_span, best_energy = (i, j + 1), window_energy
        return picks[best_span[0]:best_span[1]]

    # every step adds at least one atom, so 2K steps reach |support| >= 2K
    return _grow(dictionary, x, tol, 2 * k, select, sort=True)


def gomp(dictionary: Dictionary, x: np.ndarray, k: int, s: int = 2,
         tol: float = GREEDY_TOL) -> SparseCode:
    """Generalized OMP: select ``s`` atoms per iteration by correlation
    magnitude, refit, run ceil(K/s) iterations. s=1 is omp.

    ``x`` is one pixel (bands,), coded as a one-column block, or a block of
    pixel columns (bands, n), whose code has coeffs (n_atoms, n). Each step takes the correlations of every still-active pixel in one
    product, picks each pixel's ``s`` strongest unselected atoms, and refits
    every pixel in one batched solve on the stack of sub-Grams of its
    selected atoms (Batch OMP, Rubinstein et al. 2008); the Gram of the
    whole dictionary is never built. Each pixel stops on its own, as in
    ``_grow``: at residual <= tol, with no pick above the floor, or after
    ceil(K/s) steps.
    """
    _check_sparsity_level(dictionary, k)
    if s < 1:
        raise ValueError(f"atoms-per-iteration S={s} must be >= 1")
    n_iters = math.ceil(k / s)
    if s * n_iters > dictionary.n_atoms:
        raise ValueError(
            f"S*iterations = {s * n_iters} exceeds dictionary size {dictionary.n_atoms}")
    x = np.asarray(x, dtype=np.float64)
    atoms, atoms_t = dictionary.atoms, dictionary.atoms.T
    rows = np.ascontiguousarray(x.reshape(len(x), -1).T)  # one row per pixel
    n = len(rows)
    floor = _CORR_FLOOR_REL * np.linalg.norm(rows, axis=1)
    chosen = np.zeros((n, dictionary.n_atoms), dtype=bool)
    support = np.zeros((n, s * n_iters), dtype=np.int64)  # in selection order
    coef = np.zeros((n, s * n_iters))
    size = np.zeros(n, dtype=np.int64)
    residual = rows.copy()
    active = np.flatnonzero(np.linalg.norm(residual, axis=1) > tol)
    for _ in range(n_iters):
        mags = np.abs(residual[active] @ atoms)
        mags[chosen[active]] = -1.0
        # s first-argmax picks, each masked for the next: the order of a
        # stable sort by descending magnitude, so ties go to the lowest index
        each = np.arange(len(active))
        picks = np.empty((len(active), s), dtype=np.int64)
        valid = np.empty((len(active), s), dtype=bool)
        for q in range(s):
            picks[:, q] = mags.argmax(axis=1)
            valid[:, q] = mags[each, picks[:, q]] > floor[active]  # a prefix of each row
            mags[each, picks[:, q]] = -1.0
        keep = valid[:, 0]
        active, picks, valid = active[keep], picks[keep], valid[keep]
        if active.size == 0:
            break
        owner = np.broadcast_to(active[:, None], valid.shape)[valid]
        support[owner, (size[active, None] + np.arange(s))[valid]] = picks[valid]
        chosen[owner, picks[valid]] = True
        size[active] += valid.sum(axis=1)
        # a step may pick fewer than s atoms for some pixels: refit by size
        for t in np.unique(size[active]):
            group = active[size[active] == t]
            atoms_s = atoms_t[support[group, :t]]  # (pixels, t, bands)
            coef[group, :t] = _ls_on_supports(atoms_s, rows[group])
            residual[group] = rows[group] - np.matmul(coef[group, None, :t], atoms_s)[:, 0]
        active = active[np.linalg.norm(residual[active], axis=1) > tol]
    coeffs = np.zeros((dictionary.n_atoms, n))
    pixel, slot = np.nonzero(np.arange(support.shape[1]) < size[:, None])
    coeffs[support[pixel, slot], pixel] = coef[pixel, slot]
    return SparseCode.from_dense(coeffs.reshape((dictionary.n_atoms,) + x.shape[1:]))


def samp(dictionary: Dictionary, x: np.ndarray, step: int = 1,
         tol: float = GREEDY_TOL, max_iters: int = 1000) -> SparseCode:
    """Sparsity-adaptive matching pursuit: subspace pursuit at a growing
    size estimate, bumped by ``step`` whenever the residual stalls. Needs no
    sparsity level up front; stops at residual <= tol or support size
    min(bands, atoms)/2."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    atoms = dictionary.atoms
    cap = min(dictionary.n_bands, dictionary.n_atoms) // 2
    floor = _CORR_FLOOR_REL * np.linalg.norm(x)
    support = np.empty(0, dtype=np.int64)
    coef = np.empty(0)
    residual = x.astype(np.float64, copy=True)
    resid_norm = np.linalg.norm(residual)
    size = step
    for _ in range(max_iters):
        if resid_norm <= tol or size > cap:
            break
        trial = _expand_prune(atoms, x, residual, support, size, floor)
        if trial is None:
            break  # residual orthogonal to every unselected atom
        if trial[3] <= tol:
            support, coef = trial[:2]
            break
        if trial[3] >= resid_norm:
            size += step  # stage switch: residual stalled at this size
        else:
            support, coef, residual, resid_norm = trial
    return _code_from_support(dictionary.n_atoms, support, coef)


# ---------------------------------------------------------------------------
# l1 family


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
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
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
    return SparseCode.from_dense(coeffs.reshape((dictionary.n_atoms,) + np.shape(x)[1:]))


def admm_stage(dictionary: Dictionary, dtx: np.ndarray, z: np.ndarray,
               u: np.ndarray, rho: float, relax: float, eta: float | None = None,
               tau: float | None = None):
    """One scaled-form ADMM lasso stage (Boyd et al. 2011, 3.1.1), the
    kernel of admm_fixed and of every network stage; returns (alpha, v, z', u'):

        alpha = relax * (D^T D + rho I)^-1 (D^T x + rho (z - u)) + (1 - relax) * z
        v = alpha + u,   z' = soft_threshold(v, eta),   u' = u + tau * (alpha - z')

    With ``eta`` and ``tau`` None only alpha is computed (the network's final node).
    """
    alpha = relax * dictionary.gram_cache.solve(rho, dtx + rho * (z - u)) + (1.0 - relax) * z
    if eta is None:
        return alpha, None, None, None
    v = alpha + u
    z_next = soft_threshold(v, eta)
    return alpha, v, z_next, u + tau * (alpha - z_next)


def admm_fixed(dictionary: Dictionary, x: np.ndarray, cfg: AdmmConfig,
               callback=None) -> SparseCode:
    """Scaled-form ADMM for the lasso with fixed (lam, rho, relax, tau): the
    stage ``admm_stage`` repeated with eta = lam / rho over a pixel (bands,),
    coded as a one-column block, or a block (bands, n). Each column stops on
    its own at max_iters or max(||alpha - z||, rho * ||z - z_prev||) <= tol.
    Returns z, which is exactly sparse by construction. ``callback``, when
    given, sees callback(alpha, z, u) after every iteration for the columns
    still running: (n_atoms, k) arrays, or (n_atoms,) vectors for a pixel."""
    dtx = dictionary.atoms.T @ np.reshape(x, (len(x), -1))
    eta, each = cfg.lam / cfg.rho, (slice(None) if np.ndim(x) > 1 else 0)
    cols, coeffs = np.arange(dtx.shape[1]), np.zeros_like(dtx)
    z, u = coeffs.copy(), coeffs.copy()
    for _ in range(cfg.max_iters):
        if cols.size == 0:
            break
        z_prev = z
        alpha, _, z, u = admm_stage(dictionary, dtx, z, u, cfg.rho, cfg.relax, eta, cfg.tau)
        if callback is not None:
            callback(alpha[:, each], z[:, each], u[:, each])
        primal = np.linalg.norm(alpha - z, axis=0)
        dual = cfg.rho * np.linalg.norm(z - z_prev, axis=0)
        done = np.maximum(primal, dual) <= cfg.tol
        if done.any():
            coeffs[:, cols[done]] = z[:, done]
            keep = ~done
            cols, dtx, z, u = cols[keep], dtx[:, keep], z[:, keep], u[:, keep]
    coeffs[:, cols] = z
    return SparseCode.from_dense(coeffs.reshape((dictionary.n_atoms,) + np.shape(x)[1:]))
