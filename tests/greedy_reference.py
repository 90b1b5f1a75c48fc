"""Per-pixel greedy solvers: the reference the blocked kernel in
``srckit.solvers`` is tested against.

One pixel (bands,) at a time, with the growth loop ``_grow`` (gomp and
romp) and the expand-prune-refit step ``_expand_prune`` (sp and samp).
Correlations are the elementwise sum over bands and every refit is a
one-pixel stack of ``solvers._ls_on_supports``.
"""
import numpy as np

from srckit.solvers import (_CORR_FLOOR_REL, GREEDY_TOL, SparseCode,
                            _check_sparsity_level, _ls_on_supports)


def _top_candidates(correlations, how_many, floor, selected):
    """Indices of up to ``how_many`` largest |correlations| above ``floor``,
    skipping already-selected atoms; ties go to the lowest index."""
    mags = np.abs(correlations).copy()
    if selected.size:
        mags[selected] = -1.0
    order = np.argsort(-mags, kind="stable")
    order = order[mags[order] > floor]
    return order[:how_many]


def _correlations(atoms, r):
    """atoms^T r for one pixel, summed over bands in the same order for
    every atom, so duplicate atoms tie exactly."""
    return (atoms * r[:, None]).sum(axis=0)


def _ls_on_support(atoms_s, x):
    """Least-squares coefficients of one pixel on an atom subset (bands, t)."""
    return _ls_on_supports(atoms_s.T[None], x[None])[0]


def _code_from_support(n_atoms, support, coef):
    coeffs = np.zeros(n_atoms)
    coeffs[support] = coef
    return SparseCode(coeffs)


def _grow(dictionary, x, tol, n_steps, select, sort):
    """Up to ``n_steps`` times, add the atoms ``select(correlations, floor,
    support)`` picks (kept ascending when ``sort``) and refit; stops early
    on residual <= tol or no picks."""
    atoms = dictionary.atoms
    floor = _CORR_FLOOR_REL * np.linalg.norm(x)
    support = np.empty(0, dtype=np.int64)
    coef = np.empty(0)
    residual = x.astype(np.float64, copy=True)
    for _ in range(n_steps):
        if np.linalg.norm(residual) <= tol:
            break
        picks = select(_correlations(atoms, residual), floor, support)
        if picks.size == 0:
            break
        support = np.concatenate([support, picks])
        if sort:
            support = np.sort(support)
        coef = _ls_on_support(atoms[:, support], x)
        residual = x - atoms[:, support] @ coef
    return _code_from_support(dictionary.n_atoms, support, coef)


def _expand_prune(atoms, x, residual, support, size, floor):
    """Add the ``size`` atoms best correlated with the residual, refit,
    prune to the ``size`` largest coefficients, refit. Returns (support,
    coef, residual, residual norm), or None if nothing is left to add."""
    extra = _top_candidates(_correlations(atoms, residual), size, floor, support)
    if extra.size == 0:
        return None
    candidate = np.sort(np.concatenate([support, extra]))
    cand_coef = _ls_on_support(atoms[:, candidate], x)
    keep = np.sort(candidate[np.argsort(-np.abs(cand_coef), kind="stable")[:size]])
    coef = _ls_on_support(atoms[:, keep], x)
    residual = x - atoms[:, keep] @ coef
    return keep, coef, residual, np.linalg.norm(residual)


def sp(dictionary, x, k, tol=GREEDY_TOL, max_iters=100):
    _check_sparsity_level(dictionary, k)
    atoms = dictionary.atoms
    floor = _CORR_FLOOR_REL * np.linalg.norm(x)
    none = np.empty(0, dtype=np.int64)
    support = np.sort(_top_candidates(_correlations(atoms, x), k, floor, none))
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


def romp(dictionary, x, k, tol=GREEDY_TOL):
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

    return _grow(dictionary, x, tol, 2 * k, select, sort=True)


def samp(dictionary, x, step=1, tol=GREEDY_TOL, max_iters=1000):
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
            break
        if trial[3] <= tol:
            support, coef = trial[:2]
            break
        if trial[3] >= resid_norm:
            size += step
        else:
            support, coef, residual, resid_norm = trial
    return _code_from_support(dictionary.n_atoms, support, coef)
