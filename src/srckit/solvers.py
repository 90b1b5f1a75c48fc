"""Sparse solvers over a class-partitioned dictionary: eight solvers, one
interface. Each is ``name(dictionary, x, **params) -> SparseCode``, with its
parameters as keywords after (dictionary, x): the seven baselines here and
the unrolled network, ``network.asdn``. ``classify`` reads each solver's
parameters and defaults from these signatures, once, at import.

Greedy family (sparsity-level K): omp, sp, romp, gomp, samp. All five run on
one block kernel, ``_Block``: per-column support, least-squares
coefficients, residual and stop, one correlation path (``picks``) and two
refit paths: ``border`` grows a bordered factor for gomp, and ``fit``
rebuilds each support, batched by size, for the rest. omp is gomp with one
atom per step; romp adds a factor-2 window of its picks; sp and samp accept an
expand-refit-prune-refit ``trial`` only where it lowers the residual.
l1 family (weight lambda): fista, admm_fixed, each coding a block of pixel
columns with per-column stop masks. fista is one in-place kernel over a row
per pixel, as ``_Block`` is. ``admm_stage`` is the one scaled-form ADMM
stage, shared by admm_fixed and the unrolled network.

Every solver checks its parameters before it codes, K against the
dictionary and the rest against PARAM_RANGES (``check_ranges``), which
holds the network's depth too. It codes one pixel (bands,), as a
one-column block, or a block of pixel columns (bands, n), whose code has
coeffs (n_atoms, n). Conventions shared by every solver here, per pixel
column of a block:
  * correlation ties break toward the lowest atom index, and equal atoms
    tie exactly (each takes its first copy's correlation, ``_first_copies``);
  * correlations at or below 1e-12 * ||x|| count as zero and are never
    selected (keeps exact-recovery supports free of numerical junk);
  * least-squares refits solve the normal equations on the selected
    sub-Gram with one refinement step, checked positive definite by
    ``cho_factor`` (for omp and gomp, the Schur block of each step's picks);
    a sub-Gram that fails the check is refit by lstsq;
  * the ``tol`` stop tests the explicit residual x - D_S c, and each column
    of a block stops on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import cholesky as cho_factor  # a name the benchmark's traced runs wrap

from .dictionary import Dictionary

GREEDY_TOL = 1e-10
_CORR_FLOOR_REL = 1e-12


@dataclass
class SparseCode:
    """A coefficient vector, or a block of them (n_atoms, n).

    ``support``, derived from ``coeffs`` when read, holds the atom index
    (first axis) of every exact nonzero: for a pixel, its support; for a
    block, one entry per nonzero of every column, so its size is the block's
    nonzero count and its unique values the union of the columns' supports."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if not np.isfinite(self.coeffs).all():
            raise ValueError("sparse code contains non-finite coefficients")

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.coeffs)[0]


ARRAY_CAP = 2 ** 40  # the most bytes of one array that a dimension key sizes (1 TiB)

# Each solver parameter's range as (what it is, the range, its test). K's range
# and samp's cap on step depend on the dictionary (check_sizes).
PARAM_RANGES = {
    "s": ("atoms per iteration S", "be >= 1", lambda v: v >= 1),
    "step": ("size increment", "be >= 1", lambda v: v >= 1),
    "max_iters": ("iteration cap", "be >= 1", lambda v: v >= 1),
    "lam": ("l1 weight", "be >= 0", lambda v: v >= 0),
    "tol": ("stopping tolerance", "be >= 0", lambda v: v >= 0),
    "rho": ("penalty", "be > 0", lambda v: v > 0),
    "tau": ("dual step rate", "be > 0", lambda v: v > 0),
    "relax": ("relaxation scalar", "lie in (0, 2]", lambda v: 0 < v <= 2),
    # rho holds n_stages + 1 float64 entries
    "n_stages": ("network depth", f"be >= 1, < {ARRAY_CAP // 8}", lambda v: 0 < v < ARRAY_CAP // 8),
}


def check_ranges(**params) -> None:
    """Raise ValueError naming the first of ``params`` outside its range in
    PARAM_RANGES; a name without a range there passes."""
    for name, value in params.items():
        if name in PARAM_RANGES and not PARAM_RANGES[name][2](value):
            what, text, _ = PARAM_RANGES[name]
            raise ValueError(f"{name} ({what}) must {text}, got {value!r}")


def soft_threshold(v: np.ndarray, eta: float, out=None) -> np.ndarray:
    """Entrywise shrinkage sign(v) * max(|v| - eta, 0), the prox of eta*||.||_1,
    computed as v - clip(v, -eta, eta), into ``out`` when given (not v); its
    zeros are all +0.0."""
    if eta < 0:
        raise ValueError(f"threshold must be nonnegative, got {eta}")
    return np.subtract(v, np.clip(v, -eta, eta, out=out), out=out)


# ---------------------------------------------------------------------------
# greedy family


class SizeError(ValueError):
    """A solver parameter that does not fit the dictionary's size."""


def _check_sparsity_level(dictionary: Dictionary, k: int, what="sparsity level K", share=1):
    """Raise SizeError unless 1 <= k <= min(bands, atoms) // share; return that bound."""
    limit = min(dictionary.n_bands, dictionary.n_atoms) // share
    if not 1 <= k <= limit:
        raise SizeError(f"{what}={k} outside 1..{limit}")
    return limit


def check_sizes(dictionary: Dictionary, k: int | None = None, s: int = 1,
                step: int | None = None) -> None:
    """Raise SizeError unless the size parameters given fit ``dictionary``:
    1 <= K <= min(bands, atoms), gomp's S * ceil(K/S) <= atoms and samp's
    step at most min(bands, atoms) // 2. The greedy solvers check these
    before they code; a caller holding the dictionary can check them first."""
    if k is not None:
        _check_sparsity_level(dictionary, k)
        if s * math.ceil(k / s) > dictionary.n_atoms:
            raise SizeError(f"S*iterations = {s * math.ceil(k / s)} exceeds "
                            f"dictionary size {dictionary.n_atoms}")
    if step is not None:
        _check_sparsity_level(dictionary, step, "size increment step", 2)


def _first_copies(atoms: np.ndarray):
    """Each atom's lowest-indexed equal atom, or None if all atoms differ.
    Products with the atoms can split equal atoms' correlations by rounding
    (gemv, and the gemm R @ atoms at 103 x 426 do), so the greedy kernel
    gives each atom its first copy's. The exact search runs only when two
    keys, elementwise in two bands and so equal for equal atoms, are equal."""
    key = np.sort(atoms[0] + math.pi * atoms[-1])
    if (key[1:] != key[:-1]).all():
        return None
    _, first, inverse = np.unique(atoms, axis=1, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _positive_definite(gram: np.ndarray) -> bool:
    try:
        cho_factor(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _ls_on_supports(atoms_s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least squares for a stack of subsets: atoms_s (n, t, bands) holds
    pixel j's t selected atoms as rows and x (n, bands) the pixels; returns
    (n, t) coefficients from one batched solve of the normal equations plus
    one refinement step. ``cho_factor`` checks that every sub-Gram is
    positive definite; if one is not, or the solve still finds one singular
    (Cholesky can pass a sub-Gram with condition number near 1e16), a
    one-pixel stack takes lstsq (the minimum-norm solution) and a larger
    stack is refit pixel by pixel."""
    g = atoms_s @ atoms_s.transpose(0, 2, 1)
    b = atoms_s @ x[:, :, None]
    try:
        cho_factor(g)
        coef = np.linalg.solve(g, b)
    except np.linalg.LinAlgError:
        if len(x) == 1:
            return np.linalg.lstsq(atoms_s[0].T, x[0], rcond=None)[0][None]
        return np.concatenate([_ls_on_supports(a[None], row[None]) for a, row in zip(atoms_s, x)])
    coef += np.linalg.solve(g, b - g @ coef)
    return coef[:, :, 0]


class _Block:
    """The greedy kernel: per-column state of a code of a block of pixel
    columns (Batch OMP, Rubinstein, Zibulevsky & Elad 2008). Pixel j's
    support is support[j, :size[j]]; the unused slots hold ``n_atoms``, past
    every atom. coef[j, :size[j]] are its least-squares coefficients, and
    residual[j] and norm[j] what they leave of the pixel. Every solver is a
    loop of ``picks`` and a refit over the columns still running, each
    column stopping on its own; the Gram of the whole dictionary is never
    built.

    Two refit paths. gomp (and so omp) only ever appends atoms, so with
    ``bordered`` each column keeps its support in selection order and
    carries a factor state that ``border`` extends by one block row per
    step: W = L^-1 for D_S^T D_S = L L^T (lower triangular, (n, slots,
    slots)), D_S^T x, the sub-Gram D_S^T D_S and the selected atoms' rows.
    romp, sp and samp keep ascending supports, which sp and samp prune, and
    refit from scratch with ``fit``. Their supports reach 2K or min(bands,
    atoms) atoms, where the bordered factor drifts from the rebuild: on
    random supports of a 16-band dictionary, by up to 1e-12 relative at 11
    atoms, 2e-10 at 14 and 1e-4 at 16, against the 1e-12 their tests hold
    them to."""

    def __init__(self, dictionary: Dictionary, x: np.ndarray, slots: int,
                 bordered: bool = False):
        x = np.asarray(x, dtype=np.float64)
        self.shape = x.shape[1:]
        self.atoms, self.n_atoms = dictionary.atoms, dictionary.n_atoms
        self.copies = _first_copies(self.atoms)
        self.rows = np.ascontiguousarray(x.reshape(len(x), -1).T)  # one row per pixel
        n = len(self.rows)
        self.norm = np.linalg.norm(self.rows, axis=1)
        self.floor = _CORR_FLOOR_REL * self.norm
        self.support = np.full((n, slots), self.n_atoms)
        self.coef = np.zeros((n, slots))
        self.size = np.zeros(n, dtype=np.int64)
        self.residual = self.rows.copy()
        self.mags = np.empty((n, self.n_atoms + 1))  # picks' work, a last column for unused slots
        if bordered:
            # W = L^-1 has D_S's condition number; (D_S^T D_S)^-1 has its square
            self.inverse = np.zeros((n, slots, slots))
            self.dtx = np.zeros((n, slots))
            self.sub_gram = np.zeros((n, slots, slots))
            self.chosen = np.zeros((n, slots, len(x)))
            self.factored = np.ones(n, dtype=bool)  # False once a Schur block fails

    def picks(self, cols: np.ndarray, want) -> tuple:
        """Up to ``want`` atoms (an int, or one count per column) for each
        pixel of ``cols``, outside its support and above its floor, by
        descending |correlation| with its residual: first-argmax passes, so
        ties go to the lowest index. Returns (picks, valid, magnitudes), each
        (len(cols), passes); valid is a prefix of each row."""
        mags = self.mags[:len(cols)]
        mags[:, -1] = 0.0
        np.matmul(self.residual[cols], self.atoms, out=mags[:, :-1])
        if self.copies is not None:
            mags[:, :-1] = mags[:, self.copies]  # equal atoms tie exactly
        np.abs(mags, out=mags)
        each, passes = np.arange(len(cols)), int(np.max(want, initial=1))
        mags[each[:, None], self.support[cols]] = -1.0
        picks = np.empty((len(cols), passes), dtype=np.int64)
        values = np.empty((len(cols), passes))
        for q in range(passes):
            picks[:, q] = mags.argmax(axis=1)
            values[:, q] = mags[each, picks[:, q]]
            mags[each, picks[:, q]] = -1.0
        valid = values > self.floor[cols, None]
        if np.ndim(want):
            valid &= np.arange(passes) < want[:, None]
        return picks, valid, values

    def expand(self, cols: np.ndarray, picks: np.ndarray, count: np.ndarray) -> tuple:
        """The supports of ``cols`` with each pixel's first ``count`` picks
        added, kept ascending: (support, size)."""
        support, size = self.support[cols], self.size[cols]
        row, q = np.nonzero(np.arange(picks.shape[1]) < count[:, None])
        support[row, size[row] + q] = picks[row, q]
        support.sort(axis=1)
        return support, size + count

    def fit(self, cols: np.ndarray, support: np.ndarray, size: np.ndarray) -> tuple:
        """Least squares of each pixel of ``cols`` on the first ``size`` atoms
        of its ``support`` row, in one ``_ls_on_supports`` batch per support
        size: (coef, residual, norm)."""
        coef = np.zeros(support.shape)
        residual = np.empty((len(cols), self.rows.shape[1]))
        for t in set(size.tolist()):
            group = np.flatnonzero(size == t)
            atoms_s = self.atoms.T[support[group, :t]]  # (pixels, t, bands)
            rows = self.rows[cols[group]]
            coef[group, :t] = _ls_on_supports(atoms_s, rows)
            residual[group] = rows - np.matmul(coef[group, None, :t], atoms_s)[:, 0]
        return coef, residual, np.linalg.norm(residual, axis=1)

    def keep(self, cols: np.ndarray, support, size, coef, residual, norm) -> None:
        self.support[cols], self.size[cols], self.coef[cols] = support, size, coef
        self.residual[cols], self.norm[cols] = residual, norm

    def grow(self, cols: np.ndarray, picks: np.ndarray, count: np.ndarray) -> None:
        """Add each pixel's first ``count`` picks to its support and refit."""
        support, size = self.expand(cols, picks, count)
        self.keep(cols, support, size, *self.fit(cols, support, size))

    def border(self, cols: np.ndarray, picks: np.ndarray, count: np.ndarray) -> None:
        """gomp's step on a ``bordered`` block: append each pixel's first
        ``count`` picks to its support and refit on the bordered factor, in
        one batch per (size, count). With g = D_S^T D_new and l = W g, the
        Schur block S = D_new^T D_new - l^T l = L_b L_b^T gives W the rows
        [-L_b^-1 l^T W, L_b^-1]; then c = W^T W D_S^T x, with one refinement
        round through the sub-Gram. A column whose Schur block fails
        ``cho_factor`` leaves the factor and refits with ``fit`` from then on
        (lstsq, as a singular sub-Gram there does)."""
        size = self.size[cols]
        for t, c in set(zip(size.tolist(), count.tolist())):
            at = (size == t) & (count == c)
            group, new = cols[at], picks[at, :c]
            self.support[group, t:t + c] = new
            self.size[group] = t + c
            factored = self.factored[group]
            group, new = group[factored], new[factored]
            # the whole block when every column takes this step: views, not copies
            idx = slice(None) if len(group) == len(self.rows) else group
            a_new = self.atoms.T[new]  # (pixels, c, bands)
            h = a_new @ a_new.transpose(0, 2, 1)
            g, w = self.chosen[idx, :t] @ a_new.transpose(0, 2, 1), self.inverse[idx, :t, :t]
            lower_t = (w @ g).transpose(0, 2, 1)  # l^T
            schur = h - lower_t @ lower_t.transpose(0, 2, 1)
            try:
                factor = cho_factor(schur)
            except np.linalg.LinAlgError:
                ok = np.array([_positive_definite(block) for block in schur])
                self.factored[group[~ok]] = False
                idx, a_new, h, g, w, lower_t = (
                    v[ok] for v in (group, a_new, h, g, w, lower_t))
                factor = cho_factor(schur[ok])
            corner = 1.0 / factor if c == 1 else np.tril(np.linalg.inv(factor))
            self.inverse[idx, t:t + c, :t] = -corner @ lower_t @ w
            self.inverse[idx, t:t + c, t:t + c] = corner
            self.sub_gram[idx, :t, t:t + c] = g
            self.sub_gram[idx, t:t + c, :t] = g.transpose(0, 2, 1)
            self.sub_gram[idx, t:t + c, t:t + c] = h
            self.chosen[idx, t:t + c] = a_new
            x = self.rows[idx]
            self.dtx[idx, t:t + c] = (a_new @ x[:, :, None])[:, :, 0]
            t += c
            w, b = self.inverse[idx, :t, :t], self.dtx[idx, :t, None]
            w_t = w.transpose(0, 2, 1)
            coef = w_t @ (w @ b)
            coef += w_t @ (w @ (b - self.sub_gram[idx, :t, :t] @ coef))
            residual = x - (coef.transpose(0, 2, 1) @ self.chosen[idx, :t])[:, 0]
            self.coef[idx, :t], self.residual[idx] = coef[:, :, 0], residual
            self.norm[idx] = np.linalg.norm(residual, axis=1)
        lost = cols[~self.factored[cols]]
        if lost.size:
            self.keep(lost, self.support[lost], self.size[lost],
                      *self.fit(lost, self.support[lost], self.size[lost]))

    def trial(self, cols: np.ndarray, want) -> tuple:
        """The step of sp and samp: add up to ``want`` atoms best correlated
        with each residual, refit, prune to the ``want`` largest |coefficients|
        (a stable sort's order), refit. Returns the pixels of ``cols`` that had
        an atom to add and their trial (support, size, coef, residual, norm)."""
        picks, valid, _ = self.picks(cols, want)
        has = valid[:, 0]
        cols, want = cols[has], (want[has] if np.ndim(want) else want)
        support, size = self.expand(cols, picks[has], valid[has].sum(axis=1))
        rank = np.empty_like(support)
        order = np.argsort(-np.abs(self.fit(cols, support, size)[0]), axis=1, kind="stable")
        np.put_along_axis(rank, order, np.arange(support.shape[1]), axis=1)
        support[rank >= np.reshape(want, (-1, 1))] = self.n_atoms  # unused slots rank last
        support.sort(axis=1)
        size = np.minimum(size, want)
        return (cols, support, size) + self.fit(cols, support, size)

    def code(self) -> SparseCode:
        pixel, slot = np.nonzero(np.arange(self.support.shape[1]) < self.size[:, None])
        coeffs = np.zeros((self.n_atoms, len(self.rows)))
        coeffs[self.support[pixel, slot], pixel] = self.coef[pixel, slot]
        return SparseCode(coeffs.reshape((self.n_atoms,) + self.shape))


def omp(dictionary: Dictionary, x: np.ndarray, k: int,
        tol: float = GREEDY_TOL) -> SparseCode:
    """Orthogonal matching pursuit: grow the support one atom at a time by
    max correlation with the residual, refitting least squares each step on
    a bordered inverse Cholesky factor. This is gomp with one atom per
    iteration."""
    return gomp(dictionary, x, k, 1, tol)


def sp(dictionary: Dictionary, x: np.ndarray, k: int, tol: float = GREEDY_TOL,
       max_iters: int = 100) -> SparseCode:
    """Subspace pursuit (Dai & Milenkovic 2009): keep exactly K atoms, expand
    by the K best correlations, prune back to the K largest refit
    coefficients; a column stops when its residual norm stops decreasing,
    at residual <= tol, or after ``max_iters`` trials. The first K atoms
    are the K best correlated with the pixel, whatever tol says."""
    check_sizes(dictionary, k)
    check_ranges(tol=tol, max_iters=max_iters)
    block = _Block(dictionary, x, 2 * k)
    cols, *state = block.trial(np.arange(len(block.rows)), k)
    block.keep(cols, *state)
    for _ in range(max_iters):
        cols = cols[block.norm[cols] > tol]
        if cols.size == 0:
            break
        cols, *state = block.trial(cols, k)
        better = state[-1] < block.norm[cols]
        cols = cols[better]
        block.keep(cols, *(a[better] for a in state))
    return block.code()


def romp(dictionary: Dictionary, x: np.ndarray, k: int,
         tol: float = GREEDY_TOL) -> SparseCode:
    """Regularized OMP: per iteration take up to K strongest correlations,
    keep the maximal-energy group whose magnitudes are within a factor 2,
    add the whole group, refit. Stops at |support| >= 2K or a tiny residual."""
    check_sizes(dictionary, k)
    check_ranges(tol=tol)
    block = _Block(dictionary, x, 3 * k)  # a step from below 2K adds at most K
    cols = np.arange(len(block.rows))
    for _ in range(2 * k):  # every step adds at least one atom
        cols = cols[(block.norm[cols] > tol) & (block.size[cols] < 2 * k)]
        picks, valid, mags = block.picks(cols, k)  # mags descend along each row
        keep = valid[:, 0]
        cols, picks, valid, mags = cols[keep], picks[keep], valid[keep], mags[keep]
        if cols.size == 0:
            break
        # the window from pick i ends before the first pick under half of it
        end = ((2.0 * mags[:, None, :] >= mags[:, :, None]) & valid[:, None, :]).sum(axis=2)
        energy = np.cumsum(np.pad(np.where(valid, mags ** 2, 0.0), ((0, 0), (1, 0))), axis=1)
        window = np.where(valid, np.take_along_axis(energy, end, axis=1) - energy[:, :-1], -1.0)
        start = window.argmax(axis=1)  # the first of equal windows
        count = np.take_along_axis(end, start[:, None], axis=1)[:, 0] - start
        shifted = np.minimum(start[:, None] + np.arange(k), k - 1)
        block.grow(cols, np.take_along_axis(picks, shifted, axis=1), count)
    return block.code()


def gomp(dictionary: Dictionary, x: np.ndarray, k: int, s: int = 2,
         tol: float = GREEDY_TOL) -> SparseCode:
    """Generalized OMP: select ``s`` atoms per iteration by correlation
    magnitude, refit, run ceil(K/s) iterations. s=1 is omp. A column stops
    at residual <= tol, with no pick above the floor, or after ceil(K/s)
    steps. Each refit borders the column's inverse Cholesky factor by the
    step's picks (``_Block.border``) instead of refactoring its support;
    a column whose picks make its sub-Gram singular refits by lstsq."""
    check_ranges(s=s, tol=tol)
    check_sizes(dictionary, k, s)
    n_iters = math.ceil(k / s)
    block = _Block(dictionary, x, s * n_iters, bordered=True)
    cols = np.arange(len(block.rows))
    for _ in range(n_iters):
        cols = cols[block.norm[cols] > tol]
        picks, valid, _ = block.picks(cols, s)
        keep = valid[:, 0]
        cols = cols[keep]
        if cols.size == 0:
            break
        block.border(cols, picks[keep], valid[keep].sum(axis=1))
    return block.code()


def samp(dictionary: Dictionary, x: np.ndarray, step: int = 1,
         tol: float = GREEDY_TOL, max_iters: int = 1000) -> SparseCode:
    """Sparsity-adaptive matching pursuit: subspace pursuit at a growing
    size estimate, bumped by ``step`` for a column whose trial does not
    lower its residual. Needs no sparsity level up front; a column stops at
    residual <= tol, with no atom left to add, or at size estimate above
    min(bands, atoms) // 2, which ``step`` may not exceed."""
    check_ranges(step=step, tol=tol, max_iters=max_iters)
    cap = _check_sparsity_level(dictionary, step, "size increment step", 2)
    block = _Block(dictionary, x, 2 * cap)
    size = np.full(len(block.rows), step)
    cols = np.arange(len(block.rows))
    for _ in range(max_iters):
        cols = cols[(block.norm[cols] > tol) & (size[cols] <= cap)]
        if cols.size == 0:
            break
        cols, *state = block.trial(cols, size[cols])
        better = state[-1] < block.norm[cols]
        block.keep(cols[better], *(a[better] for a in state))
        size[cols[~better]] += step  # stage switch: the residual stalled
    return block.code()


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
    it: (n_atoms, k) and (k,), or (n_atoms,) and a float for a pixel; these
    are copies, which later iterations leave alone.

    The kernel works in place on one row per pixel, as ``_Block`` does.
    Every array is allocated once per call: alpha and the candidate, and
    their images under D, ping-pong between two buffers; y, D y and one
    work array of each shape are updated in place. The running pixels are
    the leading rows of each buffer, compacted when some stop, and only a
    restart or a stuck step indexes rows. Its products and row sums round
    differently from the column-major loop kept in ``tests/l1_reference.py``:
    on 69 pixels of a 103-band, 426-atom Pavia-shaped bundle the codes agree
    to 4e-13 relative at a 300-iteration cap."""
    check_ranges(lam=lam, max_iters=max_iters, tol=tol)
    atoms, n_atoms = dictionary.atoms, dictionary.n_atoms
    step = 1.0 / dictionary.lipschitz if dictionary.lipschitz > 0 else 1.0
    xs = np.array(np.reshape(x, (len(x), -1)).T, dtype=np.float64, order="C")  # a row per pixel
    n, bands = xs.shape
    coeffs = np.zeros((n_atoms, n))
    alpha, y = np.zeros((n, n_atoms)), np.zeros((n, n_atoms))
    cand, work_a = np.empty((n, n_atoms)), np.empty((n, n_atoms))
    d_alpha, d_y = np.zeros_like(xs), np.zeros_like(xs)
    d_cand, work_b = np.empty_like(xs), np.empty_like(xs)
    cols, t, obj_prev = np.arange(n), np.ones(n), 0.5 * np.square(xs).sum(axis=1)

    def prox_step(point, d_point, xs, c, dc, work_a, work_b):
        """The proximal step from ``point`` into c, with D c into dc; returns F(c)."""
        np.matmul(np.subtract(d_point, xs, out=work_b), atoms, out=work_a)
        np.subtract(point, np.multiply(work_a, step, out=work_a), out=work_a)
        soft_threshold(work_a, lam * step, out=c)
        np.matmul(c, atoms.T, out=dc)
        np.subtract(xs, dc, out=work_b)
        return 0.5 * np.square(work_b, out=work_b).sum(axis=1) + \
            lam * np.abs(c, out=work_a).sum(axis=1)

    for _ in range(max_iters):
        k = len(cols)  # the running pixels' rows of every buffer
        a, c, da, dc, yk, dyk, xk = (
            buf[:k] for buf in (alpha, cand, d_alpha, d_cand, y, d_y, xs))
        obj = prox_step(yk, dyk, xk, c, dc, work_a[:k], work_b[:k])
        worse = obj > obj_prev
        if worse.any():
            # restart: kill the momentum, take a plain proximal step
            t[worse] = 1.0
            rows = np.flatnonzero(worse)
            c_r, dc_r = np.empty((len(rows), n_atoms)), np.empty((len(rows), bands))
            obj[rows] = prox_step(a[rows], da[rows], xk[rows], c_r, dc_r,
                                  work_a[:len(rows)], work_b[:len(rows)])
            c[rows], dc[rows] = c_r, dc_r
        stuck = obj > obj_prev  # cannot decrease at working precision
        if stuck.any():
            c[stuck] = a[stuck]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = ((t - 1.0) / t_next)[:, None]
        np.add(c, np.multiply(np.subtract(c, a, out=yk), beta, out=yk), out=yk)
        np.add(dc, np.multiply(np.subtract(dc, da, out=dyk), beta, out=dyk), out=dyk)
        alpha, cand, d_alpha, d_cand, t = cand, alpha, d_cand, d_alpha, t_next
        if callback is not None and not stuck.all():
            go = ~stuck
            kept, objs = c[go].T, obj[go]  # copies: the buffers are reused
            callback(*((kept, objs) if np.ndim(x) > 1 else (kept[:, 0], objs[0])))
        done = stuck | (np.abs(obj - obj_prev) <= tol * np.maximum(1.0, obj_prev))
        obj_prev = obj
        if done.any():
            coeffs[:, cols[done]] = c[done].T
            keep = ~done
            for buf in (alpha, d_alpha, y, d_y, xs):
                buf[:keep.sum()] = buf[:k][keep]
            cols, t, obj_prev = cols[keep], t[keep], obj_prev[keep]
            if cols.size == 0:
                break
    coeffs[:, cols] = alpha[:len(cols)].T
    return SparseCode(coeffs.reshape((n_atoms,) + np.shape(x)[1:]))


def admm_stage(dictionary: Dictionary, utx: np.ndarray, z: np.ndarray,
               u: np.ndarray, rho: float, relax: float, eta: float | None = None,
               tau: float | None = None, out=None):
    """One scaled-form ADMM lasso stage (Boyd et al. 2011, 3.1.1), the
    kernel of admm_fixed and of every network stage; returns
    (alpha, c, v, z', u'):

        alpha = relax * (D^T D + rho I)^-1 (D^T x + rho (z - u)) + (1 - relax) * z
        v = alpha + u,   z' = soft_threshold(v, eta),   u' = u + tau * (alpha - z')

    The solve is ``GramCache.stage`` in band space, two products over the
    block, from ``utx`` = ``dictionary.gram_cache.project(x)``, which a
    caller takes once for all its stages; c is that solve's band-space
    coefficients, which the network's backward pass reuses. With ``eta``
    and ``tau`` None only alpha and c are computed (the network's final node).

    ``out``, when given, is the arrays (alpha, c, v, z', u') to write, each
    shaped as its result. v first holds z - u and the relax blend's
    (1 - relax) z, so the final node needs it as scratch; its z' and u' may
    be None. z' may be z and u' may be u, updating the code in place with
    the same bytes; u' = u makes v scratch, since the u update then goes
    through v, which ends holding tau (alpha - z'). No other pair may alias,
    nor any of them utx. At relax = 1 the blend is skipped.
    """
    if out is None:  # fresh arrays: a caller may keep every result
        out = [np.empty(np.shape(a)) for a in (z, utx, z, z, z)]
    alpha, c, v, z_next, u_next = out
    dictionary.gram_cache.stage(rho, utx, np.subtract(z, u, out=v), out=(alpha, c))
    if relax != 1.0:
        alpha *= relax
        alpha += np.multiply(z, 1.0 - relax, out=v)
    if eta is None:
        return alpha, c, None, None, None
    np.add(alpha, u, out=v)
    soft_threshold(v, eta, out=z_next)
    step = v if u_next is u else u_next
    np.add(u, np.multiply(np.subtract(alpha, z_next, out=step), tau, out=step), out=u_next)
    return alpha, c, v, z_next, u_next


def admm_fixed(dictionary: Dictionary, x: np.ndarray, lam: float = 0.1, rho: float = 1.0,
               relax: float = 1.0, tau: float = 1.0, max_iters: int = 1000,
               tol: float = 1e-8, callback=None) -> SparseCode:
    """Scaled-form ADMM for the lasso (Boyd et al. 2011) with fixed l1 weight
    ``lam``, penalty ``rho``, relaxation scalar ``relax`` in (0, 2] and dual
    step rate ``tau``: the stage ``admm_stage`` repeated with eta = lam / rho
    over a pixel (bands,), coded as a one-column block, or a block (bands, n).
    Each column stops on its own at max_iters or
    max(||alpha - z||, rho * ||z - z_prev||) <= tol. Returns z, which is
    exactly sparse by construction. ``callback``, when given, sees
    callback(alpha, z, u) after every iteration for the columns still
    running: (n_atoms, k) arrays, or (n_atoms,) vectors for a pixel."""
    check_ranges(lam=lam, rho=rho, relax=relax, tau=tau, max_iters=max_iters, tol=tol)
    utx = dictionary.gram_cache.project(np.reshape(x, (len(x), -1)))
    eta, each = lam / rho, (slice(None) if np.ndim(x) > 1 else 0)
    cols, coeffs = np.arange(utx.shape[1]), np.zeros((dictionary.n_atoms, utx.shape[1]))
    z, u = coeffs.copy(), coeffs.copy()
    for _ in range(max_iters):
        if cols.size == 0:
            break
        z_prev = z
        alpha, _, _, z, u = admm_stage(dictionary, utx, z, u, rho, relax, eta, tau)
        if callback is not None:
            callback(alpha[:, each], z[:, each], u[:, each])
        primal = np.linalg.norm(alpha - z, axis=0)
        dual = rho * np.linalg.norm(z - z_prev, axis=0)
        done = np.maximum(primal, dual) <= tol
        if done.any():
            coeffs[:, cols[done]] = z[:, done]
            keep = ~done
            cols, utx, z, u = cols[keep], utx[:, keep], z[:, keep], u[:, keep]
    coeffs[:, cols] = z
    return SparseCode(coeffs.reshape((dictionary.n_atoms,) + np.shape(x)[1:]))
