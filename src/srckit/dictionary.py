"""Class-partitioned dictionary and shared regularized-solve machinery.

The dictionary stacks training pixels as columns, grouped contiguously by
class. The ADMM solvers repeatedly apply (D^T D + rho*I)^-1 for one fixed
D, so each Dictionary owns one ``GramCache``, built on first use as
``Dictionary.gram_cache``: the Gram matrix and one SPD factorization per
distinct rho, reused by every solve over D (Boyd et al. 2011, 4.2.4).
FISTA needs only ``Dictionary.lipschitz``, also computed once per D.
``GramCache.solve`` takes one right-hand side (m,) or a block of them (m, n):
a block reuses the factorization across all its columns in one triangular
solve pair, which is how the unrolled network codes pixels in blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve


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
    def lipschitz(self) -> float:
        """Top eigenvalue of D^T D, FISTA's Lipschitz constant, by 100 power
        iterations without the Gram, once per dictionary; 0 if D is zero."""
        v = 1.0 + 0.001 * np.arange(self.n_atoms)  # deterministic, not axis-aligned
        v /= np.linalg.norm(v)
        for _ in range(100):
            w = self.atoms.T @ (self.atoms @ v)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            v = w / norm
        return float(norm)


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
    """D^T D plus a per-rho store of SPD factorizations of (D^T D + rho*I),
    reached through ``Dictionary.gram_cache``. The store is a plain dict that
    keeps every rho until ``clear_factors``: srckit codes on one thread, and a
    caller sharing a cache across its own threads at worst factors a rho twice.
    """

    def __init__(self, dictionary: Dictionary):
        self.gram = dictionary.atoms.T @ dictionary.atoms
        self._factors: dict[float, tuple] = {}

    def clear_factors(self) -> None:
        """Drop stored factorizations (call after a parameter update sweep
        so the store does not grow without bound during training)."""
        self._factors.clear()

    def _factorization(self, rho: float):
        key = float(rho)
        factor = self._factors.get(key)
        if factor is None:
            m = self.gram + key * np.eye(self.gram.shape[0])
            factor = self._factors[key] = cho_factor(m, lower=False)
        return factor

    def solve(self, rho: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (D^T D + rho*I) w = rhs via the cached Cholesky factor.

        ``rhs`` is one right-hand side (m,) or a block of them (m, n); w has
        its shape. Iterative refinement (up to three rounds) holds every column
        to 1e-12 times its own norm even at the rho floor, where the system is
        stiff; only the columns still above that target get another round.
        """
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        factor = self._factorization(rho)
        # cho_factor checked the matrix; checking the factor again per call
        # would read all m*m of its entries, so only the right-hand side is
        rhs = np.asarray_chkfinite(rhs)
        block = rhs.reshape(len(rhs), -1)
        w = cho_solve(factor, block, check_finite=False)
        target = 1e-12 * np.linalg.norm(block, axis=0)
        cols = np.arange(block.shape[1])
        for _ in range(3):
            part = w[:, cols]
            residual = block[:, cols] - (self.gram @ part + rho * part)
            miss = np.linalg.norm(residual, axis=0) > target[cols]
            if not miss.any():
                break
            cols = cols[miss]
            w[:, cols] = part[:, miss] + cho_solve(factor, residual[:, miss],
                                                   check_finite=False)
        return w.reshape(rhs.shape)
