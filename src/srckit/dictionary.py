"""Class-partitioned dictionary and shared regularized-solve machinery.

The dictionary stacks training pixels as columns, grouped contiguously by
class. Every l1-style solver repeatedly applies (D^T D + rho*I)^-1, so the
Gram matrix and one SPD factorization per distinct rho are cached here.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

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
    """D^T D plus a per-rho store of SPD factorizations of (D^T D + rho*I).

    Reads are lock-free; factorization insertion is serialized so concurrent
    solvers over different pixels can share one cache.
    """

    def __init__(self, dictionary: Dictionary):
        self.gram = dictionary.atoms.T @ dictionary.atoms
        self._factors: dict[float, tuple] = {}
        self._lock = threading.Lock()

    def clear_factors(self) -> None:
        """Drop stored factorizations (call after a parameter update sweep
        so the store does not grow without bound during training)."""
        with self._lock:
            self._factors.clear()

    def _factorization(self, rho: float):
        key = float(rho)
        factor = self._factors.get(key)
        if factor is None:
            with self._lock:
                factor = self._factors.get(key)
                if factor is None:
                    m = self.gram + key * np.eye(self.gram.shape[0])
                    factor = cho_factor(m, lower=False)
                    self._factors[key] = factor
        return factor

    def solve(self, rho: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (D^T D + rho*I) w = rhs via the cached Cholesky factor.

        Iterative refinement (up to three rounds) keeps the residual near
        working precision even at the rho floor, where the system is stiff.
        """
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        factor = self._factorization(rho)
        w = cho_solve(factor, rhs)
        target = 1e-12 * np.linalg.norm(rhs)
        for _ in range(3):
            residual = rhs - (self.gram @ w + rho * w)
            if np.linalg.norm(residual) <= target:
                break
            w = w + cho_solve(factor, residual)
        return w

