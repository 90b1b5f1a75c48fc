"""Seeded synthetic problem generators for benchmarks and self-checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .dictionary import Dictionary, assemble


def random_orthonormal(seed: int, n: int) -> np.ndarray:
    """Random n x n orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_unit_dictionary(seed: int, n_bands: int, n_atoms: int,
                           labels=None) -> Dictionary:
    """Gaussian dictionary with unit-norm columns; labels default to one class."""
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n_bands, n_atoms))
    atoms /= np.linalg.norm(atoms, axis=0)
    if labels is None:
        labels = np.ones(n_atoms, dtype=np.int64)
    return assemble(atoms, labels)


def planted_instance(seed: int, n: int = 64, k: int = 5):
    """Orthonormal n x n dictionary plus an exactly k-sparse target.

    Coefficient magnitudes are drawn from [1, 2] with random signs. Returns
    (dictionary, x, true_coeffs, support ascending).
    """
    rng = np.random.default_rng(seed)
    q = random_orthonormal(seed, n)
    support = np.sort(rng.choice(n, size=k, replace=False))
    coeffs = np.zeros(n)
    coeffs[support] = rng.uniform(1.0, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    dictionary = assemble(q, np.ones(n, dtype=np.int64))
    x = dictionary.atoms @ coeffs
    return dictionary, x, coeffs, support


@dataclass
class SubspaceData:
    """Pixels drawn from per-class low-dimensional subspaces."""

    dict_pixels: np.ndarray
    dict_labels: np.ndarray
    train_pixels: np.ndarray
    train_labels: np.ndarray
    test_pixels: np.ndarray
    test_labels: np.ndarray
    n_classes: int


def subspace_classes(seed: int, n_classes: int = 3, dim: int = 50,
                     sub_dim: int = 5, n_dict: int = 8, n_train: int = 20,
                     n_test: int = 200, noise: float = 0.01) -> SubspaceData:
    """Classes living on mutually orthogonal random ``sub_dim``-dimensional
    subspaces of R^dim. Every pixel is a unit-norm subspace sample plus
    isotropic Gaussian noise of scale ``noise``."""
    if n_classes * sub_dim > dim:
        raise ValueError("subspaces do not fit: n_classes * sub_dim > dim")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes * sub_dim)))

    def draw(count, class_id):
        block = basis[:, (class_id - 1) * sub_dim: class_id * sub_dim]
        weights = rng.standard_normal((sub_dim, count))
        pixels = block @ weights
        pixels /= np.linalg.norm(pixels, axis=0)
        return pixels + noise * rng.standard_normal((dim, count))

    groups = {"dict": n_dict, "train": n_train, "test": n_test}
    out = {}
    for group, count in groups.items():
        pixels = np.hstack([draw(count, c) for c in range(1, n_classes + 1)])
        labels = np.repeat(np.arange(1, n_classes + 1), count)
        out[group] = (pixels, labels)
    return SubspaceData(
        dict_pixels=out["dict"][0], dict_labels=out["dict"][1],
        train_pixels=out["train"][0], train_labels=out["train"][1],
        test_pixels=out["test"][0], test_labels=out["test"][1],
        n_classes=n_classes)


def gradcheck_instance(seed: int, n_bands: int = 20, n_atoms: int = 40,
                       n_classes: int = 2, n_stages: int = 5,
                       margin: float = 1e-4, max_draws: int = 200):
    """A kink-free gradient-check instance: every pre-activation entry sits
    more than ``margin`` away from its stage threshold, so central differences
    never straddle the shrinkage kink, and the class residuals spread by more
    than ``margin``, so the loss is not flat.

    Returns (dictionary, x, y_onehot, params). Deterministic given seed.
    With one class the softmax loss and every gradient are identically 0, so
    ``n_classes`` below 2 raises ValueError. With one band and classes of
    equal size the residuals tie at every draw (the loss is ln C and every
    gradient is rounding noise); when no draw of ``max_draws`` qualifies,
    ValueError too.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2 for a nonzero loss, got {n_classes}")
    rng = np.random.default_rng(seed)
    per_class = n_atoms // n_classes
    labels = np.repeat(np.arange(1, n_classes + 1), per_class)
    labels = np.concatenate([labels, np.full(n_atoms - len(labels), n_classes)])
    dictionary = random_unit_dictionary(seed, n_bands, n_atoms, labels)

    for _ in range(max_draws):
        params = network.NetParams(
            rho=1.0 + 0.2 * rng.uniform(-1.0, 1.0, n_stages + 1),
            eta=0.05 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, n_stages)),
            tau=1.0 + 0.2 * rng.uniform(-1.0, 1.0, n_stages),
            relax=1.0,
        )
        true_class = int(rng.integers(1, n_classes + 1))
        sl = dictionary.class_slice(true_class)
        weights = rng.standard_normal(sl.stop - sl.start)
        x = dictionary.atoms[:, sl] @ weights
        x /= np.linalg.norm(x)
        x += 0.05 * rng.standard_normal(n_bands)
        code, trace = network.forward(dictionary, x, params)
        spread = np.ptp(network.class_residuals(dictionary, code, x))
        if network.kink_margin(trace, params) > margin and spread > margin:
            y = network.one_hot(true_class, n_classes)
            return dictionary, x, y, params
    raise ValueError(f"no kink-free instance found in {max_draws} draws (seed {seed}) "
                     f"whose class residuals spread by more than {margin}")
