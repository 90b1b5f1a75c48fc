"""Seeded synthetic problems the tests draw their dictionaries and pixels
from: random orthonormal bases, planted k-sparse targets, and classes that
live on orthogonal low-dimensional subspaces."""
from dataclasses import dataclass

import numpy as np

from srckit.data import LabeledCube
from srckit.dictionary import assemble


def grid_cube(data, labels) -> LabeledCube:
    """The cube of every pixel of a (height, width, bands) array."""
    h, w, b = np.shape(data)
    return LabeledCube(labels, np.reshape(data, (h * w, b)).T)


def random_orthonormal(seed: int, n: int) -> np.ndarray:
    """Random n x n orthogonal matrix (QR of a Gaussian, signs fixed)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


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
