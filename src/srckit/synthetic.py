"""The seeded instance ``srckit gradcheck`` checks the network's gradients on:
a random unit-norm dictionary and a pixel drawn from one of its classes, at
stage parameters whose shrinkage kinks lie well away from every
pre-activation entry."""
from __future__ import annotations

import numpy as np

from . import network
from .dictionary import Dictionary, assemble
from .solvers import ARRAY_CAP, check_ranges


def random_unit_dictionary(seed: int, n_bands: int, n_atoms: int,
                           labels=None) -> Dictionary:
    """Gaussian dictionary with unit-norm columns; labels default to one class."""
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((n_bands, n_atoms))
    atoms /= np.linalg.norm(atoms, axis=0)
    if labels is None:
        labels = np.ones(n_atoms, dtype=np.int64)
    return assemble(atoms, labels)


def gradcheck_instance(seed: int, n_bands: int = 20, n_atoms: int = 40,
                       n_classes: int = 2, n_stages: int = 5,
                       margin: float = 1e-4, max_draws: int = 200):
    """A kink-free gradient-check instance: every pre-activation entry sits
    more than ``margin`` away from its stage threshold, so central differences
    never straddle the shrinkage kink, and the class residuals spread by more
    than ``margin``, so the loss is not flat.

    Returns (dictionary, x, y_onehot, params). Deterministic given seed.
    With one class the softmax loss and every gradient are identically 0, so
    ``n_classes`` below 2 raises ValueError, as do more classes than atoms
    (a class without an atom), an ``n_stages`` outside ``solvers.PARAM_RANGES``
    and, before any array is made, a dictionary of no band or past
    solvers.ARRAY_CAP bytes. With one band and classes of equal size the
    residuals tie at every draw (the loss is ln C and every gradient is
    rounding noise); when no draw of ``max_draws`` qualifies, ValueError too.
    """
    if not 2 <= n_classes <= n_atoms:
        raise ValueError(f"n_classes must be >= 2 for a nonzero loss and at most "
                         f"n_atoms ({n_atoms}), got {n_classes}")
    if n_bands < 1 or n_bands * n_atoms * 8 > ARRAY_CAP:  # n_atoms >= n_classes >= 2
        raise ValueError(f"n_bands must be >= 1 and n_bands x n_atoms float64 fit {ARRAY_CAP} "
                         f"bytes, got n_bands={n_bands} and n_atoms={n_atoms}")
    check_ranges(n_stages=n_stages)
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
