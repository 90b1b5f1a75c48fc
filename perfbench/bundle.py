"""Seeded Pavia-shaped input generator for the benchmark.

Writes a bundle directory in the srckit on-disk format (header.json,
band-major float64 data.bin, int32 labels.bin) without importing srckit, so
the program under test receives only generated files. Each class lives near
its own low-dimensional subspace on top of a shared positive offset
spectrum, plus Gaussian noise; the shared offset makes the normalized atoms
strongly coherent, as real reflectance spectra are.

The scene (offset spectrum and class subspaces) is fixed; the seed draws the
pixels (placement, subspace weights, brightness, noise). Solver iteration
counts depend on the scene's conditioning, so fixing it keeps the work per
run nearly the same from seed to seed.

The bundle has Pavia University's shape: 103 bands, 9 classes with the
published per-class pixel counts, and a 426-atom dictionary at
``dict_frac=0.01``. :func:`write_inputs` asserts all three so a drifting
generator fails loudly instead of silently moving every benchmark number.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PAVIA_COUNTS = (6631, 18649, 2099, 3064, 1345, 5029, 1330, 3682, 947)
BANDS = 103
HEIGHT, WIDTH = 208, 206  # 42848 pixels; the 72 beyond 42776 are unlabeled
DICT_FRAC = 0.01
DICT_ATOMS = 426
SUB_DIM = 6
SIGNAL = 0.35
NOISE = 0.02
STAGES = 9
SCENE_SEED = 0x5CE4E
BUNDLE_FILES = ("header.json", "data.bin", "labels.bin")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def dictionary_atoms(counts, dict_frac: float = DICT_FRAC) -> int:
    """Atoms drawn per class by the split rule, summed over classes."""
    return sum(max(1, round_half_up(dict_frac * n)) for n in counts)


def generate(seed: int):
    """(data (H, W, B) float64, labels (H, W) int32) for ``seed``."""
    scene = np.random.default_rng(SCENE_SEED)
    t = np.linspace(0.0, 1.0, BANDS)
    phase = scene.uniform(0.0, 2.0 * np.pi)
    offset = 1.0 + 0.4 * np.sin(2.0 * np.pi * 1.3 * t + phase) + 0.3 * t
    n_classes = len(PAVIA_COUNTS)
    bases = scene.standard_normal((n_classes, BANDS, SUB_DIM)) / np.sqrt(BANDS)

    rng = np.random.default_rng([seed, 0x5EED])

    labels = np.zeros(HEIGHT * WIDTH, dtype=np.int32)
    labels[:sum(PAVIA_COUNTS)] = np.repeat(np.arange(1, n_classes + 1), PAVIA_COUNTS)
    labels = rng.permutation(labels)

    pixels = np.empty((HEIGHT * WIDTH, BANDS))
    for c in range(n_classes + 1):
        where = np.flatnonzero(labels == c)
        weights = rng.standard_normal((len(where), SUB_DIM))
        signal = weights @ bases[c - 1].T if c else np.zeros((len(where), BANDS))
        brightness = rng.uniform(0.7, 1.3, size=(len(where), 1))
        pixels[where] = brightness * (offset + SIGNAL * signal) \
            + NOISE * rng.standard_normal((len(where), BANDS))
    return pixels.reshape(HEIGHT, WIDTH, BANDS), labels.reshape(HEIGHT, WIDTH)


def asdn_params(seed: int) -> dict:
    """Fixed 9-stage network parameters with distinct per-stage rho."""
    rng = np.random.default_rng([seed, 0xA5D])
    rho = np.sort(rng.uniform(0.05, 0.2, STAGES + 1))[::-1]
    if len(np.unique(rho)) != STAGES + 1:
        raise AssertionError("per-stage rho values must be distinct")
    return {
        "n_stages": STAGES,
        "relax": 1.0,
        "rho": rho.tolist(),
        "eta": rng.uniform(0.001, 0.005, STAGES).tolist(),
        "tau": rng.uniform(0.8, 1.2, STAGES).tolist(),
    }


def write_bundle(data: np.ndarray, labels: np.ndarray, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    h, w, b = data.shape
    header = {"height": h, "width": w, "bands": b, "classes": int(labels.max()),
              "dtype": "f64le", "label_dtype": "i32le", "order": "band-major"}
    (root / "header.json").write_text(json.dumps(header, sort_keys=True), encoding="utf-8")
    (root / "data.bin").write_bytes(
        np.ascontiguousarray(data.transpose(2, 0, 1), dtype="<f8").tobytes())
    (root / "labels.bin").write_bytes(np.ascontiguousarray(labels, dtype="<i4").tobytes())


def bundle_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for name in BUNDLE_FILES:
        digest.update((root / name).read_bytes())
    return digest.hexdigest()


def write_inputs(seed: int, root: Path) -> dict:
    """Generate the bundle and the eval-asdn params file under ``root``.

    Returns {"bundle", "params", "sha256", "data", "labels"}; the arrays are
    kept so the reference path need not read the bundle back.
    """
    data, labels = generate(seed)
    counts = tuple(int((labels == c).sum()) for c in range(1, labels.max() + 1))
    if data.shape[2] != BANDS or counts != PAVIA_COUNTS:
        raise AssertionError(f"generator drifted: {data.shape[2]} bands, counts {counts}")
    if dictionary_atoms(counts) != DICT_ATOMS:
        raise AssertionError(f"dictionary would have {dictionary_atoms(counts)} atoms")
    if not (np.isfinite(data).all() and (data[labels > 0] @ np.ones(BANDS) > 0).all()):
        raise AssertionError("generated spectra must be finite with positive sum")
    bundle = root / "bundle"
    write_bundle(data, labels, bundle)
    params = root / "asdn_params.json"
    params.write_text(json.dumps(asdn_params(seed), indent=2), encoding="utf-8")
    return {"bundle": bundle, "params": params, "sha256": bundle_sha256(bundle),
            "data": data, "labels": labels}
