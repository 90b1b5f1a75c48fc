"""Sparse-representation classification toolkit.

Greedy and l1 sparse solvers over a class-partitioned dictionary, an
unrolled ADMM network whose per-stage parameters are learned by analytic
back-propagation, residual-rule classification with OA/AA/kappa metrics,
seeded parameter sweeps, and a config-driven CLI. The benchmark harness
lives outside the package, in ``perfbench/``.
"""
from .classify import (ClassificationReport, SweepResult, classify_testset,
                       evaluate, src_decide, sweep)
from .data import (BundleFormatError, LabeledCube, Split, SplitMix64, draw_splits,
                   extract_pixels, load_bundle, load_pixel_csv, make_split,
                   pixels_to_cube, read_labels, save_bundle)
from .dictionary import Dictionary, GramCache, assemble
from .network import (GradCheckReport, NetParams, StageTrace, TrainingDiverged, asdn,
                      backward, class_residuals, forward, grad_check, loss, one_hot, train)
from .solvers import SparseCode, admm_fixed, fista, gomp, omp, romp, samp, soft_threshold, sp

__version__ = "0.1.0"

__all__ = [
    "BundleFormatError", "ClassificationReport", "Dictionary", "GradCheckReport",
    "GramCache", "LabeledCube", "NetParams", "SparseCode", "Split", "SplitMix64",
    "StageTrace", "SweepResult", "TrainingDiverged", "admm_fixed", "asdn", "assemble",
    "backward", "class_residuals", "classify_testset", "draw_splits", "evaluate",
    "extract_pixels", "fista", "forward", "gomp", "grad_check", "load_bundle",
    "load_pixel_csv", "loss", "make_split", "omp", "one_hot", "pixels_to_cube",
    "read_labels", "romp", "samp", "save_bundle", "soft_threshold", "sp", "src_decide",
    "sweep", "train",
]
