"""Sparse-representation classification toolkit.

Greedy and l1 sparse solvers over a class-partitioned dictionary, an
unrolled ADMM network whose per-stage parameters are learned by analytic
back-propagation, residual-rule classification with OA/AA/kappa metrics,
seeded parameter sweeps, and a config-driven CLI. The benchmark harness
lives outside the package, in ``perfbench/``.
"""
from .classify import (ClassificationReport, SweepResult, classify_testset,
                       evaluate, make_solver, src_decide, sweep)
from .data import (BundleFormatError, LabeledCube, Split, SplitMix64,
                   extract_pixels, load_bundle, load_pixel_csv, make_split,
                   pixels_to_cube, save_bundle)
from .dictionary import Dictionary, GramCache, assemble
from .network import (GradCheckReport, NetParams, ParamGrads, StageTrace,
                      TrainConfig, TrainingDiverged, backward, class_residuals,
                      forward, grad_check, loss, mean_loss, one_hot, train)
from .solvers import (AdmmConfig, SparseCode, admm_fixed, fista, gomp,
                      lasso_kkt_violation, lasso_objective, omp, romp, samp,
                      soft_threshold, sp)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "BundleFormatError", "ClassificationReport", "Dictionary",
    "GradCheckReport", "GramCache", "LabeledCube", "NetParams", "ParamGrads",
    "SparseCode", "Split", "SplitMix64", "StageTrace", "SweepResult",
    "TrainConfig", "TrainingDiverged", "admm_fixed", "assemble", "backward",
    "class_residuals", "classify_testset", "evaluate", "extract_pixels",
    "fista", "forward", "gomp", "grad_check", "lasso_kkt_violation",
    "lasso_objective", "load_bundle", "load_pixel_csv", "loss", "make_solver",
    "make_split", "mean_loss", "omp", "one_hot", "pixels_to_cube", "romp",
    "samp", "save_bundle", "soft_threshold", "sp",
    "src_decide", "sweep", "train",
]
