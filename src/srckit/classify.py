"""Residual decision rule, evaluation metrics, and the parameter-sweep harness.

A test pixel is coded over the class-partitioned dictionary by any of the
registered solvers, then assigned to the class whose sub-dictionary
reconstructs it with the smallest residual. Every solver codes the test
pixels in blocks of ``network.BLOCK_COLUMNS`` (32) columns, with one decision
per block. omp, gomp, fista, admm_fixed and the unrolled network ``asdn``
code a whole block in one call, each column stopping on its own; sp, romp
and samp code its pixels one call each. All coding runs on the calling
thread: the block and BLAS are the only parallelism. Reports carry the
confusion matrix with overall accuracy, average (per-class) accuracy, and
the chance-corrected kappa coefficient, all as fractions in [0, 1].
"""
from __future__ import annotations

import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import network, solvers
from .data import LabeledCube, extract_pixels, make_split
from .dictionary import Dictionary, assemble

def src_decide(dictionary: Dictionary, code, x: np.ndarray):
    """Class with the smallest reconstruction residual ||x - D_i a_i||;
    exact ties go to the lowest class index. For a block (x of shape
    (bands, n), code (n_atoms, n)) the array of each column's class."""
    classes = np.argmin(network.class_residuals(dictionary, code, x), axis=0) + 1
    return int(classes) if classes.ndim == 0 else classes


@dataclass
class ClassificationReport:
    """Confusion matrix (rows = ground truth, cols = predicted) plus
    OA, AA, and kappa as fractions."""

    confusion: np.ndarray
    per_class_acc: np.ndarray
    oa: float
    aa: float
    kappa: float

    def to_json(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "per_class_acc": self.per_class_acc.tolist(),
            "oa": self.oa,
            "aa": self.aa,
            "kappa": self.kappa,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClassificationReport":
        return cls(
            confusion=np.asarray(doc["confusion"], dtype=np.int64),
            per_class_acc=np.asarray(doc["per_class_acc"], dtype=np.float64),
            oa=float(doc["oa"]), aa=float(doc["aa"]), kappa=float(doc["kappa"]),
        )


def evaluate(pred, truth, n_classes: int) -> ClassificationReport:
    """Confusion matrix and OA/AA/kappa for predicted vs true labels (1..C)."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(pred) != len(truth):
        raise ValueError(f"{len(pred)} predictions vs {len(truth)} truths")
    if len(pred) == 0:
        raise ValueError("nothing to evaluate")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.min() < 1 or arr.max() > n_classes:
            raise ValueError(f"{name} labels outside 1..{n_classes}")

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth - 1, pred - 1), 1)
    total = confusion.sum()
    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)

    per_class = np.zeros(n_classes)
    present = row_sums > 0
    per_class[present] = np.diag(confusion)[present] / row_sums[present]
    if not present.all():
        absent = [int(i) + 1 for i in np.flatnonzero(~present)]
        warnings.warn(f"classes {absent} absent from the test draw; "
                      "they contribute accuracy 0 to AA", stacklevel=2)

    oa = float(np.trace(confusion) / total)
    aa = float(per_class.mean())
    p_e = float((row_sums * col_sums).sum() / total ** 2)
    kappa = 1.0 if p_e >= 1.0 else (oa - p_e) / (1.0 - p_e)
    return ClassificationReport(confusion=confusion, per_class_acc=per_class,
                                oa=oa, aa=aa, kappa=float(kappa))


def integer(value) -> int:
    """``value`` as an int: an integer, or a float with an integral value
    (the 2.0 a sweep grid gives "k"). A boolean, a fractional or non-finite
    number, or anything else raises ValueError rather than being truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def real(value) -> float:
    """``value`` as a finite float: an integer or a real number such as a
    numpy float. A boolean, a string, NaN, an infinity or an integer too
    large for a float raises ValueError rather than being cast."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):  # exact for huge ints, False for NaN
        raise ValueError(f"expected a finite real number, got {value!r}")
    return float(value)


def _net_params(net) -> "network.NetParams":
    return net if isinstance(net, network.NetParams) else network.NetParams.from_json(net)


# The keyword parameters each solver takes after (dictionary, x), and one type
# for each name. Defaults live only in the solver signatures, AdmmConfig and
# NetParams.default; "k" is the one parameter without a default. "asdn" is
# network.forward with params "net" (a NetParams or its JSON document),
# or else NetParams.default(n_stages).
SOLVER_PARAMS = {
    "omp": ("k", "tol"),
    "sp": ("k", "tol", "max_iters"),
    "romp": ("k", "tol"),
    "gomp": ("k", "s", "tol"),
    "samp": ("step", "tol", "max_iters"),
    "fista": ("lam", "max_iters", "tol"),
    "admm_fixed": ("lam", "rho", "relax", "tau", "max_iters", "tol"),
    "asdn": ("net", "n_stages"),
}
PARAM_TYPES = {"k": integer, "s": integer, "step": integer, "max_iters": integer,
               "n_stages": integer,
               "lam": real, "rho": real, "relax": real, "tau": real, "tol": real,
               "net": _net_params}
SOLVER_NAMES = tuple(SOLVER_PARAMS)


def param_name(key: str) -> str:
    """The canonical name of a solver parameter: the alias "lambda" is "lam"."""
    return "lam" if key == "lambda" else key


def canonical_params(params: dict | None) -> dict:
    """A copy of a solver-parameter record under canonical names; of two
    keys that name the same parameter the later one wins."""
    return {param_name(key): value for key, value in (params or {}).items()}


def check_sweep(solver: str, parameter: str, params: dict | None, grid) -> None:
    """Raise ValueError unless ``solver`` takes the numeric ``parameter`` and,
    with it set to each value of ``grid``, has every parameter it needs."""
    key = param_name(parameter)
    taken = SOLVER_PARAMS.get(solver)
    if taken is not None and (key not in taken or PARAM_TYPES[key] not in (integer, real)):
        raise ValueError(f"solver {solver} takes no numeric parameter {parameter!r}; "
                         f"it takes {', '.join(taken)}")
    for value in grid:
        solver_kwargs(solver, {**canonical_params(params), key: value})


def solver_kwargs(name: str, params: dict | None = None) -> dict:
    """The keyword arguments solver ``name`` takes from a parameter record,
    cast to their types. Keys set to None count as absent. An unknown
    solver, a key the solver does not take, a value its type rejects, a
    missing "k", or "n_stages" beside "net" raises ValueError naming it."""
    if name not in SOLVER_PARAMS:
        raise ValueError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    params = canonical_params(params)
    keys = SOLVER_PARAMS[name]
    untaken = [key for key, value in params.items()
               if value is not None and key not in keys]
    if untaken:
        raise ValueError(f"solver {name} takes no parameter "
                         f"{', '.join(map(repr, untaken))}; it takes {', '.join(keys)}")
    if "k" in keys and params.get("k") is None:
        raise ValueError(f"solver {name} needs parameter 'k' (the sparsity level K)")
    if params.get("net") is not None and params.get("n_stages") is not None:
        raise ValueError(f"solver {name} takes 'n_stages' only without 'net': "
                         "a trained network fixes its own depth")
    kwargs = {}
    for key in keys:
        if params.get(key) is not None:
            try:
                kwargs[key] = PARAM_TYPES[key](params[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"solver {name} parameter {key!r}: {exc}") from exc
    return kwargs


def make_solver(dictionary: Dictionary, name: str, params: dict | None = None):
    """Build a solver callable ``x -> SparseCode`` that codes one pixel
    (bands,) or a block of pixel columns (bands, n).

    ``name`` is one of SOLVER_NAMES and ``params`` its parameter record
    (see SOLVER_PARAMS and solver_kwargs). The solver is looked up on its
    module at every call. sp, romp and samp code a block one call per
    column and stack the codes; every other solver codes it in one call.
    admm_fixed and asdn solve through the dictionary's ``gram_cache``, so
    it is built at their first solve and only for them, and later solvers
    over the same dictionary reuse it.
    """
    kwargs = solver_kwargs(name, params)
    if name == "asdn":
        net = kwargs.get("net") or network.NetParams.default(**kwargs)
        return lambda x: network.forward(dictionary, x, net)[0]
    if name == "admm_fixed":
        kwargs = {"cfg": solvers.AdmmConfig(**kwargs)}

    def solve(x):
        if x.ndim == 2 and name in ("sp", "romp", "samp"):  # they code one pixel
            return solvers.SparseCode.from_dense(
                np.stack([solve(column).coeffs for column in x.T], axis=1))
        return getattr(solvers, name)(dictionary, x, **kwargs)
    return solve


def classify_testset(dictionary: Dictionary, pixels: np.ndarray, solver: str,
                     params: dict | None = None) -> np.ndarray:
    """Code every pixel column and apply the residual decision rule.

    Pixels are coded in blocks of network.BLOCK_COLUMNS, one call of the
    ``make_solver`` callable and one ``src_decide`` per block, all on the
    calling thread. Solvers that solve with (D^T D + rho*I) share the
    dictionary's ``gram_cache``.
    """
    if pixels.ndim != 2 or pixels.shape[1] == 0:
        raise ValueError("test set is empty")
    solve = make_solver(dictionary, solver, params)
    width = network.BLOCK_COLUMNS
    blocks = [pixels[:, start:start + width] for start in range(0, pixels.shape[1], width)]
    return np.concatenate([src_decide(dictionary, solve(x), x) for x in blocks]).astype(np.int64)


@dataclass
class SweepResult:
    """Mean and standard deviation of OA/AA/kappa per grid value over R runs."""

    parameter: str
    grid: np.ndarray
    oa_mean: np.ndarray
    oa_std: np.ndarray
    aa_mean: np.ndarray
    aa_std: np.ndarray
    kappa_mean: np.ndarray
    kappa_std: np.ndarray
    seeds: list

    def to_json(self) -> dict:
        return {
            "parameter": self.parameter,
            "grid": self.grid.tolist(),
            "oa_mean": self.oa_mean.tolist(),
            "oa_std": self.oa_std.tolist(),
            "aa_mean": self.aa_mean.tolist(),
            "aa_std": self.aa_std.tolist(),
            "kappa_mean": self.kappa_mean.tolist(),
            "kappa_std": self.kappa_std.tolist(),
            "seeds": list(self.seeds),
        }

    def to_csv(self) -> str:
        """Plot-ready CSV, one row per grid value, metrics in percent."""
        lines = ["value,oa_mean,oa_std,aa_mean,aa_std,kappa_mean,kappa_std"]
        for i, value in enumerate(self.grid):
            cells = [repr(float(value))] + [
                repr(round(100.0 * float(v), 10)) for v in (
                    self.oa_mean[i], self.oa_std[i], self.aa_mean[i],
                    self.aa_std[i], self.kappa_mean[i], self.kappa_std[i])
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def sweep(cube: LabeledCube, solver: str, parameter: str, grid, runs: int = 5,
          base_seed: int = 0, dict_frac: float = 0.01,
          train_frac: float = 1.0 / 11.0, normalize: bool = True,
          params: dict | None = None) -> SweepResult:
    """Classification accuracy across a solver-parameter grid.

    The split is drawn ``runs`` times with seeds base_seed..base_seed+runs-1
    (fresh dictionary each run, so no bias from a single random sampling);
    every grid value classifies the test pixels of every draw, and
    OA/AA/kappa are averaged over the draws. Standard deviations use ddof=1
    when runs > 1.
    """
    grid = np.asarray(list(grid), dtype=np.float64)
    if grid.size == 0:
        raise ValueError("parameter grid is empty")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    check_sweep(solver, parameter, params, grid)
    base = canonical_params(params)
    seeds = [base_seed + r for r in range(runs)]

    oa = np.zeros((grid.size, runs))
    aa = np.zeros((grid.size, runs))
    kappa = np.zeros((grid.size, runs))
    for r, seed in enumerate(seeds):
        split = make_split(cube, dict_frac, train_frac, seed)
        dict_pixels, dict_labels = extract_pixels(
            cube, split.dictionary_flat(), normalize)
        dictionary = assemble(dict_pixels, dict_labels)
        test_pixels, test_labels = extract_pixels(
            cube, split.test_flat(), normalize)
        for gi, value in enumerate(grid):
            merged = {**base, param_name(parameter): float(value)}
            try:
                pred = classify_testset(dictionary, test_pixels, solver, merged)
            except Exception as exc:
                raise RuntimeError(
                    f"sweep failed at {parameter}={value}: {exc}") from exc
            report = evaluate(pred, test_labels, cube.n_classes)
            oa[gi, r], aa[gi, r], kappa[gi, r] = report.oa, report.aa, report.kappa

    ddof = 1 if runs > 1 else 0
    return SweepResult(
        parameter=parameter, grid=grid,
        oa_mean=oa.mean(axis=1), oa_std=oa.std(axis=1, ddof=ddof),
        aa_mean=aa.mean(axis=1), aa_std=aa.std(axis=1, ddof=ddof),
        kappa_mean=kappa.mean(axis=1), kappa_std=kappa.std(axis=1, ddof=ddof),
        seeds=seeds)
