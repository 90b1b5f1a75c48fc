"""Residual decision rule, evaluation metrics, and the parameter-sweep harness.

A test pixel is coded over the class-partitioned dictionary by any of the
registered solvers, then assigned to the class whose sub-dictionary
reconstructs it with the smallest residual. Every solver, the unrolled
network ``asdn`` included, codes a test set in ceil(n / BLOCK_COLUMNS)
near-equal blocks of at most BLOCK_COLUMNS = 256 columns, one call and one
decision per block, each column stopping on its own. Wide blocks spread
each step's fixed cost over more pixels, and near-equal ones leave no
narrow tail (69 pixels make one block, and 300 two of 150). Training keeps
``network.BLOCK_COLUMNS`` = 32. All coding runs on the calling thread: the
block and BLAS are the only parallelism.
Reports carry the confusion matrix with overall accuracy, average
(per-class) accuracy, and the chance-corrected kappa coefficient, all as
fractions in [0, 1], named once in ``SCORES``. ``split_inputs`` draws the
dictionary and the pixels to code from a split, for train, eval and sweep,
and ``read_ids`` names the pixels it reads, the ``keep`` of the bundle load
that serves it.
"""
from __future__ import annotations

import inspect
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import network, solvers
from .data import LabeledCube, Split, extract_pixels
from .dictionary import Dictionary, assemble

SCORES = ("oa", "aa", "kappa")
# The widest block classify_testset codes in one solver call. On 512 pixels
# of a 103 x 426 dictionary (one BLAS thread of a 2-vCPU Xeon) omp took 144,
# 101, 77 and 67 us a pixel in blocks of 32, 64, 128 and 256, asdn 110, 88,
# 78 and 73, and fista (100 iterations) 1155, 917, 856 and 867. Training
# codes its batches in network.BLOCK_COLUMNS = 32, where forward keeps a trace.
BLOCK_COLUMNS = 256
# SweepResult's score fields, in sweep.csv's column order
SWEEP_COLUMNS = tuple(f"{name}_{stat}" for name in SCORES for stat in ("mean", "std"))


def _subset_ids(split: Split, subset: str) -> np.ndarray:
    return split.train_flat() if subset == "train" else split.test_flat()


def read_ids(split: Split, subset: str = "test") -> np.ndarray:
    """The flat ids ``split_inputs`` reads: the dictionary's, then the
    ``subset``'s."""
    return np.concatenate([split.dictionary_flat(), _subset_ids(split, subset)])


def split_inputs(cube: LabeledCube, split: Split, normalize: bool, subset: str = "test"):
    """(dictionary, ids, pixels, labels): the split's dictionary, assembled
    first, then the flat ids of its ``subset`` ("train" or "test") and their
    pixels and labels. An empty subset raises ValueError before any pixel is
    extracted."""
    ids = _subset_ids(split, subset)
    if not ids.size:
        raise ValueError(f"the split's {subset} set is empty")
    dictionary = assemble(*extract_pixels(cube, split.dictionary_flat(), normalize))
    return (dictionary, ids, *extract_pixels(cube, ids, normalize))


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
        return {"confusion": self.confusion.tolist(),
                "per_class_acc": self.per_class_acc.tolist(),
                **{name: getattr(self, name) for name in SCORES}}

    @classmethod
    def from_json(cls, doc: dict) -> "ClassificationReport":
        """The inverse of ``to_json``. A confusion that is not a square C x C
        matrix of integers >= 0 with C >= 1 and a sample, as ``evaluate``
        makes, a ``per_class_acc`` without C entries, or an accuracy or score
        that is not a finite real (``real``) within 1e-12 of the value its
        confusion gives (``confusion_scores``) is a ValueError. The report
        holds the confusion's values."""
        confusion = np.asarray(doc["confusion"], dtype=object)
        shape = confusion.shape
        if (len(shape) != 2 or shape[0] != shape[1] or not shape[0]
                or not all(type(n) is int and n >= 0 for n in confusion.flat)):
            raise ValueError("confusion is not a square C x C matrix of integers >= 0, C >= 1")
        confusion = confusion.astype(np.int64)
        if not confusion.any():
            raise ValueError("confusion counts no sample")
        per_class_acc = np.asarray(doc["per_class_acc"], dtype=object)
        if per_class_acc.shape != shape[:1]:
            raise ValueError(f"per_class_acc has shape {per_class_acc.shape} for {shape[0]} classes")
        per_class, values = confusion_scores(confusion)
        given = [(f"per_class_acc entry {i}", value, float(want))
                 for i, (value, want) in enumerate(zip(per_class_acc, per_class), start=1)]
        for where, value, want in given + [(name, doc[name], values[name]) for name in SCORES]:
            try:
                off = abs(real(value) - want)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if not off <= 1e-12:
                raise ValueError(f"{where} {value!r} is not {want!r}, its confusion's value")
        return cls(confusion=confusion, per_class_acc=per_class, **values)


def confusion_scores(confusion: np.ndarray):
    """(per-class accuracy, {"oa", "aa", "kappa"}) of a C x C integer
    confusion matrix (rows = ground truth) with at least one sample, every
    score a fraction; a class without samples has accuracy 0."""
    confusion = confusion.astype(np.float64)  # a product past int64 rounds, not wraps
    total = confusion.sum()
    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)
    per_class = np.zeros(len(confusion))
    present = row_sums > 0
    per_class[present] = np.diag(confusion)[present] / row_sums[present]
    oa = float(np.trace(confusion) / total)
    p_e = float((row_sums * col_sums).sum() / total ** 2)
    kappa = 1.0 if p_e >= 1.0 else (oa - p_e) / (1.0 - p_e)
    return per_class, {"oa": oa, "aa": float(per_class.mean()), "kappa": float(kappa)}


def evaluate(pred, truth, n_classes: int) -> ClassificationReport:
    """Confusion matrix and OA/AA/kappa (``confusion_scores``) for predicted
    vs true labels (1..C). Warns when a class is absent from the truth, and
    when every prediction is one class while the truth covers more."""
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
    present = confusion.sum(axis=1) > 0
    if not present.all():
        absent = [int(i) + 1 for i in np.flatnonzero(~present)]
        warnings.warn(f"classes {absent} absent from the test draw; "
                      "they contribute accuracy 0 to AA", stacklevel=2)
    if pred.min() == pred.max() and present.sum() > 1:
        warnings.warn(f"every prediction is class {pred[0]}, while the truth covers "
                      f"{present.sum()} classes", stacklevel=2)
    per_class, values = confusion_scores(confusion)
    return ClassificationReport(confusion=confusion, per_class_acc=per_class, **values)


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


# The eight solvers share one call, <module>.<name>(dictionary, x, **params),
# looked up on the module at each call. SOLVER_DEFAULTS holds, from each
# signature read at import, the keyword parameters after (dictionary, x), with
# their defaults ("callback" is a hook, not a parameter; "k" has no default).
# PARAM_TYPES gives each parameter one type, solvers.PARAM_RANGES its range.
SOLVER_MODULES = {**dict.fromkeys(("omp", "sp", "romp", "gomp", "samp", "fista",
                                   "admm_fixed"), solvers), "asdn": network}
SOLVER_DEFAULTS = {name: {key: p.default for key, p in
                          list(inspect.signature(getattr(module, name)).parameters.items())[2:]
                          if key != "callback"}
                   for name, module in SOLVER_MODULES.items()}
SOLVER_PARAMS = {name: tuple(defaults) for name, defaults in SOLVER_DEFAULTS.items()}
PARAM_TYPES = {"k": integer, "s": integer, "step": integer, "max_iters": integer,
               "n_stages": integer,
               "lam": real, "rho": real, "relax": real, "tau": real, "tol": real,
               "net": _net_params}
SOLVER_NAMES = tuple(SOLVER_PARAMS)


def check_sweep(solver: str, parameter: str, params: dict | None, grid) -> None:
    """Raise ValueError unless ``solver`` takes the numeric ``parameter``,
    ``grid`` has a value and, with ``parameter`` set to each value of
    ``grid``, the solver has every parameter it needs."""
    if solver in SOLVER_PARAMS and (parameter not in SOLVER_PARAMS[solver]
                                    or PARAM_TYPES[parameter] not in (integer, real)):
        raise ValueError(f"solver {solver} takes no numeric parameter {parameter!r}; "
                         f"it takes {', '.join(SOLVER_PARAMS[solver])}")
    if not len(grid):
        raise ValueError("parameter grid is empty")
    for value in grid:
        solver_kwargs(solver, {**(params or {}), parameter: value})


def solver_kwargs(name: str, params: dict | None = None) -> dict:
    """The keyword arguments solver ``name`` takes from a parameter record,
    cast to their types. Keys set to None count as absent. An unknown
    solver, a key the solver does not take (such as the CLI's alias
    "lambda"), a value its type or its range in solvers.PARAM_RANGES rejects,
    a missing "k", or "n_stages" beside "net" raises ValueError naming it."""
    if name not in SOLVER_PARAMS:
        raise ValueError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    params = params or {}
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
                solvers.check_ranges(**{key: kwargs[key]})
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"solver {name} parameter {key!r}: {exc}") from exc
    return kwargs


def check_fit(dictionary: Dictionary, name: str, params: dict | None = None) -> None:
    """Raise solvers.SizeError unless solver ``name``'s size parameters fit
    ``dictionary`` (solvers.check_sizes: K, gomp's S * iterations and
    samp's step, each at its default when the record leaves it out): the
    check the solver makes at its first block, made before any coding."""
    kwargs = solver_kwargs(name, params)
    taken = {**SOLVER_DEFAULTS[name], **kwargs}
    solvers.check_sizes(dictionary, **{key: taken[key] for key in ("k", "s", "step")
                                       if key in taken})


def classify_testset(dictionary: Dictionary, pixels: np.ndarray, solver: str,
                     params: dict | None = None) -> np.ndarray:
    """Code every pixel column and apply the residual decision rule.

    ``params``, the record of ``solver`` (one of SOLVER_NAMES), is resolved
    once by ``solver_kwargs``; bounds that depend on the dictionary are
    ``check_fit``'s. Pixels are coded in ceil(n / BLOCK_COLUMNS) near-equal
    blocks (widths differ by at most one) on the calling thread, with one
    call of the solver, looked up on its module at every block, and one
    ``src_decide`` per block. Each block is decided as it is coded, so its
    code is freed before the next block is coded: the working memory is one
    block's. admm_fixed and asdn share the dictionary's ``gram_cache``,
    built at their first block.
    """
    if pixels.ndim != 2 or pixels.shape[1] == 0:
        raise ValueError("test set is empty")
    kwargs, module = solver_kwargs(solver, params), SOLVER_MODULES[solver]
    blocks = np.array_split(pixels, -(-pixels.shape[1] // BLOCK_COLUMNS), axis=1)
    return np.concatenate([
        src_decide(dictionary, getattr(module, solver)(dictionary, x, **kwargs), x)
        for x in blocks]).astype(np.int64)


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
        return {"parameter": self.parameter, "grid": self.grid.tolist(),
                **{column: getattr(self, column).tolist() for column in SWEEP_COLUMNS},
                "seeds": list(self.seeds)}

    def to_csv(self) -> str:
        """Plot-ready CSV, one row per grid value, metrics in percent."""
        columns = [getattr(self, column) for column in SWEEP_COLUMNS]
        lines = [",".join(("value", *SWEEP_COLUMNS))]
        for i, value in enumerate(self.grid):
            lines.append(",".join([repr(float(value))] + [
                repr(round(100.0 * float(column[i]), 10)) for column in columns]))
        return "\n".join(lines) + "\n"


def sweep(cube: LabeledCube, solver: str, parameter: str, grid, splits: list,
          normalize: bool = True, params: dict | None = None) -> SweepResult:
    """Classification accuracy across a solver-parameter grid.

    Codes the draws it is given: ``splits`` (data.draw_splits: a fresh
    dictionary each, so no bias from a single random sampling), whose
    ``read_ids`` pixels ``cube`` must hold. Every grid value classifies the
    test pixels of every draw, and OA/AA/kappa are averaged over the draws.
    Standard deviations use ddof=1 when there is more than one draw. No
    draw, or a draw with an empty test set, raises ValueError; a failure
    while coding names its grid value in a RuntimeError raised from the
    cause. Each draw's dictionary is checked against every grid value
    (``check_fit``) before that draw codes a pixel, so a value that does not
    fit fails first, with a solvers.SizeError that names it.
    """
    grid = np.asarray(list(grid), dtype=np.float64)
    check_sweep(solver, parameter, params, grid)
    if not splits:
        raise ValueError("sweep needs at least one split")
    records = [{**(params or {}), parameter: float(value)} for value in grid]

    scores = {name: np.zeros((grid.size, len(splits))) for name in SCORES}
    for r, split in enumerate(splits):
        dictionary, _, test_pixels, test_labels = split_inputs(cube, split, normalize)
        for value, record in zip(grid, records):
            try:
                check_fit(dictionary, solver, record)
            except solvers.SizeError as exc:
                raise solvers.SizeError(f"sweep failed at {parameter}={value}: {exc}") from exc
        for gi, (value, record) in enumerate(zip(grid, records)):
            try:
                pred = classify_testset(dictionary, test_pixels, solver, record)
            except Exception as exc:
                raise RuntimeError(f"sweep failed at {parameter}={value}: {exc}") from exc
            report = evaluate(pred, test_labels, cube.n_classes)
            for name, values in scores.items():
                values[gi, r] = getattr(report, name)

    ddof = 1 if len(splits) > 1 else 0
    return SweepResult(parameter=parameter, grid=grid, seeds=[split.seed for split in splits],
                       **{f"{name}_mean": v.mean(axis=1) for name, v in scores.items()},
                       **{f"{name}_std": v.std(axis=1, ddof=ddof) for name, v in scores.items()})
