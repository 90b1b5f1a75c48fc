"""Config-driven command-line front end for reproducible experiment runs.

Subcommands: ingest | split | train | eval | sweep | gradcheck | report.

One table, KEYS, declares every configuration key: its command-line flags,
its kind, an optional range check, and the subcommands that read it with
each one's default. The parser is generated from it. A run takes a JSON
config file (--config), puts every flag given on top of it (flags win), and
types each key its subcommand reads; other keys are ignored. Each input
rule has one owner. The CLI owns the spellings (flags, JSON keys, and
"lambda" for "lam", only here), the kinds (solver parameters' from
classify.PARAM_TYPES) and the ranges no library call checks: seeds >= 0,
bands, atoms, gradcheck's tol and the grid. The library call that
takes any other value checks it, and data.check_split a split file.
A subcommand does its work first. Only when that succeeds does one call,
``_write_run``, make --out and write the outputs and then, last,
manifest.json: the effective typed config (every key read, defaults filled
in) and content hashes of the input files. So a manifest marks a complete
run, and exit 1 and exit 3 both leave no --out; the one exception is a
failed gradcheck, which writes its errors and manifest, then exits 1. Every
input hash is taken before anything is written, so --out may be an input's
directory. A bundle's hashes are those of the bytes the run read: the
loaded cube carries them, so the bundle is read once, and only its three
files are listed. Train, eval and sweep take their splits from the
labels-only cube (data.read_labels), then read data.bin once and keep only
the spectra of the pixels those splits read (classify.read_ids); the run
fails if header.json or labels.bin changed between the two reads. Train and
eval drop the cube once the dictionary and the pixels to code are extracted.

Exit codes: 0 success (also --help), 1 runtime failure, 2 usage error,
3 config error. ``run`` prints one JSON line: a handler's summary to
stdout (report prints its own text), or a failure to stderr. A config
error is any input found bad before --out is made: a missing key, a value
of the wrong kind (a bool or string for a number, NaN or infinity for a
real, a fraction for an integer), a missing or malformed bundle, split,
params, CSV or report file, or a ValueError the library raises on its
inputs (one rule, ``_checked``), such as a class without pixels.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import solvers, synthetic
from .classify import (PARAM_TYPES, SCORES, SOLVER_NAMES, ClassificationReport, check_fit,
                       check_sweep, classify_testset, evaluate, integer, read_ids, real,
                       solver_kwargs, split_inputs, sweep)
from .data import (Split, check_split, class_counts, draw_splits, load_bundle, load_pixel_csv,
                   make_split, pixels_to_cube, read_labels, save_bundle)
from .dictionary import Dictionary
from .network import DEFAULT_STAGES, NetParams, grad_check, train

_SUBCOMMANDS = ("ingest", "split", "train", "eval", "sweep", "gradcheck", "report")


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"status": "error", "kind": kind, "message": message}),
          file=sys.stderr)


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_text(doc, indent: int | None = 2) -> str:
    # a config "net" document is recorded as the network it parsed to
    return json.dumps(doc, indent=indent, sort_keys=True, default=NetParams.to_json) + "\n"


def _object(pairs: list) -> dict:
    """A JSON object; a repeated key (json.loads keeps its last value) is a ValueError."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"key {max(keys, key=keys.count)!r} is repeated")
    return dict(pairs)


def _read_json(path: Path, what: str, parse=lambda doc: doc):
    """``parse`` of the JSON document in ``path``. A missing file, one that is
    not JSON or repeats a key, or one ``parse`` rejects is a config error naming it."""
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return parse(json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_object))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} file {path} is malformed: {exc!r}") from exc


GRID_CAP = 10_000


def parse_grid(text: str):
    """Grid syntax: "a:b" inclusive integer range, "a:b:s" stepped real
    range, or a comma list of numbers. A stepped range needs finite bounds
    and step, and a range may hold at most GRID_CAP = 10000 values: its
    count is checked before any value is built. A stepped value is
    lo + i*step rounded to 15 significant digits of the range's scale,
    max(|lo|, |hi|): "0:1:0.1" holds 0.3, and "-0.3:0.3:0.1" holds 0."""
    text = text.strip()
    try:
        if "," in text:
            return [float(t) for t in text.split(",") if t.strip()]
        if ":" in text:
            parts = text.split(":")
            if len(parts) == 2:
                lo, hi = int(parts[0]), int(parts[1])
                if hi < lo:
                    raise ValueError(f"empty range {text!r}")
                if hi - lo >= GRID_CAP:
                    raise ValueError(f"the range holds more than {GRID_CAP} values")
                return [float(v) for v in range(lo, hi + 1)]
            if len(parts) == 3:
                lo, hi, step = (float(p) for p in parts)
                for name, value in (("lower bound", lo), ("upper bound", hi), ("step", step)):
                    if not math.isfinite(value):
                        raise ValueError(f"the {name} must be finite, got {value}")
                if step <= 0:
                    raise ValueError(f"step must be positive in {text!r}")
                if hi < lo:
                    raise ValueError(f"empty range {text!r}")
                steps = (hi - lo) / step + 1e-9  # inf if hi - lo overflows
                if steps >= GRID_CAP:
                    raise ValueError(f"the range holds more than {GRID_CAP} values")
                scale = max(abs(lo), abs(hi))
                digits = 14 - math.floor(math.log10(scale)) if scale else 0
                values = [round(lo + i * step, digits) + 0.0  # + 0.0: no -0.0
                          for i in range(math.floor(steps) + 1)]
                return [v for v in values if v <= hi + 1e-12]
            raise ValueError(f"too many ':' in {text!r}")
        return [float(text)]
    except (ValueError, OverflowError) as exc:  # a float() of an int beyond float range
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def _param(name) -> str:
    """A parameter name as the library spells it: "lambda" is "lam"."""
    if not isinstance(name, str):
        raise TypeError(f"expected a name, got {name!r}")
    return "lam" if name == "lambda" else name


def _record(value) -> dict:
    """A JSON object (a config file or a solver_params record) with its keys
    spelled by ``_param``; of two keys for one parameter the later wins."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return {_param(key): item for key, item in value.items()}


def _grid(value) -> list:
    """A sweep grid: grid text (see parse_grid) or a list of finite numbers."""
    return [real(v) for v in (parse_grid(value) if isinstance(value, str) else value)]


# ---------------------------------------------------------------------------
# the key table

REQUIRED = object()


class Key(NamedTuple):
    """One config key. ``flags``: its spellings (a bool key has a --x/--no-x
    pair; none for a config-only key). ``kind``: a caster such as
    classify.integer, a type the value must be (bool, str, dict), or a tuple
    of the allowed values. ``commands``: each subcommand that reads the key,
    with its default (REQUIRED, or None if optional). ``check``: a range
    check (text, predicate). ``config_only``: subcommands without the flag.
    """

    flags: tuple
    kind: object
    commands: dict
    check: tuple | None = None
    help: str | None = None
    config_only: tuple = ()


_DRAW = ("split", "train", "eval", "sweep")  # read a bundle and draw a split
_CODE = ("eval", "sweep")  # classify with a solver
_FLAG_TYPES = {integer: int, real: float}  # any other kind parses as text
_AT_LEAST_ONE = ("be >= 1", lambda v: v >= 1)
_NON_NEGATIVE = ("be >= 0", lambda v: v >= 0)  # a seed: np.random.default_rng takes any int >= 0

KEYS = {
    "out": Key(("--out",), str, {**dict.fromkeys(_SUBCOMMANDS, REQUIRED), "report": None},
               help="output directory"),
    "bundle": Key(("--bundle",), str, dict.fromkeys(("ingest", *_DRAW), REQUIRED),
                  help="bundle directory"),
    "csv": Key(("--csv",), str, {"ingest": None},
               help="pixel CSV to convert (omit to validate --bundle)"),
    "dict_frac": Key(("--dict-frac",), real, dict.fromkeys(_DRAW, 0.01)),
    "train_frac": Key(("--train-frac",), real, dict.fromkeys(_DRAW, 1.0 / 11.0)),
    "seed": Key(("--seed",), integer, dict.fromkeys(("split", "train", "eval", "gradcheck"), 0),
                _NON_NEGATIVE, help="split seed"),
    "normalize": Key(("--normalize", "--no-normalize"), bool,
                     dict.fromkeys(("train", "eval", "sweep"), True)),
    "split_file": Key(("--split",), str, dict.fromkeys(("train", "eval")),
                      help="reuse a saved split.json instead of re-drawing"),
    "stages": Key(("--stages",), integer, {"train": DEFAULT_STAGES, "gradcheck": 5},
                  help="network depth N"),
    "learning_rate": Key(("--lr",), real, {"train": 1e-2}),
    "epochs": Key(("--epochs",), integer, {"train": 50}),
    "batch_size": Key(("--batch-size",), integer, {"train": 32}),
    "train_seed": Key(("--train-seed",), integer, {"train": None},  # None: the split seed
                      _NON_NEGATIVE),
    "init_eta": Key(("--init-eta",), real, {"train": 0.1}),
    "init_rho": Key(("--init-rho",), real, {"train": 1.0}),
    "init_tau": Key(("--init-tau",), real, {"train": 1.0}),
    "solver": Key(("--solver",), SOLVER_NAMES, dict.fromkeys(_CODE, REQUIRED)),
    "k": Key(("--K",), PARAM_TYPES["k"], dict.fromkeys(_CODE), help="sparsity level"),
    "s": Key(("--S",), PARAM_TYPES["s"], dict.fromkeys(_CODE), help="atoms per iteration (gomp)"),
    "step": Key(("--step",), PARAM_TYPES["step"], dict.fromkeys(_CODE),
                help="size increment (samp)"),
    "lam": Key(("--lambda", "--lam"), PARAM_TYPES["lam"], dict.fromkeys(_CODE), help="l1 weight"),
    "rho": Key(("--rho",), PARAM_TYPES["rho"], dict.fromkeys(_CODE), help="penalty parameter"),
    "relax": Key(("--relax",), PARAM_TYPES["relax"], dict.fromkeys(_CODE),
                 help="relaxation scalar"),
    "tau": Key(("--tau",), PARAM_TYPES["tau"], dict.fromkeys(_CODE), help="dual step rate"),
    "max_iters": Key(("--max-iters",), PARAM_TYPES["max_iters"], dict.fromkeys(_CODE)),
    "tol": Key(("--tol",), PARAM_TYPES["tol"], {"eval": None, "sweep": None, "gradcheck": 1e-5},
               solvers.PARAM_RANGES["tol"][1:], "solver tolerance; gradcheck: max relative error"),
    "n_stages": Key((), PARAM_TYPES["n_stages"], dict.fromkeys(_CODE)),
    "net": Key((), PARAM_TYPES["net"], dict.fromkeys(_CODE)),
    "solver_params": Key((), _record, dict.fromkeys(_CODE)),
    # sweep has no --params: a trained network fixes n_stages, the only
    # parameter asdn could sweep
    "net_params": Key(("--params",), str, dict.fromkeys(_CODE),
                      help="trained network params.json (asdn solver)", config_only=("sweep",)),
    "param": Key(("--param",), _param, {"sweep": REQUIRED},
                 help="solver parameter to sweep (e.g. k, lam, rho)"),
    "grid": Key(("--grid",), _grid, {"sweep": REQUIRED}, help="a:b | a:b:s | comma list"),
    "runs": Key(("--runs",), integer, {"sweep": 5}),
    "base_seed": Key(("--base-seed",), integer, {"sweep": 0}, _NON_NEGATIVE),
    "fd_step": Key(("--fd-step",), real, {"gradcheck": 1e-6}),
    "bands": Key(("--bands",), integer, {"gradcheck": 20}, _AT_LEAST_ONE),
    "atoms": Key(("--atoms",), integer, {"gradcheck": 40}, _AT_LEAST_ONE),
    "n_classes": Key(("--classes",), integer, {"gradcheck": 2}),
    "report": Key(("--report",), str, {"report": REQUIRED}, help="path to a report.json"),
    "csv_out": Key(("--csv",), str, {"report": None}, help="also write per-class rows as CSV"),
}


def _build_parser() -> _Parser:
    """One subparser per subcommand, with --config and a flag for every key
    the subcommand reads from the command line."""
    parser = _Parser(prog="srckit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="|".join(_SUBCOMMANDS))
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, spec in KEYS.items():
            if command not in spec.commands or command in spec.config_only or not spec.flags:
                continue
            if spec.kind is bool:
                pair = p.add_mutually_exclusive_group()
                pair.add_argument(spec.flags[0], dest=key, action="store_true", default=None)
                pair.add_argument(spec.flags[1], dest=key, action="store_false", default=None)
            else:
                p.add_argument(*spec.flags, dest=key, help=spec.help,
                               type=_FLAG_TYPES.get(spec.kind, str),
                               choices=spec.kind if isinstance(spec.kind, tuple) else None)
    return parser


def _typed(key: str, spec: Key, value, default):
    """A merged value checked against its key's kind and range; None takes
    the default."""
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"missing required key: {key}")
        return default
    kind = spec.kind
    if isinstance(kind, tuple):
        valid = value in kind
    elif isinstance(kind, type):
        valid = isinstance(value, kind)
    else:  # a caster: its message says what is wrong, without the whole value
        try:
            value, valid = kind(value), True
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    if not valid:
        raise ConfigError(f"bad value for {key}: {value!r}")
    if spec.check and not spec.check[1](value):
        raise ConfigError(f"{key} must {spec.check[0]}, got {value!r}")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    """The typed config of ``args.command``: the config file under canonical
    parameter names ("lambda" is "lam"), every flag given on top (flags win),
    then each key the subcommand reads checked against KEYS, with its default
    where unset. Other keys are dropped."""
    given = _read_json(Path(args.config), "config", _record) if args.config else {}
    given.update({key: value for key, value in vars(args).items() if value is not None})
    return {key: _typed(key, spec, given.get(key), spec.commands[args.command])
            for key, spec in KEYS.items() if args.command in spec.commands}


def _solver_params(config: dict) -> dict:
    """The config's "solver_params" record, then every top-level solver
    parameter key on top, then the --params network file."""
    params = dict(config["solver_params"] or {})
    params.update({key: config[key] for key in PARAM_TYPES if config[key] is not None})
    if config["net_params"]:
        params["net"] = _read_json(Path(config["net_params"]), "network params",
                                   NetParams.from_json)
    return params


def _checked(check, *args, **kwargs):
    """Call a validator, constructor or reader from the library; its
    ValueError, or a FileNotFoundError for an input file, is a config error."""
    try:
        return check(*args, **kwargs)
    except (ValueError, FileNotFoundError) as exc:
        raise ConfigError(str(exc)) from exc


def _bundle(config: dict) -> Path:
    bundle = Path(config["bundle"])
    if not bundle.is_dir():
        raise ConfigError(f"bundle directory not found: {bundle}")
    return bundle


def _load_cube(config: dict, keep=(), labeled=None):
    """The bundle read once (load_bundle), holding the spectra of ``keep``.
    With ``labeled``, the labels-only cube the run's splits came from, a
    header.json or labels.bin whose bytes changed since that read is a
    config error."""
    cube = _checked(load_bundle, _bundle(config), keep)
    for path, digest in (labeled.digests if labeled else {}).items():
        if cube.digests[path] != digest:
            raise ConfigError(f"bundle file {path} changed while the run read it")
    return cube


def _load_split(config: dict, cube) -> Split:
    if not config.get("split_file"):
        return _checked(make_split, cube, config["dict_frac"], config["train_frac"],
                        config["seed"])
    path = Path(config["split_file"])
    split = _read_json(path, "split", Split.from_json)
    try:
        check_split(split, cube)
    except ValueError as exc:
        raise ConfigError(f"split file {path}: {exc}") from exc
    return split


class _Coding(NamedTuple):
    """What train and eval keep of the cube: the split, its dictionary, the
    pixels to code, and the cube's class count, grid size and file hashes."""

    split: Split
    dictionary: Dictionary
    ids: np.ndarray
    pixels: np.ndarray
    labels: np.ndarray
    n_classes: int
    grid_size: int
    digests: dict


def _coding_inputs(config: dict, subset: str) -> _Coding:
    """Take the split on the bundle's labels, load the pixels it reads and
    draw the dictionary and the ``subset`` ("train" or "test") pixels
    (classify.split_inputs); an empty subset is a config error. The cube is
    freed on return, before any pixel is coded."""
    labeled = _checked(read_labels, _bundle(config))
    split = _load_split(config, labeled)
    cube = _load_cube(config, read_ids(split, subset), labeled)
    dictionary, ids, pixels, labels = _checked(split_inputs, cube, split, config["normalize"],
                                               subset)
    return _Coding(split, dictionary, ids, pixels, labels, cube.n_classes,
                   cube.height * cube.width, cube.digests)


def _write_run(command: str, config: dict, files: dict, *inputs, digests=None) -> Path:
    """The one place --out is made. First hashes each file named by the
    ``inputs`` keys the config sets, so that no hash follows a write;
    ``digests`` (str(path) -> hex) holds those taken as files were read, such
    as a loaded cube's. Then writes ``files`` (name -> text or bytes) into
    --out, then manifest.json: the typed config that ran, without unset keys,
    and all those hashes. With a saved split the split-draw keys are left
    out: the split file's hash identifies it. Returns --out."""
    hashes = {**(digests or {}), **{str(Path(config[key])): _file_sha256(Path(config[key]))
                                    for key in inputs if config.get(key)}}
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    drawn = ("seed", "dict_frac", "train_frac") if config.get("split_file") else ()
    doc = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())
                   if v is not None and k not in drawn},
        "inputs": hashes,
    }
    (out / "manifest.json").write_text(_json_text(doc), encoding="utf-8")
    return out


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_ingest(config: dict) -> dict:
    """convert a pixel CSV to a bundle, or validate one"""
    if config["csv"]:
        csv_path = Path(config["csv"])
        if not csv_path.is_file():
            raise ConfigError(f"csv file not found: {csv_path}")
        cube = pixels_to_cube(*_checked(load_pixel_csv, csv_path))
        cube.digests[str(csv_path)] = _file_sha256(csv_path)  # before save_bundle writes
    else:
        cube = _load_cube(config)
    counts = _checked(class_counts, cube)  # as make_split checks it, before any write
    if config["csv"]:
        save_bundle(cube, Path(config["bundle"]))
    summary = {
        "height": cube.height, "width": cube.width, "bands": cube.bands,
        "classes": cube.n_classes, "labeled_pixels": int(counts.sum()),
        "class_counts": {c: int(n) for c, n in enumerate(counts, start=1)},
    }
    out = _write_run("ingest", config, {"summary.json": _json_text(summary)},
                     digests=cube.digests)
    return {"summary": str(out / "summary.json")}


def _cmd_split(config: dict) -> dict:
    """draw and save a dictionary/train/test split"""
    cube = _load_cube(config)
    split = _load_split(config, cube)
    # one line: indented, a split puts each of its many pixel ids on its own
    _write_run("split", config, {"split.json": _json_text(split.to_json(), indent=None)},
               digests=cube.digests)
    sizes = {c: [len(split.dictionary_ids[c]), len(split.train_ids[c]),
                 len(split.test_ids[c])] for c in sorted(split.dictionary_ids)}
    return {"per_class_sizes": sizes}


def _cmd_train(config: dict) -> dict:
    """train the unrolled network on the train split"""
    if config["train_seed"] is None:
        config["train_seed"] = config["seed"]
    init = _checked(NetParams.default, config["stages"], rho=config["init_rho"],
                    eta=config["init_eta"], tau=config["init_tau"])
    coding = _coding_inputs(config, "train")
    # encoded before training, so that its transient id lists are not held
    # on top of the training workspace
    split_text = _json_text(coding.split.to_json(), indent=None)
    params, history = _checked(train, coding.dictionary, coding.pixels, coding.labels,
                               learning_rate=config["learning_rate"], epochs=config["epochs"],
                               batch_size=config["batch_size"], seed=config["train_seed"],
                               init=init)
    lines = ["epoch,mean_loss"] + [f"{e},{repr(float(v))}" for e, v in enumerate(history)]
    out = _write_run("train", config, {
        "params.json": params.to_text(), "train_history.csv": "\n".join(lines) + "\n",
        "split.json": split_text,
    }, "split_file", digests=coding.digests)
    return {"final_mean_loss": float(history[-1]), "params": str(out / "params.json")}


def _cmd_eval(config: dict) -> dict:
    """classify the test split and write a report"""
    params = _solver_params(config)
    _checked(solver_kwargs, config["solver"], params)
    coding = _coding_inputs(config, "test")
    _checked(check_fit, coding.dictionary, config["solver"], params)
    pred = classify_testset(coding.dictionary, coding.pixels, config["solver"], params)

    report = evaluate(pred, coding.labels, coding.n_classes)
    grid = np.zeros(coding.grid_size, dtype="<i4")
    grid[coding.ids] = pred
    _write_run("eval", config, {"report.json": _json_text(report.to_json()),
                                "labels_pred.bin": grid.tobytes()},
               "split_file", "net_params", digests=coding.digests)
    return {name: getattr(report, name) for name in SCORES}


def _cmd_sweep(config: dict) -> dict:
    """accuracy across a solver-parameter grid"""
    params = _solver_params(config)
    _checked(check_sweep, config["solver"], config["param"], params, config["grid"])
    labeled = _checked(read_labels, _bundle(config))
    splits = _checked(draw_splits, labeled, config["runs"], config["base_seed"],
                      config["dict_frac"], config["train_frac"])
    cube = _load_cube(config, np.concatenate([read_ids(split) for split in splits]), labeled)
    result = _checked(sweep, cube, config["solver"], config["param"], config["grid"], splits,
                      normalize=config["normalize"], params=params)
    out = _write_run("sweep", config, {"sweep.csv": result.to_csv(),
                                       "sweep.json": _json_text(result.to_json())},
                     digests=cube.digests)
    return {"rows": len(result.grid), "csv": str(out / "sweep.csv")}


def _cmd_gradcheck(config: dict) -> dict:
    """analytic vs finite-difference gradients"""
    dictionary, x, y, params = _checked(
        synthetic.gradcheck_instance, config["seed"], n_bands=config["bands"],
        n_atoms=config["atoms"], n_classes=config["n_classes"], n_stages=config["stages"])
    report = _checked(grad_check, dictionary, x, y, params, step=config["fd_step"])
    doc = {"max_rel_error": report.max_rel_error, "loss": report.loss_value,
           "zero_gradient": {name: flags.tolist() for name, flags in report.zero.items()},
           **{f"{name}_rel_error": rel.tolist() for name, rel in report.rel_error.items()}}
    # written also when the check fails: the errors are what a failure shows
    _write_run("gradcheck", config, {"gradcheck.json": _json_text(doc)})
    tol = config["tol"]
    if report.max_rel_error > tol:
        raise RuntimeError(
            f"gradient check failed: max relative error {report.max_rel_error} > {tol}")
    return {"max_rel_error": report.max_rel_error, "tol": tol}


def _cmd_report(config: dict) -> None:
    """summarize a saved report.json"""
    path = Path(config["report"])
    report = _read_json(path, "report", ClassificationReport.from_json)
    digests = {str(path): _file_sha256(path)}  # before --csv can overwrite it
    confusion, accuracies = report.confusion, report.per_class_acc.tolist()
    print(f"classes: {confusion.shape[0]}  samples: {int(confusion.sum())}")
    for i, acc in enumerate(accuracies, start=1):
        print(f"  class {i}: accuracy {100.0 * acc:.2f}%  "
              f"(n={int(confusion[i - 1].sum())})")
    print(f"OA {100.0 * report.oa:.2f}%  AA {100.0 * report.aa:.2f}%  "
          f"kappa {100.0 * report.kappa:.2f}")
    if config["csv_out"]:
        lines = ["class,accuracy_percent,n"]
        for i, acc in enumerate(accuracies, start=1):
            lines.append(f"{i},{repr(round(100.0 * acc, 10))},{int(confusion[i - 1].sum())}")
        Path(config["csv_out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if config["out"]:
        _write_run("report", config, {}, digests=digests)


_HANDLERS = {
    "ingest": _cmd_ingest,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except SystemExit as exc:  # --help printed the help text
        return exc.code
    if args.command is None:
        _emit_error("usage", f"expected a subcommand: {', '.join(_SUBCOMMANDS)}")
        return 2
    try:
        summary = _HANDLERS[args.command](_merge_config(args))
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 3
    except Exception as exc:
        _emit_error("runtime", f"{type(exc).__name__}: {exc}")
        return 1
    if summary is not None:  # report prints its own text
        print(json.dumps({"status": "ok", **summary}))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
