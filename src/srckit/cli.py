"""Config-driven command-line front end for reproducible experiment runs.

Subcommands: ingest | split | train | eval | sweep | gradcheck | report.
A JSON config file supplies defaults; every flag overrides its config key.
Each run validates the full configuration before touching the output
directory, then writes its outputs plus a manifest.json capturing the
effective config, seeds, and content hashes of the input files.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 config error.
Failures print a single-line JSON object to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import network, synthetic
from .classify import (PARAM_TYPES, SOLVER_NAMES, canonical_params, check_sweep,
                       classify_testset, evaluate, solver_kwargs, sweep)
from .data import (extract_pixels, load_bundle, load_pixel_csv, make_split,
                   pixels_to_cube, save_bundle, Split)
from .dictionary import assemble
from .network import NetParams, TrainConfig, grad_check, train

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


def _hash_inputs(paths) -> dict:
    hashes = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.iterdir()):
                if child.is_file():
                    hashes[str(child)] = _file_sha256(child)
        elif p.is_file():
            hashes[str(p)] = _file_sha256(p)
    return hashes


def _write_json(path: Path, doc, indent: int | None = 2) -> None:
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n",
                    encoding="utf-8")


def parse_grid(text: str):
    """Grid syntax: "a:b" inclusive integer range, "a:b:s" stepped real
    range, or a comma list of numbers."""
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
                return [float(v) for v in range(lo, hi + 1)]
            if len(parts) == 3:
                lo, hi, step = (float(p) for p in parts)
                if step <= 0:
                    raise ValueError(f"step must be positive in {text!r}")
                count = int(math.floor((hi - lo) / step + 1e-9)) + 1
                values = [lo + i * step for i in range(count)]
                return [v for v in values if v <= hi + 1e-12]
            raise ValueError(f"too many ':' in {text!r}")
        return [float(text)]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="srckit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="|".join(_SUBCOMMANDS))

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")

    def dataset(p, seed=True, normalize=True, split=True):
        p.add_argument("--bundle", help="bundle directory")
        p.add_argument("--dict-frac", type=float, dest="dict_frac")
        p.add_argument("--train-frac", type=float, dest="train_frac")
        if seed:
            p.add_argument("--seed", type=int, help="split seed")
        if normalize:
            norm = p.add_mutually_exclusive_group()
            norm.add_argument("--normalize", dest="normalize", action="store_true",
                              default=None)
            norm.add_argument("--no-normalize", dest="normalize", action="store_false",
                              default=None)
        if split:
            p.add_argument("--split", dest="split_file",
                           help="reuse a saved split.json instead of re-drawing")

    def solver(p):
        p.add_argument("--solver", choices=SOLVER_NAMES)
        p.add_argument("--K", type=int, dest="k", help="sparsity level")
        p.add_argument("--S", type=int, dest="s", help="atoms per iteration (gomp)")
        p.add_argument("--step", type=int, help="size increment (samp)")
        p.add_argument("--lambda", "--lam", type=float, dest="lam", help="l1 weight")
        p.add_argument("--rho", type=float, help="penalty parameter")
        p.add_argument("--relax", type=float, help="relaxation scalar")
        p.add_argument("--tau", type=float, help="dual step rate")
        p.add_argument("--max-iters", type=int, dest="max_iters")
        p.add_argument("--tol", type=float)

    p = sub.add_parser("ingest", help="convert a pixel CSV to a bundle, or validate one")
    common(p)
    p.add_argument("--csv", help="pixel CSV to convert (omit to validate --bundle)")
    p.add_argument("--bundle", help="bundle directory to write or validate")

    p = sub.add_parser("split", help="draw and save a dictionary/train/test split")
    common(p)
    dataset(p, normalize=False, split=False)

    p = sub.add_parser("train", help="train the unrolled network on the train split")
    common(p)
    dataset(p)
    p.add_argument("--stages", type=int, help="network depth N")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--train-seed", type=int, dest="train_seed")
    p.add_argument("--init-eta", type=float, dest="init_eta")
    p.add_argument("--init-rho", type=float, dest="init_rho")
    p.add_argument("--init-tau", type=float, dest="init_tau")

    p = sub.add_parser("eval", help="classify the test split and write a report")
    common(p)
    dataset(p)
    solver(p)
    # sweep has no --params: a trained network fixes n_stages, the only
    # parameter asdn could sweep
    p.add_argument("--params", dest="net_params",
                   help="trained network params.json (asdn solver)")

    p = sub.add_parser("sweep", help="accuracy across a solver-parameter grid")
    common(p)
    dataset(p, seed=False, split=False)
    solver(p)
    p.add_argument("--param", help="solver parameter to sweep (e.g. k, lam, rho)")
    p.add_argument("--grid", help="a:b | a:b:s | comma list")
    p.add_argument("--runs", type=int)
    p.add_argument("--base-seed", type=int, dest="base_seed")

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    common(p)
    p.add_argument("--stages", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--fd-step", type=float, dest="fd_step")
    p.add_argument("--bands", type=int)
    p.add_argument("--atoms", type=int)
    p.add_argument("--classes", type=int, dest="n_classes")
    p.add_argument("--tol", type=float, help="max acceptable relative error")

    p = sub.add_parser("report", help="summarize a saved report.json")
    common(p)
    p.add_argument("--report", help="path to a report.json")
    p.add_argument("--csv", dest="csv_out", help="also write per-class rows as CSV")

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file first, then every non-None flag on top (flags win)."""
    config: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        config[key] = value
    return config


def _solver_params(config: dict) -> dict:
    """The config's "solver_params" record, then every top-level solver
    parameter key on top, then the --params network file."""
    params = canonical_params(config.get("solver_params"))
    params.update({key: config[key] for key in PARAM_TYPES
                   if config.get(key) is not None})
    if config.get("net_params"):
        path = Path(config["net_params"])
        if not path.is_file():
            raise ConfigError(f"network params file not found: {path}")
        params["net"] = json.loads(path.read_text(encoding="utf-8"))
    return params


def _checked(check, *args):
    """Call a validator from the library; its ValueError is a config error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require(config: dict, key: str, kind=None):
    if config.get(key) is None:
        raise ConfigError(f"missing required key: {key}")
    value = config[key]
    if kind is not None:
        try:
            value = kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return value


def _dataset_inputs(config: dict):
    bundle = Path(_require(config, "bundle"))
    if not bundle.is_dir():
        raise ConfigError(f"bundle directory not found: {bundle}")
    dict_frac = float(config.get("dict_frac", 0.01))
    train_frac = float(config.get("train_frac", 1.0 / 11.0))
    if not 0.0 < dict_frac < 1.0:
        raise ConfigError(f"dict_frac must lie in (0, 1), got {dict_frac}")
    if not 0.0 <= train_frac < 1.0:
        raise ConfigError(f"train_frac must lie in [0, 1), got {train_frac}")
    seed = int(config.get("seed", 0))
    normalize = bool(config.get("normalize", True))
    return bundle, dict_frac, train_frac, seed, normalize


def _load_split(config: dict, cube, dict_frac, train_frac, seed) -> Split:
    if not config.get("split_file"):
        return make_split(cube, dict_frac, train_frac, seed)
    path = Path(config["split_file"])
    if not path.is_file():
        raise ConfigError(f"split file not found: {path}")
    try:
        split = Split.from_json(json.loads(path.read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"split file {path} is malformed: {exc}") from exc
    _check_split(split, cube, path)
    return split


def _check_split(split: Split, cube, path: Path) -> None:
    """A split file must index labeled cube pixels of the class it files them
    under, and its dictionary, train and test sets must be pairwise disjoint."""
    labels = cube.labels.ravel()
    sets = {"dictionary": split.dictionary_ids, "train": split.train_ids,
            "test": split.test_ids}
    for name, groups in sets.items():
        for class_id, ids in groups.items():
            outside = ids[(ids < 0) | (ids >= labels.size)]
            if outside.size:
                raise ConfigError(f"split file {path}: {name} id {outside[0]} lies "
                                  f"outside the {labels.size}-pixel cube")
            wrong = ids[labels[ids] != class_id]
            if wrong.size:
                raise ConfigError(
                    f"split file {path}: {name} id {wrong[0]} is filed under class "
                    f"{class_id} but its cube label is {labels[wrong[0]]}")
    flat = {"dictionary": split.dictionary_flat(), "train": split.train_flat(),
            "test": split.test_flat()}
    for a, b in (("dictionary", "train"), ("dictionary", "test"), ("train", "test")):
        shared = np.intersect1d(flat[a], flat[b])
        if shared.size:
            raise ConfigError(f"split file {path}: id {shared[0]} is in both the "
                              f"{a} and {b} sets")


def _outdir(config: dict) -> Path:
    out = Path(_require(config, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _given_files(config: dict, *keys) -> list:
    """The files named by those of ``keys`` the config sets."""
    return [Path(config[key]) for key in keys if config.get(key)]


def _without_draw(config: dict) -> dict:
    """The config without the split-draw keys when a saved split replaced the
    draw: the split file's hash, not those keys, identifies the split."""
    if not config.get("split_file"):
        return config
    return {k: v for k, v in config.items() if k not in ("seed", "dict_frac", "train_frac")}


def _manifest(outdir: Path, command: str, config: dict, inputs) -> None:
    doc = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items()) if v is not None},
        "inputs": _hash_inputs(inputs),
    }
    _write_json(outdir / "manifest.json", doc)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_ingest(config: dict) -> int:
    bundle = Path(_require(config, "bundle"))
    csv_path = config.get("csv")
    if csv_path:
        csv_path = Path(csv_path)
        if not csv_path.is_file():
            raise ConfigError(f"csv file not found: {csv_path}")
        outdir = _outdir(config)
        spectra, labels = load_pixel_csv(csv_path)
        cube = pixels_to_cube(spectra, labels)
        save_bundle(cube, bundle)
        inputs = [csv_path]
    else:
        if not bundle.is_dir():
            raise ConfigError(f"bundle directory not found: {bundle}")
        outdir = _outdir(config)
        cube = load_bundle(bundle)
        inputs = [bundle]
    counts = {int(c): int((cube.labels == c).sum())
              for c in range(1, cube.n_classes + 1)}
    summary = {
        "height": cube.height, "width": cube.width, "bands": cube.bands,
        "classes": cube.n_classes, "labeled_pixels": int((cube.labels > 0).sum()),
        "class_counts": counts,
    }
    _write_json(outdir / "summary.json", summary)
    _manifest(outdir, "ingest", config, inputs)
    print(json.dumps({"status": "ok", "summary": str(outdir / "summary.json")}))
    return 0


def _cmd_split(config: dict) -> int:
    bundle, dict_frac, train_frac, seed, _ = _dataset_inputs(config)
    cube = load_bundle(bundle)
    outdir = _outdir(config)
    split = make_split(cube, dict_frac, train_frac, seed)
    # one line: indented, a split puts each of its many pixel ids on its own
    _write_json(outdir / "split.json", split.to_json(), indent=None)
    _manifest(outdir, "split", config, [bundle])
    sizes = {c: [len(split.dictionary_ids[c]), len(split.train_ids[c]),
                 len(split.test_ids[c])] for c in sorted(split.dictionary_ids)}
    print(json.dumps({"status": "ok", "per_class_sizes": sizes}))
    return 0


def _cmd_train(config: dict) -> int:
    bundle, dict_frac, train_frac, seed, normalize = _dataset_inputs(config)
    stages = int(config.get("stages", 9))
    init = NetParams.default(
        stages,
        rho=float(config.get("init_rho", 1.0)),
        eta=float(config.get("init_eta", 0.1)),
        tau=float(config.get("init_tau", 1.0)),
    )
    train_cfg = TrainConfig(
        learning_rate=float(config.get("learning_rate", 1e-2)),
        epochs=int(config.get("epochs", 50)),
        batch_size=int(config.get("batch_size", 32)),
        seed=int(config.get("train_seed", seed)),
        init=init,
    )
    cube = load_bundle(bundle)
    split = _load_split(config, cube, dict_frac, train_frac, seed)
    outdir = _outdir(config)

    dict_pixels, dict_labels = extract_pixels(cube, split.dictionary_flat(), normalize)
    dictionary = assemble(dict_pixels, dict_labels)
    train_pixels, train_labels = extract_pixels(cube, split.train_flat(), normalize)
    params, history = train(dictionary, train_pixels, train_labels, train_cfg)
    params.save(outdir / "params.json")
    lines = ["epoch,mean_loss"] + [f"{e},{repr(float(v))}" for e, v in enumerate(history)]
    (outdir / "train_history.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(outdir / "split.json", split.to_json(), indent=None)
    _manifest(outdir, "train", _without_draw({**config, "train_seed": train_cfg.seed}),
              [bundle, *_given_files(config, "split_file")])
    print(json.dumps({"status": "ok", "final_mean_loss": float(history[-1]),
                      "params": str(outdir / "params.json")}))
    return 0


def _classify_split(config: dict):
    bundle, dict_frac, train_frac, seed, normalize = _dataset_inputs(config)
    solver = _require(config, "solver")
    params = _solver_params(config)
    _checked(solver_kwargs, solver, params)
    cube = load_bundle(bundle)
    split = _load_split(config, cube, dict_frac, train_frac, seed)
    dict_pixels, dict_labels = extract_pixels(cube, split.dictionary_flat(), normalize)
    dictionary = assemble(dict_pixels, dict_labels)
    test_ids = split.test_flat()
    test_pixels, test_labels = extract_pixels(cube, test_ids, normalize)
    pred = classify_testset(dictionary, test_pixels, solver, params)
    return bundle, cube, test_ids, test_labels, pred


def _cmd_eval(config: dict) -> int:
    bundle, cube, test_ids, test_labels, pred = _classify_split(config)
    outdir = _outdir(config)
    report = evaluate(pred, test_labels, cube.n_classes)
    _write_json(outdir / "report.json", report.to_json())
    grid = np.zeros(cube.height * cube.width, dtype="<i4")
    grid[test_ids] = pred
    (outdir / "labels_pred.bin").write_bytes(grid.tobytes())
    _manifest(outdir, "eval", _without_draw(config),
              [bundle, *_given_files(config, "split_file", "net_params")])
    print(json.dumps({"status": "ok", "oa": report.oa, "aa": report.aa,
                      "kappa": report.kappa}))
    return 0


def _cmd_sweep(config: dict) -> int:
    bundle, dict_frac, train_frac, _, normalize = _dataset_inputs(config)
    solver = _require(config, "solver")
    parameter = _require(config, "param")
    grid_text = _require(config, "grid")
    grid = parse_grid(str(grid_text)) if isinstance(grid_text, str) else list(grid_text)
    runs = int(config.get("runs", 5))
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    base_seed = int(config.get("base_seed", 0))
    params = _solver_params(config)
    _checked(check_sweep, solver, parameter, params)
    cube = load_bundle(bundle)
    outdir = _outdir(config)

    result = sweep(cube, solver, parameter, grid, runs=runs, base_seed=base_seed,
                   dict_frac=dict_frac, train_frac=train_frac, normalize=normalize,
                   params=params)
    (outdir / "sweep.csv").write_text(result.to_csv(), encoding="utf-8")
    _write_json(outdir / "sweep.json", result.to_json())
    _manifest(outdir, "sweep", config, [bundle])
    print(json.dumps({"status": "ok", "rows": len(result.grid),
                      "csv": str(outdir / "sweep.csv")}))
    return 0


def _cmd_gradcheck(config: dict) -> int:
    stages = int(config.get("stages", 5))
    seed = int(config.get("seed", 0))
    fd_step = float(config.get("fd_step", 1e-6))
    tol = float(config.get("tol", 1e-5))
    outdir = _outdir(config)
    dictionary, x, y, params = synthetic.gradcheck_instance(
        seed,
        n_bands=int(config.get("bands", 20)),
        n_atoms=int(config.get("atoms", 40)),
        n_classes=int(config.get("n_classes", 2)),
        n_stages=stages)
    report = grad_check(dictionary, x, y, params, step=fd_step)
    doc = {
        "max_rel_error": report.max_rel_error,
        "loss": report.loss_value,
        "rho_rel_error": report.rho_rel_error.tolist(),
        "eta_rel_error": report.eta_rel_error.tolist(),
        "tau_rel_error": report.tau_rel_error.tolist(),
        "zero_gradient": {
            "rho": report.rho_zero.tolist(),
            "eta": report.eta_zero.tolist(),
            "tau": report.tau_zero.tolist(),
        },
    }
    _write_json(outdir / "gradcheck.json", doc)
    _manifest(outdir, "gradcheck", config, [])
    print(json.dumps({"status": "ok", "max_rel_error": report.max_rel_error,
                      "tol": tol}))
    if report.max_rel_error > tol:
        raise RuntimeError(
            f"gradient check failed: max relative error {report.max_rel_error} > {tol}")
    return 0


def _cmd_report(config: dict) -> int:
    path = Path(_require(config, "report"))
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    confusion = np.asarray(doc["confusion"])
    print(f"classes: {confusion.shape[0]}  samples: {int(confusion.sum())}")
    for i, acc in enumerate(doc["per_class_acc"], start=1):
        print(f"  class {i}: accuracy {100.0 * acc:.2f}%  "
              f"(n={int(confusion[i - 1].sum())})")
    print(f"OA {100.0 * doc['oa']:.2f}%  AA {100.0 * doc['aa']:.2f}%  "
          f"kappa {100.0 * doc['kappa']:.2f}")
    if config.get("csv_out"):
        lines = ["class,accuracy_percent,n"]
        for i, acc in enumerate(doc["per_class_acc"], start=1):
            lines.append(f"{i},{repr(round(100.0 * acc, 10))},{int(confusion[i - 1].sum())}")
        Path(config["csv_out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if config.get("out"):
        outdir = _outdir(config)
        _manifest(outdir, "report", config, [path])
    return 0


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    if args.command is None:
        _emit_error("usage", f"expected a subcommand: {', '.join(_SUBCOMMANDS)}")
        return 2
    try:
        config = _merge_config(args)
        handler = _HANDLERS[args.command]
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 3
    try:
        return handler(config)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 3
    except Exception as exc:
        _emit_error("runtime", f"{type(exc).__name__}: {exc}")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
