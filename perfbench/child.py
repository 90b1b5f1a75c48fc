"""Run one srckit CLI command in this process under the benchmark's timers.

    python3 perfbench/child.py --trace {0,1} [--setup-only] --report PATH -- <srckit cli args>

The runner starts this script in a fresh interpreter for every repetition,
with ``PYTHONPATH=src`` and a fixed BLAS thread count. All times are this
process's CPU time (``time.process_time``): the runner shares the child's CPU
with the reference kernel in ``calibrate.py``, so the child's wall time would
include the kernel's. It times ``import srckit``, then wraps public functions
by attribute replacement and calls ``srckit.cli.run``. With ``--trace 0``
only the set-up calls (bundle load, split, pixel extraction, dictionary
assembly, Gram construction) and the first coded pixel are recorded, which
is what ``setup_s`` needs. With ``--trace 1`` every layer boundary listed in
README.md gets a span. The spans and the child's peak resident memory are
written to ``--report`` as JSON; the exit status is the CLI's. With
``--setup-only`` the command stops at its first coded pixel, which samples
set-up time without the coding work.
"""
from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
from pathlib import Path

from spans import Recorder

# (span name, home module, function name): every srckit module that binds
# the same function object under that name gets its own wrapper, so calls
# through names imported by value (``from .data import load_bundle``) are seen.
SETUP_FUNCTIONS = (
    ("data.load_bundle", "data", "load_bundle"),
    ("data.make_split", "data", "make_split"),
    ("data.extract_pixels", "data", "extract_pixels"),
    ("dictionary.assemble", "dictionary", "assemble"),
)
TRACED_FUNCTIONS = (
    ("classify.classify_testset", "classify", "classify_testset"),
    ("classify.src_decide", "classify", "src_decide"),
    ("classify.evaluate", "classify", "evaluate"),
    ("classify.sweep", "classify", "sweep"),
    ("network.train", "network", "train"),
    ("network.forward", "network", "forward"),
    ("network.backward", "network", "backward"),
    ("network.class_residuals", "network", "class_residuals"),
    ("solvers.omp", "solvers", "omp"),
)
PIXEL_ENTRY_POINTS = (
    ("solvers", "omp"), ("solvers", "sp"), ("solvers", "romp"), ("solvers", "gomp"),
    ("solvers", "samp"), ("solvers", "fista"), ("solvers", "admm_fixed"),
    ("network", "forward"),
)
SOLVE_TARGET_REL = 1e-12


class SetupDone(BaseException):
    """Raised at the first coded pixel of a --setup-only run; a BaseException
    so the CLI's ``except Exception`` handler lets it through."""


def _stop_at_first_pixel():
    raise SetupDone


def _wrap_everywhere(rec, modules, table, after=None) -> None:
    for span, home, attr in table:
        original = getattr(modules[home], attr)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                rec.wrap(module, attr, span, (after or {}).get(span))


def _binder(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound
    return bind


def install(rec: Recorder, trace: bool, setup_only: bool = False) -> None:
    import numpy as np
    from srckit import classify, cli, data, dictionary, network, solvers

    modules = {"cli": cli, "classify": classify, "data": data,
               "dictionary": dictionary, "network": network, "solvers": solvers}
    bind_load = _binder(data.load_bundle)

    def bundle_bytes(args, kwargs, result):
        root = Path(bind_load(args, kwargs).arguments["path"])
        rec.values["data.load_bundle.bytes"].append(
            sum(p.stat().st_size for p in root.iterdir() if p.is_file()))

    _wrap_everywhere(rec, modules, SETUP_FUNCTIONS,
                     {"data.load_bundle": bundle_bytes} if trace else None)
    rec.wrap(dictionary.GramCache, "__init__", "dictionary.gram_init")
    if trace:
        bind_solve = _binder(dictionary.GramCache.solve)

        def solve_miss(args, kwargs, w):
            a = bind_solve(args, kwargs).arguments
            rhs, rho = np.asarray(a["rhs"]), a["rho"]
            residual = rhs - (a["self"].gram @ w + rho * w)
            rec.values["dictionary.solve.miss"].append(
                int(np.linalg.norm(residual) > SOLVE_TARGET_REL * np.linalg.norm(rhs)))

        def omp_support(args, kwargs, code):
            rec.values["solvers.omp.support"].append(int(code.support.size))

        rec.wrap(dictionary.GramCache, "solve", "dictionary.solve", solve_miss)
        rec.wrap(dictionary, "cho_factor", "dictionary.factor")
        rec.wrap(solvers, "cho_factor", "solvers.refit_factor")
        rec.wrap(network.NetParams, "stepped", "network.stepped")
        _wrap_everywhere(rec, modules, TRACED_FUNCTIONS, {"solvers.omp": omp_support})
        _count_fista_iterations(rec, solvers)
    rec.mark_first_call([(modules[m], a) for m, a in PIXEL_ENTRY_POINTS], "bench.first_pixel",
                        _stop_at_first_pixel if setup_only else None)


def _count_fista_iterations(rec: Recorder, solvers) -> None:
    """Count accepted FISTA steps through its public ``callback`` argument."""
    bind = _binder(solvers.fista)
    rec.wrap(solvers, "fista", "solvers.fista")
    spanned = solvers.fista

    def fista(*args, **kwargs):
        bound = bind(args, kwargs)
        user_callback = bound.arguments["callback"]
        steps = [0]

        def count(alpha, objective):
            steps[0] += 1
            if user_callback is not None:
                user_callback(alpha, objective)

        bound.arguments["callback"] = count
        try:
            return spanned(*bound.args, **bound.kwargs)
        finally:
            rec.values["solvers.fista.iters"].append(steps[0])
            rec.values["solvers.fista.capped"].append(
                int(steps[0] >= bound.arguments["max_iters"]))

    solvers.fista = fista


def peak_rss_mb() -> float:
    """This process's peak resident memory. ``ru_maxrss`` also counts the
    forked runner's resident memory at the moment of exec, so on Linux the
    high-water mark of the process's own address space (VmHWM) is read
    instead."""
    try:
        for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--report", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.process_time()
    import srckit.cli
    import_s = time.process_time() - start

    rec = Recorder(clock=time.process_time)
    install(rec, bool(args.trace), args.setup_only)
    root = rec.open("cli.run")
    try:
        status = srckit.cli.run(cli_args)
    except SetupDone:
        status = 0
    finally:
        rec.close(root)
    report = {
        "status": status,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb(),
        "spans": rec.spans,
        "values": rec.values,
    }
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
