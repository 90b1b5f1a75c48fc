"""Benchmark runner: seeded Pavia-shaped srckit CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the repository root. Each run generates its inputs from ``--seed``
(untimed), then repeats the workload's CLI command, each time in a fresh
interpreter (``perfbench/child.py``), until ``--seconds`` have passed. Every
repetition's outputs are checked against the independent reference in
``reference.py``; a non-zero exit or a failed check counts as failed.

Times are reference seconds: the child's CPU time, scaled by how fast the
reference kernel of ``calibrate.py`` ran on the same CPU over the same
interval (``REF_STEP_S`` over its measured CPU time per step). The child and
the kernel are pinned to one CPU, so they share its speed, which on a shared
host drifts by up to 2x over minutes; the runner keeps to the other CPUs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the run's repetitions. When fewer than ``SETUP_SAMPLES`` repetitions fit,
set-up-only repetitions that stop at the first coded pixel add ``setup_s``
samples. ``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics (times as medians over traced repetitions, counts from
them, which must repeat exactly). The last line of standard output is one
JSON object: correct, attempted, failed, metrics. A result file with raw
repetitions and provenance goes to .bench_work/results/. See README.md for
the workloads, metrics and layer table.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bundle  # noqa: E402
import reference as ref  # noqa: E402
from spans import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_CAP_S = 150  # start no repetition after this many seconds of a run
RUN_DEADLINE_S = 165  # kill a repetition still running then: a run must end within 180 s
SETUP_SAMPLES = 5
# Nominal CPU time of one calibrate.step: a reference second is the time in
# which the kernel completes 1 / REF_STEP_S = 500 steps. A step took 1.3 to
# 2.1 ms on the 2-vCPU x86-64 machine the benchmark was tuned on, so
# reference seconds are close to its CPU seconds there.
REF_STEP_S = 2e-3
# The kernel runs at this niceness, so it takes about a tenth of the shared
# CPU: enough steps to time its speed all through a repetition, while the
# child keeps most of the CPU and a repetition's wall time stays near its CPU
# time.
CAL_NICE = 10
DICT_FRAC = bundle.DICT_FRAC
K = 10
EPOCHS, BATCH, STAGES = 2, 32, 9
# At the CLI's default init (eta 0.1) every stage's shrinkage zeroes z on
# this data, so eta gets no gradient and backward never meets the threshold.
TRAIN_INIT_ETA = 0.01
LAMBDAS = (0.01, 0.1)
DRAWS = 2
FISTA_MAX_ITERS = 300

# train_frac sets each workload's test (or train) size: about 2118 test px for
# eval-greedy, 635 for eval-asdn, 169 train px for train, 69 test px per draw
# for sweep-l1 (at least two of every class).
# Each repetition then takes 3-6 s of CPU, so a run holds several and
# reports their median. sweep-l1 caps FISTA at FISTA_MAX_ITERS for the same
# reason: at the default 1000 a repetition takes about 10 s.
WORKLOADS = {
    "eval-greedy": {"train_frac": 0.95},
    "eval-asdn": {"train_frac": 0.985},
    "train": {"train_frac": 0.004},
    "sweep-l1": {"train_frac": 0.9984},
}
SETUP_SPANS = {"data.load_bundle", "data.make_split", "data.extract_pixels",
               "dictionary.assemble", "dictionary.gram_init"}
TIME_UNITS = {"s", "ms"}
# Result values printed beside the metrics; the correctness check gates them.
RESULT_UNITS = {"oa": "fraction", "kappa": "fraction", "final_loss": "nats"}


def cli_args(workload: str, seed: int, inputs: dict) -> list[str]:
    common = ["--bundle", str(inputs["bundle"]), "--dict-frac", str(DICT_FRAC),
              "--train-frac", str(WORKLOADS[workload]["train_frac"])]
    if workload == "eval-greedy":
        return ["eval", *common, "--seed", str(seed), "--solver", "omp", "--K", str(K)]
    if workload == "eval-asdn":
        return ["eval", *common, "--seed", str(seed), "--solver", "asdn",
                "--params", str(inputs["params"])]
    if workload == "train":
        return ["train", *common, "--seed", str(seed), "--stages", str(STAGES),
                "--epochs", str(EPOCHS), "--batch-size", str(BATCH),
                "--init-eta", str(TRAIN_INIT_ETA)]
    return ["sweep", *common, "--solver", "fista", "--param", "lam",
            "--grid", ",".join(map(str, LAMBDAS)), "--runs", str(DRAWS),
            "--max-iters", str(FISTA_MAX_ITERS), "--base-seed", str(seed)]


# ---------------------------------------------------------------------------
# reference and correctness check


def _draw(inputs: dict, train_frac: float, seed: int):
    data, labels = inputs["data"], inputs["labels"]
    split = ref.make_split(labels.ravel(), DICT_FRAC, train_frac, seed)
    problem = ref.Problem(*ref.pixels(data, labels, split["dictionary"]))
    return split, problem


def build_reference(workload: str, seed: int, inputs: dict) -> dict:
    """Reference outputs and the pixel count that ``px_per_s`` divides by."""
    data, labels = inputs["data"], inputs["labels"]
    train_frac = WORKLOADS[workload]["train_frac"]
    if workload.startswith("eval"):
        split, problem = _draw(inputs, train_frac, seed)
        x, truth = ref.pixels(data, labels, split["test"])
        if workload == "eval-greedy":
            coeffs = ref.omp(problem, x, K)
        else:
            params = json.loads(inputs["params"].read_text(encoding="utf-8"))
            coeffs, _ = ref.asdn_forward(problem, x, params)
        pred, gap = ref.decide(problem.residuals(coeffs, x))
        return {"pixels": x.shape[1], "test_ids": np.concatenate(split["test"]),
                "truth": truth, "pred": pred, "gap": gap}
    if workload == "train":
        split, problem = _draw(inputs, train_frac, seed)
        x, truth = ref.pixels(data, labels, split["train"])
        params, history = ref.train(problem, x, truth, STAGES, EPOCHS, BATCH, seed,
                                    init=(1.0, TRAIN_INIT_ETA, 1.0))
        return {"pixels": EPOCHS * x.shape[1], "params": params, "history": history}
    stats = defaultdict(list)  # (lam, statistic) -> one value per draw
    ties = defaultdict(int)
    pixels, class_sizes = 0, []
    for r in range(DRAWS):
        split, problem = _draw(inputs, train_frac, seed + r)
        x, truth = ref.pixels(data, labels, split["test"])
        n = x.shape[1]
        lam = np.repeat(np.asarray(LAMBDAS), n)
        xs = np.tile(x, len(LAMBDAS))
        coeffs = ref.fista(problem, xs, lam, FISTA_MAX_ITERS)
        pred, gap = ref.decide(problem.residuals(coeffs, xs))
        for g, value in enumerate(LAMBDAS):
            part = slice(g * n, (g + 1) * n)
            oa, aa, kappa = ref.metrics(pred[part], truth, problem.n_classes)
            for key, v in (("oa", oa), ("aa", aa), ("kappa", kappa)):
                stats[value, key].append(v)
            ties[value] += int((gap[part] < ref.TIE).sum())
        pixels += len(LAMBDAS) * n
        class_sizes += [len(ids) for ids in split["test"]]
    table = {}
    for value in LAMBDAS:
        for key in ("oa", "aa", "kappa"):
            table[value, f"{key}_mean"] = float(np.mean(stats[value, key]))
            table[value, f"{key}_std"] = float(np.std(stats[value, key], ddof=1))
    return {"pixels": pixels, "table": table, "ties": dict(ties),
            "smallest_class": min(class_sizes)}


def check_outputs(workload: str, reference: dict, outdir: Path, stdout: str):
    """(ok, detail, result values) for one repetition's output directory."""
    if workload.startswith("eval"):
        grid = np.fromfile(outdir / "labels_pred.bin", dtype="<i4")
        pred = grid[reference["test_ids"]]
        ok, detail = ref.check_predictions(pred, reference["pred"], reference["gap"])
        if np.count_nonzero(grid) != len(pred):
            ok, detail = False, "labels_pred.bin has labels outside the test split"
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        own = ref.metrics(pred, reference["truth"], len(report["per_class_acc"]))
        same, msg = ref.check_close("report oa/aa/kappa",
                                    [report[k] for k in ("oa", "aa", "kappa")],
                                    own, 0.0, ref.AGG_TOL)
        return ok and same, f"{detail}; {msg}", {"oa": report["oa"], "kappa": report["kappa"]}
    if workload == "train":
        got = json.loads((outdir / "params.json").read_text(encoding="utf-8"))
        lines = (outdir / "train_history.csv").read_text(encoding="utf-8").split()[1:]
        history = [float(line.split(",")[1]) for line in lines]
        printed = json.loads(stdout.strip().splitlines()[-1])["final_mean_loss"]
        checks = [ref.check_close(k, got[k], reference["params"][k], ref.TRAIN_RTOL, 1e-12)
                  for k in ("rho", "eta", "tau")]
        checks.append(ref.check_close("history", history, reference["history"], ref.TRAIN_RTOL))
        checks.append(ref.check_close("final_mean_loss", printed, history[-1], 0.0))
        return (all(ok for ok, _ in checks), "; ".join(m for _, m in checks),
                {"final_loss": history[-1]})
    doc = json.loads((outdir / "sweep.json").read_text(encoding="utf-8"))
    if [float(v) for v in doc["grid"]] != list(LAMBDAS):
        return False, f"sweep grid {doc['grid']}", {}
    checks = []
    for g, value in enumerate(LAMBDAS):
        slack = ref.AGG_TOL + 4.0 * reference["ties"][value] / reference["smallest_class"]
        for key in ("oa_mean", "oa_std", "aa_mean", "aa_std", "kappa_mean", "kappa_std"):
            checks.append(ref.check_close(f"lam={value} {key}", doc[key][g],
                                          reference["table"][value, key], 0.0, slack))
    bad = [m for ok, m in checks if not ok]
    return (not bad, "; ".join(bad) or f"{len(checks)} sweep statistics match",
            {"oa": float(np.mean(doc["oa_mean"])), "kappa": float(np.mean(doc["kappa_mean"]))})


# ---------------------------------------------------------------------------
# metrics from a child report


def setup_seconds(report: dict) -> float:
    """import srckit plus every set-up call that started before the first
    coded pixel."""
    spans = report["spans"]
    first = min((s[1] for s in spans if s[0] == "bench.first_pixel"), default=float("inf"))
    return report["import_s"] + sum(e - s for name, s, e, _ in spans
                                    if name in SETUP_SPANS and s < first)


def layer_metrics(report: dict, scale: float) -> dict:
    """Per-layer metrics of one traced child; ``scale`` turns its CPU
    seconds into reference seconds."""
    spans, values = report["spans"], report["values"]
    durations, own = defaultdict(list), defaultdict(float)
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        durations[name].append((end - start) * scale)
        own[name] += self_s * scale

    def calls(name):
        return len(durations[name])

    def total(name):
        return float(sum(durations[name]))

    def pct_ms(name, q):
        d = durations[name]
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    def mean(key):
        v = values.get(key, [])
        return float(np.mean(v)) if v else 0.0

    return {
        "cli.self_s": own["cli.run"],
        "data.load_bundle.s": total("data.load_bundle"),
        "data.load_bundle.bytes": float(sum(values.get("data.load_bundle.bytes", []))),
        "data.make_split.s": total("data.make_split"),
        "data.make_split.calls": calls("data.make_split"),
        "data.extract_pixels.s": total("data.extract_pixels"),
        "data.extract_pixels.calls": calls("data.extract_pixels"),
        "dictionary.assemble.s": total("dictionary.assemble"),
        "dictionary.gram_init.s": total("dictionary.gram_init"),
        "dictionary.solve.calls": calls("dictionary.solve"),
        "dictionary.solve.self_s": own["dictionary.solve"],
        "dictionary.solve.miss_frac": mean("dictionary.solve.miss"),
        "dictionary.factor.calls": calls("dictionary.factor"),
        "dictionary.factor.s": total("dictionary.factor"),
        "solvers.omp.calls": calls("solvers.omp"),
        "solvers.omp.call_ms.p50": pct_ms("solvers.omp", 50),
        "solvers.omp.call_ms.p99": pct_ms("solvers.omp", 99),
        "solvers.omp.support_mean": mean("solvers.omp.support"),
        "solvers.refit_factor.calls": calls("solvers.refit_factor"),
        "solvers.fista.calls": calls("solvers.fista"),
        "solvers.fista.call_ms.p50": pct_ms("solvers.fista", 50),
        "solvers.fista.call_ms.p99": pct_ms("solvers.fista", 99),
        "solvers.fista.iters_mean": mean("solvers.fista.iters"),
        "solvers.fista.capped_frac": mean("solvers.fista.capped"),
        "network.forward.calls": calls("network.forward"),
        "network.forward.self_s": own["network.forward"],
        "network.backward.calls": calls("network.backward"),
        "network.backward.self_s": own["network.backward"],
        "network.train.steps": calls("network.stepped"),
        "network.class_residuals.calls": calls("network.class_residuals"),
        "network.class_residuals.s": total("network.class_residuals"),
        "classify.classify_testset.self_s": own["classify.classify_testset"],
        "classify.src_decide.calls": calls("classify.src_decide"),
        "classify.evaluate.s": total("classify.evaluate"),
        "classify.sweep.self_s": own["classify.sweep"],
    }


# ---------------------------------------------------------------------------
# repetitions


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


class Calibrator:
    """The reference kernel (calibrate.py), running on ``cpu`` until closed."""

    def __init__(self, cpu: int, root: Path, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], cwd=root,
                                     stdout=subprocess.PIPE, text=True,
                                     preexec_fn=lambda: (os.sched_setaffinity(0, {cpu}),
                                                         os.nice(CAL_NICE)))
        try:
            if self._line() != "ready":
                raise RuntimeError("the reference kernel did not start")
        except BaseException:
            self.close()
            raise

    def _line(self) -> str:
        wait = max(1.0, min(30.0, self.deadline - time.perf_counter()))
        if not select.select([self.proc.stdout], [], [], wait)[0]:
            raise RuntimeError("the reference kernel stopped answering")
        return self.proc.stdout.readline().strip()

    def snapshot(self) -> dict:
        self.proc.send_signal(signal.SIGUSR1)
        return json.loads(self._line())

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_rep(index: int, kind: str, workload: str, argv: list, reference: dict,
            work: Path, root: Path, env: dict, deadline: float, cpu: int,
            cal: Calibrator) -> dict:
    """One child run on ``cpu``, beside the reference kernel; ``kind`` is
    "plain", "traced" or "setup" (stop at the first coded pixel)."""
    outdir = work / "out" / f"rep{index}"
    report_path = work / "out" / f"rep{index}.json"
    shutil.rmtree(outdir, ignore_errors=True)
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--trace", str(int(kind == "traced")),
           *(["--setup-only"] if kind == "setup" else []),
           "--report", str(report_path), "--", *argv, "--out", str(outdir)]
    rep = {"kind": kind, "ok": False}
    before, cpu_before = cal.snapshot(), children_cpu_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start),
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        rep["detail"] = f"killed after {time.perf_counter() - start:.1f} s at the run deadline"
        return rep
    rep["wall_s"] = time.perf_counter() - start
    rep["cpu_s"] = children_cpu_s() - cpu_before
    after = cal.snapshot()
    rep["ref_step_ms"] = (after["cpu_s"] - before["cpu_s"]) / (after["steps"] - before["steps"]) * 1e3
    scale = REF_STEP_S * 1e3 / rep["ref_step_ms"]
    rep["status"] = proc.returncode
    if proc.returncode != 0 or not report_path.is_file():
        rep["detail"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return rep
    report = json.loads(report_path.read_text(encoding="utf-8"))
    rep["setup_s"] = setup_seconds(report) * scale
    if kind == "setup":
        reached = any(s[0] == "bench.first_pixel" for s in report["spans"])
        rep.update(ok=reached, detail="reached the first pixel" if reached else "no pixel was coded")
        shutil.rmtree(outdir, ignore_errors=True)
        return rep
    try:
        ok, detail, results = check_outputs(workload, reference, outdir, proc.stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ok, detail, results = False, f"unreadable output: {type(exc).__name__}: {exc}", {}
    rep.update(ok=ok, detail=detail, results=results, run_s=rep["cpu_s"] * scale,
               peak_rss_mb=report["peak_rss_mb"])
    rep["px_per_s"] = reference["pixels"] / (rep["run_s"] - rep["setup_s"])
    if kind == "traced":
        rep["layers"] = layer_metrics(report, scale)
    shutil.rmtree(outdir, ignore_errors=True)
    report_path.unlink(missing_ok=True)
    return rep


def summarize(reps: list, trace: bool, spec: dict):
    """(metrics, problems) in the order BENCHMARK.json lists them."""
    good = [r for r in reps if r["ok"]]
    plain = [r for r in good if r["kind"] == "plain"]
    problems = []
    if trace:
        traced = [r for r in good if r["kind"] == "traced"]
        if not traced or not plain:
            return None, ["no successful traced and untraced repetition pair"]
        values = {}
        for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
            if name == "trace_overhead_frac":
                values[name] = (statistics.median(r["run_s"] for r in traced)
                                / statistics.median(r["run_s"] for r in plain) - 1.0)
            elif unit in TIME_UNITS:
                values[name] = statistics.median([r["layers"][name] for r in traced])
            else:
                seen = {r["layers"][name] for r in traced}
                if len(seen) > 1:
                    problems.append(f"{name} differs between traced repetitions: {sorted(seen)}")
                values[name] = traced[0]["layers"][name]
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}, problems
    if not plain:
        return None, ["no successful repetition"]
    values = {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "px_per_s": statistics.median(r["px_per_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}, problems


# ---------------------------------------------------------------------------
# provenance


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _tier1_tests(root: Path, work: Path, env: dict):
    """Collected tier-1 test count, cached by the content of tests/*.py."""
    digest = hashlib.sha256()
    for path in sorted((root / "tests").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cache = work / "tier1_tests.json"
    if cache.is_file():
        doc = json.loads(cache.read_text(encoding="utf-8"))
        if doc.get("tests_sha256") == digest.hexdigest():
            return doc["count"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "tests"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    count = sum(1 for line in proc.stdout.splitlines() if "::" in line)
    cache.write_text(json.dumps({"tests_sha256": digest.hexdigest(), "count": count}),
                     encoding="utf-8")
    return count


def provenance(root: Path, work: Path, env: dict, seed: int, sha: str) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "ref_step_s": REF_STEP_S,
        "bundle_seed": seed,
        "bundle_sha256": sha,
        "src_lines": src_lines,
        "tier1_tests": _tier1_tests(root, work, env),
    }


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path,
                 spec: dict) -> dict:
    began = time.perf_counter()
    deadline = began + RUN_DEADLINE_S
    work = root / ".bench_work"
    (work / "out").mkdir(parents=True, exist_ok=True)
    (work / "results").mkdir(parents=True, exist_ok=True)
    inputs = bundle.write_inputs(seed, work / "inputs")
    env = child_env(root)
    subprocess.run([sys.executable, "-c", "import srckit.cli"], cwd=root, env=env,
                   check=True, timeout=60)  # warm bytecode and file caches
    reference = build_reference(workload, seed, inputs)
    argv = cli_args(workload, seed, inputs)

    # The children and the reference kernel share the last allowed CPU; the
    # runner keeps to the others (all of them on a one-CPU machine).
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    os.sched_setaffinity(0, cpus[:-1] or cpus)
    reps = []
    cal = Calibrator(cpu, root, deadline)
    try:
        start = time.perf_counter()
        while True:
            kind = "traced" if trace and len(reps) % 2 == 1 else "plain"
            reps.append(run_rep(len(reps), kind, workload, argv, reference, work, root, env,
                                deadline, cpu, cal))
            now = time.perf_counter()
            kinds = {r["kind"] for r in reps}
            if now - began >= RUN_CAP_S or (now - start >= seconds
                                            and len(kinds) == (2 if trace else 1)):
                break
        while (not trace and len(reps) < SETUP_SAMPLES
               and time.perf_counter() - began < RUN_CAP_S):
            reps.append(run_rep(len(reps), "setup", workload, argv, reference, work, root,
                                env, deadline, cpu, cal))
    finally:
        cal.close()
        os.sched_setaffinity(0, cpus)
    metrics, problems = summarize(reps, trace, spec)
    failed = sum(not r["ok"] for r in reps)
    result = {
        "correct": failed == 0 and not problems and metrics is not None,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "argv": argv, "pixels": reference["pixels"], "problems": problems,
        "result": result, "reps": reps,
        "provenance": provenance(root, work, env, seed, inputs["sha256"]),
    }
    out = work / "results" / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    name = record["workload"]
    for key, m in (result["metrics"] or {}).items():
        print(f"{name:12s} {key:34s} {m['value']:.6g} {m['unit']}")
    good = [r for r in record["reps"] if r["ok"] and r["kind"] != "setup"]
    for key, value in (good[0]["results"] if good else {}).items():
        print(f"{name:12s} {key:34s} {value:.6g} {RESULT_UNITS[key]}")
    # What the reference times are made from, as measured (medians; not gated).
    for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("ref_step_ms", "ms")):
        if good:
            print(f"{name:12s} {key:34s} {statistics.median(r[key] for r in good):.6g} {unit} "
                  "(unscaled)")
    print(f"{name:12s} {'failed_frac':34s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} repetitions)")
    for rep in record["reps"]:
        if not rep["ok"]:
            print(f"{name:12s} failed repetition: {rep.get('detail')}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"{name:12s} {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="srckit benchmark runner")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "srckit" / "__init__.py").is_file():
        print(f"error: no srckit sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), root, spec)
        print_record(record)
        results[name] = record["result"]
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
