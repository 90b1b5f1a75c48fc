"""Reference kernel that runs beside every repetition, on the same CPU.

    python3 perfbench/calibrate.py

The runner starts this once per run, pinned to the CPU it pins each
repetition's child to, so the two share that CPU and whatever speed it has
from moment to moment. The process warms up, prints ``ready`` and then
repeats ``step`` until it is killed. On SIGUSR1 it prints one JSON line,
``{"steps": completed steps, "cpu_s": its CPU time}``, and carries on.

Between two such snapshots the CPU time per step measures how fast the
shared CPU was while a repetition ran; the runner divides the child's CPU
time by it (run.py, ``REF_STEP_S``). One step mixes what srckit spends its
time on: a greedy pursuit over a 103 x 426 dictionary (small numpy calls and
the Python loop around them), a triangular solve against a 426 x 426
Cholesky factor, a 2 MiB read from a 64 MiB array (the bundle is 35 MB, and
a step without this read tracked `sweep-l1` half as well) and a stretch of
pure-Python arithmetic.
"""
from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

BANDS, ATOMS, SPARSITY = 103, 426, 10
_rng = np.random.default_rng(20191021)
_D = _rng.standard_normal((BANDS, ATOMS))
_D /= np.linalg.norm(_D, axis=0)
_X = _rng.standard_normal((BANDS, 64))
_FACTOR = cho_factor(_D.T @ _D + np.eye(ATOMS))
_RHS = _rng.standard_normal((ATOMS, 4))
_BIG = _rng.standard_normal(8 << 20)  # 64 MiB, past any last-level cache
_CHUNK = 1 << 18


def step(j: int) -> float:
    x = _X[:, j % _X.shape[1]]
    r, support = x, []
    for _ in range(SPARSITY):
        support.append(int(np.argmax(np.abs(_D.T @ r))))
        sub = _D[:, support]
        w = cho_solve(cho_factor(sub.T @ sub + 1e-9 * np.eye(len(support))), sub.T @ x)
        r = x - sub @ w
    acc = float(cho_solve(_FACTOR, _RHS)[j % ATOMS, 0])
    lo = (j * _CHUNK) % _BIG.size
    acc += float(_BIG[lo:lo + _CHUNK].sum())
    for i in range(300):
        acc += (i * i) % 7
    return acc


def main() -> int:
    steps = 0

    def snapshot(signum, frame):
        print(json.dumps({"steps": steps, "cpu_s": time.process_time()}), flush=True)

    for j in range(64):
        step(j)
    signal.signal(signal.SIGUSR1, snapshot)
    print("ready", flush=True)
    while True:
        step(steps)
        steps += 1


if __name__ == "__main__":
    sys.exit(main())
