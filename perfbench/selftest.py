"""The benchmark's own tests. Kept out of the tier-1 suite; run them with

    python3 -m pytest -q perfbench/selftest.py
"""
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import bundle
import reference as ref
from spans import Recorder, self_times


def _bundle_bytes(root):
    return [(root / "bundle" / name).read_bytes() for name in bundle.BUNDLE_FILES] + \
        [(root / "asdn_params.json").read_bytes()]


def test_same_seed_gives_identical_bundle(tmp_path):
    a = bundle.write_inputs(7, tmp_path / "a")
    b = bundle.write_inputs(7, tmp_path / "b")
    c = bundle.write_inputs(8, tmp_path / "c")
    assert _bundle_bytes(tmp_path / "a") == _bundle_bytes(tmp_path / "b")
    assert a["sha256"] == b["sha256"] != c["sha256"]
    assert (tmp_path / "a" / "bundle" / "data.bin").read_bytes() != \
        (tmp_path / "c" / "bundle" / "data.bin").read_bytes()


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: the union [1, 6] is covered once
        ["c", 2.0, 3.0, 1],
        ["d", 8.0, 12.0, 0],   # runs past root: clipped to [8, 10]
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_recorder_nests_wrapped_calls():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace()
    ns.inner = lambda: "x"
    ns.outer = lambda: ns.inner() * 2
    rec.wrap(ns, "inner", "inner")
    rec.wrap(ns, "outer", "outer", after=lambda args, kwargs, result: None)
    assert ns.outer() == "xx"
    assert [s[0] for s in rec.spans] == ["outer", "inner", "bench.check"]
    assert [s[3] for s in rec.spans] == [-1, 0, -1]
    assert self_times(rec.spans) == [2.0, 1.0, 1.0]


def test_prediction_check_rejects_one_flipped_label():
    rng = np.random.default_rng(0)
    reference_pred = rng.integers(1, 10, size=200)
    gap = rng.uniform(0.01, 1.0, size=200)
    gap[17] = ref.TIE / 10  # a near tie: either label is accepted there
    assert ref.check_predictions(reference_pred.copy(), reference_pred, gap)[0]

    flipped = reference_pred.copy()
    flipped[42] = flipped[42] % 9 + 1
    ok, message = ref.check_predictions(flipped, reference_pred, gap)
    assert not ok and "test pixel 42" in message

    tie_flipped = reference_pred.copy()
    tie_flipped[17] = tie_flipped[17] % 9 + 1
    assert ref.check_predictions(tie_flipped, reference_pred, gap)[0]


def test_child_peak_rss_excludes_the_parent():
    ballast = np.ones(25_000_000)  # 200 MB resident in this process
    out = subprocess.run(
        [sys.executable, "-c", "import child; print(child.peak_rss_mb())"],
        cwd=Path(__file__).resolve().parent, capture_output=True, text=True, check=True)
    assert float(out.stdout) < ballast.nbytes / 2**20 / 2
