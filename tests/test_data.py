import ast
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srckit import data as data_module
from srckit.data import (PCG64, BundleFormatError, LabeledCube, Split, SplitMix64,
                         class_counts, extract_pixels, load_bundle, load_pixel_csv,
                         make_split, read_labels, save_bundle)
from split_reference import ReferenceSplitMix64, reference_split, split_doc
from synthetic_problems import grid_cube, traced_peak


def random_cube(seed, h=4, w=5, b=6, n_classes=3):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((h, w, b))
    labels = rng.integers(0, n_classes + 1, size=(h, w)).astype(np.int32)
    labels.flat[0] = n_classes  # make sure the max class is present
    return grid_cube(data, labels)


class TestSplitMix64:
    def test_pinned_stream(self):
        # splitmix64 with the state seeded directly (no pre-scrambling);
        # frozen so splits stay reproducible across implementations
        rng = SplitMix64(0)
        assert int(rng.draws(1)[0]) == 0x7C54AC3AC8BB0988
        assert int(rng.draws(1)[0]) == 0x2FAF197C9C43F3C5
        assert int(rng.draws(1)[0]) == 0xFC5478A9EFD7743D

    def test_shuffle_is_permutation(self):
        items = np.arange(100)
        SplitMix64(42).shuffle(items)
        assert sorted(items.tolist()) == list(range(100))
        assert not np.array_equal(items, np.arange(100))

    # 18649 is the benchmark scene's largest class; 256 and 65536 items
    # widen the partners' dtype past uint8 and uint16
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 256, 257, 18649, 65535, 65536, 65537])
    def test_shuffle_equals_per_draw_loop(self, seed, n):
        got, want = np.arange(n) * 7 + 3, (np.arange(n) * 7 + 3).tolist()
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        rng.shuffle(got)
        ref.shuffle(want)
        assert got.tolist() == want
        # the stream continues where the per-draw loop leaves it
        assert [int(rng.draws(1)[0]) for _ in range(3)] == [ref.next_u64() for _ in range(3)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    @example(0, 300)
    def test_shuffle_equals_per_draw_loop_property(self, seed, n):
        # repeated items too: the shuffle moves items, it does not sort them
        got = np.random.default_rng(n).integers(0, 5, n)
        want = got.tolist()
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        rng.shuffle(got)
        ref.shuffle(want)
        assert got.tolist() == want
        assert [int(d) for d in rng.draws(2)] == [ref.next_u64(), ref.next_u64()]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**100])
    def test_seed_outside_its_state_is_value_error(self, seed):
        # taken mod 2**64, -1 would draw seed 2**64 - 1's stream
        with pytest.raises(ValueError, match=f"seed must lie in \\[0, 2\\*\\*64\\), got {seed}"):
            SplitMix64(seed)

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_draws_equal_next_u64_calls(self, seed):
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        assert rng.draws(0).tolist() == []
        got = rng.draws(1000)
        assert got.dtype == np.uint64
        assert got.tolist() == [ref.next_u64() for _ in range(1000)]
        assert int(rng.draws(1)[0]) == ref.next_u64()


class TestPCG64:
    """data.PCG64 against numpy.random, its reference: default_rng(seed) for
    the shuffles, and RandomState on numpy's PCG64 (a legacy stream
    numpy keeps fixed) for the masked-rejection draws."""

    def test_pinned_permutation(self):
        # train's batch order at seed 0: frozen, whatever numpy's Generator does later
        order = np.arange(10)
        PCG64(0).shuffle(order)
        assert order.tolist() == [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64) | st.integers(2**64, 2**300), st.integers(0, 3000))
    @example(0, 0)
    @example(0, 1)
    @example(7, 169)
    @example(2**100, 3000)
    @example(2**256 - 1, 40)  # eight 32-bit words: SeedSequence mixes the four past its pool
    def test_permutations_equal_default_rng(self, seed, n):
        # three calls on one generator, as over three epochs: the stream, a
        # buffered 32-bit half included, carries from one to the next
        rng, ref = PCG64(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = np.arange(n)
            rng.shuffle(got)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref.permutation(n))

    def test_negative_seed_is_value_error(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            PCG64(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**64), st.lists(st.integers(1, 2**64 - 1), min_size=1, max_size=12))
    @example(0, [2**32 - 1, 2**32, 5, 2**64 - 1, 2**63, 3, 2**40 + 3])
    def test_interval_equals_masked_rejection(self, seed, bounds):
        # bounds of 2**32 or more take 64-bit draws, which no shuffle an
        # array can hold reaches; the 32-bit half a 64-bit draw skips stays buffered
        rng, ref = PCG64(seed), np.random.RandomState(np.random.PCG64(seed))
        assert [rng._interval(b) for b in bounds] == [
            int(ref.randint(0, b + 1, dtype=np.uint64)) for b in bounds]

    def test_outputs_equal_raw_pcg64(self):
        rng, ref = PCG64(2**100), np.random.PCG64(2**100)
        assert [rng._next64() for _ in range(5)] == [int(v) for v in ref.random_raw(5)]


class TestBundleRoundTrip:
    def test_zero_cube(self, tmp_path):
        cube = grid_cube(np.zeros((2, 2, 3)), np.array([[0, 1], [2, 0]], dtype=np.int32))
        save_bundle(cube, tmp_path / "b")
        back = load_bundle(tmp_path / "b")
        assert np.array_equal(back.spectra, cube.spectra)
        assert np.array_equal(back.labels, cube.labels)

    def test_random_cube_bit_exact(self, tmp_path):
        cube = random_cube(7)
        save_bundle(cube, tmp_path / "b")
        back = load_bundle(tmp_path / "b")
        assert back.spectra.tobytes() == cube.spectra.tobytes()
        assert back.labels.tobytes() == cube.labels.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, tmp_path_factory, h, w, b, seed):
        cube = random_cube(seed, h, w, b, n_classes=2)
        path = tmp_path_factory.mktemp("bundle")
        save_bundle(cube, path / "b")
        back = load_bundle(path / "b")
        assert np.array_equal(back.spectra, cube.spectra)
        assert np.array_equal(back.labels, cube.labels)

    def test_single_value_encoding(self, tmp_path):
        cube = grid_cube(np.full((1, 1, 1), 7.5), np.array([[1]], dtype=np.int32))
        save_bundle(cube, tmp_path / "b")
        payload = (tmp_path / "b" / "data.bin").read_bytes()
        assert payload == struct.pack("<d", 7.5)
        assert len(payload) == 8

    def test_band_major_layout(self, tmp_path):
        # flat index of (band b, row r, col c) must be ((b*H + r)*W + c)
        data = np.random.default_rng(3).standard_normal((2, 3, 4))
        save_bundle(grid_cube(data, np.ones((2, 3))), tmp_path / "b")
        flat = np.frombuffer((tmp_path / "b" / "data.bin").read_bytes(), dtype="<f8")
        b, r, c = 2, 1, 2
        assert flat[(b * 2 + r) * 3 + c] == data[r, c, b]


def rewrite_header(change):
    """A bundle corruption: ``change`` applied to the parsed header.json."""
    def corrupt(root):
        header = json.loads((root / "header.json").read_text())
        change(header)
        (root / "header.json").write_text(json.dumps(header))
    return corrupt


class TestBundleErrors:
    @pytest.mark.parametrize("corrupt, field", [
        (lambda root: (root / "header.json").write_text("{not json"), "header.json"),
        (rewrite_header(lambda h: h.pop("height")), "height"),
        (rewrite_header(lambda h: h.update(width=-1)), "width"),
        (rewrite_header(lambda h: h.update(dtype="f32le")), "dtype"),
        (rewrite_header(lambda h: h.update(label_dtype="i64le")), "label_dtype"),
        (rewrite_header(lambda h: h.update(order="pixel-major")), "order"),
        (rewrite_header(lambda h: h.update(height=0)), "header.json"),
        (rewrite_header(lambda h: h.update(height=True)), "height"),
        (lambda root: (root / "labels.bin").write_bytes(
            (root / "labels.bin").read_bytes()[:-4]), "labels.bin"),
    ], ids=["header-not-json", "missing-extent", "negative-extent", "dtype",
            "label-dtype", "order", "zero-extent", "boolean-extent", "short-labels"])
    def test_format_check_names_its_field(self, tmp_path, corrupt, field):
        save_bundle(random_cube(5), tmp_path / "b")
        corrupt(tmp_path / "b")
        with pytest.raises(BundleFormatError) as info:
            load_bundle(tmp_path / "b")
        assert info.value.field == field

    def test_missing_file(self, tmp_path):
        cube = random_cube(1)
        save_bundle(cube, tmp_path / "b")
        (tmp_path / "b" / "labels.bin").unlink()
        with pytest.raises(FileNotFoundError, match="labels.bin"):
            load_bundle(tmp_path / "b")

    def test_short_payload(self, tmp_path):
        cube = random_cube(2)
        save_bundle(cube, tmp_path / "b")
        payload = (tmp_path / "b" / "data.bin").read_bytes()
        (tmp_path / "b" / "data.bin").write_bytes(payload[:-1])
        with pytest.raises(BundleFormatError, match="data.bin"):
            load_bundle(tmp_path / "b")

    def test_non_finite_data(self, tmp_path):
        cube = random_cube(3)
        save_bundle(cube, tmp_path / "b")
        data = np.frombuffer((tmp_path / "b" / "data.bin").read_bytes(),
                             dtype="<f8").copy()
        data[5] = np.nan
        (tmp_path / "b" / "data.bin").write_bytes(data.tobytes())
        with pytest.raises(BundleFormatError, match="data"):
            load_bundle(tmp_path / "b")

    def test_header_class_mismatch(self, tmp_path):
        cube = random_cube(4)
        save_bundle(cube, tmp_path / "b")
        header = json.loads((tmp_path / "b" / "header.json").read_text())
        header["classes"] += 1
        (tmp_path / "b" / "header.json").write_text(json.dumps(header))
        with pytest.raises(BundleFormatError, match="classes"):
            load_bundle(tmp_path / "b")

    def test_zero_band_cube_rejected(self):
        with pytest.raises(BundleFormatError, match="data"):
            grid_cube(np.zeros((2, 2, 0)), np.zeros((2, 2), dtype=np.int32))

    def test_negative_label_rejected(self):
        with pytest.raises(BundleFormatError, match="labels"):
            grid_cube(np.zeros((1, 1, 1)), np.array([[-1]], dtype=np.int32))

    def test_short_read(self, tmp_path, monkeypatch):
        # data.bin has the right size when checked but yields fewer bytes
        save_bundle(random_cube(2), tmp_path / "b")
        payload = (tmp_path / "b" / "data.bin").read_bytes()

        def short_open(path, mode="r", *args, **kwargs):
            assert Path(path).name == "data.bin" and mode == "rb"
            return io.BytesIO(payload[:-8])
        monkeypatch.setattr(data_module, "open", short_open, raising=False)
        with pytest.raises(BundleFormatError, match="got 952") as info:
            load_bundle(tmp_path / "b")
        assert info.value.field == "data.bin"

    def test_non_finite_spectra_built_in_memory(self):
        spectra = np.ones((3, 4))
        spectra[1, 2] = np.nan
        with pytest.raises(BundleFormatError, match="^data: non-finite values present$") as info:
            LabeledCube(np.ones((2, 2), dtype=np.int32), spectra)
        assert info.value.field == "data"

    def test_non_2d_labels_or_spectra_rejected(self):
        for labels, spectra in [(np.zeros((2, 2)), np.zeros(4)), (np.zeros(4), np.zeros((3, 4))),
                                (np.zeros((2, 2)), np.zeros((3, 2, 2)))]:
            with pytest.raises(BundleFormatError, match="expected 2-D labels and spectra") as info:
                LabeledCube(labels, spectra)
            assert info.value.field == "data"

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3)])
    def test_empty_grid_rejected(self, shape):
        with pytest.raises(BundleFormatError, match="degenerate extents") as info:
            grid_cube(np.zeros(shape), np.zeros(shape[:2], dtype=np.int32))
        assert info.value.field == "data"

    def test_label_grid_must_match_data(self):
        # a cube of every pixel has one column of spectra for each label
        with pytest.raises(BundleFormatError, match="one a column") as info:
            LabeledCube(np.zeros((3, 3), dtype=np.int32), np.zeros((4, 6)))
        assert info.value.field == "held"


def labeled_line_cube(class_sizes):
    """A 1 x n cube whose labels are class_sizes[c] repeats of each class."""
    labels = np.concatenate([np.full(n, c + 1) for c, n in enumerate(class_sizes)])
    data = np.random.default_rng(0).standard_normal((1, len(labels), 3))
    return grid_cube(data, labels[np.newaxis, :].astype(np.int32))


class TestMakeSplit:
    def test_stated_rule_arithmetic(self):
        cube = labeled_line_cube([100])
        split = make_split(cube, dict_frac=0.01, train_frac=0.1, seed=1)
        assert len(split.dictionary_ids[1]) == 1
        assert len(split.train_ids[1]) == 10
        assert len(split.test_ids[1]) == 89

    def test_exact_halves_round_up(self):
        # 0.5 of 5 pixels is 2.5 dictionary ids, and 0.25 of the 2 left 0.5 train ids
        split = make_split(labeled_line_cube([5]), dict_frac=0.5, train_frac=0.25, seed=0)
        assert [len(split.dictionary_ids[1]), len(split.train_ids[1]),
                len(split.test_ids[1])] == [3, 1, 1]

    def test_pavia_shadows_counts(self):
        # 947 labeled pixels at 1% dictionary and 189/938 train reproduce the
        # published 9 / 189 / 749 partition
        cube = labeled_line_cube([947])
        split = make_split(cube, dict_frac=0.01, train_frac=189.0 / 938.0, seed=5)
        assert len(split.dictionary_ids[1]) == 9
        assert len(split.train_ids[1]) == 189
        assert len(split.test_ids[1]) == 749

    def test_pavia_all_class_dictionary_counts(self):
        # nearest-int rounding of 1% reproduces every published dictionary
        # column count (total 426 atoms)
        totals = [6631, 18649, 2099, 3064, 1345, 5029, 1330, 3682, 947]
        expected = [66, 186, 21, 31, 13, 50, 13, 37, 9]
        cube = labeled_line_cube(totals)
        split = make_split(cube, dict_frac=0.01, train_frac=0.1, seed=0)
        got = [len(split.dictionary_ids[c]) for c in range(1, 10)]
        assert got == expected
        assert sum(got) == 426

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
    def test_equals_per_draw_reference(self, seed):
        cube = random_cube(seed % 97, h=9, w=11)
        split = make_split(cube, 0.2, 0.3, seed=seed)
        for c, (dict_ids, train_ids, test_ids) in reference_split(cube, 0.2, 0.3, seed).items():
            assert split.dictionary_ids[c].tolist() == dict_ids
            assert split.train_ids[c].tolist() == train_ids
            assert split.test_ids[c].tolist() == test_ids

    @pytest.mark.parametrize("seed", [3, 2**64 - 2])
    def test_equals_per_draw_reference_over_many_classes(self, seed):
        # 12 classes of 1 to 2000 pixels, scattered over a 60 x 80 grid
        rng = np.random.default_rng(5)
        sizes = [1, 2, 7, 30, 255, 256, 257, 400, 1000, 2000, 3, 12]
        labels = np.zeros(4800, dtype=np.int32)
        labels[rng.permutation(4800)[:sum(sizes)]] = np.repeat(np.arange(1, 13), sizes)
        cube = grid_cube(np.zeros((60, 80, 1)), labels.reshape(60, 80))
        split = make_split(cube, 0.05, 0.2, seed=seed)
        assert sorted(split.dictionary_ids) == list(range(1, 13))
        for c, (dict_ids, train_ids, test_ids) in reference_split(cube, 0.05, 0.2, seed).items():
            assert split.dictionary_ids[c].tolist() == dict_ids
            assert split.train_ids[c].tolist() == train_ids
            assert split.test_ids[c].tolist() == test_ids

    def test_deterministic(self):
        cube = labeled_line_cube([40, 60])
        a = make_split(cube, 0.05, 0.2, seed=9)
        b = make_split(cube, 0.05, 0.2, seed=9)
        for c in (1, 2):
            assert np.array_equal(a.dictionary_ids[c], b.dictionary_ids[c])
            assert np.array_equal(a.train_ids[c], b.train_ids[c])
            assert np.array_equal(a.test_ids[c], b.test_ids[c])

    def test_seed_changes_selection(self):
        cube = labeled_line_cube([200])
        a = make_split(cube, 0.05, 0.2, seed=1)
        b = make_split(cube, 0.05, 0.2, seed=2)
        assert not np.array_equal(a.dictionary_ids[1], b.dictionary_ids[1])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(2, 50), min_size=1, max_size=4),
           st.integers(0, 10 ** 9))
    def test_partition_property(self, sizes, seed):
        cube = labeled_line_cube(sizes)
        split = make_split(cube, 0.1, 0.3, seed=seed)
        for c, n in enumerate(sizes, start=1):
            groups = [split.dictionary_ids[c], split.train_ids[c], split.test_ids[c]]
            union = np.concatenate(groups)
            assert len(union) == len(set(union.tolist())) == n
            assert set(union.tolist()) == set(np.flatnonzero(cube.labels.ravel() == c).tolist())

    def test_unlabeled_cube_rejected(self):
        cube = grid_cube(np.ones((2, 2, 3)), np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(ValueError, match="cube has no labeled pixels"):
            make_split(cube)

    def test_empty_class_named(self):
        labels = np.array([[1, 1, 3, 3]], dtype=np.int32)  # class 2 missing
        cube = grid_cube(np.zeros((1, 4, 2)), labels)
        with pytest.raises(ValueError, match="class 2"):
            make_split(cube, 0.25, 0.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_splitmix64_state_rejected(self, seed):
        # taken mod 2**64, -1 would draw seed 2**64 - 1's split
        cube = labeled_line_cube([30, 20])
        with pytest.raises(ValueError, match=f"seed must lie in \\[0, 2\\*\\*64\\), got {seed}"):
            make_split(cube, 0.1, 0.2, seed=seed)

    def test_class_counts(self):
        assert class_counts(labeled_line_cube([3, 1, 5])).tolist() == [3, 1, 5]
        labels = np.array([[0, 2, 2, 0]], dtype=np.int32)  # class 1 missing
        with pytest.raises(ValueError, match="class 1 has no labeled pixels"):
            class_counts(grid_cube(np.zeros((1, 4, 2)), labels))

    def test_bad_fractions(self):
        cube = labeled_line_cube([10])
        with pytest.raises(ValueError):
            make_split(cube, 0.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            make_split(cube, 0.5, 1.0, seed=0)

    def test_split_json_round_trip(self):
        from srckit.data import Split
        cube = labeled_line_cube([30, 20])
        split = make_split(cube, 0.1, 0.2, seed=4)
        back = Split.from_json(json.loads(json.dumps(split_doc(split))))
        assert np.array_equal(back.test_ids[2], split.test_ids[2])
        assert back.seed == split.seed


class TestSplitIds:
    """``Split.ids(role)`` is the one accessor of a role's pixel ids."""

    def test_ascending_class_order_whatever_the_dict_order(self):
        ids = {3: np.array([7, 9]), 1: np.array([4]), 2: np.array([0, 2])}
        split = Split(dictionary_ids=ids, train_ids={2: np.array([5]), 1: np.array([1])},
                      test_ids={}, seed=0)
        assert split.ids("dictionary").tolist() == [4, 0, 2, 7, 9]
        assert split.ids("train").tolist() == [1, 5]

    def test_empty_role_is_an_empty_int64_array(self):
        split = make_split(labeled_line_cube([4, 3]), 0.5, 0.0, seed=1)
        assert [len(split.train_ids[c]) for c in (1, 2)] == [0, 0]
        for role_ids in (split.ids("train"), Split({}, {}, {}, 0).ids("test")):
            assert role_ids.dtype == np.int64 and role_ids.shape == (0,)

    @pytest.mark.parametrize("role", ["tset", "dictionary_ids", ""])
    def test_other_role_is_value_error_naming_it(self, role):
        split = make_split(labeled_line_cube([4, 3]), 0.5, 0.5, seed=1)
        with pytest.raises(ValueError, match=f"role must be one of .*, got {role!r}$"):
            split.ids(role)


def test_data_makes_no_python_list_of_ids():
    """Split draws, batch orders and split.json keep pixel ids in numpy
    arrays: no call in data.py is a tolist or a list of a range, and
    SplitMix64.shuffle holds no for loop or comprehension (its one loop is
    over pointer-doubling rounds)."""
    tree = ast.parse(Path(data_module.__file__).read_text(encoding="utf-8"))
    found = [f"data.py:{node.lineno} calls tolist" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "tolist"]
    splitmix = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "SplitMix64")
    shuffle = next(node for node in splitmix.body
                   if isinstance(node, ast.FunctionDef) and node.name == "shuffle")
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found += [f"data.py:{node.lineno} loops in shuffle" for node in ast.walk(shuffle)
              if isinstance(node, loops)]
    found += [f"data.py:{node.lineno} lists a range" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "list"
              and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "range"
                      for arg in node.args)]
    assert found == []


def written_split(split, path):
    data_module.write_split(split, path)
    return path.read_bytes()


def reference_text(split):
    return (json.dumps(split_doc(split), sort_keys=True) + "\n").encode()


class TestWriteSplit:
    def test_bytes_equal_the_reference_document(self, tmp_path):
        # 12 classes, so the keys sort "1", "10", "11", "12", "2"; class 12 has
        # one pixel: one dictionary id and empty train and test sets
        sizes = [40, 9000, 3, 5, 7, 11, 13, 2, 30, 120, 4100, 1]
        split = make_split(labeled_line_cube(sizes), 0.1, 0.5, seed=2**64 - 1)
        assert split.train_ids[12].size == split.test_ids[12].size == 0
        assert split.dictionary_ids[12].size == 1
        text = written_split(split, tmp_path / "split.json")
        assert text == reference_text(split)
        assert text.index(b'"10": [') < text.index(b'"2": [')
        back = data_module.Split.from_json(json.loads(text))
        for name in ("dictionary_ids", "train_ids", "test_ids"):
            for c, ids in getattr(split, name).items():
                assert getattr(back, name)[c].tolist() == ids.tolist()

    def test_sets_without_classes_and_a_train_set_of_none(self, tmp_path):
        split = make_split(labeled_line_cube([6, 9]), 0.2, 0.0, seed=0)
        assert all(ids.size == 0 for ids in split.train_ids.values())
        assert written_split(split, tmp_path / "a.json") == reference_text(split)
        empty = data_module.Split({}, {}, {}, 0)
        assert written_split(empty, tmp_path / "b.json") == reference_text(empty)
        assert (tmp_path / "b.json").read_bytes() == (
            b'{"dictionary_ids": {}, "seed": 0, "test_ids": {}, "train_ids": {}}\n')

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(-3, 40), st.lists(st.one_of(
               st.integers(-2**63, 2**63 - 1), st.sampled_from([0, 9, 10, -1, -10, 2**63 - 1])),
               max_size=30), max_size=12),
           st.integers(0, 2**64 - 1), st.integers(1, 7))
    def test_bytes_equal_the_reference_document_property(self, tmp_path_factory, groups, seed,
                                                         per_write):
        # any int64 ids, any class keys, and writes of a few ids at a time
        ids = {c: np.array(v, dtype=np.int64) for c, v in groups.items()}
        split = data_module.Split(ids, dict(reversed(ids.items())), {}, seed)
        path = tmp_path_factory.mktemp("split") / "split.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "IDS_PER_WRITE", per_write)
            assert written_split(split, path) == reference_text(split)


class TestExtractPixels:
    def test_345_normalization(self):
        cube = grid_cube(np.array([[[3.0, 4.0]]]), np.array([[2]], dtype=np.int32))
        spectra, labels = extract_pixels(cube, [0], normalize=True)
        assert np.allclose(spectra[:, 0], [0.6, 0.8])
        assert labels.tolist() == [2]

    def test_raw_identity(self):
        cube = grid_cube(np.array([[[3.0, 4.0]]]), np.array([[1]], dtype=np.int32))
        spectra, _ = extract_pixels(cube, [0], normalize=False)
        assert np.array_equal(spectra[:, 0], [3.0, 4.0])

    def test_unit_norms_random(self):
        cube = random_cube(11, h=6, w=6, b=8)
        ids = np.flatnonzero(cube.labels.ravel() > 0)
        spectra, _ = extract_pixels(cube, ids, normalize=True)
        norms = np.linalg.norm(spectra, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_out_of_range(self):
        cube = random_cube(1, h=2, w=2, b=3)
        with pytest.raises(ValueError, match="pixel id 99 is not held by the cube"):
            extract_pixels(cube, [99])

    def test_unlabeled_rejected(self):
        cube = grid_cube(np.ones((1, 2, 2)), np.array([[0, 1]], dtype=np.int32))
        with pytest.raises(ValueError, match="unlabeled"):
            extract_pixels(cube, [0])

    def test_zero_norm_rejected(self):
        cube = grid_cube(np.zeros((1, 1, 2)), np.array([[1]], dtype=np.int32))
        with pytest.raises(ValueError, match="zero-norm"):
            extract_pixels(cube, [0], normalize=True)


class TestPixelCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_text("1.0,2.0,1\n3.0,4.0,2\n")
        spectra, labels, digest = load_pixel_csv(path)
        assert spectra.shape == (2, 2)
        assert np.array_equal(spectra[:, 1], [3.0, 4.0])
        assert labels.tolist() == [1, 2]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops,1\n")
        with pytest.raises(ValueError, match="bad.csv:1"):
            load_pixel_csv(path)

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,1\n1.0,2\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_pixel_csv(path)

    def test_csv_to_cube_round(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_text("1.0,2.0,1\n3.0,4.0,2\n")
        spectra, labels, _ = load_pixel_csv(path)
        cube = LabeledCube(labels[np.newaxis], spectra)
        assert cube.height == 1 and cube.width == 2 and cube.bands == 2
        back, lab = extract_pixels(cube, [0, 1], normalize=False)
        assert np.array_equal(back, spectra)
        assert np.array_equal(lab, labels)


def reference_extract(data, ids, normalize):
    """extract_pixels as it was when cubes were stored (height, width, bands):
    a row gather from the (height * width, bands) reshape of a pixel-major
    array, then the columns scaled in place."""
    b = data.shape[2]
    spectra = data.reshape(-1, b)[ids].T.astype(np.float64, copy=True)
    if normalize:
        spectra /= np.linalg.norm(spectra, axis=0)
    return spectra


class TestBandMajorStorage:
    """A loaded cube is one band-major buffer; the fast gather and the
    carried digests are checked against the reference paths."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 7),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_extract_equals_row_gather(self, tmp_path_factory, h, w, b, seed, normalize):
        cube = random_cube(seed, h, w, b, n_classes=2)
        path = tmp_path_factory.mktemp("bundle") / "b"
        save_bundle(cube, path)
        loaded = load_bundle(path)
        rng = np.random.default_rng(seed)
        labeled = np.flatnonzero(cube.labels.ravel() > 0)
        ids = rng.choice(labeled, size=rng.integers(0, 2 * labeled.size + 1))
        # the reference reads a plain (h, w, b) array, not the band-major spectra
        plain = np.array(cube.spectra.T, order="C").reshape(h, w, b)
        got, labels = extract_pixels(loaded, ids, normalize)
        want = reference_extract(plain, ids, normalize)
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert labels.tolist() == cube.labels.ravel()[ids].tolist()

    def test_digests_are_the_files_hashes(self, tmp_path):
        save_bundle(random_cube(8, h=5, w=7, b=9), tmp_path / "b")
        cube = load_bundle(tmp_path / "b")
        files = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files] == ["data.bin", "header.json", "labels.bin"]
        assert cube.digests == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                for p in files}

    def test_in_memory_cube_has_no_digests(self):
        assert random_cube(1).digests == {}

    def test_loaded_data_views_one_band_major_buffer(self, tmp_path):
        h, w, b = 20, 30, 50
        save_bundle(random_cube(9, h, w, b), tmp_path / "b")
        peak, cube = traced_peak(lambda: load_bundle(tmp_path / "b"))
        # the buffer, the finite check's 1/8-size bool array and the labels
        assert peak < 1.5 * cube.spectra.nbytes
        assert cube.spectra.shape == (b, h * w) and cube.spectra.flags.c_contiguous
        assert cube.spectra.base is None  # it owns its memory: no copy was made from it
        assert (tmp_path / "b" / "data.bin").read_bytes() == cube.spectra.tobytes()

    def test_extract_and_save_copy_no_whole_cube(self, tmp_path):
        h, w, b = 40, 50, 100  # 1.6 MB of pixels
        cube = random_cube(10, h, w, b)
        ids = np.flatnonzero(cube.labels.ravel() > 0)[:20]
        extract_peak = traced_peak(lambda: extract_pixels(cube, ids))[0]
        save_peak = traced_peak(lambda: save_bundle(cube, tmp_path / "b"))[0]
        assert extract_peak < cube.spectra.nbytes // 10
        assert save_peak < cube.spectra.nbytes // 10


def file_hashes(root):
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in root.iterdir()}


def write_bundle(root, seed=11, h=4, w=5, b=12):
    """A saved random cube and its plane size in bytes."""
    save_bundle(random_cube(seed, h, w, b), root)
    return h * w * 8


class TestStreamedLoad:
    """load_bundle(path, keep) reads data.bin once, CHUNK_BYTES of band planes
    at a time, and keeps only the spectra of ``keep``; the digests and the
    checks still cover every byte and value of the file."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_partial_extract_equals_full(self, tmp_path_factory, h, w, b, seed, data):
        path = tmp_path_factory.mktemp("bundle") / "b"
        save_bundle(random_cube(seed, h, w, b, n_classes=2), path)
        keep = data.draw(st.lists(st.integers(0, h * w - 1), max_size=2 * h * w), label="keep")
        planes = data.draw(st.integers(1, b), label="planes per chunk")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "CHUNK_BYTES", planes * h * w * 8)
            partial = load_bundle(path, keep)
        full = load_bundle(path)
        assert partial.held.tolist() == sorted(set(keep))
        assert full.held.tolist() == list(range(h * w))
        assert partial.digests == full.digests == file_hashes(path)
        assert (partial.height, partial.width, partial.bands) == (h, w, b)
        assert partial.labels.tobytes() == full.labels.tobytes()
        labeled = [i for i in keep if full.labels.flat[i] > 0]
        ids = data.draw(st.lists(st.sampled_from(labeled), max_size=2 * len(labeled))
                        if labeled else st.just([]), label="ids")
        normalize = data.draw(st.booleans(), label="normalize")
        got, got_labels = extract_pixels(partial, ids, normalize)
        want, want_labels = extract_pixels(full, ids, normalize)
        assert got.shape == want.shape
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
            (want.flags.c_contiguous, want.flags.f_contiguous)
        assert got_labels.tolist() == want_labels.tolist()

    def test_labels_only_read(self, tmp_path):
        write_bundle(tmp_path / "b")
        cube = read_labels(tmp_path / "b")
        hashes = file_hashes(tmp_path / "b")
        hashes.pop(str(tmp_path / "b" / "data.bin"))
        assert cube.digests == hashes
        assert cube.held.size == 0 and cube.spectra.shape == (12, 0)
        assert cube.labels.tobytes() == load_bundle(tmp_path / "b").labels.tobytes()
        assert load_bundle(tmp_path / "b", ()).spectra.shape == (12, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_completing_the_labels_read_equals_a_fresh_load(self, tmp_path_factory, h, w, b,
                                                            seed, data):
        """load_bundle(path, keep, read_labels(path)) is load_bundle(path,
        keep), reads only data.bin, and shares the labels it was given."""
        path = tmp_path_factory.mktemp("bundle") / "b"
        save_bundle(random_cube(seed, h, w, b, n_classes=2), path)
        n = h * w
        keep = data.draw(st.one_of(
            st.sampled_from([None, [], list(range(n))]), st.permutations(range(n)),
            st.lists(st.integers(0, n - 1), max_size=2 * n)), label="keep")
        labeled = read_labels(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "_read", lambda *args: pytest.fail(f"read {args}"))
            got = load_bundle(path, keep, labeled)
        want = load_bundle(path, keep)
        assert got.labels is labeled.labels
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.spectra.shape == want.spectra.shape
        assert got.spectra.tobytes() == want.spectra.tobytes()
        assert got.held.tolist() == want.held.tolist()
        assert got.digests == want.digests == file_hashes(path)
        assert len(labeled.digests) == 2  # the cube given is left as it was

    def test_labels_cube_of_another_bundle_or_holding_spectra(self, tmp_path):
        write_bundle(tmp_path / "a")
        write_bundle(tmp_path / "b")
        labeled = read_labels(tmp_path / "a")
        holding = LabeledCube(labeled.labels, np.ones((12, 20)), digests=labeled.digests)
        for cube in (read_labels(tmp_path / "b"), load_bundle(tmp_path / "a", ()),
                     load_bundle(tmp_path / "a", [1, 2]), holding, random_cube(0)):
            with pytest.raises(ValueError, match="expected the labels-only cube of"):
                load_bundle(tmp_path / "a", [1], cube)
        assert load_bundle(tmp_path / "a", [1], labeled).held.tolist() == [1]

    @pytest.mark.parametrize("band", [0, 5, 11], ids=["first-chunk", "middle", "last-chunk"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_outside_keep(self, monkeypatch, tmp_path, band, value):
        plane = write_bundle(tmp_path / "b")
        monkeypatch.setattr(data_module, "CHUNK_BYTES", 2 * plane)  # six chunks
        payload = np.fromfile(tmp_path / "b" / "data.bin", dtype="<f8")
        payload[band * 20 + 19] = value  # pixel 19, in no keep below
        payload.tofile(tmp_path / "b" / "data.bin")
        for keep in ([0, 3, 7], (), None):
            with pytest.raises(BundleFormatError, match="non-finite values present") as info:
                load_bundle(tmp_path / "b", keep)
            assert info.value.field == "data"

    @pytest.mark.parametrize("band", [0, 5, 11], ids=["first-chunk", "middle", "last-chunk"])
    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_finite_values_whose_sum_overflows(self, monkeypatch, tmp_path, band, value):
        """A chunk's sum that overflows is not finite, yet every value is:
        the elementwise test decides, and the bundle loads byte-exact."""
        plane = write_bundle(tmp_path / "b")
        monkeypatch.setattr(data_module, "CHUNK_BYTES", 2 * plane)  # six chunks
        payload = np.fromfile(tmp_path / "b" / "data.bin", dtype="<f8")
        payload[band * 20 + 18: band * 20 + 20] = value  # pixels 18 and 19
        payload.tofile(tmp_path / "b" / "data.bin")
        for keep in ([0, 3, 19], (), None):
            cube = load_bundle(tmp_path / "b", keep)
            held = list(range(20)) if keep is None else sorted(keep)
            assert cube.spectra.tobytes() == payload.reshape(12, 20)[:, held].tobytes()

    @pytest.mark.parametrize("change, size", [
        (lambda payload: payload[:-8], 1912), (lambda payload: payload[:-1], 1919),
        (lambda payload: payload + bytes(8), 1928)], ids=["short", "odd", "long"])
    def test_data_bin_of_the_wrong_size(self, monkeypatch, tmp_path, change, size):
        plane = write_bundle(tmp_path / "b")
        monkeypatch.setattr(data_module, "CHUNK_BYTES", 5 * plane)
        payload = (tmp_path / "b" / "data.bin").read_bytes()
        (tmp_path / "b" / "data.bin").write_bytes(change(payload))
        for keep in ([1, 2], (), None):
            with pytest.raises(BundleFormatError) as info:
                load_bundle(tmp_path / "b", keep)
            assert str(info.value) == f"data.bin: expected 1920 bytes for 12x4x5, got {size}"

    def test_file_that_shrinks_after_its_size_is_checked(self, monkeypatch, tmp_path):
        plane = write_bundle(tmp_path / "b")
        monkeypatch.setattr(data_module, "CHUNK_BYTES", 5 * plane)
        payload = (tmp_path / "b" / "data.bin").read_bytes()
        monkeypatch.setattr(data_module, "open", lambda path, mode: io.BytesIO(payload[:900]),
                            raising=False)
        with pytest.raises(BundleFormatError, match="got 900") as info:
            load_bundle(tmp_path / "b", [4])
        assert info.value.field == "data.bin"

    def test_header_class_count_that_does_not_match(self, monkeypatch, tmp_path):
        plane = write_bundle(tmp_path / "b")
        monkeypatch.setattr(data_module, "CHUNK_BYTES", plane)
        rewrite_header(lambda h: h.update(classes=h["classes"] + 1))(tmp_path / "b")
        for keep in ([1, 2], (), None):
            with pytest.raises(BundleFormatError,
                               match="classes: header says 4, labels.bin max is 3"):
                load_bundle(tmp_path / "b", keep)

    def test_id_not_held_and_keep_out_of_range(self, tmp_path):
        write_bundle(tmp_path / "b")
        cube = load_bundle(tmp_path / "b", [2, 0, 2])
        labeled = [i for i in range(20) if cube.labels.flat[i] > 0 and i not in (0, 2)]
        with pytest.raises(ValueError, match=f"pixel id {labeled[0]} is not held by the cube"):
            extract_pixels(cube, [0, labeled[0]])
        with pytest.raises(ValueError, match="is not held"):
            extract_pixels(read_labels(tmp_path / "b"), [0])
        with pytest.raises(ValueError, match="pixel id 20 is not held by the cube"):
            extract_pixels(cube, [20])
        for keep in ([20], [-1, 3]):
            with pytest.raises(ValueError, match="out of range"):
                load_bundle(tmp_path / "b", keep)

    def test_save_rejects_a_partial_cube(self, tmp_path):
        write_bundle(tmp_path / "b")
        with pytest.raises(ValueError, match="needs a full cube"):
            save_bundle(load_bundle(tmp_path / "b", [1, 2]), tmp_path / "again")
        assert not (tmp_path / "again").exists()

    def test_partial_load_holds_no_whole_cube(self, monkeypatch, tmp_path):
        h, w, b = 40, 50, 60  # 960 kB of pixels
        plane = write_bundle(tmp_path / "b", 12, h, w, b)
        chunk = 5 * plane  # twelve chunks
        monkeypatch.setattr(data_module, "CHUNK_BYTES", chunk)
        keep = np.arange(0, h * w, 20)
        peak, cube = traced_peak(lambda: load_bundle(tmp_path / "b", keep))
        assert cube.spectra.shape == (b, keep.size)
        assert peak < cube.spectra.nbytes + 2 * chunk + cube.labels.nbytes


class TestOneIdRule:
    """Every cube, whether it holds every pixel or a few, names a pixel id it
    cannot give by one rule, and holds only ascending ids on its grid."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_id_off_the_grid_is_not_held(self, tmp_path_factory, h, w, b, seed, data):
        path = tmp_path_factory.mktemp("bundle") / "b"
        save_bundle(random_cube(seed, h, w, b, n_classes=2), path)
        keep = data.draw(st.lists(st.integers(0, h * w - 1), max_size=2 * h * w), label="keep")
        below = data.draw(st.integers(-2 ** 62, -1), label="id below 0")
        beyond = data.draw(st.integers(h * w, 2 ** 62), label="id at or past h*w")
        for cube in (load_bundle(path), load_bundle(path, keep)):
            given_ids = [i for i in cube.held.tolist() if cube.labels.flat[i] > 0]
            for bad in (below, beyond):
                with pytest.raises(ValueError, match=f"^pixel id {bad} is not held by the cube$"):
                    extract_pixels(cube, [*given_ids, bad])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.lists(st.integers(-3, 20), max_size=6))
    @example(2, 2, [0, 4]).via("outside the grid")
    @example(2, 2, [-1, 0]).via("negative")
    @example(2, 2, [1, 0]).via("unsorted")
    @example(2, 2, [1, 1]).via("repeated")
    def test_held_ids_are_ascending_ids_of_the_grid(self, h, w, held):
        labels, spectra = np.ones((h, w)), np.ones((3, len(held)))
        if held == sorted(set(held)) and all(0 <= i < h * w for i in held):
            assert LabeledCube(labels, spectra, held).held.tolist() == held
        else:
            with pytest.raises(BundleFormatError) as info:
                LabeledCube(labels, spectra, held)
            assert info.value.field == "held"
