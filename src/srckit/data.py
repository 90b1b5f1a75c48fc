"""Hyperspectral cube ingestion, per-class splits, and pixel extraction.

A cube lives on disk as a "bundle" directory::

    header.json   {"height": H, "width": W, "bands": B, "classes": C,
                   "dtype": "f64le", "label_dtype": "i32le", "order": "band-major"}
    data.bin      H*W*B float64 little-endian, flat index ((b*H + r)*W + c)
    labels.bin    H*W int32 little-endian, row-major (r*W + c)

Label 0 means "unlabeled"; classes are 1..C. ``check_split`` is the rule a
split read from a file must meet to be used with a cube.

A cube holds every label, and the band-major spectra of the pixels it
holds with their flat ids. A run needs only a small labelled fraction of a
scene, and its split depends only on labels.bin, so it reads the bundle in
two steps: ``read_labels`` gives the cube of no pixels a split is drawn from
(or checked on), then ``load_bundle(path, keep)`` reads data.bin once, a
chunk of band planes at a time, and keeps the spectra of the ``keep``
pixels. Every chunk is hashed and checked for finite values, so a bundle
fault fails the same way whatever is kept. The SHA-256 of each file is taken
from the bytes already read and carried on the cube (``digests``), so a
run's manifest does not read the bundle again.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_HEADER_NAME = "header.json"
_DATA_NAME = "data.bin"
_LABELS_NAME = "labels.bin"

_MASK64 = 0xFFFFFFFFFFFFFFFF


class BundleFormatError(ValueError):
    """A bundle file is malformed; ``field`` names the offending piece."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class SplitMix64:
    """Tiny 64-bit PRNG (splitmix-style) so shuffles reproduce across languages."""

    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def draws(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as one uint64 array: the k-th state is
        state + k * gamma mod 2^64, put through splitmix64's mix (uint64 array
        arithmetic wraps mod 2^64); advances the state by n."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(self._GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * self._GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1FE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def shuffle(self, items: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle: for i = n-1 down to 1, swap item i
        with item d % (i + 1), d the generator's next output. The n-1 draws
        come from one ``draws`` call, so the result and the stream after it
        equal the per-draw loop's."""
        n = len(items)
        if n < 2:
            return
        swaps = (self.draws(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        values = items.tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            values[i], values[j] = values[j], values[i]
        items[:] = values


# The bytes of data.bin that load_bundle reads at a time: whole band planes,
# at least one. A load that keeps every pixel reads each chunk in place; any
# other reads them into one buffer of this size, and freeing it on return
# raises glibc's dynamic mmap and trim thresholds to that size before any
# pixel is coded. At the default thresholds a coded block's temporaries are
# mapped (over 128 KiB) or grow the heap and are trimmed back, page-faulting
# afresh each step: the greedy kernel _Block still allocates per step, and in
# 256-column blocks many of its temporaries pass 128 KiB. So a smaller buffer
# waits on that kernel. A run's peak resident memory is the larger of this
# load (the buffer beside the kept spectra) and one coded block's working
# memory, as every coding path holds one block's at a time. In perfbench the
# load sets sweep-l1's peak, and a block sets eval's and train's (one trace).
CHUNK_BYTES = 4_500_000


def _finite(values: np.ndarray) -> bool:
    """Whether every entry of ``values`` is finite, exactly: a NaN or an
    infinity never sums to a finite value, so a finite sum settles it without
    the elementwise test's bool array, which runs only when the sum is not
    finite (finite values may still sum past the float range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(values.sum()) or np.isfinite(values).all())


@dataclass
class LabeledCube:
    """Per-pixel integer class labels plus the spectra of the pixels held.

    ``labels`` is the C-contiguous (height, width) int32 array, 0 = unlabeled
    and 1..C = class ids; a cube holds every label. ``spectra`` is the
    C-contiguous (bands, n) float64 array of the held pixels' spectra, one
    column a pixel, and ``held`` their flat ids (r*width + c), ascending, in
    column order. ``held`` None means every pixel, so ``spectra`` is then the
    band-major (bands, height*width) scene. ``load_bundle(path, keep)``
    builds a cube that holds ``keep``, and ``read_labels`` one that holds no
    pixel. ``digests`` maps each file a cube was read from (as ``str`` of its
    path) to the SHA-256 hex of the bytes read; it is empty for a cube built
    in memory.
    """

    labels: np.ndarray
    spectra: np.ndarray
    held: np.ndarray | None = field(default=None, compare=False, repr=False)
    digests: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int32)
        self.spectra = np.ascontiguousarray(self.spectra, dtype=np.float64)
        n = self.labels.size
        self.held = np.asarray(np.arange(n) if self.held is None else self.held, dtype=np.int64)
        if self.labels.ndim != 2 or self.spectra.ndim != 2:
            raise BundleFormatError("data", "expected 2-D labels and spectra, got shapes "
                                    f"{self.labels.shape} and {self.spectra.shape}")
        extents = self.labels.shape + self.spectra.shape[:1]
        if min(extents) < 1:
            raise BundleFormatError("data", f"degenerate extents {extents}")
        if self.spectra.shape[1:] != self.held.shape or (np.diff(self.held) <= 0).any():
            raise BundleFormatError("held", "expected ascending pixel ids, one a column")
        if self.held.size and (self.held[0] < 0 or self.held[-1] >= n):
            raise BundleFormatError("held", f"expected pixel ids in [0, {n})")
        if not _finite(self.spectra):
            raise BundleFormatError("data", "non-finite values present")
        if (self.labels < 0).any():
            raise BundleFormatError("labels", "negative label present")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def bands(self) -> int:
        return self.spectra.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max(initial=0))

    def class_ids(self, class_id: int) -> np.ndarray:
        """Flat indices of pixels labeled ``class_id``, ascending."""
        return np.flatnonzero(self.labels.ravel() == class_id)


def read_labels(path) -> LabeledCube:
    """The labels-only cube of a bundle directory: every label and no
    spectra. Checks that the three files exist, header.json, data.bin's
    size (without reading it) and labels.bin; ``digests`` holds the hashes
    of header.json and labels.bin. ``load_bundle`` starts with this read."""
    header_path, data_path, labels_path = (Path(path) / name
                                           for name in (_HEADER_NAME, _DATA_NAME, _LABELS_NAME))
    for p in (header_path, data_path, labels_path):
        if not p.is_file():
            raise FileNotFoundError(f"bundle file missing: {p}")

    raw_header = header_path.read_bytes()
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except ValueError as exc:
        raise BundleFormatError("header.json", f"invalid JSON ({exc})") from exc

    for key in ("height", "width", "bands", "classes"):
        if key not in header:
            raise BundleFormatError(key, "missing from header.json")
        if type(header[key]) is not int or header[key] < 0:  # bool is an int subclass
            raise BundleFormatError(key, f"expected nonnegative integer, got {header[key]!r}")
    for key, expected in (("dtype", "f64le"), ("label_dtype", "i32le"), ("order", "band-major")):
        if header.get(key) != expected:
            raise BundleFormatError(key, f"expected {expected!r}, got {header.get(key)!r}")

    h, w, b = header["height"], header["width"], header["bands"]
    if h < 1 or w < 1 or b < 1:
        raise BundleFormatError("header.json", f"degenerate extents {(h, w, b)}")
    _check_data_size(data_path.stat().st_size, b, h, w)

    n_label_bytes = h * w * 4
    raw_labels = labels_path.read_bytes()
    if len(raw_labels) != n_label_bytes:
        raise BundleFormatError(
            "labels.bin", f"expected {n_label_bytes} bytes for {h}x{w}, got {len(raw_labels)}")
    labels = np.frombuffer(raw_labels, dtype="<i4").reshape(h, w).copy()

    digests = {str(p): hashlib.sha256(raw).hexdigest()
               for p, raw in ((header_path, raw_header), (labels_path, raw_labels))}
    cube = LabeledCube(labels, np.empty((b, 0)), np.empty(0, dtype=np.int64), digests)
    if cube.n_classes != header["classes"]:
        raise BundleFormatError(
            "classes", f"header says {header['classes']}, labels.bin max is {cube.n_classes}")
    return cube


def _check_data_size(size: int, b: int, h: int, w: int) -> None:
    if size != h * w * b * 8:
        raise BundleFormatError(
            "data.bin", f"expected {h * w * b * 8} bytes for {b}x{h}x{w}, got {size}")


def load_bundle(path, keep=None) -> LabeledCube:
    """Read a bundle directory into a LabeledCube, byte-exact, no scaling.

    Reads the labels (``read_labels``), then data.bin once, CHUNK_BYTES of
    band planes at a time. Every chunk is hashed and checked for finite
    values. The cube holds the pixels whose flat ids are in ``keep`` (any
    order, repeats allowed), every pixel when ``keep`` is None, and no pixel
    when it is empty. A cube of every pixel reads each chunk in place; any
    other copies its columns out of one reused chunk buffer.
    """
    cube = read_labels(path)
    data_path = Path(path) / _DATA_NAME
    (h, w), b = cube.labels.shape, cube.bands
    n = h * w
    held = np.sort(np.asarray(np.arange(n) if keep is None else keep, dtype=np.int64).ravel())
    held = held[np.diff(held, prepend=held[:1] - 1) > 0]  # each id once
    outside = held[(held < 0) | (held >= n)]
    if outside.size:
        raise ValueError(f"pixel id {outside[0]} out of range [0, {n})")
    spectra = np.empty((b, held.size), dtype="<f8")
    planes = min(b, max(1, CHUNK_BYTES // (8 * n)))
    every = held.size == n
    buffer = None if every else np.empty((planes, n), dtype="<f8")
    digest, size = hashlib.sha256(), 0
    with open(data_path, "rb") as fh:
        for start in range(0, b, planes):
            stop = min(b, start + planes)
            chunk = spectra[start:stop] if every else buffer[:stop - start]
            size += fh.readinto(chunk)  # short only if the file shrank since stat
            if size != stop * n * 8:
                _check_data_size(size, b, h, w)
            digest.update(chunk)
            if not _finite(chunk):
                raise BundleFormatError("data", "non-finite values present")
            if not every:
                np.take(chunk, held, axis=1, out=spectra[start:stop])
    cube.digests[str(data_path)] = digest.hexdigest()
    return LabeledCube(cube.labels, spectra, held, cube.digests)


def save_bundle(cube: LabeledCube, path) -> None:
    """Write ``cube``, which must hold every pixel, as a bundle directory;
    inverse of :func:`load_bundle`. Any other cube is a ValueError."""
    if cube.held.size != cube.labels.size:
        raise ValueError("save_bundle needs a full cube, not one that holds "
                         f"{cube.held.size} of {cube.labels.size} pixels' spectra")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "classes": cube.n_classes,
        "dtype": "f64le",
        "label_dtype": "i32le",
        "order": "band-major",
    }
    (root / _HEADER_NAME).write_text(json.dumps(header, sort_keys=True), encoding="utf-8")
    (root / _DATA_NAME).write_bytes(cube.spectra.astype("<f8", copy=False))
    (root / _LABELS_NAME).write_bytes(cube.labels.astype("<i4", copy=False))


@dataclass
class Split:
    """Disjoint per-class flat-index sets for dictionary / train / test pixels."""

    dictionary_ids: dict[int, np.ndarray]
    train_ids: dict[int, np.ndarray]
    test_ids: dict[int, np.ndarray]
    seed: int

    def _flat(self, groups: dict[int, np.ndarray]) -> np.ndarray:
        parts = [groups[c] for c in sorted(groups)] or [np.empty(0, dtype=np.int64)]
        return np.concatenate(parts)

    def dictionary_flat(self) -> np.ndarray:
        """All dictionary ids, concatenated in ascending class order."""
        return self._flat(self.dictionary_ids)

    def train_flat(self) -> np.ndarray:
        return self._flat(self.train_ids)

    def test_flat(self) -> np.ndarray:
        return self._flat(self.test_ids)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "dictionary_ids": {str(c): v.tolist() for c, v in self.dictionary_ids.items()},
            "train_ids": {str(c): v.tolist() for c, v in self.train_ids.items()},
            "test_ids": {str(c): v.tolist() for c, v in self.test_ids.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Split":
        """The inverse of ``to_json``. Every id and the seed must be a JSON
        integer: a ValueError names any other value (a float, even an integral
        one, a bool or a string) and where it sits; so does an id set that is
        not an object, or a class key such as "01" that would merge with "1"."""
        def integer(value, where):
            if type(value) is not int:
                raise ValueError(f"{where} {value!r} is not an integer")
            return value

        def back(name):
            if not isinstance(doc[name], dict):
                raise ValueError(f"{name} is not a JSON object")
            for key in doc[name]:
                if key != str(int(key)):
                    raise ValueError(f"{name} class key {key!r} is not written {str(int(key))!r}")
            return {int(c): np.array([integer(i, f"{name} id") for i in v], dtype=np.int64)
                    for c, v in doc[name].items()}

        return cls(dictionary_ids=back("dictionary_ids"), train_ids=back("train_ids"),
                   test_ids=back("test_ids"), seed=integer(doc["seed"], "seed"))


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def class_counts(cube: LabeledCube) -> np.ndarray:
    """The labeled pixel count of each class 1..C. A cube without labeled
    pixels, or with a class that has none, is a ValueError: no split can be
    drawn from it."""
    counts = np.bincount(cube.labels.ravel(), minlength=cube.n_classes + 1)[1:]
    if not counts.size:
        raise ValueError("cube has no labeled pixels")
    if not counts.all():
        raise ValueError(f"class {np.argmin(counts) + 1} has no labeled pixels")
    return counts


def check_seed(seed: int) -> None:
    """A split seed outside [0, 2**64) is a ValueError: SplitMix64 would
    alias it to seed mod 2**64, another seed's split."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def make_split(cube: LabeledCube, dict_frac: float = 0.01,
               train_frac: float = 1.0 / 11.0, seed: int = 0) -> Split:
    """Partition each class's labeled pixels into dictionary / train / test.

    Per class with n labeled pixels: round(dict_frac * n) go to the dictionary
    (at least 1), round(train_frac * remainder) to train, the rest to test.
    Rounding is to the nearest integer (half up). Selection is a seeded
    Fisher-Yates shuffle of the ascending flat-index list (one SplitMix64
    stream consumed class by class in ascending class order), so the split is
    a pure function of (cube, dict_frac, train_frac, seed).
    """
    if not 0.0 < dict_frac < 1.0:
        raise ValueError(f"dict_frac must lie in (0, 1), got {dict_frac}")
    if not 0.0 <= train_frac < 1.0:
        raise ValueError(f"train_frac must lie in [0, 1), got {train_frac}")
    check_seed(seed)
    class_counts(cube)

    rng = SplitMix64(seed)
    dict_ids: dict[int, np.ndarray] = {}
    train_ids: dict[int, np.ndarray] = {}
    test_ids: dict[int, np.ndarray] = {}
    for c in range(1, cube.n_classes + 1):
        ids = cube.class_ids(c)
        n = len(ids)
        rng.shuffle(ids)
        n_dict = max(1, _round_half_up(dict_frac * n))
        n_train = _round_half_up(train_frac * (n - n_dict))
        dict_ids[c] = np.sort(ids[:n_dict])
        train_ids[c] = np.sort(ids[n_dict:n_dict + n_train])
        test_ids[c] = np.sort(ids[n_dict + n_train:])
    return Split(dictionary_ids=dict_ids, train_ids=train_ids, test_ids=test_ids, seed=seed)


def draw_splits(cube: LabeledCube, runs: int = 5, base_seed: int = 0, dict_frac: float = 0.01,
                train_frac: float = 1.0 / 11.0) -> list:
    """``runs`` splits (make_split) with seeds base_seed..base_seed+runs-1.
    runs < 1, or a last seed past 2**64 - 1, is a ValueError before the
    first draw."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    check_seed(base_seed + runs - 1)
    return [make_split(cube, dict_frac, train_frac, base_seed + r) for r in range(runs)]


def check_split(split: Split, cube: LabeledCube) -> None:
    """Raise ValueError unless ``split`` fits ``cube``: every class 1..C has
    a dictionary id, each id is filed under its labeled pixel's class, and no
    id appears twice across the dictionary, train and test sets."""
    labels = cube.labels.ravel()
    sets = {"dictionary": split.dictionary_ids, "train": split.train_ids, "test": split.test_ids}
    for c in range(1, cube.n_classes + 1):
        if not len(split.dictionary_ids.get(c, ())):
            raise ValueError(f"class {c} has no dictionary ids")
    for name, groups in sets.items():
        for class_id, ids in groups.items():
            if not 1 <= class_id <= cube.n_classes:
                raise ValueError(f"{name} class {class_id} lies outside 1..{cube.n_classes}")
            outside = ids[(ids < 0) | (ids >= labels.size)]
            if outside.size:
                raise ValueError(f"{name} id {outside[0]} lies outside the "
                                 f"{labels.size}-pixel cube")
            wrong = ids[labels[ids] != class_id]
            if wrong.size:
                raise ValueError(f"{name} id {wrong[0]} is filed under class {class_id} "
                                 f"but its cube label is {labels[wrong[0]]}")
    flats = (split.dictionary_flat(), split.train_flat(), split.test_flat())
    ids = np.concatenate(flats)
    order = np.argsort(ids, kind="stable")  # an id's copies side by side, in set order
    ids, where = ids[order], np.repeat(list(sets), [len(f) for f in flats])[order]
    twice = np.flatnonzero(ids[1:] == ids[:-1])
    if twice.size:
        i, (a, b) = twice[0], where[twice[0]:twice[0] + 2]
        raise ValueError(f"{a} id {ids[i]} is listed more than once" if a == b
                         else f"id {ids[i]} is in both the {a} and {b} sets")


def extract_pixels(cube: LabeledCube, ids, normalize: bool = True):
    """Gather spectra for flat pixel ids as columns of an (bands, n) matrix.

    Returns (matrix, labels). With ``normalize`` each column is scaled to unit
    Euclidean norm; zero-norm columns are rejected. Each id is looked up
    among the ids the cube holds before any label is read, so an id it does
    not hold, one outside the grid included, is a ValueError.
    """
    ids = np.asarray(ids, dtype=np.int64)
    columns = np.searchsorted(cube.held, ids)  # each id's column of spectra
    held = (columns < cube.held.size) & (np.r_[cube.held, 0][columns] == ids)
    if not held.all():
        raise ValueError(f"pixel id {ids[~held][0]} is not held by the cube")
    flat_labels = cube.labels.ravel()[ids]
    if (flat_labels == 0).any():
        raise ValueError(f"pixel id {ids[flat_labels == 0][0]} is unlabeled")
    # rows of the (pixels, bands) view of the band-major spectra, so that each
    # column of the result is contiguous, as the solvers and norms expect
    spectra = cube.spectra.T[columns].T
    if normalize:
        norms = np.linalg.norm(spectra, axis=0)
        if (norms == 0).any():
            bad = ids[norms == 0][0]
            raise ValueError(f"pixel id {bad} has zero-norm spectrum; cannot normalize")
        spectra /= norms
    return spectra, flat_labels.astype(np.int64)


def load_pixel_csv(path):
    """Read a small pixel matrix from CSV: one pixel per row, bands as columns,
    final column the integer class label. Returns (matrix bands x n, labels),
    unscaled."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                values = [float(cell) for cell in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if label < 0:
                raise ValueError(f"{path}:{lineno}: negative label {label}")
            if label > 2 ** 31 - 1:  # labels.bin holds int32
                raise ValueError(f"{path}:{lineno}: label {label} exceeds 2**31 - 1")
            rows.append((values, label))
    if not rows:
        raise ValueError(f"{path}: no pixel rows")
    bands = len(rows[0][0])
    if bands < 1:
        raise ValueError(f"{path}: rows must have at least one band column")
    if any(len(v) != bands for v, _ in rows):
        raise ValueError(f"{path}: inconsistent column counts")
    spectra = np.array([v for v, _ in rows], dtype=np.float64).T
    labels = np.array([l for _, l in rows], dtype=np.int64)
    if not _finite(spectra):
        raise ValueError(f"{path}: non-finite values present")
    return spectra, labels


def pixels_to_cube(spectra: np.ndarray, labels: np.ndarray) -> LabeledCube:
    """Wrap a (bands, n) pixel matrix as a 1 x n cube (handy for bundling)."""
    return LabeledCube(np.asarray(labels)[np.newaxis], spectra)
