"""Hyperspectral cube ingestion, per-class splits, and pixel extraction.

A cube lives on disk as a "bundle" directory::

    header.json   {"height": H, "width": W, "bands": B, "classes": C,
                   "dtype": "f64le", "label_dtype": "i32le", "order": "band-major"}
    data.bin      H*W*B float64 little-endian, flat index ((b*H + r)*W + c)
    labels.bin    H*W int32 little-endian, row-major (r*W + c)

Label 0 means "unlabeled"; classes are 1..C. A ``Split`` files each class's
pixel ids under three roles, and ``Split.ids(role)`` ("dictionary", "train"
or "test") is the one way to ask for a role's ids. ``check_split`` is the
rule a split read from a file must meet to be used with a cube.

A cube holds every label, and the band-major spectra of the pixels it
holds with their flat ids. A run needs only a small labelled fraction of a
scene, and its split depends only on labels.bin, so it reads the bundle in
two steps: ``read_labels`` gives the cube of no pixels a split is drawn from
(or checked on), then ``load_bundle(path, keep, labeled)`` completes it:
it reads data.bin once, a chunk of band planes at a time, and keeps the
spectra of the ``keep`` pixels. Every chunk is hashed and checked for finite
values, so a bundle fault fails the same way whatever is kept. This module
reads every input file a run reads, each once: the bundle, a pixel CSV and
the JSON files (``read_json``: header.json and the CLI's config, split,
params and report files). Each reader returns the SHA-256 of the bytes it
parsed (a cube carries its files' as ``digests``), so no file is read again.

Its two PRNGs reproduce without numpy.random, check their own seeds and
permute ids in place by ``shuffle(items)``: ``SplitMix64`` draws splits, and
``PCG64`` (``default_rng(seed)``, bit for bit) ``network.train``'s batches.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_HEADER_NAME = "header.json"
_DATA_NAME = "data.bin"
_LABELS_NAME = "labels.bin"
_HEADER = {"height": int, "width": int, "bands": int, "classes": int,  # extents: ints >= 0
           "dtype": "f64le", "label_dtype": "i32le", "order": "band-major"}

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1


class BundleFormatError(ValueError):
    """A bundle file is malformed; ``field`` names the offending piece."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class SplitMix64:
    """Tiny 64-bit PRNG (splitmix-style) so shuffles reproduce across languages."""

    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed.__index__()
        check_seed(self._state)

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
        with its partner j_i = d % (i + 1), d the generator's next output.
        The n-1 draws come from one ``draws`` call, so the stream after it is
        the per-draw loop's. So is the permutation, found without a loop over
        the items. Take j_0 = 0; then:

        - Step i is the last to write position i, with the item at j_i just
          before it. Of the earlier steps (those above i) only those with
          partner j_i wrote j_i, so that item is B(i*) for the lowest of
          them, i*, or items[j_i] when there is none.
        - B(p), the item at position p just before step p, is likewise B of
          p's writer, the lowest step above p with partner p, or items[p]
          when p has none. So B(p) is items[q], q the end of p's writer chain.

        A stable argsort of the partners, in the smallest unsigned dtype that
        holds n - 1 (a radix sort up to 65536 items), lists each partner's
        steps in ascending order, which gives each step's next one with its
        partner and each position's writer. Pointer doubling then finds every
        chain's end in log2 of the longest chain's length rounds."""
        n = len(items)
        if n < 2:
            return
        partner = np.zeros(n, dtype=np.min_scalar_type(n - 1))
        partner[:0:-1] = self.draws(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        order = np.argsort(partner, kind="stable")
        grouped = partner[order]
        same = grouped[1:] == grouped[:-1]
        steps = np.arange(n)
        following = steps.copy()  # the next step above with the same partner, or the step
        following[order[:-1]] = np.where(same, order[1:], order[:-1])
        # p's writer, or p when it has none: each partner's lowest step. That
        # is p itself when p is its own partner, but then no B(p) is read: a
        # chain visits only steps whose partner lies below them
        writer = steps.copy()
        lowest = order[np.r_[True, ~same]]
        writer[partner[lowest]] = lowest
        while True:
            ends = writer[writer]
            if (ends == writer).all():
                break
            writer = ends
        items[:] = items[np.where(following == steps, partner, writer[following])]


class PCG64:
    """``np.random.default_rng(seed)``'s stream and its ``shuffle``, bit for
    bit, without importing numpy.random (6.4 MiB resident), and pinned
    against a numpy whose Generator streams change (NEP 19). It takes any
    seed >= 0, as numpy does; a negative one is a ValueError. numpy's
    SeedSequence hashes the seed's 32-bit words into a pool of four and draws
    four uint64 words from it, the state and the stream increment of PCG64
    (XSL-RR 128/64, setseq). A 32-bit draw is the low half of a 64-bit
    output, the next one its high half."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        seed = seed.__index__()
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length() or 1, 32)]
        const = 0x43B0D7E5

        def hashed(value, mult=0x931E8875):
            nonlocal const
            value ^= const
            const = const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mixed(x, y):
            x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return x ^ x >> 16

        pool = [hashed(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mixed(pool[dst], hashed(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mixed(pool[dst], hashed(word))
        const = 0x8B51F9DD
        out = [hashed(pool[i % 4], 0x58F38DED) for i in range(8)]
        seed_hi, seed_lo, inc_hi, inc_lo = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * self._MULT + self._inc) & _MASK128
        self._half = None  # the high half of the last 64-bit output, not yet drawn

    def _next64(self) -> int:
        self._state = (self._state * self._MULT + self._inc) & _MASK128
        x = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def _interval(self, bound: int) -> int:
        """numpy's random_interval for a bound >= 1: a draw in [0, bound],
        masked to bound's bit length and drawn again while above it, 32-bit
        while the bound fits 32 bits."""
        mask = (1 << bound.bit_length()) - 1
        draw = self._next32 if bound <= _MASK32 else self._next64
        while (value := draw() & mask) > bound:
            pass
        return value

    def shuffle(self, items: np.ndarray) -> None:
        """``Generator.shuffle`` of a 1-D array, in place: of ``np.arange(n)``,
        ``Generator.permutation(n)``."""
        for i in range(len(items) - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]


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
# memory, as every coding path holds one block's at a time. In perfbench's
# seed-7 commands (the resident peak read after each phase) coding lifts the
# load's peak on all four: 0.7 MiB for eval-greedy's blocks and 1.3 for
# eval-asdn's, 0.8 for train's one trace (3.0 while train imported
# numpy.random) and 0.2 for sweep-l1's fista blocks; writing the outputs
# adds 0.1-0.25 MiB more.
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


def _object(pairs: list) -> dict:
    """A JSON object; a repeated key (json.loads keeps its last value) is a ValueError."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"key {max(keys, key=keys.count)!r} is repeated")
    return dict(pairs)


def _read(path: Path, what: str) -> tuple[bytes, str]:
    """The bytes of the file ``path`` and their SHA-256 hex."""
    if not path.is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    raw = path.read_bytes()
    return raw, hashlib.sha256(raw).hexdigest()


def read_json(path, what: str, parse=None):
    """(``parse`` of the one JSON object in the file ``path``, or the object,
    SHA-256 hex of the bytes parsed). Bytes that are not UTF-8 JSON, a
    document that is not one object, repeats a key or nests past the
    recursion limit, and one ``parse`` rejects are a ValueError naming
    ``what`` and the file."""
    path = Path(path)
    raw, digest = _read(path, what)
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_object)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return (parse(doc) if parse else doc), digest
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{what} file {path} is malformed: {exc!r}") from exc


def read_labels(path) -> LabeledCube:
    """The labels-only cube of a bundle directory: every label and no
    spectra. Checks that the directory and its three files exist, header.json,
    data.bin's size (without reading it) and labels.bin; ``digests`` holds the
    hashes of header.json and labels.bin. ``load_bundle`` completes this cube."""
    if not Path(path).is_dir():
        raise FileNotFoundError(f"bundle directory not found: {path}")
    header_path, data_path, labels_path = (Path(path) / name
                                           for name in (_HEADER_NAME, _DATA_NAME, _LABELS_NAME))
    for p in (header_path, data_path, labels_path):
        if not p.is_file():
            raise FileNotFoundError(f"bundle file missing: {p}")

    try:
        header, header_digest = read_json(header_path, "bundle header")
    except ValueError as exc:
        raise BundleFormatError(_HEADER_NAME, str(exc)) from exc

    for key, expected in _HEADER.items():
        if expected is not int:
            if header.get(key) != expected:
                raise BundleFormatError(key, f"expected {expected!r}, got {header.get(key)!r}")
        elif key not in header:
            raise BundleFormatError(key, "missing from header.json")
        elif type(header[key]) is not int or header[key] < 0:  # bool is an int subclass
            raise BundleFormatError(key, f"expected nonnegative integer, got {header[key]!r}")

    h, w, b = header["height"], header["width"], header["bands"]
    if h < 1 or w < 1 or b < 1:
        raise BundleFormatError("header.json", f"degenerate extents {(h, w, b)}")
    _check_data_size(data_path.stat().st_size, b, h, w)

    n_label_bytes = h * w * 4
    raw_labels, labels_digest = _read(labels_path, "bundle")
    if len(raw_labels) != n_label_bytes:
        raise BundleFormatError(
            "labels.bin", f"expected {n_label_bytes} bytes for {h}x{w}, got {len(raw_labels)}")
    labels = np.frombuffer(raw_labels, dtype="<i4").reshape(h, w).copy()

    digests = {str(header_path): header_digest, str(labels_path): labels_digest}
    cube = LabeledCube(labels, np.empty((b, 0)), np.empty(0, dtype=np.int64), digests)
    if cube.n_classes != header["classes"]:
        raise BundleFormatError(
            "classes", f"header says {header['classes']}, labels.bin max is {cube.n_classes}")
    return cube


def _check_data_size(size: int, b: int, h: int, w: int) -> None:
    if size != h * w * b * 8:
        raise BundleFormatError(
            "data.bin", f"expected {h * w * b * 8} bytes for {b}x{h}x{w}, got {size}")


def load_bundle(path, keep=None, labeled=None) -> LabeledCube:
    """Read a bundle directory into a LabeledCube, byte-exact, no scaling.

    Completes ``labeled``, the cube ``read_labels(path)`` returned (that read
    when None), keeping its labels array and digests; one of another bundle,
    or holding spectra, is a ValueError. Reads data.bin once, CHUNK_BYTES of
    band planes at a time, each chunk hashed and checked for finite values.
    The cube holds the pixels whose flat ids are in ``keep`` (any order,
    repeats allowed), every pixel when ``keep`` is None, and no pixel when
    it is empty. A cube of every pixel reads each chunk in place; any other
    copies its columns out of one reused buffer."""
    cube = read_labels(path) if labeled is None else labeled
    data_path = Path(path) / _DATA_NAME
    if set(cube.digests) != {str(data_path.with_name(name)) for name in
                             (_HEADER_NAME, _LABELS_NAME)} or cube.held.size:
        raise ValueError(f"expected the labels-only cube of {Path(path)}, got one of "
                         f"{cube.held.size} pixels read from {sorted(cube.digests)}")
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
    return LabeledCube(cube.labels, spectra, held,
                       {**cube.digests, str(data_path): digest.hexdigest()})


def save_bundle(cube: LabeledCube, path) -> None:
    """Write ``cube``, which must hold every pixel, as a bundle directory;
    inverse of :func:`load_bundle`. Any other cube is a ValueError."""
    if cube.held.size != cube.labels.size:
        raise ValueError("save_bundle needs a full cube, not one that holds "
                         f"{cube.held.size} of {cube.labels.size} pixels' spectra")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    header = {**_HEADER, "height": cube.height, "width": cube.width, "bands": cube.bands,
              "classes": cube.n_classes}
    (root / _HEADER_NAME).write_text(json.dumps(header, sort_keys=True), encoding="utf-8")
    (root / _DATA_NAME).write_bytes(cube.spectra.astype("<f8", copy=False))
    (root / _LABELS_NAME).write_bytes(cube.labels.astype("<i4", copy=False))


@dataclass
class Split:
    """Disjoint per-class flat-index sets for dictionary / train / test pixels."""

    ROLES = ("dictionary", "train", "test")  # not a field: it has no annotation
    dictionary_ids: dict[int, np.ndarray]
    train_ids: dict[int, np.ndarray]
    test_ids: dict[int, np.ndarray]
    seed: int

    def ids(self, role: str) -> np.ndarray:
        """The ids of ``role`` ("dictionary", "train" or "test"), concatenated
        in ascending class order (an empty int64 array when it has none); any
        other role is a ValueError."""
        if role not in self.ROLES:
            raise ValueError(f"role must be one of {self.ROLES}, got {role!r}")
        groups = getattr(self, f"{role}_ids")
        return np.concatenate([groups[c] for c in sorted(groups)] or [np.empty(0, np.int64)])

    @classmethod
    def from_json(cls, doc: dict) -> "Split":
        """The split of the document ``write_split`` writes. Every id and the
        seed must be a JSON integer: a ValueError names any other value (a
        float, even an integral one, a bool or a string) and where it sits; so
        does an id set that is not an object, or a class key such as "01" that
        would merge with "1"."""
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


# the ids write_split encodes at a time
IDS_PER_WRITE = 4096


def _decimals(ids: np.ndarray) -> bytes:
    """``ids`` in decimal, as json.dumps writes integers, joined by ", ":
    each id's sign and digits go into one row of a byte table, a column at a
    time, and one mask drops its leading zeros and the sign of an id >= 0."""
    magnitude = np.abs(ids).view(np.uint64)  # exact at -2**63 too
    width = len(str(int(magnitude.max())))
    table = np.empty((ids.size, width + 3), dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    table[:, 0], keep[:, 0] = ord("-"), ids < 0
    table[:, -2:] = np.frombuffer(b", ", dtype=np.uint8)
    keep[-1, -2:] = False
    for column in range(width, 0, -1):
        keep[:, column] = magnitude > 0
        table[:, column] = ord("0") + magnitude % 10
        magnitude //= 10
    keep[:, width] = True  # 0 is written "0"
    return table[keep].tobytes()


def write_split(split: Split, path) -> None:
    """Write ``split`` to the file ``path`` as the one-line JSON document
    ``Split.from_json`` reads: byte for byte json.dumps(doc, sort_keys=True)
    + "\n" of {"seed": seed, and per set ("dictionary_ids", "train_ids",
    "test_ids") an object mapping str(class) to that class's id list}. The ids
    are encoded class by class, IDS_PER_WRITE at a time, so no id becomes a
    Python int and the text is never held whole."""
    def id_sets(fh, groups: dict):
        for k, key in enumerate(sorted(groups, key=str)):
            fh.write(b'%s"%d": [' % (b", " if k else b"{", key))
            ids = np.asarray(groups[key], dtype=np.int64)
            for start in range(0, ids.size, IDS_PER_WRITE):
                fh.write((b", " if start else b"") + _decimals(ids[start:start + IDS_PER_WRITE]))
            fh.write(b"]")
        fh.write(b"}" if groups else b"{}")

    with open(path, "wb") as fh:
        fh.write(b'{"dictionary_ids": ')
        id_sets(fh, split.dictionary_ids)
        fh.write(b', "seed": %d, "test_ids": ' % split.seed)
        id_sets(fh, split.test_ids)
        fh.write(b', "train_ids": ')
        id_sets(fh, split.train_ids)
        fh.write(b"}\n")


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
    """A seed outside [0, 2**64), SplitMix64's state, is a ValueError:
    taken mod 2**64 it would draw another seed's split."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def make_split(cube: LabeledCube, dict_frac: float = 0.01,
               train_frac: float = 1.0 / 11.0, seed: int = 0) -> Split:
    """Partition each class's labeled pixels into dictionary / train / test.

    Per class with n labeled pixels: round(dict_frac * n) go to the dictionary
    (at least 1), round(train_frac * remainder) to train, the rest to test.
    Rounding is to the nearest integer (half up). Selection is a seeded
    Fisher-Yates shuffle of the ascending flat-index array (one SplitMix64
    stream consumed class by class in ascending class order), so the split is
    a pure function of (cube, dict_frac, train_frac, seed). The shuffle
    resolves every swap in whole-array steps (``SplitMix64.shuffle``), which
    write the per-draw loop's permutation exactly and leave the stream where
    that loop leaves it; the ids stay in numpy arrays throughout.
    """
    if not 0.0 < dict_frac < 1.0:
        raise ValueError(f"dict_frac must lie in (0, 1), got {dict_frac}")
    if not 0.0 <= train_frac < 1.0:
        raise ValueError(f"train_frac must lie in [0, 1), got {train_frac}")
    class_counts(cube)

    rng = SplitMix64(seed)
    dict_ids: dict[int, np.ndarray] = {}
    train_ids: dict[int, np.ndarray] = {}
    test_ids: dict[int, np.ndarray] = {}
    for c in range(1, cube.n_classes + 1):
        ids = np.flatnonzero(cube.labels.ravel() == c)
        n = len(ids)
        rng.shuffle(ids)
        n_dict = max(1, _round_half_up(dict_frac * n))
        n_train = _round_half_up(train_frac * (n - n_dict))
        dict_ids[c] = np.sort(ids[:n_dict])
        train_ids[c] = np.sort(ids[n_dict:n_dict + n_train])
        test_ids[c] = np.sort(ids[n_dict + n_train:])
    return Split(dictionary_ids=dict_ids, train_ids=train_ids, test_ids=test_ids, seed=seed)


# the most splits draw_splits holds at once: a draw holds 8 bytes a labeled
# pixel, about 342 KB on a Pavia-sized scene, so at most about 342 MB
RUNS_CAP = 1000


def draw_splits(cube: LabeledCube, runs: int = 5, base_seed: int = 0, dict_frac: float = 0.01,
                train_frac: float = 1.0 / 11.0) -> list:
    """``runs`` splits (make_split) with seeds base_seed..base_seed+runs-1.
    runs < 1 or above RUNS_CAP = 1000, or a last seed past 2**64 - 1, is a
    ValueError before the first draw."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if runs > RUNS_CAP:
        raise ValueError(f"runs must be at most {RUNS_CAP}, got {runs}")
    check_seed(base_seed + runs - 1)
    return [make_split(cube, dict_frac, train_frac, base_seed + r) for r in range(runs)]


def check_split(split: Split, cube: LabeledCube) -> None:
    """Raise ValueError unless ``split`` fits ``cube``: every class 1..C has
    a dictionary id, each id is filed under its labeled pixel's class, and no
    id appears twice across the dictionary, train and test sets."""
    labels = cube.labels.ravel()
    for c in range(1, cube.n_classes + 1):
        if not len(split.dictionary_ids.get(c, ())):
            raise ValueError(f"class {c} has no dictionary ids")
    for name in split.ROLES:
        for class_id, ids in getattr(split, f"{name}_ids").items():
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
    flats = [split.ids(name) for name in split.ROLES]
    ids = np.concatenate(flats)
    order = np.argsort(ids, kind="stable")  # an id's copies side by side, in set order
    ids, where = ids[order], np.repeat(split.ROLES, [len(f) for f in flats])[order]
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
    final column the integer class label. Returns (matrix bands x n, labels,
    SHA-256 hex of the bytes parsed), unscaled."""
    raw, digest = _read(Path(path), "csv")
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")),
                                 start=1):
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
    return spectra, labels, digest
