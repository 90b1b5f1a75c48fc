"""The per-draw SplitMix64 loop and split rule, and the split.json document,
that ``srckit.data``'s whole-array shuffle, ``make_split`` and
``write_split`` are tested against."""
import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class ReferenceSplitMix64:
    """The per-draw generator and Fisher-Yates loop the vectorised
    ``SplitMix64.shuffle`` must reproduce bit for bit."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1FE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def reference_split(cube, dict_frac, train_frac, seed):
    """make_split's rule with the per-draw shuffle: (dict, train, test) per class."""
    rng, parts = ReferenceSplitMix64(seed), {}
    for c in range(1, cube.n_classes + 1):
        ids = np.flatnonzero(cube.labels.ravel() == c).tolist()
        rng.shuffle(ids)
        n_dict = max(1, int(np.floor(dict_frac * len(ids) + 0.5)))
        n_train = int(np.floor(train_frac * (len(ids) - n_dict) + 0.5))
        parts[c] = (sorted(ids[:n_dict]), sorted(ids[n_dict:n_dict + n_train]),
                    sorted(ids[n_dict + n_train:]))
    return parts


def split_doc(split):
    """The document split.json holds, built through Python lists: its bytes
    are json.dumps(split_doc(split), sort_keys=True) + "\\n"."""
    return {
        "seed": split.seed,
        "dictionary_ids": {str(c): v.tolist() for c, v in split.dictionary_ids.items()},
        "train_ids": {str(c): v.tolist() for c, v in split.train_ids.items()},
        "test_ids": {str(c): v.tolist() for c, v in split.test_ids.items()},
    }
