"""Independent reference path for the benchmark's correctness check.

Nothing here imports srckit: the split, the dictionary, the solvers, the
network and its training loop are re-derived from their documented
definitions in batched numpy, so a change to the program cannot also move
its own reference. Batching reorders floating-point sums, so every
comparison has a stated tolerance instead of requiring equal bits:

* Predictions must equal the reference on every pixel except near ties,
  where the reference's two smallest class residuals differ by less than
  ``TIE`` relative to the second one. Coefficients agree to about 1e-13 in
  practice; ``TIE`` is loose enough for FISTA's stopping test to fire one
  step apart and still far below the gaps of real decisions.
* Sweep statistics must match to ``AGG_TOL``, widened by
  ``4 / (smallest test class)`` for every near tie in that grid value's draws.
* Trained parameters and per-epoch losses must match to relative ``TRAIN_RTOL``.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from bundle import round_half_up

TIE = 1e-4
AGG_TOL = 1e-9
TRAIN_RTOL = 1e-8
_MASK64 = (1 << 64) - 1
_RHO_FLOOR, _ETA_FLOOR, _TAU_FLOOR = 1e-6, 0.0, 1e-6


def make_split(labels_flat: np.ndarray, dict_frac: float, train_frac: float, seed: int):
    """Per class: SplitMix64 Fisher-Yates over the ascending ids (one stream,
    classes in ascending order), then dictionary / train / test by rounded
    fractions. Returns {"dictionary", "train", "test"} -> list of sorted id
    arrays, one per class."""
    state = seed & _MASK64
    out = {"dictionary": [], "train": [], "test": []}
    for c in range(1, int(labels_flat.max()) + 1):
        ids = np.flatnonzero(labels_flat == c).tolist()
        for i in range(len(ids) - 1, 0, -1):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1FE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            j = (z ^ (z >> 31)) % (i + 1)
            ids[i], ids[j] = ids[j], ids[i]
        n = len(ids)
        n_dict = max(1, round_half_up(dict_frac * n))
        n_train = round_half_up(train_frac * (n - n_dict))
        out["dictionary"].append(np.sort(ids[:n_dict]))
        out["train"].append(np.sort(ids[n_dict:n_dict + n_train]))
        out["test"].append(np.sort(ids[n_dict + n_train:]))
    return out


def pixels(data: np.ndarray, labels: np.ndarray, groups):
    """Unit-norm spectra (bands, n) and labels for the concatenated id groups."""
    ids = np.concatenate(groups)
    spectra = data.reshape(-1, data.shape[2])[ids].T.copy()
    spectra /= np.linalg.norm(spectra, axis=0)
    return spectra, labels.ravel()[ids].astype(np.int64)


class Problem:
    """Dictionary atoms with class block offsets, and its Gram matrix."""

    def __init__(self, atoms: np.ndarray, atom_labels: np.ndarray):
        self.atoms = atoms
        counts = np.bincount(atom_labels)[1:]
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.gram = atoms.T @ atoms
        self._factors = {}

    @property
    def n_classes(self) -> int:
        return len(self.offsets) - 1

    def blocks(self):
        for i in range(self.n_classes):
            yield i, slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def solve(self, rho: float, rhs: np.ndarray) -> np.ndarray:
        """(G + rho I)^-1 rhs with one refinement round."""
        factor = self._factors.get(rho)
        if factor is None:
            factor = cho_factor(self.gram + rho * np.eye(len(self.gram)))
            self._factors[rho] = factor
        w = cho_solve(factor, rhs)
        return w + cho_solve(factor, rhs - (self.gram @ w + rho * w))

    def clear(self) -> None:
        self._factors.clear()

    def residuals(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(classes, n): 0.5 * ||x - D_i a_i||^2 per class block."""
        out = np.empty((self.n_classes, x.shape[1]))
        for i, sl in self.blocks():
            diff = x - self.atoms[:, sl] @ coeffs[sl]
            out[i] = 0.5 * np.einsum("ij,ij->j", diff, diff)
        return out


def decide(residuals: np.ndarray):
    """(labels 1..C, relative gap between the two smallest residuals)."""
    pred = np.argmin(residuals, axis=0) + 1
    two = np.sort(residuals, axis=0)[:2]
    gap = (two[1] - two[0]) / np.maximum(two[1], np.finfo(float).tiny)
    return pred, gap


def metrics(pred: np.ndarray, truth: np.ndarray, n_classes: int):
    """(OA, AA, kappa) from the confusion matrix, rows = truth."""
    confusion = np.zeros((n_classes, n_classes))
    np.add.at(confusion, (truth - 1, pred - 1), 1)
    total = confusion.sum()
    rows, cols = confusion.sum(axis=1), confusion.sum(axis=0)
    per_class = np.zeros(n_classes)
    per_class[rows > 0] = np.diag(confusion)[rows > 0] / rows[rows > 0]
    oa = np.trace(confusion) / total
    aa = per_class.mean()
    p_e = (rows * cols).sum() / total ** 2
    kappa = 1.0 if p_e >= 1.0 else (oa - p_e) / (1.0 - p_e)
    return float(oa), float(aa), float(kappa)


def soft(v, eta):
    return np.sign(v) * np.maximum(np.abs(v) - eta, 0.0)


def omp(p: Problem, x: np.ndarray, k: int, tol: float = 1e-10) -> np.ndarray:
    """OMP for every column at once: pick the largest |correlation| (lowest
    index on ties, above 1e-12 ||x||), refit least squares on the support."""
    m, n = p.atoms.shape[1], x.shape[1]
    dtx = p.atoms.T @ x
    floor = 1e-12 * np.linalg.norm(x, axis=0)
    support = np.zeros((n, k), dtype=np.int64)
    coeffs = np.zeros((m, n))
    residual = x.copy()
    active = np.ones(n, dtype=bool)
    for step in range(k):
        active &= np.linalg.norm(residual, axis=0) > tol
        mags = np.abs(p.atoms.T @ residual)
        cols = np.flatnonzero(active)
        for s in range(step):
            mags[support[cols, s], cols] = -1.0
        pick = np.argmax(mags, axis=0)
        active &= mags[pick, np.arange(n)] > floor
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        support[idx, step] = pick[idx]
        sup = support[idx, :step + 1]
        sub_gram = p.gram[sup[:, :, None], sup[:, None, :]]
        coef = np.linalg.solve(sub_gram, dtx[sup, idx[:, None]][:, :, None])[:, :, 0]
        coeffs[:, idx] = 0.0
        coeffs[sup, idx[:, None]] = coef
        residual[:, idx] = x[:, idx] - np.einsum("bns,ns->bn", p.atoms[:, sup], coef)
    return coeffs


def asdn_forward(p: Problem, x: np.ndarray, params: dict):
    """Unrolled ADMM stages for every column; returns (alpha_out, trace)."""
    rho, eta, tau = (np.asarray(params[k], dtype=float) for k in ("rho", "eta", "tau"))
    relax = float(params["relax"])
    dtx = p.atoms.T @ x
    z = np.zeros_like(dtx)
    u = np.zeros_like(dtx)
    trace = {"alpha": [], "z": [], "u": [], "v": []}
    for n in range(len(eta)):
        alpha = relax * p.solve(rho[n], dtx + rho[n] * (z - u)) + (1.0 - relax) * z
        v = alpha + u
        z = soft(v, eta[n])
        u = u + tau[n] * (alpha - z)
        for key, val in (("alpha", alpha), ("z", z), ("u", u), ("v", v)):
            trace[key].append(val)
    alpha = relax * p.solve(rho[-1], dtx + rho[-1] * (z - u)) + (1.0 - relax) * z
    trace["alpha"].append(alpha)
    return alpha, trace


def _grads(p: Problem, x: np.ndarray, y: np.ndarray, params: dict):
    """Per-pixel loss and (d_rho, d_eta, d_tau) columns by reverse traversal."""
    rho, eta, tau = (np.asarray(params[k], dtype=float) for k in ("rho", "eta", "tau"))
    relax = float(params["relax"])
    n = len(eta)
    alpha_out, tr = asdn_forward(p, x, params)
    r = p.residuals(alpha_out, x)
    neg = -r
    shift = neg.max(axis=0)
    lse = shift + np.log(np.exp(neg - shift).sum(axis=0))
    loss = (r * y).sum(axis=0) + lse
    prob = np.exp(neg - shift)
    prob /= prob.sum(axis=0)
    seed = y - prob
    g_alpha = np.zeros_like(alpha_out)
    for i, sl in p.blocks():
        block = p.atoms[:, sl]
        g_alpha[sl] = -seed[i] * (block.T @ (x - block @ alpha_out[sl]))

    cols = x.shape[1]
    d_rho, d_eta, d_tau = np.zeros((n + 1, cols)), np.zeros((n, cols)), np.zeros((n, cols))
    zeros = np.zeros_like(alpha_out)

    def through(idx, g_a, z_in, u_in, alpha_n):
        h = p.solve(rho[idx], g_a)
        w2 = (alpha_n - (1.0 - relax) * z_in) / relax
        d_rho[idx] = relax * (h * ((z_in - u_in) - w2)).sum(axis=0)
        return relax * rho[idx] * h + (1.0 - relax) * g_a, -relax * rho[idx] * h

    g_z, g_u = through(n, g_alpha, tr["z"][n - 1], tr["u"][n - 1], alpha_out)
    for k in range(n - 1, -1, -1):
        d_tau[k] = (g_u * (tr["alpha"][k] - tr["z"][k])).sum(axis=0)
        g_alpha_k = tau[k] * g_u
        g_z = g_z - tau[k] * g_u
        g_u_prev = g_u
        v = tr["v"][k]
        mask = (np.abs(v) > eta[k]).astype(float)
        d_eta[k] = -(g_z * np.sign(v) * mask).sum(axis=0)
        g_v = g_z * mask
        g_alpha_k = g_alpha_k + g_v
        g_u_prev = g_u_prev + g_v
        z_in = tr["z"][k - 1] if k > 0 else zeros
        u_in = tr["u"][k - 1] if k > 0 else zeros
        g_z, g_u = through(k, g_alpha_k, z_in, u_in, tr["alpha"][k])
        g_u = g_u + g_u_prev
    return loss, d_rho, d_eta, d_tau


def train(p: Problem, x: np.ndarray, labels: np.ndarray, stages: int, epochs: int,
          batch_size: int, seed: int, learning_rate: float = 1e-2,
          init=(1.0, 0.1, 1.0)):
    """Projected minibatch gradient descent; returns (params dict, history)."""
    rho0, eta0, tau0 = init
    params = {"rho": np.full(stages + 1, rho0), "eta": np.full(stages, eta0),
              "tau": np.full(stages, tau0), "relax": 1.0}
    y = np.zeros((p.n_classes, x.shape[1]))
    y[labels - 1, np.arange(x.shape[1])] = 1.0
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[1])
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, d_rho, d_eta, d_tau = _grads(p, x[:, batch], y[:, batch], params)
            for value in loss:
                epoch_loss += float(value)
            step = learning_rate / len(batch)
            params = {
                "rho": np.maximum(params["rho"] - step * d_rho.sum(axis=1), _RHO_FLOOR),
                "eta": np.maximum(params["eta"] - step * d_eta.sum(axis=1), _ETA_FLOOR),
                "tau": np.maximum(params["tau"] - step * d_tau.sum(axis=1), _TAU_FLOOR),
                "relax": 1.0,
            }
            p.clear()
        history.append(epoch_loss / x.shape[1])
    return params, np.asarray(history)


def fista(p: Problem, x: np.ndarray, lam: np.ndarray, max_iters: int = 1000,
          tol: float = 1e-8) -> np.ndarray:
    """FISTA with function-value restart for every column (``lam`` per column).

    Step 1/L with L from 100 power iterations on D^T D started at
    1 + 0.001 * arange(m); a column stops when its objective moves by at most
    tol * max(1, previous) or when even a plain proximal step cannot lower it.
    """
    atoms = p.atoms
    m, n = atoms.shape[1], x.shape[1]
    v = 1.0 + 0.001 * np.arange(m)
    v /= np.linalg.norm(v)
    lipschitz = 0.0
    for _ in range(100):
        w = atoms.T @ (atoms @ v)
        lipschitz = np.linalg.norm(w)
        v = w / lipschitz
    step = 1.0 / lipschitz

    def objective(a, cols):
        r = x[:, cols] - atoms @ a
        return 0.5 * np.einsum("ij,ij->j", r, r) + lam[cols] * np.abs(a).sum(axis=0)

    def prox(point, cols):
        grad = atoms.T @ (atoms @ point - x[:, cols])
        return soft(point - step * grad, lam[cols] * step)

    alpha = np.zeros((m, n))
    y = np.zeros((m, n))
    t = np.ones(n)
    obj_prev = objective(alpha, np.arange(n))
    active = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        cand = prox(y[:, idx], idx)
        obj = objective(cand, idx)
        worse = obj > obj_prev[idx]
        stuck = np.zeros(idx.size, dtype=bool)
        if worse.any():
            w_idx = idx[worse]
            t[w_idx] = 1.0
            cand[:, worse] = prox(alpha[:, w_idx], w_idx)
            obj[worse] = objective(cand[:, worse], w_idx)
            stuck[worse] = obj[worse] > obj_prev[w_idx]
            active[idx[stuck]] = False
        go = ~stuck
        g = idx[go]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t[g] ** 2))
        y[:, g] = cand[:, go] + ((t[g] - 1.0) / t_next) * (cand[:, go] - alpha[:, g])
        alpha[:, g] = cand[:, go]
        t[g] = t_next
        done = np.abs(obj[go] - obj_prev[g]) <= tol * np.maximum(1.0, obj_prev[g])
        obj_prev[g] = obj[go]
        active[g[done]] = False
    return alpha


def check_predictions(pred: np.ndarray, ref_pred: np.ndarray, gap: np.ndarray):
    """(ok, message): ``pred`` equals ``ref_pred`` wherever the reference gap
    is at least ``TIE``."""
    pred = np.asarray(pred)
    if pred.shape != ref_pred.shape:
        return False, f"{pred.shape} predictions, reference has {ref_pred.shape}"
    wrong = (pred != ref_pred) & (gap >= TIE)
    if wrong.any():
        j = int(np.flatnonzero(wrong)[0])
        return False, (f"{int(wrong.sum())} predictions differ from the reference, "
                       f"first at test pixel {j}: {int(pred[j])} vs {int(ref_pred[j])} "
                       f"(gap {gap[j]:.3g})")
    return True, f"predictions match ({int(((pred != ref_pred)).sum())} near-tie differences)"


def check_close(name: str, got, want, rtol: float, atol: float = 0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False, f"{name}: shape {got.shape} vs reference {want.shape}"
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if (err > limit).any():
        j = int(np.argmax(err - limit))
        return False, f"{name}: {got.flat[j]!r} vs reference {want.flat[j]!r}"
    return True, f"{name}: max abs difference {float(err.max(initial=0.0)):.3g}"
