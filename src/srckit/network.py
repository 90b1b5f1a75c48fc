"""Unrolled ADMM network with learnable per-stage parameters.

The lasso ADMM iteration is unrolled into N stages, each a (sparsity,
nonlinear-shrinkage, multiplier) node triple with its own learnable
(rho, eta, tau), followed by one final sparsity node that produces the
output coefficient vector. Classification residuals feed a softmax
cross-entropy loss, and gradients for every stage parameter come from an
analytic reverse traversal of the stage graph (no autodiff).

Stage n (z0 = u0 = 0, M_r = D^T D + r*I):

    alpha_n = relax * M_{rho_n}^-1 (D^T x + rho_n (z_{n-1} - u_{n-1}))
              + (1 - relax) * z_{n-1}
    v_n     = alpha_n + u_{n-1}
    z_n     = soft_threshold(v_n, eta_n)
    u_n     = u_{n-1} + tau_n * (alpha_n - z_n)

Each stage is ``solvers.admm_stage``, the kernel ``admm_fixed`` repeats, so
with stage-constant parameters the network reproduces the fixed-parameter
ADMM iterates exactly; the final node is that kernel's sparsity node alone.

``forward``, ``class_residuals`` and ``backward`` take one pixel (bands,) or
a block of pixel columns (bands, n). Every stage is elementwise apart from
its solve through the dictionary's ``gram_cache``, so a block costs one solve
over all its columns per node in place of one per pixel, and that solve costs
the same at any rho, however often training moves it. The per-pixel calls
stay the reference: ``grad_check`` runs on them. ``train`` codes pixels, and
``classify.classify_testset`` codes them for every solver, in blocks of
BLOCK_COLUMNS = 32. The width is bounded by memory, because a forward pass
keeps the whole StageTrace of its block: evaluating 635 pixels over 426
atoms with 9 stages, 32 columns leave the peak resident memory where the
per-pixel loop had it (125.5 MiB), while 128 raise it by 5 %.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import Dictionary
from .solvers import SparseCode, admm_stage

RHO_FLOOR = 1e-6
TAU_FLOOR = 1e-6
ETA_FLOOR = 0.0
BLOCK_COLUMNS = 32


class TrainingDiverged(RuntimeError):
    """Raised when the mean training loss becomes non-finite."""


@dataclass
class NetParams:
    """Per-stage learnable triples plus the fixed relaxation scalar.

    ``rho`` has n_stages + 1 entries (one per sparsity node, including the
    final output node); ``eta`` and ``tau`` have n_stages entries each.
    """

    rho: np.ndarray
    eta: np.ndarray
    tau: np.ndarray
    relax: float = 1.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.eta = np.asarray(self.eta, dtype=np.float64)
        self.tau = np.asarray(self.tau, dtype=np.float64)
        n = len(self.eta)
        if n < 1:
            raise ValueError("network needs at least one stage")
        if len(self.tau) != n or len(self.rho) != n + 1:
            raise ValueError(
                f"shape mismatch: rho has {len(self.rho)} entries, eta {n}, "
                f"tau {len(self.tau)}; want (n+1, n, n)")
        for name, arr in (("rho", self.rho), ("eta", self.eta), ("tau", self.tau)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        if (self.rho < RHO_FLOOR).any():
            raise ValueError(f"rho entries must be >= {RHO_FLOOR}")
        if (self.eta < ETA_FLOOR).any():
            raise ValueError("eta entries must be nonnegative")
        if (self.tau < TAU_FLOOR).any():
            raise ValueError(f"tau entries must be >= {TAU_FLOOR}")
        if not 0.0 < self.relax <= 2.0:
            raise ValueError(f"relax must lie in (0, 2], got {self.relax}")

    @property
    def n_stages(self) -> int:
        return len(self.eta)

    @classmethod
    def default(cls, n_stages: int = 9, rho: float = 1.0, eta: float = 0.1,
                tau: float = 1.0, relax: float = 1.0) -> "NetParams":
        return cls(rho=np.full(n_stages + 1, rho), eta=np.full(n_stages, eta),
                   tau=np.full(n_stages, tau), relax=relax)

    def copy(self) -> "NetParams":
        return NetParams(rho=self.rho.copy(), eta=self.eta.copy(),
                         tau=self.tau.copy(), relax=self.relax)

    def stepped(self, learning_rate: float, grads: "ParamGrads") -> "NetParams":
        """One projected gradient-descent step: p - lr * g, clamped to floors."""
        return NetParams(
            rho=np.maximum(self.rho - learning_rate * grads.d_rho, RHO_FLOOR),
            eta=np.maximum(self.eta - learning_rate * grads.d_eta, ETA_FLOOR),
            tau=np.maximum(self.tau - learning_rate * grads.d_tau, TAU_FLOOR),
            relax=self.relax,
        )

    def to_json(self) -> dict:
        return {
            "n_stages": self.n_stages,
            "relax": self.relax,
            "rho": self.rho.tolist(),
            "eta": self.eta.tolist(),
            "tau": self.tau.tolist(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "NetParams":
        params = cls(rho=doc["rho"], eta=doc["eta"], tau=doc["tau"],
                     relax=float(doc["relax"]))
        if params.n_stages != doc.get("n_stages", params.n_stages):
            raise ValueError(
                f"n_stages field {doc['n_stages']} contradicts array lengths")
        return params

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "NetParams":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass
class StageTrace:
    """Cached node values from one forward pass, consumed by backward().

    ``alpha_seq`` holds alpha_1..alpha_{N+1}; ``z_seq`` and ``u_seq`` hold
    z_1..z_N and u_1..u_N; ``pre_activation_seq`` holds v_n = alpha_n + u_{n-1}.
    Each entry has the shape of the coded pixels: (n_atoms,) or (n_atoms, n).
    """

    alpha_seq: list
    z_seq: list
    u_seq: list
    pre_activation_seq: list


@dataclass
class ParamGrads:
    """Loss gradients for every stage parameter, plus the loss itself; for a
    block of pixels, the sums over its columns."""

    d_rho: np.ndarray
    d_eta: np.ndarray
    d_tau: np.ndarray
    loss_value: float


@dataclass
class TrainConfig:
    """Projected minibatch gradient-descent settings."""

    learning_rate: float = 1e-2
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    init: NetParams = field(default_factory=NetParams.default)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def one_hot(label: int, n_classes: int) -> np.ndarray:
    if not 1 <= label <= n_classes:
        raise ValueError(f"label {label} outside 1..{n_classes}")
    y = np.zeros(n_classes)
    y[label - 1] = 1.0
    return y


def forward(dictionary: Dictionary, x: np.ndarray,
            params: NetParams) -> tuple[SparseCode, StageTrace]:
    """Run the N unrolled stages plus the final sparsity node.

    ``x`` is one pixel (bands,) or a block of pixel columns (bands, n).
    Returns the output coefficients alpha_{N+1} as a SparseCode, (n_atoms,)
    or (n_atoms, n), whose ``support`` indexes the flattened coefficients,
    and the full trace needed by backward().
    """
    if len(x) != dictionary.n_bands:
        raise ValueError(f"pixel has {len(x)} bands, dictionary {dictionary.n_bands}")
    dtx = dictionary.atoms.T @ x
    z = np.zeros_like(dtx)
    u = np.zeros_like(dtx)
    alpha_seq, z_seq, u_seq, v_seq = [], [], [], []
    for n in range(params.n_stages):
        alpha, v, z, u = admm_stage(dictionary, dtx, z, u, params.rho[n], params.relax,
                                    params.eta[n], params.tau[n])
        alpha_seq.append(alpha)
        v_seq.append(v)
        z_seq.append(z)
        u_seq.append(u)
    alpha_seq.append(admm_stage(dictionary, dtx, z, u, params.rho[params.n_stages],
                                params.relax)[0])
    trace = StageTrace(alpha_seq=alpha_seq, z_seq=z_seq, u_seq=u_seq,
                       pre_activation_seq=v_seq)
    return SparseCode.from_dense(alpha_seq[-1]), trace


def class_residuals(dictionary: Dictionary, code, x: np.ndarray) -> np.ndarray:
    """Per-class reconstruction residuals r_i = 0.5 * ||x - D_i a_i||^2.

    For a block (x of shape (bands, n), code (n_atoms, n)) the residuals are
    (n_classes, n), one column per pixel.
    """
    coeffs = code.coeffs if isinstance(code, SparseCode) else np.asarray(code)
    if len(coeffs) != dictionary.n_atoms:
        raise ValueError(f"code length {len(coeffs)} != {dictionary.n_atoms} atoms")
    residuals = np.empty((dictionary.n_classes,) + coeffs.shape[1:])
    for i in range(1, dictionary.n_classes + 1):
        sl = dictionary.class_slice(i)
        diff = x - dictionary.atoms[:, sl] @ coeffs[sl]
        sq = diff @ diff if diff.ndim == 1 else np.einsum("ij,ij->j", diff, diff)
        residuals[i - 1] = 0.5 * sq
    return residuals


def _log_sum_exp_neg(residuals: np.ndarray) -> float:
    neg = -residuals
    shift = neg.max()
    return float(shift + math.log(np.exp(neg - shift).sum()))


def class_probabilities(residuals: np.ndarray) -> np.ndarray:
    """softmax(-residuals): small residual means high class probability.
    On (n_classes, n) residuals each column is one pixel's softmax."""
    neg = -np.asarray(residuals, dtype=np.float64)
    neg -= neg.max(axis=0)
    p = np.exp(neg)
    return p / p.sum(axis=0)


def loss(residuals: np.ndarray, y: np.ndarray) -> float:
    """Softmax cross-entropy over negated residuals: for one-hot y at class t,
    E = r_t + log sum_j exp(-r_j). Max-shifted for stability; always >= 0."""
    residuals = np.asarray(residuals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(residuals @ y) + _log_sum_exp_neg(residuals)


def backward(dictionary: Dictionary, x: np.ndarray, y: np.ndarray,
             params: NetParams, trace: StageTrace) -> ParamGrads:
    """Analytic gradients of the loss w.r.t. every (rho, eta, tau).

    ``x`` is one pixel with one-hot ``y`` (n_classes,), or a block (bands, n)
    with one-hot columns ``y`` (n_classes, n) and the trace of its forward
    pass; a block's gradients and loss are the sums over its columns.
    Reverse traversal of the stage graph. The loss seed is
    dE/dr_i = y_i - p_i with p = softmax(-r) (raising the true class's
    residual raises the loss), composed with dr_i/dalpha = -D_i^T (x - D_i a_i)
    on each class block. The soft-threshold derivative is taken as 0 exactly
    at |v| = eta.
    """
    n = params.n_stages
    if len(trace.alpha_seq) != n + 1 or len(trace.z_seq) != n:
        raise ValueError("trace does not match params.n_stages")
    relax = params.relax
    alpha_out = trace.alpha_seq[n]
    zeros = np.zeros_like(alpha_out)

    residuals = class_residuals(dictionary, alpha_out, x)
    y = np.asarray(y, dtype=np.float64)
    c = dictionary.n_classes
    # per-pixel losses summed in column order: a one-column block is bit-equal
    loss_value = sum(loss(r, t) for r, t in zip(residuals.reshape(c, -1).T,
                                                y.reshape(c, -1).T))
    seed = y - class_probabilities(residuals)

    g_alpha = np.zeros_like(alpha_out)
    for i in range(1, dictionary.n_classes + 1):
        sl = dictionary.class_slice(i)
        block = dictionary.atoms[:, sl]
        g_alpha[sl] = -seed[i - 1] * (block.T @ (x - block @ alpha_out[sl]))

    d_rho = np.zeros(n + 1)
    d_eta = np.zeros(n)
    d_tau = np.zeros(n)

    def through_sparsity(idx, g_a, z_in, u_in, alpha_n):
        """VJP through alpha_idx; returns gradients w.r.t. (z_in, u_in)."""
        rho = params.rho[idx]
        h = dictionary.gram_cache.solve(rho, g_a)
        # w2 = M^-1 (D^T x + rho (z_in - u_in)), recovered from the trace
        w2 = (alpha_n - (1.0 - relax) * z_in) / relax
        d_rho[idx] = relax * float(np.vdot(h, (z_in - u_in) - w2))
        g_z_in = relax * rho * h + (1.0 - relax) * g_a
        g_u_in = -relax * rho * h
        return g_z_in, g_u_in

    z_in = trace.z_seq[n - 1]
    u_in = trace.u_seq[n - 1]
    g_z, g_u = through_sparsity(n, g_alpha, z_in, u_in, alpha_out)

    for k in range(n - 1, -1, -1):
        # multiplier node: u_k = u_{k-1} + tau_k (alpha_k - z_k); g_u is complete
        d_tau[k] = float(np.vdot(g_u, trace.alpha_seq[k] - trace.z_seq[k]))
        g_alpha_k = params.tau[k] * g_u
        g_z = g_z - params.tau[k] * g_u  # now the complete dE/dz_k
        g_u_prev = g_u
        # nonlinear node: z_k = soft_threshold(v_k, eta_k)
        v = trace.pre_activation_seq[k]
        mask = (np.abs(v) > params.eta[k]).astype(np.float64)
        d_eta[k] = -float((g_z * np.sign(v) * mask).sum())
        g_v = g_z * mask
        g_alpha_k = g_alpha_k + g_v  # complete dE/dalpha_k
        g_u_prev = g_u_prev + g_v
        # sparsity node feeding alpha_k
        z_in = trace.z_seq[k - 1] if k > 0 else zeros
        u_in = trace.u_seq[k - 1] if k > 0 else zeros
        g_z, g_u = through_sparsity(k, g_alpha_k, z_in, u_in, trace.alpha_seq[k])
        g_u = g_u + g_u_prev

    return ParamGrads(d_rho=d_rho, d_eta=d_eta, d_tau=d_tau, loss_value=loss_value)


def pixel_loss(dictionary: Dictionary, x: np.ndarray, y: np.ndarray,
               params: NetParams) -> float:
    code, _ = forward(dictionary, x, params)
    return loss(class_residuals(dictionary, code, x), y)


def mean_loss(dictionary: Dictionary, pixels: np.ndarray, labels,
              params: NetParams) -> float:
    """Mean per-pixel loss of the network at fixed parameters."""
    c = dictionary.n_classes
    return sum(pixel_loss(dictionary, pixels[:, j], one_hot(int(label), c), params)
               for j, label in enumerate(labels)) / len(labels)


def kink_margin(trace: StageTrace, params: NetParams) -> float:
    """Smallest distance of any pre-activation entry to its stage threshold.

    Finite-difference gradient checks are only meaningful when this margin
    comfortably exceeds the difference step.
    """
    margins = [np.abs(np.abs(v) - params.eta[k]).min()
               for k, v in enumerate(trace.pre_activation_seq)]
    return float(min(margins))


@dataclass
class GradCheckReport:
    """backward() vs central finite differences, per parameter."""

    rho_rel_error: np.ndarray
    eta_rel_error: np.ndarray
    tau_rel_error: np.ndarray
    rho_zero: np.ndarray
    eta_zero: np.ndarray
    tau_zero: np.ndarray
    max_rel_error: float
    loss_value: float

    @property
    def all_zero_gradients(self) -> bool:
        return bool(self.rho_zero.all() and self.eta_zero.all() and self.tau_zero.all())


def grad_check(dictionary: Dictionary, x: np.ndarray, y: np.ndarray,
               params: NetParams, step: float = 1e-6,
               zero_atol: float = 1e-12) -> GradCheckReport:
    """Compare analytic gradients against central differences of the loss.

    Parameter pairs whose analytic and numeric gradients are both below
    ``zero_atol`` are flagged as zero-gradient and excluded from
    ``max_rel_error`` (a relative error is meaningless there).
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    _, trace = forward(dictionary, x, params)
    analytic = backward(dictionary, x, y, params, trace)

    def numeric(kind, idx):
        plus = params.copy()
        minus = params.copy()
        getattr(plus, kind)[idx] += step
        getattr(minus, kind)[idx] -= step
        e_plus = pixel_loss(dictionary, x, y, plus)
        e_minus = pixel_loss(dictionary, x, y, minus)
        return (e_plus - e_minus) / (2.0 * step)

    def compare(kind, grads):
        rel = np.zeros(len(grads))
        zero = np.zeros(len(grads), dtype=bool)
        for idx, g in enumerate(grads):
            fd = numeric(kind, idx)
            denom = max(abs(g), abs(fd))
            if denom < zero_atol:
                zero[idx] = True
            else:
                rel[idx] = abs(g - fd) / denom
        return rel, zero

    rho_rel, rho_zero = compare("rho", analytic.d_rho)
    eta_rel, eta_zero = compare("eta", analytic.d_eta)
    tau_rel, tau_zero = compare("tau", analytic.d_tau)
    live = np.concatenate([rho_rel[~rho_zero], eta_rel[~eta_zero], tau_rel[~tau_zero]])
    max_rel = float(live.max()) if live.size else 0.0
    return GradCheckReport(
        rho_rel_error=rho_rel, eta_rel_error=eta_rel, tau_rel_error=tau_rel,
        rho_zero=rho_zero, eta_zero=eta_zero, tau_zero=tau_zero,
        max_rel_error=max_rel, loss_value=analytic.loss_value)


def train(dictionary: Dictionary, pixels: np.ndarray, labels, cfg: TrainConfig):
    """Projected minibatch gradient descent over the stage parameters.

    Each step runs its minibatch through forward and backward in blocks of at
    most BLOCK_COLUMNS pixels, sums their gradients in block order (a fixed
    order, so runs are bit-reproducible), applies params <- params - lr *
    mean grad, and projects onto the parameter floors. Returns (final params,
    per-epoch mean loss). Deterministic given cfg.seed. Each step moves rho;
    the dictionary's gram_cache solves at any rho, so nothing is rebuilt.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = pixels.shape[1]
    if n == 0:
        raise ValueError("no training pixels")
    if len(labels) != n:
        raise ValueError(f"{n} pixels but {len(labels)} labels")
    c = dictionary.n_classes
    if labels.min() < 1 or labels.max() > c:
        raise ValueError(f"labels outside 1..{c}")
    onehots = np.zeros((c, n))
    onehots[labels - 1, np.arange(n)] = 1.0

    params = cfg.init.copy()
    rng = np.random.default_rng(cfg.seed)
    history = np.zeros(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            d_rho = np.zeros_like(params.rho)
            d_eta = np.zeros_like(params.eta)
            d_tau = np.zeros_like(params.tau)
            batch_loss = 0.0
            try:
                with np.errstate(over="raise", invalid="raise"):
                    for b in range(0, len(batch), BLOCK_COLUMNS):
                        cols = batch[b:b + BLOCK_COLUMNS]
                        x = pixels[:, cols]
                        _, trace = forward(dictionary, x, params)
                        g = backward(dictionary, x, onehots[:, cols], params, trace)
                        d_rho += g.d_rho
                        d_eta += g.d_eta
                        d_tau += g.d_tau
                        batch_loss += g.loss_value
            except (ValueError, FloatingPointError) as exc:
                # overflow or NaN raises under errstate; non-finite values
                # that reach a solve surface as its input check's ValueError
                raise TrainingDiverged(
                    f"training loss became non-finite at epoch {epoch}: {exc}"
                ) from exc
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"training loss became non-finite at epoch {epoch}")
            epoch_loss += batch_loss
            scale = 1.0 / len(batch)
            mean_grads = ParamGrads(d_rho * scale, d_eta * scale, d_tau * scale, 0.0)
            params = params.stepped(cfg.learning_rate, mean_grads)
        history[epoch] = epoch_loss / n
        if not math.isfinite(history[epoch]):
            raise TrainingDiverged(
                f"mean training loss became non-finite at epoch {epoch}")
    return params, history
