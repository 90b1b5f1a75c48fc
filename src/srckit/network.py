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
its solve, ``GramCache.stage``, which works in the band space of the
dictionary's one SVD: two products over the block's columns, from U^T x
taken once per block, at the same cost at any rho, however often training
moves it. Each stage keeps its band-space coefficients c in the trace, and
its reverse node in ``backward`` is ``GramCache.stage_vjp`` on them, two more
products. The per-pixel calls stay the reference: ``grad_check`` runs on
them. ``train`` codes its batches in blocks of BLOCK_COLUMNS = 32 pixels;
``classify.classify_testset`` codes test sets in its own, wider blocks.
``asdn`` is the network as a solver, called as the baselines in ``solvers``
are, and keeps no trace. In a CLI eval of 635 pixels over 426 atoms with 9
stages (one BLAS thread of a 2-vCPU Xeon) its forward pass takes about
60 us a pixel at 32, 64 or 128 columns, where forward with its trace, as
train runs it, takes 65 at 32 and 100-110 at 64 or 128: so training stays
at 32 while the untraced test blocks widen. Loading only the pixels it
codes and holding one block's working memory at a time, that eval peaks at
about 43.5 MiB resident (perfbench eval-asdn).
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .solvers import SparseCode, admm_stage, check_ranges

RHO_FLOOR = 1e-6
TAU_FLOOR = 1e-6
ETA_FLOOR = 0.0
# the learnable groups, in the order params.json and grad_check list them,
# each with the floor a gradient step projects it onto
FLOORS = {"rho": RHO_FLOOR, "eta": ETA_FLOOR, "tau": TAU_FLOOR}
BLOCK_COLUMNS = 32  # train's block: forward with its trace is slower at 64-128 columns
DEFAULT_STAGES = 9
GRAD_ZERO_ATOL = 1e-12


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
        for name in FLOORS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.eta)
        if n < 1:
            raise ValueError("network needs at least one stage")
        if len(self.tau) != n or len(self.rho) != n + 1:
            raise ValueError(
                f"shape mismatch: rho has {len(self.rho)} entries, eta {n}, "
                f"tau {len(self.tau)}; want (n+1, n, n)")
        for name, floor in FLOORS.items():
            values = getattr(self, name)
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains non-finite entries")
            if (values < floor).any():
                raise ValueError(f"{name} entries must be "
                                 + (f">= {floor}" if floor else "nonnegative"))
        check_ranges(relax=self.relax)

    @property
    def n_stages(self) -> int:
        return len(self.eta)

    @classmethod
    def default(cls, n_stages: int = DEFAULT_STAGES, rho: float = 1.0, eta: float = 0.1,
                tau: float = 1.0, relax: float = 1.0) -> "NetParams":
        return cls(rho=np.full(n_stages + 1, rho), eta=np.full(n_stages, eta),
                   tau=np.full(n_stages, tau), relax=relax)

    def copy(self) -> "NetParams":
        return NetParams(**{name: getattr(self, name).copy() for name in FLOORS},
                         relax=self.relax)

    def stepped(self, learning_rate: float, grads: dict) -> "NetParams":
        """One projected gradient-descent step: p - lr * g, clamped to floors.
        ``grads`` maps each group of FLOORS to its gradient."""
        return NetParams(**{name: np.maximum(getattr(self, name) - learning_rate * grads[name],
                                             floor)
                            for name, floor in FLOORS.items()}, relax=self.relax)

    def to_json(self) -> dict:
        return {"n_stages": self.n_stages, "relax": self.relax,
                **{name: getattr(self, name).tolist() for name in FLOORS}}

    @classmethod
    def from_json(cls, doc: dict) -> "NetParams":
        """The inverse of ``to_json``. relax and every group entry must be a
        JSON number, and n_stages, which may be left out, a JSON integer: a
        ValueError names any other value (a bool or a string) and its field."""
        def number(value, where):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{where} {value!r} is not a number")
            return value

        params = cls(**{name: [number(v, f"{name} entry") for v in doc[name]]
                        for name in FLOORS}, relax=float(number(doc["relax"], "relax")))
        n_stages = doc.get("n_stages", params.n_stages)
        if type(n_stages) is not int:
            raise ValueError(f"n_stages {n_stages!r} is not an integer")
        if params.n_stages != n_stages:
            raise ValueError(f"n_stages field {n_stages} contradicts array lengths")
        return params

    def to_text(self) -> str:
        """The params.json text: ``to_json`` indented by 2, keys unsorted."""
        return json.dumps(self.to_json(), indent=2)


@dataclass
class StageTrace:
    """Cached node values from one forward pass, consumed by backward().

    Each field stacks one node's values over the stages, each entry shaped
    like the coded pixels, (n_atoms,) or (n_atoms, n): ``alpha_seq`` holds
    alpha_1..alpha_{N+1}, and ``z_seq``, ``u_seq`` and ``pre_activation_seq``
    hold z_1..z_N, u_1..u_N and v_n = alpha_n + u_{n-1}. ``c_seq`` holds each
    sparsity node's band-space coefficients c_1..c_{N+1} (``GramCache.stage``),
    (N+1, r) or (N+1, r, n) with r = min(bands, n_atoms).
    """

    alpha_seq: np.ndarray
    z_seq: np.ndarray
    u_seq: np.ndarray
    pre_activation_seq: np.ndarray
    c_seq: np.ndarray


def one_hot(labels, n_classes: int) -> np.ndarray:
    """One-hot targets for integer labels in 1..n_classes: (n_classes,) for
    one label, (n_classes, n) with one column per label for n labels."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    outside = labels[(labels < 1) | (labels > n_classes)]
    if outside.size:
        raise ValueError(f"labels outside 1..{n_classes}: {outside[0]}")
    return np.equal.outer(np.arange(1, n_classes + 1), labels).astype(np.float64)


def forward(dictionary: Dictionary, x: np.ndarray, params: NetParams,
            keep_trace: bool = True) -> tuple[SparseCode, StageTrace | None]:
    """Run the N unrolled stages plus the final sparsity node.

    ``x`` is one pixel (bands,) or a block of pixel columns (bands, n).
    Returns the output coefficients alpha_{N+1} as a SparseCode, (n_atoms,)
    or (n_atoms, n), and the full trace needed by backward(), or None with
    ``keep_trace`` False. The stages write into arrays allocated once per
    call: the trace's stacks, or without a trace one array per node, the
    stages updating z and u in place (``admm_stage`` with z' = z, u' = u),
    so four atom-space arrays hold a block's working memory at any depth.
    A non-finite pixel raises ValueError before the first stage.
    """
    if len(x) != dictionary.n_bands:
        raise ValueError(f"pixel has {len(x)} bands, dictionary {dictionary.n_bands}")
    utx = dictionary.gram_cache.project(x)
    n, shape = params.n_stages, (dictionary.n_atoms,) + np.shape(x)[1:]
    # node k writes alpha, c and v in slot k % nodes and reads z_k and u_k
    # from slot k % slots, where slot 0 holds z_0 = u_0 = 0; each slot is one
    # view object, so with one slot a stage's z' and u' are its z and u
    nodes, slots = (n + 1, n + 1) if keep_trace else (1, 1)
    alpha, v, z, u = (np.empty((count,) + shape) for count in (nodes, nodes, slots, slots))
    c = np.empty((nodes,) + utx.shape)
    z[0] = u[0] = 0.0
    zs, us = list(z), list(u)
    for k in range(n):
        i, j, s = k % slots, (k + 1) % slots, k % nodes
        admm_stage(dictionary, utx, zs[i], us[i], params.rho[k], params.relax, params.eta[k],
                   params.tau[k], out=(alpha[s], c[s], v[s], zs[j], us[j]))
    # the final node's v is scratch
    admm_stage(dictionary, utx, zs[n % slots], us[n % slots], params.rho[n], params.relax,
               out=(alpha[-1], c[-1], v[-1], None, None))
    trace = StageTrace(alpha_seq=alpha, z_seq=z[1:], u_seq=u[1:], pre_activation_seq=v[:n],
                       c_seq=c) if keep_trace else None
    return SparseCode(alpha[-1]), trace


def asdn(dictionary: Dictionary, x: np.ndarray, net: NetParams | None = None,
         n_stages: int = DEFAULT_STAGES) -> SparseCode:
    """The network as a solver: forward's code for ``x`` under ``net``, or
    without one under NetParams.default(n_stages), run without a trace."""
    check_ranges(n_stages=n_stages)
    return forward(dictionary, x, NetParams.default(n_stages) if net is None else net,
                   keep_trace=False)[0]


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


def loss(residuals: np.ndarray, y: np.ndarray):
    """Softmax cross-entropy over negated residuals and its gradient, (E, dE/dr).

    For one-hot y at class t, E = r_t + log sum_j exp(-r_j) >= 0, and
    dE/dr = y - softmax(-r): a small residual means a high class probability,
    and raising the true class's residual raises the loss. Both are shifted
    by min r for stability. One pixel's (n_classes,) residuals give E as a
    float; a block's (n_classes, n) give one E per column, and dE/dr is
    shaped like the residuals.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    low = residuals.min(axis=0)
    p = np.exp(low - residuals)
    total = p.sum(axis=0)
    p /= total
    e = (residuals * y).sum(axis=0) + (np.log(total) - low)
    return (float(e) if residuals.ndim == 1 else e), y - p


def backward(dictionary: Dictionary, x: np.ndarray, y: np.ndarray,
             params: NetParams, trace: StageTrace) -> tuple[dict, float]:
    """Analytic gradients of the loss w.r.t. every (rho, eta, tau), and the
    loss: (grads, loss), where grads maps each group of FLOORS to an array
    shaped like it in ``params``.

    ``x`` is one pixel with one-hot ``y`` (n_classes,), or a block (bands, n)
    with one-hot columns ``y`` (n_classes, n) and the trace of its forward
    pass; a block's gradients and loss are the sums over its columns.
    Reverse traversal of the stage graph, seeded by the dE/dr that ``loss``
    returns with the losses, composed with dr_i/dalpha = -D_i^T (x - D_i a_i)
    on each class block. The soft-threshold derivative is taken as 0 exactly
    at |v| = eta. Each sparsity node's reverse step is
    ``GramCache.stage_vjp`` on the c its forward stage kept, two products
    over the block. A non-finite pixel or label raises ValueError.
    """
    n = params.n_stages
    if len(trace.alpha_seq) != n + 1 or len(trace.z_seq) != n or len(trace.c_seq) != n + 1:
        raise ValueError("trace does not match params.n_stages")
    relax = params.relax
    alpha_out = trace.alpha_seq[n]
    x = np.asarray_chkfinite(x)
    y = np.asarray_chkfinite(y, dtype=np.float64)

    losses, seed = loss(class_residuals(dictionary, alpha_out, x), y)
    loss_value = float(np.sum(losses))

    g_alpha = np.zeros_like(alpha_out)
    for i in range(1, dictionary.n_classes + 1):
        sl = dictionary.class_slice(i)
        block = dictionary.atoms[:, sl]
        g_alpha[sl] = -seed[i - 1] * (block.T @ (x - block @ alpha_out[sl]))

    grads = {name: np.zeros_like(getattr(params, name)) for name in FLOORS}
    # work buffers shared by every stage: g_alpha is also through_sparsity's scratch
    g_z, g_u, g_u_prev, work = (np.empty_like(alpha_out) for _ in range(4))
    mask = np.empty(alpha_out.shape, dtype=bool)

    def through_sparsity(idx):
        """VJP through alpha_idx: dE/d(z_in, u_in) into (g_z, g_u) from g_alpha."""
        grads["rho"][idx] = relax * dictionary.gram_cache.stage_vjp(
            params.rho[idx], g_alpha, trace.c_seq[idx], out=g_z)[1]
        np.multiply(g_z, -relax, out=g_u)
        if relax != 1.0:
            np.add(np.multiply(g_z, relax, out=g_z),
                   np.multiply(g_alpha, 1.0 - relax, out=g_alpha), out=g_z)

    through_sparsity(n)

    for k in range(n - 1, -1, -1):
        # multiplier node: u_k = u_{k-1} + tau_k (alpha_k - z_k); g_u is complete
        grads["tau"][k] = float(np.vdot(g_u, np.subtract(trace.alpha_seq[k], trace.z_seq[k],
                                                         out=work)))
        np.multiply(g_u, params.tau[k], out=g_alpha)
        g_z -= g_alpha  # now the complete dE/dz_k
        # nonlinear node: z_k = soft_threshold(v_k, eta_k)
        v = trace.pre_activation_seq[k]
        np.greater(np.abs(v, out=work), params.eta[k], out=mask)
        np.multiply(np.sign(v, out=work), g_z, out=work)
        grads["eta"][k] = -float(np.multiply(work, mask, out=work).sum())
        g_v = np.multiply(g_z, mask, out=work)
        g_alpha += g_v  # complete dE/dalpha_k
        np.add(g_u, g_v, out=g_u_prev)
        # sparsity node feeding alpha_k
        through_sparsity(k)
        g_u += g_u_prev

    return grads, loss_value


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
    """backward() vs central finite differences, per parameter: each group
    of FLOORS maps to its relative errors and its zero-gradient flags."""

    rel_error: dict
    zero: dict
    max_rel_error: float
    loss_value: float


def grad_check(dictionary: Dictionary, x: np.ndarray, y: np.ndarray,
               params: NetParams, step: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients against central differences of the loss.

    Parameter pairs whose analytic and numeric gradients are both below
    GRAD_ZERO_ATOL are flagged as zero-gradient and excluded from
    ``max_rel_error`` (a relative error is meaningless there). A step that
    is not positive or would cross a FLOORS value raises ValueError.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    for name, floor in FLOORS.items():
        if (getattr(params, name) - step < floor).any():
            raise ValueError(f"step {step} would move an entry of {name} below its floor {floor}")
    _, trace = forward(dictionary, x, params)
    analytic, loss_value = backward(dictionary, x, y, params, trace)

    def loss_at(net):
        code, _ = forward(dictionary, x, net, keep_trace=False)
        return loss(class_residuals(dictionary, code, x), y)[0]

    rel_error, zero = {}, {}
    for name in FLOORS:
        grads = analytic[name]
        rel = rel_error[name] = np.zeros(len(grads))
        flags = zero[name] = np.zeros(len(grads), dtype=bool)
        for idx, g in enumerate(grads):
            plus, minus = params.copy(), params.copy()
            getattr(plus, name)[idx] += step
            getattr(minus, name)[idx] -= step
            fd = (loss_at(plus) - loss_at(minus)) / (2.0 * step)
            denom = max(abs(g), abs(fd))
            if denom < GRAD_ZERO_ATOL:
                flags[idx] = True
            else:
                rel[idx] = abs(g - fd) / denom
    live = np.concatenate([rel_error[name][~zero[name]] for name in FLOORS])
    max_rel = float(live.max()) if live.size else 0.0
    return GradCheckReport(rel_error=rel_error, zero=zero, max_rel_error=max_rel,
                           loss_value=loss_value)


def train(dictionary: Dictionary, pixels: np.ndarray, labels, *,
          learning_rate: float = 1e-2, epochs: int = 50, batch_size: int = 32,
          seed: int = 0, init: NetParams | None = None):
    """Projected minibatch gradient descent over the stage parameters, from
    ``init`` (None: NetParams.default()).

    Each step runs its minibatch through forward and backward in blocks of at
    most BLOCK_COLUMNS pixels, sums their gradients in block order (a fixed
    order, so runs are bit-reproducible), and takes one ``NetParams.stepped``
    on the mean gradient; a non-finite loss or step raises TrainingDiverged.
    Each block's trace is freed before the next block's forward, so training
    holds one trace and backward's buffers at a time. Returns (final params,
    per-epoch mean loss), deterministic given ``seed``. Each step moves rho,
    and the dictionary's gram_cache solves at any rho.
    """
    if learning_rate < 0:
        raise ValueError(f"learning_rate must be nonnegative, got {learning_rate}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    labels = np.asarray(labels, dtype=np.int64)
    n = pixels.shape[1]
    if n == 0:
        raise ValueError("no training pixels")
    if len(labels) != n:
        raise ValueError(f"{n} pixels but {len(labels)} labels")
    onehots = one_hot(labels, dictionary.n_classes)

    params = (NetParams.default() if init is None else init).copy()
    rng = np.random.default_rng(seed)
    history = np.zeros(epochs)
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            sums = {name: np.zeros_like(getattr(params, name)) for name in FLOORS}
            batch_loss = 0.0
            try:
                with np.errstate(over="raise", invalid="raise"):
                    for b in range(0, len(batch), BLOCK_COLUMNS):
                        cols = batch[b:b + BLOCK_COLUMNS]
                        x = pixels[:, cols]
                        # the trace is backward's argument alone, freed before the next forward
                        grads, block_loss = backward(dictionary, x, onehots[:, cols], params,
                                                     forward(dictionary, x, params)[1])
                        for name, total in sums.items():
                            total += grads[name]
                        batch_loss += block_loss
                    if not math.isfinite(batch_loss):
                        raise TrainingDiverged(
                            f"training loss became non-finite at epoch {epoch}")
                    scale = 1.0 / len(batch)
                    params = params.stepped(learning_rate, {name: total * scale
                                                            for name, total in sums.items()})
            except (ValueError, FloatingPointError) as exc:
                # overflow or NaN raises under errstate; a non-finite pixel
                # (GramCache.project) or step (NetParams) raises ValueError
                raise TrainingDiverged(
                    f"training loss became non-finite at epoch {epoch}: {exc}"
                ) from exc
            epoch_loss += batch_loss
        history[epoch] = epoch_loss / n
        if not math.isfinite(history[epoch]):
            raise TrainingDiverged(
                f"mean training loss became non-finite at epoch {epoch}")
    return params, history
