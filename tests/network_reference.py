"""The solve-based ADMM stage and its backward pass: the reference the
band-space stage in ``srckit.solvers.admm_stage`` and ``srckit.network``'s
``forward`` and ``backward`` are tested against.

Each sparsity node applies (D^T D + rho I)^-1 through the general
``GramCache.solve`` (six products and a refinement round) to the
right-hand side D^T x + rho (z - u), and its reverse node solves the
gradient the same way, recovering the forward solve from the trace.

The reference keeps every node of every stage in a ``StageRecord``;
``stage_record`` rebuilds one from the trace ``srckit.network.forward``
keeps, and ``stacked_forward`` traces as that forward once did, with z and
u in slots of their own. ``train`` is plain projected SGD over this
module's per-pixel ``forward`` and ``backward``, the oracle for
``srckit.network.train``.
"""
from dataclasses import dataclass

import numpy as np

from srckit import network, solvers
from srckit.network import FLOORS, NetParams, StageTrace, class_residuals, loss, one_hot
from srckit.solvers import SparseCode, soft_threshold


@dataclass
class StageRecord:
    """Every node value of one forward pass, one list entry per stage:
    alpha_1..alpha_{N+1}, and z_n, u_n and v_n = alpha_n + u_{n-1} for
    n = 1..N."""

    alpha_seq: list
    z_seq: list
    u_seq: list
    pre_activation_seq: list


def stage_record(trace, params) -> StageRecord:
    """The StageRecord of a ``srckit.network.forward`` trace: z_n is
    soft_threshold(v_n, eta_n) and u_n = u_{n-1} + (alpha_n - z_n) * tau_n
    from u_0 = 0, in ``solvers.admm_stage``'s ufunc order, so each is
    forward's iterate byte for byte."""
    z_seq, u_seq = [], []
    u = np.zeros_like(trace.alpha_seq[0])
    for k, v in enumerate(trace.pre_activation_seq):
        z_seq.append(soft_threshold(v, params.eta[k]))
        u = u + (trace.alpha_seq[k] - z_seq[-1]) * params.tau[k]
        u_seq.append(u)
    return StageRecord(alpha_seq=list(trace.alpha_seq), z_seq=z_seq, u_seq=u_seq,
                       pre_activation_seq=list(trace.pre_activation_seq))


def stacked_forward(dictionary, x, params):
    """``srckit.network.forward`` as it traced when its trace stacked z and
    u too: every stage writes z_n and u_n into slots of their own. Returns
    (SparseCode, StageTrace, z), with z the (N+1)-stack z_0..z_N."""
    utx = dictionary.gram_cache.project(x)
    n, shape = params.n_stages, (dictionary.n_atoms,) + np.shape(x)[1:]
    alpha, v, z, u = (np.empty((n + 1,) + shape) for _ in range(4))
    c = np.empty((n + 1,) + utx.shape)
    z[0] = u[0] = 0.0
    for k in range(n):
        solvers.admm_stage(dictionary, utx, z[k], u[k], params.rho[k], params.relax,
                           params.eta[k], params.tau[k],
                           out=(alpha[k], c[k], v[k], z[k + 1], u[k + 1]))
    solvers.admm_stage(dictionary, utx, z[n], u[n], params.rho[n], params.relax,
                       out=(alpha[n], c[n], v[n], None, None))
    return (SparseCode(alpha[n]), StageTrace(alpha_seq=alpha, pre_activation_seq=v[:n], c_seq=c),
            z)


def admm_stage(dictionary, dtx, z, u, rho, relax, eta=None, tau=None):
    """One scaled-form ADMM lasso stage; returns (alpha, v, z', u'):

        alpha = relax * (D^T D + rho I)^-1 (D^T x + rho (z - u)) + (1 - relax) * z
        v = alpha + u,   z' = soft_threshold(v, eta),   u' = u + tau * (alpha - z')

    With ``eta`` and ``tau`` None only alpha is computed (the network's final node).
    """
    alpha = relax * dictionary.gram_cache.solve(rho, dtx + rho * (z - u)) + (1.0 - relax) * z
    if eta is None:
        return alpha, None, None, None
    v = alpha + u
    z_next = soft_threshold(v, eta)
    return alpha, v, z_next, u + tau * (alpha - z_next)


def forward(dictionary, x, params):
    """The N unrolled stages plus the final sparsity node, each through
    ``admm_stage``; returns (SparseCode, StageRecord)."""
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
    record = StageRecord(alpha_seq=alpha_seq, z_seq=z_seq, u_seq=u_seq,
                         pre_activation_seq=v_seq)
    return SparseCode(alpha_seq[-1]), record


def backward(dictionary, x, y, params, trace):
    """Analytic gradients of the loss w.r.t. every (rho, eta, tau).

    ``x`` is one pixel with one-hot ``y`` (n_classes,), or a block (bands, n)
    with one-hot columns ``y`` (n_classes, n) and the StageRecord of its
    forward pass (``forward``'s, or ``stage_record`` of a trace); a block's
    gradients and loss are the sums over its columns.
    Reverse traversal of the stage graph. The loss and its seed
    dE/dr_i = y_i - p_i with p = softmax(-r) come from ``srckit.network.loss``,
    the seed composed with dr_i/dalpha = -D_i^T (x - D_i a_i)
    on each class block. The soft-threshold derivative is taken as 0 exactly
    at |v| = eta. Each sparsity node's reverse step solves the gradient
    through ``GramCache.solve`` and recovers its forward solve from alpha.
    """
    n = params.n_stages
    if len(trace.alpha_seq) != n + 1 or len(trace.z_seq) != n:
        raise ValueError("trace does not match params.n_stages")
    relax = params.relax
    alpha_out = trace.alpha_seq[n]
    zeros = np.zeros_like(alpha_out)

    losses, seed = loss(class_residuals(dictionary, alpha_out, x), y)
    loss_value = float(np.sum(losses))

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

    return {"rho": d_rho, "eta": d_eta, "tau": d_tau}, loss_value


def mean_loss(dictionary, pixels, labels, params) -> float:
    """Mean per-pixel loss of ``srckit.network.forward`` (not this module's
    ``forward``) at fixed parameters, over the (bands, n) ``pixels`` coded as
    one block."""
    code, _ = network.forward(dictionary, pixels, params, keep_trace=False)
    losses, _ = loss(class_residuals(dictionary, code, pixels),
                     one_hot(labels, dictionary.n_classes))
    return float(losses.mean())


def train(dictionary, pixels, labels, *, learning_rate, epochs, batch_size, seed, init):
    """Projected minibatch SGD over every (rho, eta, tau), one pixel at a
    time. Each epoch's order is ``np.random.default_rng(seed).permutation``
    of the pixels, one generator for the run; each batch of that order takes
    one step on the mean of its pixels' gradients (over the batch's own
    size, a short last batch included), each group clamped to its floor.
    Returns (params, each epoch's mean loss at the parameters of the step
    its pixel fed)."""
    params, rng = init.copy(), np.random.default_rng(seed)
    targets, n = one_hot(labels, dictionary.n_classes), pixels.shape[1]
    mean_losses = []
    for _ in range(epochs):
        order, epoch_loss = rng.permutation(n), 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            sums = {name: np.zeros_like(getattr(params, name)) for name in FLOORS}
            for j in batch:
                _, record = forward(dictionary, pixels[:, j], params)
                grads, value = backward(dictionary, pixels[:, j], targets[:, j], params, record)
                for name in FLOORS:
                    sums[name] += grads[name]
                epoch_loss += value
            params = NetParams(**{name: np.maximum(getattr(params, name)
                                                   - learning_rate * sums[name] / len(batch),
                                                   floor)
                                  for name, floor in FLOORS.items()}, relax=params.relax)
        mean_losses.append(epoch_loss / n)
    return params, np.array(mean_losses)
