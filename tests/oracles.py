"""Reference kernels kept as independent oracles for the fused training
objectives, and the per-cell CPD prediction the vectorized one is checked
against.

These are the straightforward forms of the masked-CP gradient (prefix and
suffix products with an `np.add.at` scatter) and of the CoSTCo forward and
backward passes (one `np.einsum` per contraction, one `np.add.at` per
embedding matrix). They favour clarity over speed; the package computes the
same quantities with reshaped matmuls and a single `np.bincount` scatter.
"""

import numpy as np


def _check_index(index, shape) -> tuple[int, ...]:
    index = tuple(int(i) for i in index)
    if len(index) != len(shape):
        raise IndexError(f"index {index} has wrong arity for shape {shape}")
    for i, size in zip(index, shape):
        if not 0 <= i < size:
            raise IndexError(f"index {index} out of range for shape {shape}")
    return index


def predict_entry(factors, index) -> float:
    """Predicted value at one cell of a FactorSet: sum over components of
    the product of the selected factor rows."""
    index = _check_index(index, factors.shape)
    rows = np.stack([f[i] for f, i in zip(factors.factors, index)])
    return float(rows.prod(axis=0).sum())


def cpd_loss_and_grad(factors, indices, values, smooth_weight=0.0, smooth_modes=()):
    """Masked MSE plus first-difference penalty, and its gradient, for a list
    of I_m x R factor matrices."""
    n, ndim = indices.shape
    rank = factors[0].shape[1]
    rows = [f[indices[:, m]] for m, f in enumerate(factors)]

    prefix = [np.ones((n, rank))]
    for m in range(ndim):
        prefix.append(prefix[-1] * rows[m])
    suffix = [np.ones((n, rank))]
    for m in range(ndim - 1, -1, -1):
        suffix.append(suffix[-1] * rows[m])
    suffix = suffix[::-1]

    residuals = prefix[ndim].sum(axis=1) - values
    coef = (2.0 / n) * residuals
    loss = float(np.mean(residuals**2))

    grads = []
    for m, f in enumerate(factors):
        g = np.zeros_like(f)
        np.add.at(g, indices[:, m], coef[:, None] * (prefix[m] * suffix[m + 1]))
        grads.append(g)

    if smooth_weight > 0:
        for m in smooth_modes:
            diffs = np.diff(factors[m], axis=0)
            loss += smooth_weight * float(np.sum(diffs**2))
            grads[m][:-1] -= 2.0 * smooth_weight * diffs
            grads[m][1:] += 2.0 * smooth_weight * diffs
    return loss, grads


def costco_forward(bank, head, indices):
    """Predictions and the (x, z1, a1, z2, a2, z3, a3) cache, with x as
    (n, S, R, M) and z1, a1 as (n, C, R)."""
    n = indices.shape[0]
    x = np.empty((n, bank.n_groups, bank.rank, bank.n_modes))
    for s, group in enumerate(bank.groups):
        for m, emb in enumerate(group):
            x[:, s, :, m] = emb[indices[:, m]]
    z1 = np.einsum("nsrm,csm->ncr", x, head.mode_kernels) + head.mode_bias[None, :, None]
    a1 = np.maximum(z1, 0.0)
    z2 = np.einsum("ncr,dcr->nd", a1, head.rank_kernels) + head.rank_bias
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ head.dense_w.T + head.dense_b
    a3 = np.maximum(z3, 0.0)
    preds = a3 @ head.out_w + head.out_b
    return preds, (x, z1, a1, z2, a2, z3, a3)


def costco_backward(bank, head, indices, cache, dpreds):
    """Gradients of sum(dpreds * preds), embeddings group-major then the
    eight head arrays."""
    x, z1, a1, z2, a2, z3, a3 = cache
    g_out_b = np.asarray(dpreds.sum())
    g_out_w = a3.T @ dpreds
    dz3 = np.outer(dpreds, head.out_w) * (z3 > 0)
    g_dense_w = dz3.T @ a2
    g_dense_b = dz3.sum(axis=0)
    dz2 = (dz3 @ head.dense_w) * (z2 > 0)
    g_rank_k = np.einsum("nd,ncr->dcr", dz2, a1)
    g_rank_b = dz2.sum(axis=0)
    dz1 = np.einsum("nd,dcr->ncr", dz2, head.rank_kernels) * (z1 > 0)
    g_mode_k = np.einsum("ncr,nsrm->csm", dz1, x)
    g_mode_b = dz1.sum(axis=(0, 2))
    dx = np.einsum("ncr,csm->nsrm", dz1, head.mode_kernels)

    g_bank = [[np.zeros_like(e) for e in group] for group in bank.groups]
    for s in range(bank.n_groups):
        for m in range(bank.n_modes):
            np.add.at(g_bank[s][m], indices[:, m], dx[:, s, :, m])
    flat = [g for group in g_bank for g in group]
    flat += [g_mode_k, g_mode_b, g_rank_k, g_rank_b, g_dense_w, g_dense_b, g_out_w, g_out_b]
    return flat


def costco_loss_and_grad(bank, head, indices, values):
    """Masked MSE of the CoSTCo prediction and its gradient in pack order."""
    preds, cache = costco_forward(bank, head, indices)
    residuals = preds - values
    dpreds = (2.0 / len(values)) * residuals
    return float(np.mean(residuals**2)), costco_backward(bank, head, indices, cache, dpreds)
