"""Shared test oracles, independent of the implementation paths they check."""

import numpy as np

from leaklab.leakage import _plaintext_vector, channel_capacity


def capacity_oracle(kern, inputs=None, tol=1e-10):
    """Blahut-Arimoto capacity of the explicit plaintext-image ->
    (ciphertext, message) rows of ``kern``, restricted to ``inputs`` (image
    indices) when given: the slow path behind ``delta_max_mi``."""
    return channel_capacity(kern.channel_rows(inputs), tol=tol)


def delta_mi_oracle(kern, p_x):
    """I(C; X | M_A) as the per-message average of per-codeword divergences
    from the mixture kernel, on explicit [ciphertext, codeword] tables."""
    px = _plaintext_vector(kern, p_x)
    p_img = np.bincount(kern.image_of, weights=px, minlength=kern.image_count)
    sub = kern.sub_index()
    total = 0.0
    for a in range(kern.message_count):
        table = kern.key_image_posterior[a][sub]  # [c, t]
        if np.all(table == table[:, :1]):
            continue  # kernel is plaintext-independent given this message
        mix = table @ p_img
        logt = np.where(table > 0, np.log(np.maximum(table, 1e-300)), 0.0)
        logm = np.log(np.maximum(mix, 1e-300))
        kl_t = np.sum(np.where(table > 0, table * (logt - logm[:, None]), 0.0), axis=0)
        total += kern.p_message[a] * float(kl_t @ p_img)
    return total


def simplex_grid_capacity(kern, rounds=4, pts=21):
    """Dense zoom grid over the plaintext simplex; exact channel rows.

    Only for tiny blocks (the grid lives on the full q**n - 1 dimensional
    simplex).  Independent of the alternating capacity iteration: it scans
    input distributions directly and evaluates their mutual information.
    """
    total = kern.q**kern.n
    rows = np.stack(
        [(kern.gamma(x) * kern.p_message).reshape(-1) for x in range(total)]
    )
    mask = rows > 0
    logr = np.where(mask, np.log(np.maximum(rows, 1e-300)), 0.0)
    row_neg_ent = (rows * logr).sum(axis=1)

    def mi(P):
        mix = P @ rows
        logm = np.log(np.maximum(mix, 1e-300))
        cross = np.einsum("bj,xj->bx", logm, rows)
        return np.einsum("bx,bx->b", P, row_neg_ent[None, :] - cross)

    lo = np.zeros(total - 1)
    hi = np.ones(total - 1)
    best, best_p = -1.0, None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(total - 1)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        mesh = mesh.reshape(-1, total - 1)
        last = 1.0 - mesh.sum(axis=1)
        ok = last >= -1e-12
        P = np.concatenate([mesh[ok], np.clip(last[ok], 0, None)[:, None]], axis=1)
        vals = mi(P)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_p = P[i]
        step = (hi - lo).max() / (pts - 1)
        lo = np.clip(best_p[:-1] - 2.5 * step, 0.0, 1.0)
        hi = np.clip(best_p[:-1] + 2.5 * step, 0.0, 1.0)
    return best
