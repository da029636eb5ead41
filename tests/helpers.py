"""Shared test oracles, independent of the implementation paths they check."""

import itertools
import math

import numpy as np

from leaklab.crypto import EXHAUSTIVE_PAIR_CAP, StructuralReport
from leaklab.leakage import KernelCheckReport, _plaintext_vector, channel_capacity
from leaklab.probability import all_sequences, type_of


def _lex(word, q):
    out = 0
    for s in word:
        out = out * q + int(s)
    return out


def _word(index, width, q):
    out = np.empty(width, dtype=np.int64)
    for i in range(width - 1, -1, -1):
        out[i] = index % q
        index //= q
    return out


def rank_oracle(code, x):
    """Canonical rank of one sequence by the scalar type-class ranking: the
    offset of its class in ``code.type_order`` plus ``TypeClass.rank``."""
    if code.order == "lexicographic":
        return _lex(x, code.q)
    counts = type_of(x, code.q).counts
    pos = [t.counts for t in code.type_order].index(counts)
    return code.offsets[pos] + code.type_order[pos].rank(x)


def unrank_oracle(code, rank):
    """Inverse of :func:`rank_oracle`, through ``TypeClass.unrank``."""
    if code.order == "lexicographic":
        return _word(rank, code.n, code.q)
    pos = max(i for i, off in enumerate(code.offsets) if off <= rank)
    return code.type_order[pos].unrank(rank - code.offsets[pos])


def encode_oracle(code, x):
    """encode(x): the rank clamped to the last member of D, as m symbols."""
    return _word(min(rank_oracle(code, x), code.decoding_set_size - 1), code.m, code.q)


def decode_oracle(code, c):
    """decode(c): the sequence whose rank is the codeword's index."""
    return unrank_oracle(code, _lex(c, code.q))


def condition_oracle(sys):
    """First (k, x), keys then plaintexts in lexicographic order, with
    decrypt(k, encrypt(k, x)) != decode(encode(x)), by a loop over all q^n
    keys; None when the condition holds everywhere."""
    seqs = all_sequences(sys.n, sys.q)
    want = sys.code.decode(sys.code.encode(seqs))
    for k in seqs:
        bad = np.flatnonzero(np.any(sys.decrypt(k, sys.encrypt(k, seqs)) != want, axis=1))
        if bad.size:
            return k.tolist(), seqs[bad[0]].tolist()
    return None


def structural_properties_oracle(
    sys, *, max_exhaustive_pairs=EXHAUSTIVE_PAIR_CAP, sample_keys=64, seed=0
):
    """``check_structural_properties`` as a loop over every checked key on
    tables built by one scalar encode per sequence and one scalar decode
    per codeword."""
    n, m, q = sys.n, sys.m, sys.q
    report = StructuralReport()
    total_x = q**n
    seqs = all_sequences(n, q)
    radix_m = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    radix_n = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    enc_digits = np.stack([sys.code.encode(x) for x in seqs])
    dec_lex = np.array(
        [int(sys.code.decode(c) @ radix_n) for c in all_sequences(m, q)],
        dtype=np.int64,
    )
    in_d = dec_lex[enc_digits @ radix_m] == np.arange(total_x)
    d_count = int(in_d.sum())
    report.record(
        "decoding_set_size",
        d_count == q**m,
        None if d_count == q**m else {"enumerated": d_count, "expected": q**m},
    )
    exhaustive = q ** (2 * n) <= max_exhaustive_pairs
    report.mode = "exhaustive" if exhaustive else "sampled"
    if exhaustive:
        keys = seqs
    else:
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, q, size=(sample_keys, n))
    d_indices = np.flatnonzero(in_d)
    inj_ok, inj_witness = True, None
    surj_ok, surj_witness = True, None
    dset_ok, dset_witness = True, None
    for k in keys:
        cipher_digits = sys.encrypt(k, seqs)
        cipher_idx = cipher_digits @ radix_m
        if inj_ok:
            on_d = cipher_idx[d_indices]
            if np.unique(on_d).size != d_indices.size:
                inj_ok = False
                dup = np.flatnonzero(np.bincount(on_d, minlength=q**m) > 1)[0]
                pair = d_indices[np.flatnonzero(on_d == dup)[:2]]
                inj_witness = {
                    "key": k.tolist(),
                    "x": seqs[pair[0]].tolist(),
                    "y": seqs[pair[1]].tolist(),
                }
        if surj_ok and np.unique(cipher_idx).size != q**m:
            surj_ok = False
            missing = sorted(set(range(q**m)) - set(cipher_idx.tolist()))
            surj_witness = {"key": k.tolist(), "missing_codewords": missing[:4]}
        back = sys.decrypt(k, cipher_digits) @ radix_n
        ok_mask = back == np.arange(total_x)
        if dset_ok and not np.array_equal(ok_mask, in_d):
            diff = int(np.flatnonzero(ok_mask != in_d)[0])
            dset_ok = False
            dset_witness = {"key": k.tolist(), "x": seqs[diff].tolist()}
    report.record("injective_on_D", inj_ok, inj_witness)
    report.record("surjective", surj_ok, surj_witness)
    report.record("key_independent_D", dset_ok, dset_witness)
    return report


def kernel_checks_oracle(kern, in_decoding_set=None, tol=1e-10):
    """``structural_checks`` as a per-message loop over explicit
    [ciphertext, image] tables."""
    in_d = kern.in_decoding_set if in_decoding_set is None else in_decoding_set
    img_counts = np.bincount(
        kern.image_of[np.flatnonzero(in_d)], minlength=kern.image_count
    ).astype(np.float64)
    d_size = img_counts.sum()
    sub = kern.sub_index()
    worst_a = worst_u = 0.0
    wit_a = wit_u = None
    target = 1.0 / kern.image_count
    for a in range(kern.message_count):
        table = kern.key_image_posterior[a][sub]  # [c, t]
        sums = table @ img_counts
        err = np.abs(sums - 1.0)
        c = int(err.argmax())
        if err[c] > worst_a:
            worst_a, wit_a = float(err[c]), (c, a)
        err_u = np.abs(sums / d_size - target)
        c = int(err_u.argmax())
        if err_u[c] > worst_u:
            worst_u, wit_u = float(err_u[c]), (c, a)
    rows_ok = worst_a <= tol
    unif_ok = worst_u <= tol
    return KernelCheckReport(
        passed=rows_ok and unif_ok,
        row_sums_ok=rows_ok,
        row_sum_max_error=worst_a,
        row_sum_witness=None if rows_ok else wit_a,
        uniform_ok=unif_ok,
        uniform_max_error=worst_u,
        uniform_witness=None if unif_ok else wit_u,
    )


def capacity_oracle(kern, inputs=None, tol=1e-10):
    """Blahut-Arimoto capacity of the explicit plaintext-image ->
    (ciphertext, message) rows of ``kern``, restricted to ``inputs`` (image
    indices) when given: the slow path behind ``delta_max_mi``."""
    return channel_capacity(kern.channel_rows(inputs), tol=tol)


def lower_bound_oracle(sys, enc, p_kz):
    """m ln q - H(K^n | M_A), floored at zero, by a loop over every
    (k^n, z^n) pair: p(k^n, z^n) = prod_t p_KZ(k_t, z_t), and the message is
    ``enc.apply(z^n)``."""
    q, z_size = p_kz.shape
    joint = {}
    for k in itertools.product(range(q), repeat=sys.n):
        for z in itertools.product(range(z_size), repeat=sys.n):
            pr = math.prod(p_kz[kt, zt] for kt, zt in zip(k, z))
            key = (k, enc.apply(z))
            joint[key] = joint.get(key, 0.0) + pr
    p_msg = {}
    for (_, a), pr in joint.items():
        p_msg[a] = p_msg.get(a, 0.0) + pr

    def neg_entropy(probs):
        return sum(pr * math.log(pr) for pr in probs if pr > 0)

    h = neg_entropy(p_msg.values()) - neg_entropy(joint.values())
    return max(0.0, sys.m * math.log(q) - h)


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
