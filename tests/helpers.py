"""Shared test oracles, independent of the implementation paths they check."""

import itertools
import math

import numpy as np

from leaklab.crypto import EXHAUSTIVE_PAIR_CAP, StructuralReport
from leaklab.leakage import KernelCheckReport, _plaintext_vector, channel_capacity
from leaklab.probability import all_sequences, type_of
from leaklab.simplexopt import (
    ADAM_LR,
    DENSE_3D_ZOOM_POINTS,
    DENSE_3D_ZOOM_ROUNDS,
    DENSE_BASINS,
    DENSE_ROUNDS,
    _GOLDEN,
    _initial_logits,
)

TINY = np.finfo(np.float64).tiny


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


def golden_polish_oracle(f1, x, width, sweeps=2, tol=1e-7):
    """Cyclic per-coordinate golden-section around x, one point per call of
    ``f1``: the sequential polish behind the array one."""
    x = x.copy()
    fx = f1(x)
    for _ in range(sweeps):
        for d in range(x.shape[0]):
            a = max(0.0, x[d] - width)
            b = min(1.0, x[d] + width)
            c = b - _GOLDEN * (b - a)
            e = a + _GOLDEN * (b - a)
            xc = x.copy()
            xc[d] = c
            fc = f1(xc)
            xe = x.copy()
            xe[d] = e
            fe = f1(xe)
            while b - a > tol:
                if fc <= fe:
                    b, e, fe = e, c, fc
                    c = b - _GOLDEN * (b - a)
                    xc[d] = c
                    fc = f1(xc)
                else:
                    a, c, fc = c, e, fe
                    e = a + _GOLDEN * (b - a)
                    xe[d] = e
                    fe = f1(xe)
            mid = 0.5 * (a + b)
            xm = x.copy()
            xm[d] = mid
            fm = f1(xm)
            if fm < fx:
                x, fx = xm, fm
        width /= 4.0
    return x, fx


def blocks_from_free_oracle(x, shapes):
    """Free parameters in [0, 1], one point per row, -> 2-column blocks with
    the batch first: ``simplexopt._blocks_from_free`` in its batch-first
    form."""
    blocks = []
    pos = 0
    for rows, _ in shapes:
        p0 = x[..., pos : pos + rows]
        pos += rows
        blocks.append(np.stack([p0, 1.0 - p0], axis=-1))
    return blocks


def full_zoom(opts):
    """The zoom of ``DENSE_ROUNDS - 1`` rounds on ``dense_points`` axes at
    any dimension: the production zoom of problems with at most 2 free
    parameters, and the accuracy oracle of the cheaper 3-parameter one."""
    return opts.dense_points, DENSE_ROUNDS - 1


def dense_scan_oracle(f, shapes, opts, zoom=None):
    """One problem's dense scan (``simplexopt._dense_scan``) with the
    whole mesh in one call and each basin zoomed and polished in turn, one
    objective call per golden-section point.

    ``zoom`` is the (points per axis, rounds) of the zoom; by default the
    production schedule.  ``full_zoom(opts)`` gives the full-resolution
    zoom on ``dense_points`` axes at every dimension, the accuracy oracle of
    the coarser 3-parameter schedule.
    """
    dim = sum(r for r, _ in shapes)
    pts = opts.dense_points
    if zoom is None:
        zoom = (DENSE_3D_ZOOM_POINTS, DENSE_3D_ZOOM_ROUNDS) if dim > 2 else full_zoom(opts)
    zoom_pts, rounds = zoom
    axes = [np.linspace(0.0, 1.0, pts) for _ in range(dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    vals = np.asarray(f(blocks_from_free_oracle(mesh, shapes)), dtype=np.float64)
    order = np.argsort(vals)
    step0 = 1.0 / (pts - 1)
    seeds = []
    for i in order:
        x = mesh[i]
        if all(np.max(np.abs(x - s)) > 3.0 * step0 for s in seeds):
            seeds.append(x)
        if len(seeds) == DENSE_BASINS:
            break

    def f1(x):
        return float(f(blocks_from_free_oracle(x[None, :], shapes))[0])

    best_x, best_val = None, np.inf
    for seed_x in seeds:
        x, v = seed_x, np.inf
        lo = np.clip(x - 2.5 * step0, 0.0, 1.0)
        hi = np.clip(x + 2.5 * step0, 0.0, 1.0)
        step = step0
        for _ in range(rounds):
            local_axes = [np.linspace(lo[i], hi[i], zoom_pts) for i in range(dim)]
            local = np.stack(np.meshgrid(*local_axes, indexing="ij"), axis=-1)
            local = local.reshape(-1, dim)
            lv = np.asarray(f(blocks_from_free_oracle(local, shapes)), dtype=np.float64)
            j = int(np.argmin(lv))
            if lv[j] < v:
                v = float(lv[j])
                x = local[j]
            step = (hi - lo).max() / (zoom_pts - 1)
            lo = np.clip(x - 2.5 * step, 0.0, 1.0)
            hi = np.clip(x + 2.5 * step, 0.0, 1.0)
        x, v = golden_polish_oracle(f1, x, width=2.5 * step)
        if v < best_val:
            best_val, best_x = v, x
    blocks = blocks_from_free_oracle(best_x[None, :], shapes)
    return best_val, [b[0] for b in blocks], np.array([best_val])


# The kernel oracles below work batch first, on (B, ...) arrays, with NumPy's
# own reductions and products; the solver kernels they check work batch last.


def softmax_oracle(logits):
    """Row softmax with NumPy's own max and sum reductions."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def blocks_from_logits_oracle(theta, shapes):
    """``simplexopt._blocks_from_logits`` on ``softmax_oracle``."""
    blocks = []
    pos = 0
    for rows, cols in shapes:
        size = rows * cols
        block = theta[..., pos : pos + size].reshape(theta.shape[:-1] + (rows, cols))
        pos += size
        blocks.append(softmax_oracle(block))
    return blocks


def psh_quantities_oracle(channel, p_z, pk_given_z):
    """(p(z,u), p(u), p(z|u), p(k|u)) of a batch of test channels U|Z, as
    NumPy lays them out and reduces them without help: the reference for
    the unrolled and re-laid-out ``analysis._psh_quantities``."""
    ch = np.asarray(channel, dtype=np.float64)
    p_uz = p_z[None, :, None] * ch  # (B, z, u)
    p_u = p_uz.sum(axis=1)
    p_zgu = np.transpose(p_uz, (0, 2, 1)) / np.maximum(p_u, TINY)[:, :, None]
    return p_uz, p_u, p_zgu, p_zgu @ pk_given_z


def psh_objective_terms_oracle(channel, p_z, pk_given_z):
    """(I(Z;U), H(K|U)) of a batch of test channels U|Z with NumPy's own
    sum reductions, which ``analysis._psh_objective_terms`` unrolls."""
    ch = np.asarray(channel, dtype=np.float64)
    p_uz, p_u, _, p_kgu = psh_quantities_oracle(ch, p_z, pk_given_z)
    ratio = np.where(
        ch > 0, np.log(np.maximum(ch, TINY)) - np.log(np.maximum(p_u, TINY))[:, None, :], 0.0
    )
    i_zu = np.sum(p_uz * ratio, axis=(1, 2))
    plogp = np.where(p_kgu > 0, p_kgu * np.log(np.maximum(p_kgu, TINY)), 0.0)
    h_kgu = -np.sum(p_u[:, :, None] * plogp, axis=(1, 2))
    return i_zu, h_kgu


def _log_oracle(x):
    out = np.maximum(x, TINY)
    return np.log(out, out=out)


def k_sums_oracle(cond_k_given_u, pk_given_z, power):
    """``analysis._k_sums`` for a scalar power on (B, u, k) laws, as one
    flat (B*u, k) @ (k, z) product."""
    b, u, k = cond_k_given_u.shape
    tilted = _log_oracle(cond_k_given_u).reshape(b * u, k)
    tilted *= power
    np.exp(tilted, out=tilted)
    return (tilted @ pk_given_z.T).reshape(b, u, -1)


def omega_tilde_batch_oracle(channel, p_z, pk_given_z, mu, lam):
    """``analysis._omega_tilde_batch`` for scalar (mu, lam) with NumPy's own
    layouts, batched matmul and reductions."""
    _, _, p_zgu, p_kgu = psh_quantities_oracle(channel, p_z, pk_given_z)
    p_uz = np.transpose(p_z[None, :, None] * np.asarray(channel, dtype=np.float64), (0, 2, 1))
    log_uz = _log_oracle(p_zgu)
    log_uz -= np.log(p_z)
    log_uz *= -lam * mu
    log_uz += _log_oracle(p_uz)
    log_uz[p_uz <= 0] = -np.inf
    terms = np.exp(log_uz, out=log_uz)
    terms *= k_sums_oracle(p_kgu, pk_given_z, lam * (1.0 - mu))
    return -np.log(terms.sum(axis=(1, 2)))


def omega_batch_oracle(q_u, q_zgu, p_z, pk_given_z, mu, alpha):
    """``analysis._omega_batch`` for scalar (mu, alpha) with NumPy's own
    reductions."""
    b, u, z = q_zgu.shape
    q_z = np.einsum("bu,buz->bz", q_u, q_zgu)
    q_kgu = (q_zgu.reshape(b * u, z) @ pk_given_z).reshape(b, u, -1)
    mass = q_u[:, :, None] * q_zgu
    log_uz = _log_oracle(q_zgu)
    log_uz *= -alpha * mu
    log_uz += _log_oracle(mass)
    z_part = _log_oracle(q_z)
    z_part *= 1.0 - alpha
    z_part -= (1.0 - alpha + alpha * mu) * np.log(p_z)
    log_uz -= z_part[:, None, :]
    log_uz[mass <= 0] = -np.inf
    terms = np.exp(log_uz, out=log_uz)
    terms *= k_sums_oracle(q_kgu, pk_given_z, alpha * (1.0 - mu))
    return -np.log(terms.reshape(b, -1).sum(axis=1))


def multistart_adam_oracle(f, shapes, opts):
    """``simplexopt._multistart_adam`` for one problem, batch first, with
    dim + 2 objective calls per iteration (the base values, one call per
    bumped coordinate, and the post-step values), on ``softmax_oracle``."""
    theta = np.ascontiguousarray(_initial_logits(shapes, opts).T)
    batch, dim = theta.shape

    def eval_theta(t):
        return np.asarray(f(blocks_from_logits_oracle(t, shapes)), dtype=np.float64)

    vals = eval_theta(theta)
    best_vals = vals.copy()
    best_theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    h = 1e-6
    lr = ADAM_LR
    for it in range(1, opts.iters + 1):
        base = eval_theta(theta)
        grad = np.empty_like(theta)
        for d in range(dim):
            bumped = theta.copy()
            bumped[:, d] += h
            grad[:, d] = (eval_theta(bumped) - base) / h
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        mhat = m / (1 - 0.9**it)
        vhat = v / (1 - 0.999**it)
        theta = theta - lr * mhat / (np.sqrt(vhat) + 1e-10)
        lr *= 0.985
        cur = eval_theta(theta)
        improved = cur < best_vals
        best_vals[improved] = cur[improved]
        best_theta[improved] = theta[improved]
    i = int(np.argmin(best_vals))
    blocks = blocks_from_logits_oracle(best_theta[i : i + 1], shapes)
    return float(best_vals[i]), [b[0] for b in blocks], best_vals


# ---------------------------------------------------------------------------
# the tilted integrands and the weighted information, one joint at a time
# ---------------------------------------------------------------------------


def _logsumexp(a, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def _joint_split(q_uzk):
    j = np.asarray(q_uzk, dtype=np.float64)
    if j.ndim != 3:
        raise ValueError("joint must have axes (U, Z, K)")
    if j.min() < 0 or abs(j.sum() - 1.0) > 1e-9:
        raise ValueError("joint is not a distribution")
    q_u = j.sum(axis=(1, 2))
    q_z = j.sum(axis=(0, 2))
    safe_u = np.maximum(q_u, TINY)
    q_zgu = j.sum(axis=2) / safe_u[:, None]
    q_kgu = j.sum(axis=1) / safe_u[:, None]
    return j, q_u, q_z, q_zgu, q_kgu


def omega(q_uzk, p_z, mu: float, alpha: float, *, log_space: bool = True) -> float:
    """-ln E_q[exp(-w)] for the two-parameter tilted weight w(z, k | u), by
    a masked log-sum-exp over (u, z, k): the single-evaluation oracle of
    ``analysis._omega_batch``.

    ``p_z`` is the reference observation marginal; if the joint puts mass on
    observations outside its support the sentinel +inf is returned.
    """
    joint, q_u, q_z, q_zgu, q_kgu = _joint_split(q_uzk)
    p_z = np.asarray(p_z, dtype=np.float64)
    if np.any((q_z > 0) & (p_z <= 0)):
        return math.inf
    log_pz = np.log(np.maximum(p_z, TINY))
    w = (1.0 - alpha) * (np.log(np.maximum(q_z, TINY)) - log_pz)[None, :, None] + alpha * (
        mu * (np.log(np.maximum(q_zgu, TINY)) - log_pz[None, :])[:, :, None]
        + (1.0 - mu) * (-np.log(np.maximum(q_kgu, TINY)))[:, None, :]
    )
    mask = joint > 0
    if log_space:
        logterm = np.where(mask, np.log(np.maximum(joint, TINY)) - w, -np.inf)
        return float(-_logsumexp(logterm.reshape(-1), axis=0))
    return float(-math.log(np.sum(np.where(mask, joint * np.exp(-w), 0.0))))


def omega_tilde(p_uzk, mu: float, lam: float, *, log_space: bool = True) -> float:
    """-ln E_p[exp(-lam * w~)] with the one-parameter weight w~(z, k | u):
    the single-evaluation oracle of ``analysis._omega_tilde_batch``.

    The observation marginal of the joint itself is the reference here (test
    channels never move it).
    """
    joint, p_u, p_z, p_zgu, p_kgu = _joint_split(p_uzk)
    log_pz = np.log(np.maximum(p_z, TINY))
    w = mu * (np.log(np.maximum(p_zgu, TINY)) - log_pz[None, :])[:, :, None] + (
        1.0 - mu
    ) * (-np.log(np.maximum(p_kgu, TINY)))[:, None, :]
    mask = joint > 0
    if log_space:
        logterm = np.where(mask, np.log(np.maximum(joint, TINY)) - lam * w, -np.inf)
        return float(-_logsumexp(logterm.reshape(-1), axis=0))
    return float(-math.log(np.sum(np.where(mask, joint * np.exp(-lam * w), 0.0))))


def mu_weighted_information(p_uzk, mu: float) -> float:
    """mu * I(U;Z) + (1-mu) * H(K|U): the small-tilt slope of omega_tilde."""
    joint, p_u, p_z, p_zgu, p_kgu = _joint_split(p_uzk)
    p_uz = joint.sum(axis=2)
    ratio = np.where(
        p_uz > 0,
        np.log(np.maximum(p_zgu, TINY)) - np.log(np.maximum(p_z, TINY))[None, :],
        0.0,
    )
    i_uz = float(np.sum(p_uz * ratio))
    h = float(
        -np.sum(
            p_u[:, None]
            * np.where(p_kgu > 0, p_kgu * np.log(np.maximum(p_kgu, TINY)), 0.0)
        )
    )
    return mu * i_uz + (1.0 - mu) * h
