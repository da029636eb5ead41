import math
import os
import subprocess
import tracemalloc
from dataclasses import replace
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from helpers import (
    capacity_oracle,
    delta_mi_oracle,
    delta_mi_whole_array_oracle,
    dft_matrix_oracle,
    kernel_checks_oracle,
    lower_bound_oracle,
    masked_equivocation_oracle,
    translation_fold_oracle,
    zq_convolve_oracle,
    zq_transform_oracle,
)
from helpers import simplex_grid_capacity as grid_capacity_oracle
import leaklab
from leaklab import adversary, crypto, probability
from leaklab import leakage as leakage_module
from leaklab.adversary import TableEncoder, scalar_quantizer_encoder
from leaklab.codec import UniversalCode, build_universal_code
from leaklab.crypto import Cryptosystem
from leaklab.galois import AffineMap, FieldSpec, random_affine
from leaklab.leakage import (
    _zq_convolve,
    _zq_transform,
    build_dense_stream,
    build_gamma_kernel,
    build_translation_kernel,
    channel_capacity,
    delta_max_lower_bound,
    delta_max_mi,
    delta_max_upper_bound,
    delta_mi,
    leakage_report,
    structural_checks,
)
from leaklab.probability import (
    ChannelMatrix,
    Pmf,
    TableCapError,
    all_sequences,
    joint_from_channel,
)

LN2 = math.log(2)
H01 = 0.3250829733914482


def identity_keymap(n, q=2):
    spec = FieldSpec(q)
    return AffineMap(np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64), spec)


def otp_system(n, q=2):
    return Cryptosystem(UniversalCode.identity(n, q), identity_keymap(n, q))


def no_side_info(q=2):
    # |Z| = 1: the side channel reveals nothing
    return joint_from_channel(Pmf.uniform(q), ChannelMatrix(np.ones((q, 1))))


def full_leak_joint(q=2):
    return joint_from_channel(Pmf.uniform(q), ChannelMatrix.identity(q))


def bsc_joint(p, p_k=None, q=2):
    return joint_from_channel(p_k or Pmf.uniform(q), ChannelMatrix.bsc(p))


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


def test_otp_kernel_is_flat():
    n = 4
    sys = otp_system(n)
    enc = scalar_quantizer_encoder([0], n)
    kern = build_gamma_kernel(sys, enc, no_side_info())
    assert kern.message_count == 1
    for x_index in (0, 7, 15):
        g = kern.gamma(x_index)
        assert np.allclose(g, 2.0**-n)


def test_full_key_leak_kernel_is_deterministic():
    n = 3
    code = build_universal_code(n, 0.5, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=0))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, full_leak_joint())
    # given the message a = k, the ciphertext is a point mass at encrypt(k, x)
    seqs = all_sequences(n, 2)
    radix = 2 ** np.arange(code.m - 1, -1, -1)
    for xi in range(2**n):
        g = kern.gamma(xi)  # (q^m, messages)
        for ai, a in enumerate(kern.message_ids):
            c = int(sys.encrypt(seqs[a], seqs[xi]) @ radix)
            assert g[c, ai] == pytest.approx(1.0, abs=1e-12)


def test_kernel_matches_brute_force_joint_enumeration():
    # n=3, q=2, BSC(0.1), one-bit quantizer: enumerate (k, z) directly
    n = 3
    code = build_universal_code(n, 0.5, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=5))
    enc = scalar_quantizer_encoder([0, 1], n)
    p_kz = bsc_joint(0.1)
    kern = build_gamma_kernel(sys, enc, p_kz)

    seqs = all_sequences(n, 2)
    radix = 2 ** np.arange(code.m - 1, -1, -1)
    n_msg = enc.message_count
    p_a = np.zeros(n_msg)
    joint_ca = {xi: np.zeros((2**code.m, n_msg)) for xi in range(2**n)}
    for k in seqs:
        for z in seqs:
            pkz = 1.0
            for t in range(n):
                pkz *= p_kz[k[t], z[t]]
            a = enc.apply(z)
            p_a[a] += pkz
            for xi in range(2**n):
                c = int(sys.encrypt(k, seqs[xi]) @ radix)
                joint_ca[xi][c, a] += pkz
    assert np.allclose(p_a, kern.p_message, atol=1e-12)
    for xi in range(2**n):
        brute = joint_ca[xi] / p_a[None, :]
        assert np.allclose(brute, kern.gamma(xi), atol=1e-12)


def test_ternary_table_adversary_kernel_matches_brute_force():
    # q=3, |Z|=3, an arbitrary table encoder over Z^2: enumerate (k, z)
    from leaklab.adversary import TableEncoder

    n, q = 2, 3
    code = build_universal_code(n, 1.0, q)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=2))
    rng = np.random.default_rng(3)
    table = rng.integers(0, 4, size=9)
    enc = TableEncoder(table, n=n, obs_size=3)
    W = ChannelMatrix(rng.dirichlet(np.ones(3), size=3))
    p_kz = joint_from_channel(Pmf([0.5, 0.3, 0.2]), W)
    kern = build_gamma_kernel(sys, enc, p_kz)

    seqs = all_sequences(n, q)
    zseqs = all_sequences(n, 3)
    radix = q ** np.arange(code.m - 1, -1, -1)
    n_msg = enc.message_count
    p_a = np.zeros(n_msg)
    joint_ca = {xi: np.zeros((q**code.m, n_msg)) for xi in range(q**n)}
    for k in seqs:
        for z in zseqs:
            pkz = p_kz[k[0], z[0]] * p_kz[k[1], z[1]]
            a = enc.apply(z)
            p_a[a] += pkz
            for xi in range(q**n):
                c = int(sys.encrypt(k, seqs[xi]) @ radix)
                joint_ca[xi][c, a] += pkz
    keep = p_a > 0
    assert np.allclose(p_a[keep], kern.p_message, atol=1e-12)
    for xi in range(q**n):
        brute = joint_ca[xi][:, keep] / p_a[keep]
        assert np.allclose(brute, kern.gamma(xi), atol=1e-12)
    # and the exact leakage against the entropy identity on the brute tables
    px = rng.dirichlet(np.ones(q**n))
    mix = sum(px[xi] * joint_ca[xi][:, keep] for xi in range(q**n))
    h_c_given_a = -np.sum(np.where(mix > 0, mix * np.log(mix / p_a[keep]), 0.0))
    h_c_given_xa = -sum(
        px[xi]
        * np.sum(
            np.where(
                joint_ca[xi][:, keep] > 0,
                joint_ca[xi][:, keep] * np.log(joint_ca[xi][:, keep] / p_a[keep]),
                0.0,
            )
        )
        for xi in range(q**n)
    )
    want = h_c_given_a - h_c_given_xa
    assert abs(delta_mi(kern, code.image_law(px)) - want) < 1e-10


def prefix_fold_oracle(sys, enc, p_kz):
    """The scalar (masked key, message) joint by the per-symbol prefix fold,
    each step gathering the q translates of the running table and keeping
    that table until the step's product exists."""
    q, m = sys.q, sys.m
    joint = adversary.adversary_joint(enc, p_kz)
    digits = all_sequences(m, q)
    radix = q ** np.arange(m - 1, -1, -1)
    state = np.zeros((q**m, 1))
    state[int(sys.keymap.offset @ radix)] = 1.0
    for t in range(sys.n):
        shifts = (np.arange(q)[:, None] * sys.keymap.matrix[t][None, :]) % q
        perm = ((digits[None, :, :] - shifts[:, None, :]) % q) @ radix
        gathered = state[perm]
        state = np.einsum("ksp,ka->spa", gathered, joint).reshape(q**m, -1)
    return state


@pytest.mark.parametrize("q, n, R", [(2, 9, 0.5), (3, 5, 0.8), (5, 3, 0.9)])
def test_kernel_fold_is_bit_identical_to_prefix_fold_oracle(q, n, R, monkeypatch):
    # the stream's blocks, side by side, are the whole fold's table, its
    # column sums and its columns divided by them; with 16 messages per
    # block every case splits at a prefix of 2 or more symbols
    rng = np.random.default_rng(q)
    W = ChannelMatrix(rng.dirichlet(np.ones(q + 1), size=q))
    p_kz = joint_from_channel(Pmf(rng.dirichlet(np.ones(q))), W)
    code = build_universal_code(n, R, q)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=n))
    enc = scalar_quantizer_encoder(list(range(q + 1)), n)
    want = prefix_fold_oracle(sys, enc, p_kz)
    for chunk in (leakage_module._CHUNK, 16):
        monkeypatch.setattr(leakage_module, "_CHUNK", chunk)
        stream = leakage_module.build_dense_stream(sys, enc, p_kz)
        ids, p_message, rows = zip(*stream.blocks())
        assert len(rows) == stream.block_count
        assert chunk > 16 or stream.block_count >= (q + 1) ** 2
        assert np.array_equal(np.concatenate(ids), np.arange(want.shape[1]))
        assert np.array_equal(np.concatenate(p_message), want.sum(axis=0))
        assert np.array_equal(np.concatenate(rows), (want / want.sum(axis=0)).T)
    kern = build_gamma_kernel(sys, enc, p_kz)
    assert np.array_equal(kern.key_image_posterior, (want / want.sum(axis=0)).T)


def test_kernel_prunes_zero_probability_messages():
    n = 3
    sys = otp_system(n)
    # observation letter 2 never occurs; its messages carry zero mass
    W = ChannelMatrix([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]])
    p_kz = joint_from_channel(Pmf.uniform(2), W)
    enc = scalar_quantizer_encoder([0, 1, 2], n)
    kern = build_gamma_kernel(sys, enc, p_kz)
    assert enc.message_count == 27
    assert kern.message_count == 8
    assert kern.p_message.sum() == pytest.approx(1.0, abs=1e-12)


def test_kernel_cap_guard(monkeypatch):
    sys = otp_system(4)
    enc = scalar_quantizer_encoder([0, 1], 4)
    monkeypatch.setattr(probability, "TABLE_CAP", 100)
    with pytest.raises(ValueError):
        build_gamma_kernel(sys, enc, bsc_joint(0.1))


def test_oracle_tables_refuse_over_the_cap(monkeypatch):
    # n=4, m=2: sub_index's digit differences hold q^m * q^m * m = 32
    # entries, and channel_rows holds q^m * q^m * |M_A| = 256
    code = build_universal_code(4, 0.4, 2)
    sys = Cryptosystem(code, random_affine(4, code.m, FieldSpec(2), seed=4))
    kern = build_gamma_kernel(sys, scalar_quantizer_encoder([0, 1], 4), bsc_joint(0.1))
    assert (kern.m, kern.message_count) == (2, 16)
    monkeypatch.setattr(probability, "TABLE_CAP", 31)
    with pytest.raises(TableCapError, match=r"q\^m \* q\^m \* m = 2\^5"):
        kern.sub_index()
    with pytest.raises(TableCapError, match=r"inputs \* q\^m \* \|M_A\| = 2\^8"):
        kern.channel_rows()
    monkeypatch.setattr(probability, "TABLE_CAP", 255)
    assert kern.sub_index().shape == (4, 4)
    with pytest.raises(TableCapError, match="inputs"):
        kern.channel_rows()
    assert kern.channel_rows(np.arange(2)).shape == (2, 64)


# ---------------------------------------------------------------------------
# delta_mi
# ---------------------------------------------------------------------------


def test_otp_leakage_is_exactly_zero():
    sys = otp_system(6)
    enc = scalar_quantizer_encoder([0], 6)
    kern = build_gamma_kernel(sys, enc, no_side_info())
    assert delta_mi(kern, sys.code.image_law(Pmf.uniform(2))) == 0.0
    assert delta_mi(kern, sys.code.image_law(Pmf.bernoulli(0.3))) == 0.0


def test_full_leak_uniform_plaintext_saturates():
    n = 4
    code = build_universal_code(n, 0.5, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=1))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, full_leak_joint())
    # uniform over the decoding set
    px = code.in_decoding_set(all_sequences(n, 2)) / code.decoding_set_size
    assert delta_mi(kern, code.image_law(px)) == pytest.approx(code.m * LN2, abs=1e-10)


def test_delta_mi_two_formulas_agree():
    # the Z_q^m Fourier convolution against the per-message KL loop
    n = 4
    code = build_universal_code(n, 0.6, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=2))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, bsc_joint(0.15))
    for p in (Pmf.uniform(2), Pmf.bernoulli(0.23), Pmf.bernoulli(0.8)):
        p_img = code.image_law(p)
        assert abs(delta_mi(kern, p_img) - delta_mi_oracle(kern, p_img)) < 1e-12
    # q = 3: complex transforms, finest and coarse quantizers, random laws
    rng = np.random.default_rng(11)
    for n, R, labels in [(3, 0.9, [0, 1, 2]), (4, 0.6, [0, 1, 1]), (5, 0.8, [0, 1, 2])]:
        code = build_universal_code(n, R, 3)
        sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(3), seed=n))
        W = ChannelMatrix(rng.dirichlet(np.ones(3), size=3))
        p_kz = joint_from_channel(Pmf(rng.dirichlet(np.ones(3))), W)
        kern = build_gamma_kernel(sys, scalar_quantizer_encoder(labels, n), p_kz)
        for p in (Pmf.uniform(3), Pmf(rng.dirichlet(np.ones(3))), rng.dirichlet(np.ones(3**n))):
            p_img = code.image_law(p)
            assert abs(delta_mi(kern, p_img) - delta_mi_oracle(kern, p_img)) < 1e-12


def erasure_kernel(q, n, R, seed):
    """Kernel of the finest quantizer of a q-ary erasure channel: a message
    that erases enough key symbols has a flat posterior."""
    W = np.zeros((q, q + 1))
    W[:, :q] = 0.7 * np.eye(q)
    W[:, q] = 0.3
    code = build_universal_code(n, R, q)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=seed))
    p_kz = joint_from_channel(Pmf.uniform(q), ChannelMatrix(W))
    return code, build_gamma_kernel(sys, scalar_quantizer_encoder(list(range(q + 1)), n), p_kz)


@pytest.mark.parametrize("q, n, R", [(2, 8, 0.4), (3, 6, 0.9), (5, 4, 0.9)])
def test_chunked_passes_equal_whole_array_forms(q, n, R):
    # delta_mi and H(keymap(K) | M_A) read the posterior in chunks; each row
    # is convolved and summed on its own, so the bits are those of the
    # whole-array forms
    code, kern = erasure_kernel(q, n, R, seed=n)
    post = kern.key_image_posterior
    flat = np.all(post == post[:, :1], axis=1)
    assert kern.message_count > 3 * leakage_module._CHUNK
    assert 0 < np.count_nonzero(flat) < kern.message_count
    rng = np.random.default_rng(q)
    for p in (Pmf.uniform(q), Pmf(rng.dirichlet(np.ones(q))), rng.dirichlet(np.ones(q**n))):
        p_img = code.image_law(p)
        assert delta_mi(kern, p_img) == delta_mi_whole_array_oracle(kern, p_img)
    equivocation = masked_equivocation_oracle(kern)
    assert delta_max_upper_bound(kern) == max(0.0, kern.m * math.log(q) - equivocation)
    assert leakage_module._masked_key_equivocation(kern) == equivocation


def test_posterior_passes_convolve_at_most_one_chunk_per_call(monkeypatch):
    code, kern = erasure_kernel(2, 8, 0.4, seed=8)
    convolve = leakage_module._zq_convolve
    rows = []
    monkeypatch.setattr(
        leakage_module, "_zq_convolve", lambda a, *args: rows.append(len(a)) or convolve(a, *args)
    )
    post = kern.key_image_posterior
    live = np.count_nonzero(np.any(post != post[:, :1], axis=1))
    delta_mi(kern, code.image_law(Pmf.bernoulli(0.2)))
    assert max(rows) <= leakage_module._CHUNK and sum(rows) == live
    rows.clear()
    structural_checks(kern)
    assert max(rows) <= leakage_module._CHUNK and sum(rows) == kern.message_count


def _posterior(q, n, R, seed):
    code = build_universal_code(n, R, q)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=seed))
    W = ChannelMatrix.bsc(0.1) if q == 2 else ChannelMatrix(
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
    )
    p_kz = joint_from_channel(Pmf.uniform(q), W)
    kern = build_gamma_kernel(sys, scalar_quantizer_encoder(list(range(q)), n), p_kz)
    return kern.key_image_posterior, kern.m


@pytest.mark.parametrize("batch", [1, 300])
def test_walsh_hadamard_butterflies_equal_matrix_passes(batch):
    # at q = 2 each butterfly entry is the one rounding of a0 + a1 or a0 - a1,
    # which is what the +-1 matrix pass computes: equal bit for bit
    rng = np.random.default_rng(batch)
    mat = dft_matrix_oracle(2)
    assert mat.dtype == np.float64
    for m in range(1, 10):
        a = rng.random((batch, 2**m)) - 0.5
        for inverse, oracle_mat in ((False, mat), (True, mat.conj())):
            got = _zq_transform(a, 2, m, inverse=inverse)
            assert np.array_equal(got, zq_transform_oracle(a, oracle_mat, m)), (m, inverse)
    for n in (6, 10):  # real posteriors, m = 4 and 7
        post, m = _posterior(2, n, 0.5, seed=n)
        rows = post[:batch]
        for inverse, oracle_mat in ((False, mat), (True, mat.conj())):
            got = _zq_transform(rows, 2, m, inverse=inverse)
            assert np.array_equal(got, zq_transform_oracle(rows, oracle_mat, m))
        v = rng.dirichlet(np.ones(2**m))
        got = _zq_convolve(rows, _zq_transform(v[None], 2, m), 2, m)
        assert np.array_equal(got, zq_convolve_oracle(rows, v, 2, m))


@pytest.mark.parametrize("batch", [1, 300])
def test_ternary_transform_is_the_matrix_pass(batch):
    # for q >= 3 each pass is the 2-D product of the oracle's contraction,
    # so the same bits, at q = 3 and at the larger primes 5 and 7
    rng = np.random.default_rng(batch)
    for q, top in ((3, 5), (5, 3), (7, 3)):
        mat = dft_matrix_oracle(q)
        for m in range(1, top + 1):
            a = rng.random((batch, q**m))
            for inverse, oracle_mat in ((False, mat), (True, mat.conj())):
                got = _zq_transform(a, q, m, inverse=inverse)
                want = zq_transform_oracle(a, oracle_mat, m)
                assert np.array_equal(got, want), (q, m, inverse)
    post, m = _posterior(3, 5, 0.8, seed=5)
    rows = post[:batch]
    v = rng.dirichlet(np.ones(3**m))
    got = _zq_convolve(rows, _zq_transform(v[None], 3, m), 3, m)
    assert np.array_equal(got, zq_convolve_oracle(rows, v, 3, m))


# ---------------------------------------------------------------------------
# channel capacity (the delta_max engine)
# ---------------------------------------------------------------------------


def test_capacity_bsc_closed_form():
    res = channel_capacity(ChannelMatrix.bsc(0.1).rows, tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(LN2 - H01, abs=1e-9)
    assert res.upper - res.lower <= 1e-10


def test_capacity_erasure_channel_closed_form():
    e = 0.25
    rows = [[1 - e, e, 0.0], [0.0, e, 1 - e]]
    res = channel_capacity(np.array(rows), tol=1e-10)
    assert res.value == pytest.approx((1 - e) * LN2, abs=1e-9)


def test_capacity_useless_channel_is_zero():
    rows = np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    res = channel_capacity(rows)
    assert res.value == 0.0 and res.iterations == 1


# ---------------------------------------------------------------------------
# delta_max and its bounds
# ---------------------------------------------------------------------------




@pytest.mark.parametrize("n,R,seed", [(1, 0.7, 0), (2, 0.4, 1), (2, 0.7, 2)])
def test_delta_max_matches_simplex_grid_oracle(n, R, seed):
    code = build_universal_code(n, R, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=seed))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, bsc_joint(0.3))
    res = delta_max_mi(kern)
    oracle = grid_capacity_oracle(kern)
    assert abs(res - oracle) < 1e-6
    assert abs(res - capacity_oracle(kern).value) <= 1e-9


def test_delta_max_otp_zero():
    sys = otp_system(5)
    enc = scalar_quantizer_encoder([0], 5)
    kern = build_gamma_kernel(sys, enc, no_side_info())
    res = delta_max_mi(kern)
    assert res <= 1e-6
    cap = capacity_oracle(kern, tol=1e-7)
    assert cap.converged
    assert abs(res - cap.value) <= 1e-9


def test_delta_max_full_leak_saturates():
    n = 4
    code = build_universal_code(n, 0.5, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=3))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, full_leak_joint())
    res = delta_max_mi(kern)
    assert res == pytest.approx(code.m * LN2, abs=1e-7)
    assert abs(res - capacity_oracle(kern).value) <= 1e-9


def test_delta_max_restricted_to_decoding_set_matches():
    # the capacity solve over the images of the decoding set only agrees
    # with the closed form
    n = 4
    code = build_universal_code(n, 0.45, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=4))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, bsc_joint(0.1))
    inputs = np.unique(kern.image_of[kern.in_decoding_set])
    cap = capacity_oracle(kern, inputs=inputs)
    assert abs(delta_max_mi(kern) - cap.value) < 1e-9


def test_delta_max_requires_decoding_set_onto_images():
    n = 4
    code = build_universal_code(n, 0.45, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=4))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, bsc_joint(0.1))
    counts = without_member(kern.image_counts, code, 0)
    with pytest.raises(ValueError, match="onto"):
        delta_max_mi(replace(kern, image_counts=counts))


@pytest.mark.parametrize("case", ["bsc", "skewed_key", "ternary"])
def test_uniform_law_on_decoding_set_achieves_delta_max(case):
    # the closed form is reached by a law, not only bounded: the uniform law
    # on D gives delta_mi = delta_max, on the kernel leakage_report takes
    # (the translation kernel for the uniform-key BSC) and on the oracle
    q, n, R, p_kz = {
        "bsc": (2, 8, 0.5, bsc_joint(0.1)),
        "skewed_key": (2, 8, 0.5, bsc_joint(0.1, Pmf([0.7, 0.3]))),
        "ternary": (3, 5, 0.8, joint_from_channel(
            Pmf([0.4, 0.35, 0.25]), ChannelMatrix(TERNARY_SYMMETRIC)
        )),
    }[case]
    sys = system(n, R, q, n)
    enc = scalar_quantizer_encoder(list(range(q)), n)
    uniform_on_d = sys.code.in_decoding_set(all_sequences(n, q)) / sys.code.decoding_set_size
    p_img = sys.code.image_law(uniform_on_d)
    fast = build_translation_kernel(sys, enc, p_kz)
    assert (fast is not None) == (case == "bsc")
    kernels = [build_gamma_kernel(sys, enc, p_kz), fast or build_dense_stream(sys, enc, p_kz)]
    for kern in kernels:
        assert delta_mi(kern, p_img) > 0
        assert abs(delta_mi(kern, p_img) - delta_max_mi(kern)) <= 1e-12


def test_delta_max_holds_no_plaintext_table():
    # q=2, n=20, m=14: the worst case is a value; no q^n law is built for it
    sys = system(20, 0.5, 2, 20)
    kern = build_translation_kernel(sys, scalar_quantizer_encoder([0, 1], 20), bsc_joint(0.1))
    assert kern is not None and sys.m == 14
    tracemalloc.start()
    try:
        value = delta_max_mi(kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert value == delta_max_upper_bound(kern) > 0


def test_pipeline_kernels_hold_only_codeword_vectors():
    # every array a pipeline kernel holds has at most q^m entries: the X^n
    # tables stay on the code
    sys = system(10, 0.5, 2, 10)
    enc = scalar_quantizer_encoder([0, 1], 10)
    kernels = [
        build_translation_kernel(sys, enc, bsc_joint(0.1)),
        build_dense_stream(sys, enc, bsc_joint(0.1, Pmf([0.7, 0.3]))),
    ]
    for kern in kernels:
        arrays = {k: v for k, v in vars(kern).items() if isinstance(v, np.ndarray)}
        assert all(v.size <= 2**sys.m for v in arrays.values()), {
            k: v.size for k, v in arrays.items()
        }
        assert "image_counts" in arrays
        assert not hasattr(kern, "image_of") and not hasattr(kern, "in_decoding_set")


def test_lower_bound_floors_at_zero():
    sys = otp_system(4)
    enc = scalar_quantizer_encoder([0], 4)
    assert delta_max_lower_bound(build_gamma_kernel(sys, enc, no_side_info())) == 0.0


def test_lower_bound_full_leak():
    n = 4
    code = build_universal_code(n, 0.5, 2)
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=3))
    enc = scalar_quantizer_encoder([0, 1], n)
    kern = build_gamma_kernel(sys, enc, full_leak_joint())
    assert delta_max_lower_bound(kern) == pytest.approx(code.m * LN2, abs=1e-12)


def test_lower_bound_closed_form_bsc():
    # m ln 2 - n h(0.1) with m=5, n=8: frozen closed form
    code = build_universal_code(8, 0.5, 2)
    assert code.m == 5
    sys = Cryptosystem(code, random_affine(8, 5, FieldSpec(2), seed=6))
    enc = scalar_quantizer_encoder([0, 1], 8)
    got = delta_max_lower_bound(build_gamma_kernel(sys, enc, bsc_joint(0.1)))
    assert got == pytest.approx(0.8650721156681409, abs=1e-12)


def test_lower_bound_matches_pairwise_oracle():
    # non-uniform keys and side channels that leak enough for a positive
    # bound; scalar and table adversaries, q = 2 and q = 3
    rng = np.random.default_rng(11)
    ternary = ChannelMatrix(
        [[0.85, 0.05, 0.05, 0.05], [0.05, 0.85, 0.05, 0.05], [0.05, 0.05, 0.45, 0.45]]
    )
    cases = [
        (2, 6, 0.6, bsc_joint(0.1, Pmf([0.7, 0.3])), scalar_quantizer_encoder([0, 1], 6)),
        (
            3, 3, 0.8, joint_from_channel(Pmf([0.5, 0.3, 0.2]), ternary),
            scalar_quantizer_encoder([0, 1, 2, 2], 3),
        ),
        (
            2, 4, 0.6,
            joint_from_channel(
                Pmf([0.7, 0.3]), ChannelMatrix([[0.9, 0.05, 0.05], [0.05, 0.15, 0.8]])
            ),
            TableEncoder(rng.integers(0, 6, size=81), n=4, obs_size=3),
        ),
        (
            3, 3, 0.8, joint_from_channel(Pmf([0.5, 0.3, 0.2]), ternary),
            TableEncoder(np.arange(64) % 17, n=3, obs_size=4),
        ),
    ]
    for q, n, R, p_kz, enc in cases:
        code = build_universal_code(n, R, q)
        sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=n))
        got = delta_max_lower_bound(build_gamma_kernel(sys, enc, p_kz))
        want = lower_bound_oracle(sys, enc, p_kz)
        assert want > 0, (q, n, enc.kind)  # not floored
        assert abs(got - want) <= 1e-12, (q, n, enc.kind, got, want)


def test_masked_key_equivocation_is_kept_per_kernel(monkeypatch):
    # delta_max_mi and the upper bound share one entropy pass per kernel; a
    # kernel made by replace() with a new posterior computes its own
    code = build_universal_code(8, 0.5, 2)
    sys = Cryptosystem(code, random_affine(8, code.m, FieldSpec(2), seed=6))
    kern = build_gamma_kernel(sys, scalar_quantizer_encoder([0, 1], 8), bsc_joint(0.1))
    row_entropies = leakage_module._row_entropies
    want = code.m * LN2 - float(kern.p_message @ row_entropies(kern.key_image_posterior))
    passes = []
    monkeypatch.setattr(
        leakage_module, "_row_entropies", lambda rows: passes.append(1) or row_entropies(rows)
    )
    assert delta_max_mi(kern) == delta_max_upper_bound(kern) == want
    assert len(passes) == 1
    flat = np.full_like(kern.key_image_posterior, 1.0 / kern.image_count)
    assert delta_max_upper_bound(replace(kern, key_image_posterior=flat)) == 0.0
    assert len(passes) == 2 and delta_max_upper_bound(kern) == want


def test_leakage_report_enumerates_table_adversary_once(monkeypatch):
    calls = []
    enumerate_joint = adversary.adversary_joint

    def counted(enc, *args, **kwargs):
        calls.append(enc.kind)
        return enumerate_joint(enc, *args, **kwargs)

    monkeypatch.setattr(adversary, "adversary_joint", counted)
    code = build_universal_code(4, 0.5, 2)
    sys = Cryptosystem(code, random_affine(4, code.m, FieldSpec(2), seed=8))
    enc = TableEncoder(np.arange(16) % 3, n=4, obs_size=2)
    rep = leakage_report(sys, enc, bsc_joint(0.1), Pmf.bernoulli(0.11))
    assert calls == ["table"]
    assert rep.lower_bound <= rep.delta_max == rep.upper_bound


def test_upper_bound_zero_forces_perfect_secrecy():
    sys = otp_system(4)
    enc = scalar_quantizer_encoder([0], 4)
    kern = build_gamma_kernel(sys, enc, no_side_info())
    assert delta_max_upper_bound(kern) == pytest.approx(0.0, abs=1e-12)


def test_upper_bound_zero_keymap():
    n, m = 4, 2
    code = build_universal_code(n, 0.4, 2)
    keymap = AffineMap(np.zeros((n, m), dtype=int), np.zeros(m, dtype=int), FieldSpec(2))
    sys = Cryptosystem(code, keymap)
    enc = scalar_quantizer_encoder([0], n)
    got = delta_max_upper_bound(build_gamma_kernel(sys, enc, no_side_info()))
    assert got == pytest.approx(m * LN2, abs=1e-12)


def sandwich_case(q, n, R, seed):
    spec = FieldSpec(q)
    code = build_universal_code(n, R, q)
    rng = np.random.default_rng(seed)
    keymap = random_affine(n, code.m, spec, seed=seed)
    labels = rng.integers(0, 2, size=q)
    labels[0] = 0
    enc = scalar_quantizer_encoder(labels.tolist() if labels.max() > 0 else [0] * q, n)
    p_k = Pmf(rng.dirichlet(np.ones(q)))
    W = ChannelMatrix(rng.dirichlet(np.ones(q), size=q))
    p_kz = joint_from_channel(p_k, W)
    sys = Cryptosystem(code, keymap)
    kern = build_gamma_kernel(sys, enc, p_kz)
    dmax = delta_max_mi(kern)
    lb = delta_max_lower_bound(kern)
    ub = delta_max_upper_bound(kern)
    return lb, dmax, ub, kern


@pytest.mark.parametrize(
    "q,n,R,seed", [(2, 4, 0.5, 0), (2, 5, 0.35, 1), (3, 3, 0.9, 2), (3, 4, 0.6, 3)]
)
def test_sandwich_bounds(q, n, R, seed):
    lb, val, ub, kern = sandwich_case(q, n, R, seed)
    assert lb - 1e-6 <= val <= ub + 1e-6
    assert val == ub  # one masked-key equivocation computes both
    assert abs(val - capacity_oracle(kern).value) <= 1e-9


def test_delta_mi_never_exceeds_delta_max():
    lb, val, ub, kern = sandwich_case(2, 4, 0.5, 9)
    code = build_universal_code(4, 0.5, 2)
    rng = np.random.default_rng(10)
    for _ in range(100):
        p_img = code.image_law(rng.dirichlet(np.ones(2**4)))
        got = delta_mi(kern, p_img)
        assert got <= val + 1e-6
        assert abs(got - delta_mi_oracle(kern, p_img)) < 1e-12


def test_perfect_secrecy_implication():
    # whenever delta_mi vanishes under a full-support product law,
    # the worst case over all plaintext laws vanishes too
    for q, n in [(2, 4), (3, 3)]:
        sys = otp_system(n, q)
        enc = scalar_quantizer_encoder([0], n)
        p_kz = no_side_info(q)
        kern = build_gamma_kernel(sys, enc, p_kz)
        dmi = delta_mi(kern, sys.code.image_law(Pmf.uniform(q)))
        assert dmi <= 1e-9
        assert delta_max_mi(kern) <= 1e-6
        assert capacity_oracle(kern, tol=1e-7).value <= 1e-6


# ---------------------------------------------------------------------------
# structural checks and reports
# ---------------------------------------------------------------------------


def test_structural_checks_pass_on_valid_kernels():
    for n, R, seed in [(4, 0.6, 0), (5, 0.4, 1), (6, 0.5, 2)]:
        code = build_universal_code(n, R, 2)
        sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(2), seed=seed))
        enc = scalar_quantizer_encoder([0, 1], n)
        kern = build_gamma_kernel(sys, enc, bsc_joint(0.1))
        rep = structural_checks(kern)
        assert rep.passed, rep
        assert rep.row_sum_max_error <= 1e-10


def test_structural_checks_catch_corrupted_kernel():
    code = build_universal_code(4, 0.6, 2)
    sys = Cryptosystem(code, random_affine(4, code.m, FieldSpec(2), seed=7))
    enc = scalar_quantizer_encoder([0, 1], 4)
    kern = build_gamma_kernel(sys, enc, bsc_joint(0.1))
    bad = kern.key_image_posterior.copy()
    bad[0, 3] += 1e-3
    corrupted = replace(kern, key_image_posterior=bad, _sub=None)
    rep = structural_checks(corrupted)
    assert not rep.row_sums_ok
    assert rep.row_sum_witness is not None
    c, a = rep.row_sum_witness
    assert a == 0  # the perturbed message column is identified


def test_structural_checks_match_per_message_loop():
    # valid kernels: both pass; a decoding set with one member removed and
    # random posteriors: the row sums 1 - post_a(c - t0) have one clear
    # worst entry, and both find it at the same (ciphertext, message)
    rng = np.random.default_rng(5)
    ternary = ChannelMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    for q, n, R, p_kz in [
        (2, 6, 0.5, bsc_joint(0.1)),
        (2, 9, 0.5, bsc_joint(0.1)),  # 512 messages: more than one chunk
        (3, 4, 0.8, joint_from_channel(Pmf.uniform(3), ternary)),
    ]:
        code = build_universal_code(n, R, q)
        sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=n))
        enc = scalar_quantizer_encoder(list(range(q)), n)
        kern = build_gamma_kernel(sys, enc, p_kz)
        got, want = structural_checks(kern), kernel_checks_oracle(kern)
        assert got.passed and want.passed
        assert got.row_sum_max_error <= 1e-12 and got.uniform_max_error <= 1e-12
        post = rng.dirichlet(np.ones(kern.image_count), size=kern.message_count)
        noisy = replace(kern, key_image_posterior=post)
        noisy = replace(noisy, image_counts=without_member(kern.image_counts, code, 3))
        got, want = structural_checks(noisy), kernel_checks_oracle(noisy)
        assert not got.passed and not want.passed
        assert got.row_sum_witness == want.row_sum_witness
        assert got.uniform_witness == want.uniform_witness
        assert abs(got.row_sum_max_error - want.row_sum_max_error) <= 1e-12
        assert abs(got.uniform_max_error - want.uniform_max_error) <= 1e-12


def test_leakage_decays_inside_secure_region():
    # per-symbol hash rate ln2/4 = 0.173 below H(K|Z) = 0.611 for BSC(0.3):
    # the best affine encoder of each block length (the existence form of
    # the achievability claim) drives the worst-case leakage down in n along
    # the constant-ratio subsequence m/n = 1/4
    p_kz = bsc_joint(0.3)
    best = []
    for n in (4, 8, 12):
        code = build_universal_code(n, 0.18, 2)
        vals = []
        for s in range(16):
            keymap = random_affine(n, code.m, FieldSpec(2), seed=[s, n])
            sys = Cryptosystem(code, keymap)
            enc = scalar_quantizer_encoder([0, 1], n)
            kern = build_gamma_kernel(sys, enc, p_kz)
            vals.append(delta_max_mi(kern))
            assert abs(vals[-1] - capacity_oracle(kern).value) <= 1e-9
        best.append(min(vals))
    assert best[0] > best[1] > best[2]
    assert best[2] < 1e-4  # frozen: 2.2e-5 at n = 12


def test_leakage_grows_inside_helper_region():
    # hash rate above H(K|Z): the equivocation deficit, and with it the
    # leakage lower bound, grows linearly in n (the converse trend)
    p_kz = bsc_joint(0.1)
    vals = []
    for n in (4, 6, 8):
        code = build_universal_code(n, 0.5, 2)
        keymap = random_affine(n, code.m, FieldSpec(2), seed=[3, n])
        sys = Cryptosystem(code, keymap)
        enc = scalar_quantizer_encoder([0, 1], n)
        kern = build_gamma_kernel(sys, enc, p_kz)
        vals.append(delta_max_mi(kern))
        assert abs(vals[-1] - capacity_oracle(kern).value) <= 1e-9
        lb = delta_max_lower_bound(kern)
        assert vals[-1] >= lb - 1e-9
    assert vals[0] < vals[1] < vals[2]


def test_condition_sampled_beyond_exhaustive_range(monkeypatch):
    # q^{2n} = 2^24 exceeds the exhaustive cap: the spot check runs on
    # 10^5 sampled pairs through the public methods
    monkeypatch.setattr(crypto, "SAMPLE_PAIRS", 10**5)
    code = build_universal_code(12, 0.5, 2)
    keymap = random_affine(12, code.m, FieldSpec(2), seed=1)
    sys = Cryptosystem(code, keymap)
    assert sys.validation == "sampled"


def test_leakage_report_row():
    code = build_universal_code(4, 0.5, 2)
    sys = Cryptosystem(code, random_affine(4, code.m, FieldSpec(2), seed=8))
    enc = scalar_quantizer_encoder([0, 1], 4)
    rep = leakage_report(sys, enc, bsc_joint(0.1), Pmf.bernoulli(0.11))
    assert rep.lower_bound - 1e-6 <= rep.delta_max <= rep.upper_bound + 1e-6
    assert rep.delta_mi <= rep.delta_max + 1e-6
    assert rep.delta_max == rep.upper_bound
    assert rep.diagnostics == {"kernel": "translation", "blocks": 1, "messages_per_block": 1}


# ---------------------------------------------------------------------------
# Translation kernel: the closed form against the dense kernel
# ---------------------------------------------------------------------------

TERNARY_SYMMETRIC = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
CIRCULANT = [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]


def criteria(kern, p_img):
    """The four leakage columns of one kernel, for the codeword law p_img:
    delta_mi, delta_max, lb, ub."""
    return (
        delta_mi(kern, p_img),
        delta_max_mi(kern),
        delta_max_lower_bound(kern),
        delta_max_upper_bound(kern),
    )


def one_row(kern):
    """The law of S, the one row of a translation kernel's one block."""
    (ids, p_message, rows), = kern.blocks()
    assert (kern.block_count, kern.block_messages) == (1, 1)
    assert ids.size == 0 and np.array_equal(p_message, [1.0]) and len(rows) == 1
    return rows[0]


def held_whole(kern, code):
    """A translation kernel's one row held as a ``GammaKernel``, with the
    code's X^n tables, for the oracles that read explicit channel rows."""
    images, in_d, _ = code.full_tables()
    return leakage_module.GammaKernel(
        q=kern.q, n=kern.n, m=kern.m, image_counts=kern.image_counts,
        key_equivocation=kern.key_equivocation, image_of=images, in_decoding_set=in_d,
        p_message=np.ones(1), key_image_posterior=one_row(kern)[None],
        message_ids=np.zeros(0, dtype=np.int64),
    )


def without_member(counts, code, i):
    """``image_counts`` with the i-th decoding-set member, in lexicographic
    order, taken out of its codeword's count."""
    images, in_d, _ = code.full_tables()
    counts = counts.copy()
    counts[images[np.flatnonzero(in_d)[i]]] -= 1
    return counts


def assert_translation_matches_dense(sys, enc, p_kz, laws):
    fast = build_translation_kernel(sys, enc, p_kz)
    assert fast is not None
    dense = build_gamma_kernel(sys, enc, p_kz)
    assert fast.key_equivocation == dense.key_equivocation
    # message 0 (every symbol in cell 0, shift 0) has the law of S moved by
    # the key map's offset b: post_0(c) = S(c - b)
    b = int(sys.keymap.offset @ (sys.q ** np.arange(sys.m - 1, -1, -1)))
    moved = one_row(fast)[dense.sub_index()[:, b]]
    assert np.max(np.abs(dense.key_image_posterior[0] - moved)) <= 1e-15
    for p_x in laws:
        p_img = sys.code.image_law(p_x)
        got, want = criteria(fast, p_img), criteria(dense, p_img)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, (got, want)
        assert got[2] == want[2]  # lb reads the same key equivocation


def system(n, R, q, seed):
    code = build_universal_code(n, R, q)
    return Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=seed))


@pytest.mark.parametrize("n", range(2, 13))
def test_translation_kernel_matches_dense_oracle_binary(n):
    rng = np.random.default_rng(n)
    laws = [Pmf.bernoulli(0.11), Pmf.uniform(2), rng.dirichlet(np.ones(2**n))]
    enc = scalar_quantizer_encoder([0, 1], n)
    assert_translation_matches_dense(system(n, 0.5, 2, n), enc, bsc_joint(0.1), laws)


@pytest.mark.parametrize("W", [TERNARY_SYMMETRIC, CIRCULANT], ids=["symmetric", "circulant"])
@pytest.mark.parametrize("n", range(2, 7))
def test_translation_kernel_matches_dense_oracle_ternary(n, W):
    rng = np.random.default_rng(n)
    laws = [Pmf([0.7, 0.2, 0.1]), Pmf.uniform(3), rng.dirichlet(np.ones(3**n))]
    p_kz = joint_from_channel(Pmf.uniform(3), ChannelMatrix(W))
    enc = scalar_quantizer_encoder([0, 1, 2], n)
    assert_translation_matches_dense(system(n, 0.8, 3, n), enc, p_kz, laws)


def circulant(q, p):
    """The q-ary channel that keeps a symbol with probability p and moves
    it to each other symbol with probability (1 - p) / (q - 1)."""
    row = [p] + [(1 - p) / (q - 1)] * (q - 1)
    return [row[q - i:] + row[:q - i] for i in range(q)]


@pytest.mark.parametrize("q, ns, R, W", [
    (2, (4, 8, 12, 16), 0.5, ChannelMatrix.bsc(0.1).rows),
    (3, (3, 5, 7), 0.8, CIRCULANT),
    (5, (2, 3, 4), 1.2, circulant(5, 0.6)),
], ids=["q2", "q3", "q5"])
def test_translation_kernel_row_is_the_per_symbol_fold(q, ns, R, W):
    # the translation kernel runs the dense fold's steps on one column from
    # the zero word; that is the per-symbol fold of the law of S, bit for bit
    p_kz = joint_from_channel(Pmf.uniform(q), ChannelMatrix(W))
    for n in ns:
        enc = scalar_quantizer_encoder(list(range(q)), n)
        nu = leakage_module._translation_law(adversary.adversary_joint(enc, p_kz))
        for seed in (0, 7):
            sys = system(n, R, q, seed)
            row = one_row(build_translation_kernel(sys, enc, p_kz))
            assert np.array_equal(row, translation_fold_oracle(sys, nu)), (n, seed)


@pytest.mark.parametrize("n, R", [(1, 0.7), (2, 0.7), (3, 0.5)])
def test_translation_kernel_capacity_is_delta_max(n, R):
    # the one row is the additive channel x -> encode(x) + S; the capacity of
    # its explicit rows is m ln q - H(S)
    sys = system(n, R, 2, n)
    kern = build_translation_kernel(sys, scalar_quantizer_encoder([0, 1], n), bsc_joint(0.2))
    assert abs(delta_max_mi(kern) - capacity_oracle(held_whole(kern, sys.code)).value) <= 1e-9


def test_translation_kernel_skips_cells_of_zero_probability():
    # observation 2 never occurs; the two live cell laws are translates
    W = ChannelMatrix([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]])
    p_kz = joint_from_channel(Pmf.uniform(2), W)
    enc = scalar_quantizer_encoder([0, 1, 2], 5)
    assert_translation_matches_dense(system(5, 0.5, 2, 5), enc, p_kz, [Pmf.bernoulli(0.2)])


def test_non_symmetric_adversaries_take_the_dense_kernel():
    # the translation test is exact: a key law other than uniform on the
    # BSC, the benchmark's ternary law and a table adversary all fail it,
    # and the report is the dense kernel's, bit for bit
    ternary = joint_from_channel(Pmf([0.4, 0.35, 0.25]), ChannelMatrix(TERNARY_SYMMETRIC))
    skewed = bsc_joint(0.1, Pmf([0.7, 0.3]))
    cases = [
        (system(6, 0.5, 2, 6), scalar_quantizer_encoder([0, 1], 6), skewed),
        (system(4, 0.8, 3, 4), scalar_quantizer_encoder([0, 1, 2], 4), ternary),
        (system(4, 0.5, 2, 4), TableEncoder(np.arange(16) % 3, n=4, obs_size=2), bsc_joint(0.1)),
    ]
    for sys, enc, p_kz in cases:
        assert build_translation_kernel(sys, enc, p_kz) is None
        p_x = Pmf.uniform(sys.q)
        rep = leakage_report(sys, enc, p_kz, p_x)
        assert rep.diagnostics["kernel"] == "dense"
        want = criteria(build_gamma_kernel(sys, enc, p_kz), sys.code.image_law(p_x))
        assert (rep.delta_mi, rep.delta_max, rep.lower_bound, rep.upper_bound) == want


def test_coarse_quantizer_takes_the_path_its_cell_laws_allow():
    # one cell: its law is the key law, a translate of itself
    sys = system(8, 0.5, 2, 8)
    enc = scalar_quantizer_encoder([0, 0], 8)
    rep = leakage_report(sys, enc, bsc_joint(0.1), Pmf.bernoulli(0.11))
    assert rep.diagnostics["kernel"] == "translation"
    assert_translation_matches_dense(sys, enc, bsc_joint(0.1), [Pmf.bernoulli(0.11)])
    # cells {0} and {1, 2} of the ternary symmetric channel: p(k | {1, 2}) is
    # proportional to (0.2, 0.9, 0.9), no translate of (0.8, 0.1, 0.1)
    sys = system(4, 0.8, 3, 4)
    p_kz = joint_from_channel(Pmf.uniform(3), ChannelMatrix(TERNARY_SYMMETRIC))
    enc = scalar_quantizer_encoder([0, 1, 1], 4)
    assert build_translation_kernel(sys, enc, p_kz) is None
    rep = leakage_report(sys, enc, p_kz, Pmf.uniform(3))
    assert rep.diagnostics["kernel"] == "dense"


def test_translation_kernel_checks_only_its_vector_against_the_cap(monkeypatch):
    # n=8, m=5: the dense kernel's q^n * q^m = 2^13 entries exceed a cap of
    # 1000, the translation kernel's q^m vector and its digits do not; a cap
    # of 100 refuses the q^m * m = 160 digit table of Z_q^m under its own
    # name, and a cap of 31 the vector
    sys = system(8, 0.45, 2, 8)
    assert sys.m == 5
    enc = scalar_quantizer_encoder([0, 1], 8)
    sys.code.full_tables()
    monkeypatch.setattr(probability, "TABLE_CAP", 1000)
    with pytest.raises(TableCapError, match=r"q\^n \* q\^m = 2\^13"):
        build_gamma_kernel(sys, enc, bsc_joint(0.1))
    assert one_row(build_translation_kernel(sys, enc, bsc_joint(0.1))).shape == (32,)
    monkeypatch.setattr(probability, "TABLE_CAP", 100)
    with pytest.raises(TableCapError, match=r"q\^m \* m = 160 entries"):
        build_translation_kernel(sys, enc, bsc_joint(0.1))
    monkeypatch.setattr(probability, "TABLE_CAP", 31)
    with pytest.raises(TableCapError, match=r"q\^m = 2\^5"):
        build_translation_kernel(sys, enc, bsc_joint(0.1))


def test_translation_kernel_keeps_the_onto_precondition():
    sys = system(4, 0.45, 2, 4)
    kern = build_translation_kernel(sys, scalar_quantizer_encoder([0, 1], 4), bsc_joint(0.1))
    counts = without_member(kern.image_counts, sys.code, 0)
    with pytest.raises(ValueError, match="onto"):
        delta_max_mi(replace(kern, image_counts=counts))


BLAS_ROW = """
from leaklab.adversary import scalar_quantizer_encoder
from leaklab.codec import build_universal_code
from leaklab.crypto import Cryptosystem
from leaklab.galois import FieldSpec, random_affine
from leaklab.leakage import leakage_report
from leaklab.probability import ChannelMatrix, Pmf, joint_from_channel

code = build_universal_code(10, 0.5, 2)
sys = Cryptosystem(code, random_affine(10, code.m, FieldSpec(2), seed=3))
erasure = ChannelMatrix([[0.8, 0.2, 0.0], [0.0, 0.2, 0.8]])
p_kz = joint_from_channel(Pmf.uniform(2), erasure)
rep = leakage_report(sys, scalar_quantizer_encoder([0, 1, 2], 10), p_kz, Pmf.bernoulli(0.11))
values = (rep.delta_mi, rep.delta_max, rep.lower_bound, rep.upper_bound)
print(rep.diagnostics["kernel"], *(v.hex() for v in values))
"""


def test_dense_row_bits_do_not_depend_on_blas_threads():
    # q=2, n=10, erasure channel: 3^10 messages, so the averages over
    # messages are long reductions, which a BLAS dot splits over its threads
    src = str(Path(leaklab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [executable, "-c", BLAS_ROW], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0].startswith("dense ")
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Dense stream: the blocks against the materialized oracle
# ---------------------------------------------------------------------------

ZERO_CELL = [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]]  # cell 2 never occurs


@pytest.mark.parametrize("q, n, R, W, p_k, labels", [
    (2, 9, 0.5, ChannelMatrix.bsc(0.1).rows, [0.7, 0.3], [0, 1]),
    (2, 6, 0.5, ZERO_CELL, [0.6, 0.4], [0, 1, 2]),  # blocks of no message
    (3, 5, 0.8, CIRCULANT, [0.4, 0.35, 0.25], [0, 1, 2]),
    (3, 6, 0.8, TERNARY_SYMMETRIC, [0.5, 0.3, 0.2], [0, 1, 1]),
], ids=["binary", "zero_cell", "ternary", "ternary_coarse"])
def test_dense_stream_equals_the_materialized_oracle(q, n, R, W, p_k, labels, monkeypatch):
    # the oracle is built in 256-message chunks; the stream splits at
    # prefixes of 2 or more symbols, yet every per-message term, every
    # criterion and every check is the oracle's, bit for bit
    p_kz = joint_from_channel(Pmf(p_k), ChannelMatrix(W))
    sys = system(n, R, q, n)
    enc = scalar_quantizer_encoder(labels, n)
    p_img = sys.code.image_law(Pmf(np.random.default_rng(n).dirichlet(np.ones(q))))
    oracle = build_gamma_kernel(sys, enc, p_kz)
    want = criteria(oracle, p_img)
    want_h = leakage_module._row_entropies(oracle.key_image_posterior)
    counts = without_member(oracle.image_counts, sys.code, 3)
    want_checks = structural_checks(replace(oracle, image_counts=counts))
    assert not want_checks.passed and want_checks.row_sum_witness is not None
    for chunk in (16, 8):
        monkeypatch.setattr(leakage_module, "_CHUNK", chunk)
        stream = leakage_module.build_dense_stream(sys, enc, p_kz)
        assert stream.block_count >= enc.num_cells**2
        ids, p_message, rows = zip(*stream.blocks())
        assert min(len(r) for r in rows) >= 2 and max(len(r) for r in rows) <= chunk
        assert np.array_equal(np.concatenate(ids), oracle.message_ids)
        assert np.array_equal(np.concatenate(p_message), oracle.p_message)
        assert np.array_equal(np.concatenate(rows), oracle.key_image_posterior)
        h = np.concatenate([leakage_module._row_entropies(r) for r in rows])
        assert np.array_equal(h, want_h)
        assert criteria(stream, p_img) == want
        assert structural_checks(stream) == structural_checks(oracle)
        assert structural_checks(replace(stream, image_counts=counts)) == want_checks


def test_dense_stream_of_a_table_adversary_cuts_its_enumeration(monkeypatch):
    sys = system(4, 0.5, 2, 4)
    enc = TableEncoder(np.arange(16) % 5, n=4, obs_size=2)
    p_kz = bsc_joint(0.1, Pmf([0.7, 0.3]))
    oracle = build_gamma_kernel(sys, enc, p_kz)
    monkeypatch.setattr(leakage_module, "_CHUNK", 2)
    stream = leakage_module.build_dense_stream(sys, enc, p_kz)
    assert (stream.block_count, stream.block_messages) == (3, 2)
    ids, p_message, rows = zip(*stream.blocks())
    assert np.array_equal(np.concatenate(ids), oracle.message_ids)
    assert np.array_equal(np.concatenate(p_message), oracle.p_message)
    assert np.array_equal(np.concatenate(rows), oracle.key_image_posterior)
    p_img = sys.code.image_law(Pmf.bernoulli(0.2))
    assert criteria(stream, p_img) == criteria(oracle, p_img)


def test_dense_report_records_its_blocks():
    sys = system(10, 0.5, 2, 10)
    rep = leakage_report(sys, scalar_quantizer_encoder([0, 1], 10), bsc_joint(0.1, Pmf([0.7, 0.3])),
                         Pmf.bernoulli(0.11))
    assert rep.diagnostics == {"kernel": "dense", "blocks": 4, "messages_per_block": 256}
    sys = system(6, 0.8, 3, 6)
    p_kz = joint_from_channel(Pmf([0.4, 0.35, 0.25]), ChannelMatrix(TERNARY_SYMMETRIC))
    rep = leakage_report(sys, scalar_quantizer_encoder([0, 1, 2], 6), p_kz, Pmf.uniform(3))
    assert rep.diagnostics == {"kernel": "dense", "blocks": 3, "messages_per_block": 243}


def test_dense_report_holds_one_block_and_folds_once(monkeypatch):
    # q=2, n=13, m=9: the (2^13, 2^9) posterior would take 32 MiB; the
    # stream holds one 256-message block of 1 MiB and its temporaries, and
    # the one report runs the fold once, for all four criteria
    sys = system(13, 0.5, 2, 13)
    assert sys.m == 9
    sys.code.full_tables()
    fold = leakage_module._key_image_message_blocks
    made = []

    def counted(*args):
        for block in fold(*args):
            made.append(block.shape)
            yield block

    monkeypatch.setattr(leakage_module, "_key_image_message_blocks", counted)
    enc = scalar_quantizer_encoder([0, 1], 13)
    p_kz = bsc_joint(0.1, Pmf([0.7, 0.3]))
    tracemalloc.start()
    try:
        rep = leakage_report(sys, enc, p_kz, Pmf.bernoulli(0.11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.diagnostics["blocks"] == 32
    assert made == [(2**9, 256)] * 32
    table = 2**13 * 2**9 * 8
    assert peak < table / 4, peak
