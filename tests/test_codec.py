import json
import math

import numpy as np
import pytest

from leaklab import probability
from leaklab.adversary import scalar_quantizer_encoder
from leaklab.cli import main
from leaklab.codec import (
    UniversalCode,
    build_universal_code,
    error_probability_exact,
    exponent_E,
    verify_error_bound,
)
from leaklab.crypto import Cryptosystem
from leaklab.galois import FieldSpec, random_affine
from leaklab.leakage import build_gamma_kernel
from leaklab.probability import (
    ChannelMatrix,
    Pmf,
    all_sequences,
    entropy,
    joint_from_channel,
    product_law,
)

from helpers import (
    decode_oracle,
    encode_oracle,
    image_counts_oracle,
    image_law_oracle,
    rank_oracle,
    unrank_oracle,
)

LN2 = math.log(2)


def brute_force_pe(code, p):
    """Oracle: enumerate X^n and replay encode/decode for every sequence."""
    total = 0.0
    for seq in all_sequences(code.n, code.q):
        if not np.array_equal(code.decode(code.encode(seq)), seq):
            total += float(np.prod(p.probs[seq]))
    return total


def exponent_grid_oracle(R, gamma, p1, points=100001):
    """Oracle for binary sources with H(p1) < R - gamma < ln 2.

    A dense grid certifies that the constrained minimum sits on the entropy
    boundary nearest p1; the boundary point itself is then found by
    bisection on the (monotone) binary entropy.
    """
    target = R - gamma
    ts = np.linspace(1e-12, 1 - 1e-12, points)
    hs = -(ts * np.log(ts) + (1 - ts) * np.log(1 - ts))
    ds = ts * np.log(ts / p1) + (1 - ts) * np.log((1 - ts) / (1 - p1))
    feas = hs >= target
    if not feas.any():
        return math.inf
    grid_min = float(np.min(np.where(feas, ds, np.inf)))
    # boundary point on the p1 side (p1 < 0.5: entropy rises on (0, 0.5])
    lo, hi = 1e-12, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = -(mid * math.log(mid) + (1 - mid) * math.log(1 - mid))
        if h < target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    boundary = t * math.log(t / p1) + (1 - t) * math.log((1 - t) / (1 - p1))
    assert boundary <= grid_min + 1e-9  # the boundary really is the minimum
    return boundary


def test_lossless_regime():
    # R >= ln q forces m = n, D = X^n, zero error for every source
    code = build_universal_code(5, 0.75, 2)
    assert code.m == 5
    assert error_probability_exact(code, Pmf.bernoulli(0.3)) == 0.0
    for seq in all_sequences(5, 2):
        assert np.array_equal(code.decode(code.encode(seq)), seq)


def test_rate_arithmetic_and_decoding_set_size():
    code = build_universal_code(4, 0.6, 2)
    assert code.m == 3
    assert code.decoding_set_size == 8
    assert code.rate <= 0.6 + 1e-12
    assert code.rate_window_ok(0.6)


def test_m_zero_is_error():
    with pytest.raises(ValueError):
        build_universal_code(1, 0.5, 2)
    with pytest.raises(ValueError):
        build_universal_code(4, -0.1, 2)


@pytest.mark.parametrize("n", [8, 12])
def test_exact_error_probability_matches_enumeration(n):
    code = build_universal_code(n, 0.5, 2)
    p = Pmf.bernoulli(0.11)
    assert abs(error_probability_exact(code, p) - brute_force_pe(code, p)) < 1e-12


def test_exact_error_probability_ternary():
    code = build_universal_code(5, 0.8, 3)
    p = Pmf([0.7, 0.2, 0.1])
    assert abs(error_probability_exact(code, p) - brute_force_pe(code, p)) < 1e-12


def test_degenerate_source_inside_decoding_set():
    code = build_universal_code(6, 0.5, 2)
    # the all-ones sequence is a singleton type class of entropy 0: in D
    assert code.full_tables()[1][-1]  # the last word in lexicographic order
    assert error_probability_exact(code, Pmf([0.0, 1.0])) == 0.0


@pytest.mark.parametrize("n,q", [(8, 2), (12, 2), (16, 2), (5, 3)])
def test_property1_and_bijectivity_exhaustive(n, q):
    code = build_universal_code(n, 0.5 if q == 2 else 0.8, q)
    seqs = all_sequences(n, q)
    in_d = np.fromiter(
        (np.array_equal(code.decode(code.encode(s)), s) for s in seqs),
        dtype=bool,
        count=len(seqs),
    )
    assert int(in_d.sum()) == code.decoding_set_size  # |D| = q^m
    # phi restricted to D is injective onto X^m, and surjective overall
    radix = q ** np.arange(code.m - 1, -1, -1)
    imgs = np.array([int(code.encode(s) @ radix) for s in seqs])
    assert np.unique(imgs[in_d]).size == code.decoding_set_size
    assert np.unique(imgs).size == code.decoding_set_size


def test_decoding_set_is_type_monotone():
    # D contains whole type classes except at most one boundary class
    code = build_universal_code(10, 0.4, 2)
    dsize = code.decoding_set_size
    partial = 0
    for t, off in zip(code.type_order, code.offsets):
        inside = min(max(dsize - off, 0), t.size)
        if 0 < inside < t.size:
            partial += 1
    assert partial <= 1


def test_far_block_length_builds_no_class_size(monkeypatch):
    # the class offsets are summed on first use, not at construction, so a
    # block length that the table caps refuse builds no big-integer size
    calls = []
    monkeypatch.setattr(probability, "multinomial", lambda *a: calls.append(a))
    code = build_universal_code(15000, 0.5, 2)
    assert (code.m, calls) == (10820, [])


def test_full_tables_match_per_sequence_codec():
    # the tables against the scalar TypeClass.rank/unrank ranking
    for n, q, R in [(6, 2, 0.45), (4, 3, 0.9), (10, 2, 0.5)]:
        code = build_universal_code(n, R, q)
        images, in_d, order = code.full_tables()
        seqs = all_sequences(n, q)
        radix = q ** np.arange(code.m - 1, -1, -1)
        rng = np.random.default_rng(0)
        idx = rng.choice(len(seqs), size=min(200, len(seqs)), replace=False)
        for i in idx:
            assert images[i] == int(encode_oracle(code, seqs[i]) @ radix)
            assert in_d[i] == (rank_oracle(code, seqs[i]) < code.decoding_set_size)
        # order maps rank -> lex index
        for r in rng.choice(code.decoding_set_size, size=20):
            lex = int(order[r])
            assert np.array_equal(unrank_oracle(code, int(r)), seqs[lex])
        # built once, cached, and read-only
        assert code.full_tables() is code.full_tables()
        assert not images.flags.writeable


@pytest.mark.parametrize(
    "code",
    [
        build_universal_code(8, 0.5, 2),
        build_universal_code(10, 0.5, 2),
        build_universal_code(5, 0.8, 3),
        UniversalCode.identity(5, 2),
    ],
    ids=["q2n8", "q2n10", "q3n5", "identity"],
)
def test_batch_and_scalar_codec_match_rank_oracle(code):
    # every sequence and every codeword, as one batch and one at a time
    seqs = all_sequences(code.n, code.q)
    want = np.stack([encode_oracle(code, x) for x in seqs])
    assert np.array_equal(code.encode(seqs), want)
    assert all(np.array_equal(code.encode(x), w) for x, w in zip(seqs, want))
    words = all_sequences(code.m, code.q)
    want = np.stack([decode_oracle(code, c) for c in words])
    assert np.array_equal(code.decode(words), want)
    assert all(np.array_equal(code.decode(c), w) for c, w in zip(words, want))
    in_d = np.array([rank_oracle(code, x) < code.decoding_set_size for x in seqs])
    assert np.array_equal(code.full_tables()[1], in_d)


@pytest.mark.parametrize(
    "code",
    [
        build_universal_code(8, 0.5, 2),
        build_universal_code(5, 0.8, 3),
        UniversalCode.identity(5, 2),
    ],
    ids=["q2n8", "q3n5", "identity"],
)
def test_encode_of_the_code_table_is_a_fresh_gather(code):
    # the code's own X^n table is recognised by identity and gathered whole;
    # any other array with the same rows goes the validating, ranking path
    table = code.sequences()
    assert code.sequences() is table and not table.flags.writeable
    assert np.array_equal(table, all_sequences(code.n, code.q))
    got = code.encode(table)
    want = code.encode(all_sequences(code.n, code.q).copy())
    assert np.array_equal(got, want) and got.dtype == want.dtype
    assert got.flags.writeable and got.flags.owndata
    assert not np.shares_memory(got, table) and got is not code.encode(table)
    got[0] = 1 - got[0]  # writing into one result leaves the next unchanged
    assert np.array_equal(code.encode(table), want)


def test_codec_rejects_bad_batches():
    code = build_universal_code(6, 0.5, 2)  # m = 4
    for bad in (
        np.zeros((3, 5), dtype=int),  # wrong width
        np.zeros((3, 7), dtype=int),
        np.full((3, 6), 2),  # symbol outside [0, q)
        -np.ones((3, 6), dtype=int),
        np.zeros((2, 3, 6), dtype=int),  # neither one word nor a batch
        np.zeros((), dtype=int),
    ):
        with pytest.raises(ValueError):
            code.encode(bad)
    for bad in (np.zeros((3, 3), dtype=int), np.full((3, 4), 2), np.zeros((2, 3, 4), dtype=int)):
        with pytest.raises(ValueError):
            code.decode(bad)


@pytest.mark.parametrize(
    "code",
    [
        build_universal_code(6, 0.5, 2),
        build_universal_code(4, 0.8, 3),
        UniversalCode.identity(4, 2),
    ],
    ids=["type_q2", "type_q3", "identity"],
)
def test_image_law_and_counts_equal_the_oracle_kernel_bincounts(code):
    # the two q^m vectors the leakage criteria read, against the bincounts
    # over the oracle kernel's per-sequence image table
    q, n = code.q, code.n
    sys = Cryptosystem(code, random_affine(n, code.m, FieldSpec(q), seed=n))
    no_side_info = joint_from_channel(Pmf.uniform(q), ChannelMatrix(np.ones((q, 1))))
    kern = build_gamma_kernel(sys, scalar_quantizer_encoder([0], n), no_side_info)
    rng = np.random.default_rng(q)
    for p in (Pmf.uniform(q), Pmf(rng.dirichlet(np.ones(q)))):
        want = image_law_oracle(kern, product_law(p, n))
        assert np.array_equal(code.image_law(p), want)
    px = rng.dirichlet(np.ones(q**n))
    assert np.array_equal(code.image_law(px), image_law_oracle(kern, px))
    counts = code.image_counts()
    assert np.array_equal(counts, image_counts_oracle(kern)) and counts.dtype == np.float64
    assert np.array_equal(counts, np.ones(code.decoding_set_size))


def test_image_law_of_a_pmf_is_that_of_its_vector():
    for code, p in (
        (build_universal_code(6, 0.5, 2), Pmf.bernoulli(0.4)),
        (build_universal_code(4, 0.8, 3), Pmf([0.5, 0.3, 0.2])),
    ):
        vector = product_law(p, code.n)
        assert np.array_equal(code.image_law(p), code.image_law(vector))


def test_image_law_refuses_what_is_not_a_plaintext_law():
    code = build_universal_code(3, 0.5, 2)
    with pytest.raises(ValueError, match=r"length q\^n = 8"):
        code.image_law(np.full(7, 1 / 7))
    for entry, fix in ((np.nan, 0.125), (np.inf, 0.125), (-0.125, 0.375)):
        v = np.full(8, 1 / 8)
        v[2], v[3] = entry, fix  # the sum is 1 where it is finite
        with pytest.raises(ValueError, match="not a distribution"):
            code.image_law(v)
    with pytest.raises(ValueError, match="not a distribution"):
        code.image_law(np.full(8, (1 + 2e-9) / 8))
    assert code.image_law(np.full(8, (1 + 5e-10) / 8)).shape == (2**code.m,)


def test_pe_non_increasing_in_n_above_entropy():
    p = Pmf.bernoulli(0.11)  # H = 0.345 < R = 0.5
    pes = [error_probability_exact(build_universal_code(n, 0.5, 2), p) for n in (8, 12, 16)]
    assert pes[0] >= pes[1] >= pes[2]


def test_exponent_zero_when_feasible_at_source():
    p = Pmf.bernoulli(0.11)
    assert exponent_E(0.3, 0.05, p) == 0.0
    # uniform source, R - gamma = ln 2: only the uniform pmf is feasible
    assert exponent_E(LN2 + 0.01, 0.01, Pmf.uniform(2)) < 1e-12


def test_exponent_infinite_when_constraint_empty():
    assert exponent_E(LN2 + 0.2, 0.1, Pmf.uniform(2)) == math.inf


def test_exponent_rejects_bad_inputs():
    with pytest.raises(ValueError, match="gamma must be > 0"):
        exponent_E(0.5, 0.0, Pmf.uniform(2))
    with pytest.raises(ValueError, match="rate must be >= 0"):
        exponent_E(-0.1, 0.05, Pmf.uniform(2))


def test_exponent_matches_grid_oracle():
    val = exponent_E(0.5, 0.01, Pmf.bernoulli(0.11))
    oracle = exponent_grid_oracle(0.5, 0.01, 0.11)
    assert abs(val - oracle) < 1e-9
    # frozen from the oracle at development time
    assert abs(val - 0.0292527052) < 1e-7


def test_exponent_ternary_against_sampled_search():
    p = Pmf([0.6, 0.3, 0.1])
    R, gamma = 1.0, 0.05
    val = exponent_E(R, gamma, p)
    rng = np.random.default_rng(2)
    cand = rng.dirichlet([1, 1, 1], size=200000)
    hs = -np.sum(np.where(cand > 0, cand * np.log(cand), 0.0), axis=1)
    feas = cand[hs >= R - gamma]
    ds = np.sum(feas * (np.log(feas) - np.log(p.probs)), axis=1)
    assert val <= ds.min() + 1e-9  # our minimum beats random search
    assert ds.min() - val < 1e-3  # and random search confirms its level


def test_error_bound_holds():
    p = Pmf.bernoulli(0.11)
    for n in (8, 10, 12, 14):
        rep = verify_error_bound(build_universal_code(n, 0.5, 2), p, 0.05, R=0.5)
        assert rep.holds, (n, rep)


def test_error_bound_trivial_in_lossless_regime():
    rep = verify_error_bound(build_universal_code(4, 0.8, 2), Pmf.bernoulli(0.3), 0.05, R=0.8)
    assert rep.pe_exact == 0.0 and rep.holds


def test_strong_converse_trend_below_entropy():
    # R = 0.2 < H(Bern(0.3)) = 0.611: errors must dominate and grow with n
    p = Pmf.bernoulli(0.3)
    pes = [error_probability_exact(build_universal_code(n, 0.2, 2), p) for n in (8, 12, 16)]
    assert pes[2] >= pes[1] >= pes[0]
    assert pes[2] > 0.9


def test_identity_code():
    code = UniversalCode.identity(3, 2)
    for seq in all_sequences(3, 2):
        assert np.array_equal(code.encode(seq), seq)
        assert np.array_equal(code.decode(seq), seq)
    with pytest.raises(ValueError):
        UniversalCode(3, 2, 2, order="lexicographic")


def test_code_json_round_trip(tmp_path):
    # the build-code descriptor names every argument of the code
    code = build_universal_code(6, 0.5, 2)
    config = {"q": 2, "source": {"probs": [0.9, 0.1]}, "key": {"probs": [0.5, 0.5]},
              "W": {"rows": [[0.9, 0.1], [0.1, 0.9]]}, "n_list": [6], "R": 0.5}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["build-code", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "code_n6.json").read_text())
    back = UniversalCode(**{key: doc[key] for key in ("n", "m", "q", "order")})
    assert (back.n, back.m, back.q, back.order) == (code.n, code.m, code.q, code.order)
    x = np.array([0, 1, 1, 0, 1, 0])
    assert np.array_equal(back.encode(x), code.encode(x))
