import math
import re

import numpy as np
import pytest

from helpers import xlogx_masked_oracle
from leaklab import probability
from leaklab.probability import (
    ChannelMatrix,
    Pmf,
    TableCapError,
    TypeClass,
    all_sequences,
    conditional_entropy,
    entropy,
    enumerate_types,
    joint_from_channel,
    kl_divergence,
    multinomial,
    product_law,
    type_of,
)

LN2 = math.log(2)


def test_entropy_uniform_binary():
    assert abs(entropy(Pmf.uniform(2)) - LN2) < 1e-15


def test_entropy_bernoulli_closed_form():
    # frozen: -0.1 ln 0.1 - 0.9 ln 0.9
    assert abs(entropy(Pmf.bernoulli(0.1)) - 0.3250829733914482) < 1e-15


def test_entropy_handles_zeros():
    assert entropy(Pmf([1.0, 0.0])) == 0.0


def test_information_identity_random_joints():
    rng = np.random.default_rng(0)
    for _ in range(40):
        j = rng.random((3, 4))
        j /= j.sum()
        # chain rule cross-check: H(X|Y) = H(X,Y) - H(Y)
        assert abs(conditional_entropy(j) - (entropy(j) - entropy(j.sum(0)))) < 1e-12


def test_kl_divergence_properties():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = rng.random(4)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        assert kl_divergence(p, q) >= 0
    p = rng.random(5)
    p /= p.sum()
    assert kl_divergence(p, p) == 0.0


def test_kl_divergence_positive_when_distinct():
    # equality holds only at p = q: separated pairs stay bounded away from 0
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        if np.abs(p - q).max() > 1e-3:
            assert kl_divergence(p, q) > 1e-12


def test_kl_divergence_support_violation():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf([0.5, 0.6])
    with pytest.raises(ValueError):
        Pmf([-0.1, 1.1])


def test_non_finite_probabilities_are_refused():
    # NaN passes both "min < 0" and "|sum - 1| > tol", so it is checked first
    for bad in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            Pmf(bad)
        with pytest.raises(ValueError, match="channel row 1 has non-finite"):
            ChannelMatrix([[0.5, 0.5], bad])


def test_pmf_sum_error_prints_a_plain_float():
    with pytest.raises(ValueError) as err:
        Pmf([0.5, 0.4])
    assert str(err.value) == "pmf sums to 0.9, not 1 within 1e-12"


def test_product_distribution_values():
    law = product_law(Pmf.bernoulli(0.1), 2)
    assert abs(law[0b11] - 0.01) < 1e-15
    u = product_law(Pmf.uniform(2), 10)
    assert u[0b0101010101] == 2.0**-10


def test_product_distribution_sums_to_one():
    p = Pmf([0.2, 0.3, 0.5])
    law = product_law(p, 3)
    for s, v in zip(all_sequences(3, 3), law, strict=True):  # lexicographic order
        assert abs(v - np.prod(p.probs[s])) < 1e-15
    assert abs(law.sum() - 1.0) < 1e-12


def test_xlogx_equals_masked_form_bit_for_bit():
    tiny = np.finfo(np.float64).tiny
    rng = np.random.default_rng(0)
    table = rng.random((64, 33)) ** 8
    table[rng.random(table.shape) < 0.3] = 0.0
    table[:, 0] = 1.0
    table[:, 1] = tiny / 2**rng.integers(1, 52, size=64)  # subnormals
    table[:, 2] = tiny
    table[:, 3] = -0.0
    table[:, 4] = -1e-17  # a convolution's rounding residue
    for a in (table, table.T, table[:, :7], np.array([0.0, 1.0, 5e-324, np.inf])):
        # the same bits, the signs of zeros too
        assert probability._xlogx(a).tobytes() == xlogx_masked_oracle(a).tobytes()


def test_product_distribution_cap(monkeypatch):
    monkeypatch.setattr(probability, "TABLE_CAP", 2**20)
    with pytest.raises(ValueError):
        product_law(Pmf.uniform(2), 40)


def test_cap_refusal_names_counts_of_any_size(monkeypatch):
    # a count past 4,300 decimal digits, which str() refuses, reads as a
    # power of two; smaller counts read exactly
    for entries, text in (
        (2**15000 * 15000, "q^n * n = about 2^15014 entries"),
        (2**15000, "q^n * n = 2^15000 entries"),
        (3**20 * 20, "q^n * n = 69735688020 entries"),
    ):
        with pytest.raises(TableCapError, match=re.escape(text + " exceed the table cap 2^26")):
            probability.check_table("q^n * n", entries)
    monkeypatch.setattr(probability, "TABLE_CAP", 100)
    with pytest.raises(TableCapError, match=r"= 160 entries exceed the table cap 100$"):
        probability.check_table("q^m * m", 160)


def test_enumerate_types_binary_n3():
    types = enumerate_types(3, 2)
    assert len(types) == 4
    assert sorted(t.size for t in types) == [1, 1, 3, 3]
    assert sum(t.size for t in types) == 8


@pytest.mark.parametrize("n,q", [(3, 2), (5, 2), (4, 3), (6, 2)])
def test_type_count_bound(n, q):
    assert len(enumerate_types(n, q)) <= (n + 1) ** q


def test_type_rank_unrank_round_trip_exhaustive():
    for n, q in [(6, 2), (4, 3)]:
        for seq in all_sequences(n, q):
            t = type_of(seq, q)
            assert np.array_equal(t.unrank(t.rank(seq)), seq)


def test_type_class_size_is_multinomial():
    t = TypeClass((3, 2, 1))
    assert t.size == multinomial(6, (3, 2, 1)) == 60


def test_type_probability_partition():
    # sum over types of size * per-sequence probability = 1
    p = Pmf.bernoulli(0.11)
    for n in (8, 14):
        total = sum(
            t.size * math.exp(t.log_prob_each(p)) for t in enumerate_types(n, 2)
        )
        assert abs(total - 1.0) < 1e-10


def test_entropy_key_is_permutation_invariant():
    assert TypeClass((1, 15)).entropy() == TypeClass((15, 1)).entropy()
    assert TypeClass((2, 3, 5)).entropy() == TypeClass((5, 2, 3)).entropy()


def test_json_round_trip():
    # the config reader builds Pmf and ChannelMatrix from JSON lists, which
    # they keep entry for entry
    assert Pmf([0.4, 0.6]).probs.tolist() == [0.4, 0.6]
    w = ChannelMatrix([[0.9, 0.1], [0.2, 0.8]])
    assert w.rows.shape == (2, 2)
    assert w.rows.tolist() == [[0.9, 0.1], [0.2, 0.8]]


def test_joint_from_channel():
    j = joint_from_channel(Pmf.uniform(2), ChannelMatrix.bsc(0.1))
    assert j.shape == (2, 2)
    assert abs(j.sum() - 1.0) < 1e-15
    assert abs(j[0, 1] - 0.05) < 1e-15
