import itertools
import math

import numpy as np
import pytest

from leaklab.adversary import (
    ScalarQuantizerEncoder,
    TableEncoder,
    best_scalar_quantizer,
    key_equivocation,
    scalar_quantizer_encoder,
    set_partitions,
)
from leaklab.probability import (
    ChannelMatrix,
    Pmf,
    all_sequences,
    conditional_entropy,
    joint_from_channel,
)

H01 = 0.3250829733914482  # binary entropy of 0.1, nats
LN2 = math.log(2)


def bsc_joint(p, p_k=None):
    return joint_from_channel(p_k or Pmf.uniform(2), ChannelMatrix.bsc(p))


def test_scalar_encoder_rate_accounting():
    enc = scalar_quantizer_encoder([0, 1, 1], n=4)
    assert enc.num_cells == 2
    assert enc.message_count == 16
    assert abs(enc.rate - LN2) < 1e-15
    assert enc.apply([0, 2, 1, 0]) == int("0110", 2)


def test_scalar_encoder_label_canonicalization():
    # labels renumbered by first appearance; gaps rejected after renumbering
    enc = scalar_quantizer_encoder([2, 0, 2], n=1)
    assert enc.cells == (0, 1, 0)
    with pytest.raises(ValueError):
        ScalarQuantizerEncoder((0, 2), 1)


def test_constant_quantizer_no_information():
    enc = scalar_quantizer_encoder([0, 0], n=6)
    assert abs(key_equivocation(enc, bsc_joint(0.1)) - 6 * LN2) < 1e-12


def test_identity_quantizer_identity_channel_full_leak():
    p_kz = joint_from_channel(Pmf.uniform(2), ChannelMatrix.identity(2))
    enc = scalar_quantizer_encoder([0, 1], n=5)
    assert abs(key_equivocation(enc, p_kz)) < 1e-12


def test_identity_quantizer_bsc_closed_form():
    # per-symbol equivocation is the binary entropy of the crossover
    enc = scalar_quantizer_encoder([0, 1], n=8)
    got = key_equivocation(enc, bsc_joint(0.1))
    assert abs(got - 8 * H01) < 1e-12


def test_table_encoder_matches_scalar_product_form():
    n = 3
    p_kz = bsc_joint(0.2, Pmf([0.6, 0.4]))
    scal = scalar_quantizer_encoder([0, 1], n=n)
    # same encoder expressed as an explicit table over Z^3
    table = np.array([scal.apply(z) for z in all_sequences(n, 2)])
    tab = TableEncoder(table, n=n, obs_size=2)
    assert abs(key_equivocation(tab, p_kz) - key_equivocation(scal, p_kz)) < 1e-12


def test_set_partitions_count():
    # S(4,1) + S(4,2) = 1 + 7
    parts = list(set_partitions(4, 2))
    assert len(parts) == 8
    assert len([p for p in parts if max(p) == 1]) == 7


def test_best_quantizer_identity_when_budget_allows():
    p_kz = bsc_joint(0.1)
    enc = best_scalar_quantizer(p_kz, R_A=math.log(2), n=4)
    assert enc.num_cells == 2
    got = key_equivocation(enc, p_kz)
    assert abs(got - 4 * H01) < 1e-12  # reaches H(K|Z) per symbol


def test_best_quantizer_zero_budget_is_constant():
    enc = best_scalar_quantizer(bsc_joint(0.1), R_A=0.0, n=3)
    assert enc.num_cells == 1


def test_best_quantizer_matches_brute_force():
    # |Z| = 4 synthetic channel, budget two cells: check against all
    # 7 two-cell partitions by direct conditional-entropy evaluation
    rows = [[0.55, 0.25, 0.15, 0.05], [0.05, 0.2, 0.3, 0.45]]
    joint = joint_from_channel(Pmf([0.5, 0.5]), ChannelMatrix(rows))

    def h_given_partition(labels):
        cells = max(labels) + 1
        grouped = np.zeros((2, cells))
        for z, c in enumerate(labels):
            grouped[:, c] += joint[:, z]
        return conditional_entropy(grouped, given=1)

    brute = min(
        h_given_partition(p) for p in set_partitions(4, 2) if max(p) == 1
    )
    enc = best_scalar_quantizer(joint, R_A=LN2, n=1)
    assert abs(h_given_partition(list(enc.cells)) - brute) < 1e-12


def test_best_quantizer_budget_past_the_alphabet_allows_every_partition():
    # exp(800) overflows a float; a budget of |Z| cells or more already
    # allows every partition, so R_A = 800 picks what R_A = ln |Z| picks
    rows = [[0.55, 0.25, 0.15, 0.05], [0.05, 0.2, 0.3, 0.45]]
    joint = joint_from_channel(Pmf([0.5, 0.5]), ChannelMatrix(rows))
    want = best_scalar_quantizer(joint, R_A=math.log(4), n=3)
    for R_A in (math.log(4) + 1e-3, 709.0, 710.0, 800.0, 1e308):
        assert best_scalar_quantizer(joint, R_A=R_A, n=3) == want, R_A


def test_best_quantizer_refuses_large_alphabets():
    rows = np.full((2, 13), 1.0 / 13)
    with pytest.raises(ValueError):
        best_scalar_quantizer(joint_from_channel(Pmf.uniform(2), rows), 1.0, 1)


def test_data_processing_bound():
    # H(K^n | M_A) >= n H(K|Z) for every quantizer
    joint = bsc_joint(0.15, Pmf([0.7, 0.3]))
    h_kz = conditional_entropy(joint, given=1)
    for labels in ([0, 0], [0, 1]):
        enc = scalar_quantizer_encoder(labels, n=5)
        assert key_equivocation(enc, joint) >= 5 * h_kz - 1e-12
    # and for a (non-product) table encoder at small n
    rng = np.random.default_rng(0)
    tab = TableEncoder(rng.integers(0, 3, size=8), n=3, obs_size=2)
    assert key_equivocation(tab, joint) >= 3 * h_kz - 1e-12


def test_refinement_monotonicity():
    # refining any partition of Z never increases H(K | f(Z)); |Z| <= 5
    rng = np.random.default_rng(2)
    rows = rng.random((3, 5))
    rows /= rows.sum(axis=1, keepdims=True)
    joint = joint_from_channel(Pmf([0.3, 0.45, 0.25]), ChannelMatrix(rows))

    def h_of(labels):
        cells = max(labels) + 1
        grouped = np.zeros((3, cells))
        for z, c in enumerate(labels):
            grouped[:, c] += joint[:, z]
        return conditional_entropy(grouped, given=1)

    parts = list(set_partitions(5, 5))
    for coarse, fine in itertools.product(parts, parts):
        # fine refines coarse iff equal fine-labels imply equal coarse-labels
        refines = all(
            coarse[i] == coarse[j]
            for i in range(5)
            for j in range(5)
            if fine[i] == fine[j]
        )
        if refines:
            assert h_of(list(fine)) <= h_of(list(coarse)) + 1e-12


def test_non_finite_joint_is_refused():
    enc = scalar_quantizer_encoder([0, 1], 3)
    for bad in (math.nan, math.inf):
        p_kz = np.array(bsc_joint(0.1))
        p_kz[0, 1] = bad
        with pytest.raises(ValueError, match="not a distribution"):
            key_equivocation(enc, p_kz)
