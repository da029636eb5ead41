import numpy as np
import pytest

from leaklab.galois import (
    AffineMap,
    FieldSpec,
    affine_apply,
    matrix_rank,
    random_affine,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_field_axioms_exhaustive(q):
    # in the map arithmetic, x -> x + a is a bijection of GF(q) for every a,
    # x -> a x is one exactly when a != 0, and [[a]] has rank 1 exactly then
    spec = FieldSpec(q)
    x = np.arange(q)[:, None]
    for a in range(q):
        shifted = affine_apply(AffineMap([[1]], [a], spec), x)
        assert np.array_equal(np.sort(shifted[:, 0]), np.arange(q))
        scaled = affine_apply(AffineMap([[a]], [0], spec), x)
        assert (np.unique(scaled).size == q) == (a != 0)
        assert matrix_rank([[a]], q) == (1 if a else 0)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15])
def test_non_prime_modulus_rejected(q):
    with pytest.raises(ValueError):
        FieldSpec(q)


def test_operand_range_checked():
    with pytest.raises(ValueError):
        affine_apply(AffineMap([[1]], [0], F2), [2])
    with pytest.raises(ValueError):
        affine_apply(AffineMap([[1], [1]], [0], F3), [[0, 1], [0, 3]])


def test_affine_apply_examples():
    m1 = AffineMap([[1], [1]], [0], F2)
    assert affine_apply(m1, [1, 1]).tolist() == [0]
    m2 = AffineMap([[1], [1]], [1], F2)
    assert affine_apply(m2, [1, 0]).tolist() == [0]
    m3 = AffineMap(np.eye(2, dtype=int), [0, 0], F3)
    assert affine_apply(m3, [2, 1]).tolist() == [2, 1]


def test_affine_apply_dimension_mismatch():
    m = AffineMap([[1], [1]], [0], F2)
    with pytest.raises(ValueError):
        affine_apply(m, [1, 0, 1])


@pytest.mark.parametrize("q,seed", [(2, 0), (3, 1), (5, 2)])
def test_affinity_property(q, seed):
    # apply(k1+k2) - apply(0) == (apply(k1)-apply(0)) + (apply(k2)-apply(0))
    spec = FieldSpec(q)
    amap = random_affine(5, 3, spec, seed)
    rng = np.random.default_rng(seed + 100)
    zero = affine_apply(amap, np.zeros(5, dtype=int))
    for _ in range(50):
        k1 = rng.integers(0, q, 5)
        k2 = rng.integers(0, q, 5)
        lhs = (affine_apply(amap, (k1 + k2) % q) - zero) % q
        rhs = (
            (affine_apply(amap, k1) - zero) + (affine_apply(amap, k2) - zero)
        ) % q
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize(
    "q,n,m,seed", [(2, 8, 3, 0), (2, 6, 6, 3), (3, 5, 2, 1), (5, 4, 2, 5)]
)
def test_full_column_rank_implies_surjective(q, n, m, seed):
    spec = FieldSpec(q)
    amap = random_affine(n, m, spec, seed)
    while matrix_rank(amap.matrix, q) < m:
        seed += 1000
        amap = random_affine(n, m, spec, seed)
    # exhaustive image over all q^n inputs (q^n <= 2^16 here)
    idx = np.arange(q**n)
    keys = np.empty((q**n, n), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        keys[:, t] = idx % q
        idx = idx // q
    images = affine_apply(amap, keys)
    radix = q ** np.arange(m - 1, -1, -1)
    assert np.unique(images @ radix).size == q**m


def test_random_affine_deterministic_and_shapes():
    a = random_affine(4, 2, F2, seed=42)
    b = random_affine(4, 2, F2, seed=42)
    assert np.array_equal(a.matrix, b.matrix) and np.array_equal(a.offset, b.offset)
    assert a.matrix.shape == (4, 2) and a.offset.shape == (2,)
    with pytest.raises(ValueError):
        random_affine(2, 3, F2, seed=0)


def test_random_affine_entries_uniform_chi2():
    # 1000 maps x 12 entries each = 12000 draws over GF(5)
    counts = np.zeros(5)
    for seed in range(1000):
        amap = random_affine(5, 2, F5, seed=seed)
        vals = np.concatenate([amap.matrix.reshape(-1), amap.offset])
        counts += np.bincount(vals, minlength=5)
    expected = counts.sum() / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 13.2767  # chi-square critical value, df=4, alpha=0.01


def test_affine_map_validation():
    with pytest.raises(ValueError):
        AffineMap([[2]], [0], F2)  # entry out of range
    with pytest.raises(ValueError):
        AffineMap([[1, 0]], [0], F2)  # offset length mismatch


def test_matrix_rank_gf2():
    assert matrix_rank(np.eye(3, dtype=int), 2) == 3
    assert matrix_rank([[1, 1], [1, 1]], 2) == 1
    assert matrix_rank([[0, 0], [0, 0]], 2) == 0
    assert matrix_rank([[1, 2], [2, 4]], 5) == 1  # second row = 2x first
