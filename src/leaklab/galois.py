"""Exact arithmetic and small linear algebra over a prime field GF(q).

Everything here is integer-exact: vectors and matrices are numpy integer
arrays reduced mod q.  Only prime moduli are supported; non-prime q is
rejected at construction rather than silently falling back to ring
arithmetic.

The row-vector convention is used throughout: an affine map sends a length-n
vector k to ``k @ A + b`` (mod q) with A of shape (n, m), so outputs live in
GF(q)^m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probability import check_table

__all__ = [
    "FieldSpec",
    "AffineMap",
    "affine_apply",
    "random_affine",
    "matrix_rank",
]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field GF(q); q doubles as the source/key alphabet size."""

    q: int

    def __post_init__(self):
        q = int(self.q)
        if not _is_prime(q):
            raise ValueError(f"field modulus must be prime and >= 2, got {self.q}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class AffineMap:
    """Affine encoder k -> kA + b over GF(q), A of shape (n, m)."""

    matrix: np.ndarray
    offset: np.ndarray
    spec: FieldSpec

    def __post_init__(self):
        A = np.array(_as_integers(self.matrix, "matrix"))
        b = np.array(_as_integers(self.offset, "offset"))
        if A.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {A.shape}")
        if b.ndim != 1 or b.shape[0] != A.shape[1]:
            raise ValueError(
                f"offset shape {b.shape} inconsistent with matrix {A.shape}"
            )
        q = self.spec.q
        for arr, name in ((A, "matrix"), (b, "offset")):
            if arr.size and (arr.min() < 0 or arr.max() >= q):
                raise ValueError(f"{name} entries outside [0, {q})")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "offset", b)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


def _as_integers(a, what: str) -> np.ndarray:
    """``a`` as an int64 array; ``ValueError`` if an entry is not a whole
    number, so 1.5 is refused instead of truncated to 1.  Arrays with an
    integer dtype are cast without an entry check."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        a = np.asarray(a, dtype=np.float64)
        if not np.all(np.isfinite(a) & (a == np.trunc(a))):
            raise ValueError(f"{what} entries must be whole numbers")
    return a.astype(np.int64, copy=False)


def affine_apply(amap: AffineMap, k) -> np.ndarray:
    """Apply the map to one vector (shape (n,)) or a batch (shape (N, n))."""
    k = _as_integers(k, "input")
    if k.shape[-1] != amap.n:
        raise ValueError(f"input length {k.shape[-1]} != map input size {amap.n}")
    if k.size and (k.min() < 0 or k.max() >= amap.spec.q):
        raise ValueError(f"input entries outside [0, {amap.spec.q})")
    return (k @ amap.matrix + amap.offset) % amap.spec.q


def random_affine(n: int, m: int, spec: FieldSpec, seed) -> AffineMap:
    """Sample A and b with i.i.d. uniform entries; deterministic given seed.
    The n * m matrix is checked against the table cap before it is drawn."""
    if not (n >= m >= 1):
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    check_table("n * m", n * m)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, spec.q, size=(n, m))
    b = rng.integers(0, spec.q, size=m)
    return AffineMap(A, b, spec)


def matrix_rank(A, q: int) -> int:
    """Rank over GF(q) by Gaussian elimination (exact integer arithmetic)."""
    M = np.array(A, dtype=np.int64) % q
    if M.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = M.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if M[r, col] % q != 0:
                pivot = r
                break
        if pivot is None:
            continue
        M[[row, pivot]] = M[[pivot, row]]
        inv = pow(int(M[row, col]), q - 2, q)
        M[row] = (M[row] * inv) % q
        for r in range(rows):
            if r != row and M[r, col] != 0:
                M[r] = (M[r] - M[r, col] * M[row]) % q
        row += 1
        rank += 1
        if row == rows:
            break
    return rank
