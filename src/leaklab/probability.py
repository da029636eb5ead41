"""Finite probability objects, information measures in nats, method of types.

Conventions
-----------
* All information quantities are in nats (natural logarithms), matching the
  rest of the package and the CSV outputs.
* ``0 * log 0 := 0`` everywhere.
* Probabilities are stored in linear scale (float64); sequence probabilities
  are evaluated in log space so long blocks do not underflow.
* A distribution must sum to 1 within ``SUM_TOL``; nothing renormalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SUM_TOL = 1e-12

# The package's one size policy: no table it builds may hold more entries
# (not bytes) than this.  ``check_table`` reads it at call time.
TABLE_CAP = 2**26


class TableCapError(ValueError):
    """A table would exceed ``TABLE_CAP``; the run is refused before it
    allocates (the CLI reports it as a config error)."""


def _count_text(x: int) -> str:
    """An entry count as text: 2^k for a power of two, the decimal number
    below 2^64, and "about 2^k" above it.  Python refuses a decimal
    conversion past 4,300 digits, and a count that large reads no better in
    full."""
    if x & (x - 1) == 0:
        return f"2^{x.bit_length() - 1}"
    if x < 2**64:
        return str(x)
    return f"about 2^{math.log2(x):.0f}"


def check_table(formula: str, entries: int) -> None:
    """Refuse a table of ``entries`` entries, counted as ``formula``, when it
    would exceed ``TABLE_CAP``: the one size check, run where the table is
    built and before it is allocated."""
    if entries > TABLE_CAP:
        size, cap = (_count_text(int(x)) for x in (entries, TABLE_CAP))
        raise TableCapError(f"{formula} = {size} entries exceed the table cap {cap}")


__all__ = [
    "TABLE_CAP",
    "TableCapError",
    "check_table",
    "Pmf",
    "ChannelMatrix",
    "TypeClass",
    "entropy",
    "conditional_entropy",
    "kl_divergence",
    "product_law",
    "enumerate_types",
    "type_of",
    "multinomial",
    "all_sequences",
    "joint_from_channel",
]


def _as_prob_array(p) -> np.ndarray:
    if isinstance(p, Pmf):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def _validate_probs(a: np.ndarray, what: str) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError(f"{what} is empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} has non-finite entries")
    if a.min() < 0:
        raise ValueError(f"{what} has negative entries")
    s = float(a.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"{what} sums to {s!r}, not 1 within {SUM_TOL}")
    a.setflags(write=False)
    return a


class Pmf:
    """Probability mass function on the alphabet {0, ..., q-1}."""

    def __init__(self, probs):
        a = np.asarray(probs, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError(f"pmf must be 1-D, got shape {a.shape}")
        self.probs = _validate_probs(a, "pmf")

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, q: int) -> "Pmf":
        return cls(np.full(q, 1.0 / q))

    @classmethod
    def bernoulli(cls, p: float) -> "Pmf":
        """Binary pmf with P(1) = p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli parameter {p} outside [0, 1]")
        return cls(np.array([1.0 - p, p]))

    def __repr__(self):
        return f"Pmf({self.probs.tolist()})"


class ChannelMatrix:
    """Row-stochastic matrix: one output pmf per input letter."""

    def __init__(self, rows):
        a = np.array(rows, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"channel must be 2-D, got shape {a.shape}")
        for i in range(a.shape[0]):
            a[i] = _validate_probs(a[i], f"channel row {i}")
        a.setflags(write=False)
        self.rows = a

    @property
    def in_size(self) -> int:
        return self.rows.shape[0]

    @property
    def out_size(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def identity(cls, q: int) -> "ChannelMatrix":
        return cls(np.eye(q))

    @classmethod
    def bsc(cls, p: float) -> "ChannelMatrix":
        """Binary symmetric channel with crossover probability p."""
        return cls([[1.0 - p, p], [p, 1.0 - p]])

    def __repr__(self):
        return f"ChannelMatrix({self.rows.tolist()})"


def joint_from_channel(p_in, channel) -> np.ndarray:
    """Joint table p(k, z) = p_in(k) * W(z | k)."""
    p = _as_prob_array(p_in)
    W = channel.rows if isinstance(channel, ChannelMatrix) else np.asarray(channel)
    if W.shape[0] != p.shape[0]:
        raise ValueError("channel input size does not match input pmf")
    return p[:, None] * W


# ---------------------------------------------------------------------------
# Information measures (nats)
# ---------------------------------------------------------------------------


def _xlogx(a: np.ndarray) -> np.ndarray:
    """a ln a entrywise, with 0 ln 0 := 0, as b ln b for b = where(a > 0, a, 1).

    Bit-identical to the masked form ``out[a > 0] = a ln a`` over zeros, with
    no boolean gather: an entry a > 0 (subnormals and +inf too) goes through
    the same two roundings, ln a and then a times it, and any other entry
    (either zero, a negative rounding residue, NaN) gives 1.0 * ln 1.0 = +0.0,
    the zero the mask leaves.
    """
    b = np.where(a > 0, a, 1.0)
    return b * np.log(b)


def entropy(p) -> float:
    """Shannon entropy in nats; multi-axis tables are flattened."""
    a = _as_prob_array(p).reshape(-1)
    return float(-_xlogx(a).sum())


def conditional_entropy(joint, given=1) -> float:
    """H(rest | axes in ``given``) for a joint table, in nats."""
    a = _as_prob_array(joint)
    axes = (given,) if isinstance(given, int) else tuple(given)
    axes = tuple(ax % a.ndim for ax in axes)
    drop = tuple(i for i in range(a.ndim) if i not in axes)
    marg = a.sum(axis=drop) if drop else a
    return entropy(a) - entropy(marg)


def kl_divergence(p, q) -> float:
    """D(p || q) in nats; +inf when support(p) is not inside support(q)."""
    a = _as_prob_array(p).reshape(-1)
    b = _as_prob_array(q).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("kl_divergence needs equal-length distributions")
    if a is b or np.array_equal(a, b):
        return 0.0
    mask = a > 0
    if np.any(b[mask] <= 0):
        return math.inf
    return float(np.sum(a[mask] * (np.log(a[mask]) - np.log(b[mask]))))


# ---------------------------------------------------------------------------
# Sequences and the i.i.d. product law
# ---------------------------------------------------------------------------


def product_law(base: Pmf, n: int) -> np.ndarray:
    """The n-fold i.i.d. extension of ``base``: the probabilities of all
    q**n sequences in lexicographic order, a table checked against the cap
    before it is built."""
    check_table("q^n", base.size**n)
    out = np.array([1.0])
    for _ in range(n):
        out = np.multiply.outer(out, base.probs).reshape(-1)
    return out


def all_sequences(n: int, q: int) -> np.ndarray:
    """All sequences of X^n in lexicographic order, shape (q**n, n)."""
    total = q**n
    check_table("q^n * n", total * n)
    idx = np.arange(total)
    out = np.empty((total, n), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        out[:, t] = idx % q
        idx //= q
    return out


# ---------------------------------------------------------------------------
# Method of types
# ---------------------------------------------------------------------------


def multinomial(n: int, counts) -> int:
    """Exact multinomial coefficient n! / prod(counts!)."""
    if sum(counts) != n:
        raise ValueError("counts must sum to n")
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


@dataclass(frozen=True)
class TypeClass:
    """All sequences of length n sharing the occupation numbers ``counts``."""

    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("negative occupation number")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def alphabet(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        return multinomial(self.n, self.counts)

    def entropy(self) -> float:
        """Per-symbol entropy of the empirical distribution, in nats.

        Summed over descending counts so permuted types get bitwise-equal
        keys (exact ties resolve by the lexicographic tiebreak, not float
        noise).
        """
        n = self.n
        h = 0.0
        for c in sorted(self.counts, reverse=True):
            if c > 0:
                h += (c / n) * math.log(n / c)
        return h

    def log_prob_each(self, p) -> float:
        """log p^n(x) shared by every sequence x in this class."""
        probs = _as_prob_array(p)
        if probs.shape[0] != self.alphabet:
            raise ValueError("pmf alphabet does not match type alphabet")
        out = 0.0
        for c, pi in zip(self.counts, probs):
            if c == 0:
                continue
            if pi <= 0:
                return -math.inf
            out += c * math.log(pi)
        return out

    def rank(self, seq) -> int:
        """Lexicographic rank of ``seq`` within this class (exact int)."""
        seq = np.asarray(seq, dtype=np.int64)
        if seq.shape != (self.n,):
            raise ValueError("sequence length does not match type")
        remaining = list(self.counts)
        r = 0
        for t, x in enumerate(seq):
            x = int(x)
            if x >= self.alphabet or remaining[x] <= 0:
                raise ValueError("sequence does not belong to this type class")
            left = self.n - t - 1
            for y in range(x):
                if remaining[y] > 0:
                    remaining[y] -= 1
                    r += multinomial(left, remaining)
                    remaining[y] += 1
            remaining[x] -= 1
        return r

    def unrank(self, r: int) -> np.ndarray:
        """Inverse of :meth:`rank`."""
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} outside [0, {self.size})")
        remaining = list(self.counts)
        seq = np.empty(self.n, dtype=np.int64)
        for t in range(self.n):
            left = self.n - t - 1
            for y in range(self.alphabet):
                if remaining[y] <= 0:
                    continue
                remaining[y] -= 1
                block = multinomial(left, remaining)
                if r < block:
                    seq[t] = y
                    break
                r -= block
                remaining[y] += 1
        return seq


@lru_cache(maxsize=None)
def _compositions(n: int, parts: int) -> tuple:
    if parts == 1:
        return ((n,),)
    out = []
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_types(n: int, alphabet_size: int) -> list:
    """All type classes of X^n in lexicographic counts order.  Their
    C(n + q - 1, q - 1) * q counts are checked against the table cap first."""
    if n < 1 or alphabet_size < 1:
        raise ValueError("need n >= 1 and alphabet_size >= 1")
    q = alphabet_size
    check_table("C(n + q - 1, q - 1) * q", math.comb(n + q - 1, q - 1) * q)
    return [TypeClass(c) for c in _compositions(n, q)]


def type_of(seq, alphabet_size: int) -> TypeClass:
    seq = np.asarray(seq, dtype=np.int64)
    counts = np.bincount(seq, minlength=alphabet_size)
    return TypeClass(tuple(int(c) for c in counts))
