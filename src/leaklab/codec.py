"""Fixed-rate universal source code with exact error analysis.

The encoder orders X^n by type class (ascending empirical entropy, ties by
lexicographic type vector) and lexicographically inside each class.  The
first q**m sequences form the decoding set D and map bijectively onto X^m;
everything later maps to the image of the last element of D, which keeps the
encoder surjective.  The decoder inverts the bijection, so decoding succeeds
exactly on D.

X^n is ranked once, by the cached tables of ``UniversalCode.full_tables``;
``encode`` and ``decode`` are lookups on them, and on cached digit tables of
X^n and X^m, for one word or a batch.  The leakage criteria read X^n only
through two q^m vectors of this module, ``image_law`` and ``image_counts``.

Because D is type-aligned (whole classes plus at most one partial boundary
class), the exact error probability is a short sum over type classes, with
no q**n enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .galois import _as_integers
from .probability import (
    Pmf, all_sequences, entropy, enumerate_types, kl_divergence, product_law,
)

__all__ = [
    "UniversalCode",
    "build_universal_code",
    "error_probability_exact",
    "exponent_E",
    "verify_error_bound",
    "ErrorBoundReport",
]


def _radix(width: int, q: int) -> np.ndarray:
    """Place values of a width-digit base-q word, most significant first."""
    return q ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _as_symbols(a, width: int, q: int, what: str) -> np.ndarray:
    """Validate one word, shape (width,), or a batch, shape (B, width), of
    symbols in [0, q); ``ValueError`` on any other shape or entry."""
    a = _as_integers(a, what)
    if a.ndim not in (1, 2) or a.shape[-1] != width:
        raise ValueError(f"{what} shape {a.shape} is not ({width},) or (B, {width})")
    if a.size and (a.min() < 0 or a.max() >= q):
        raise ValueError(f"{what} entries outside [0, {q})")
    return a


@dataclass
class UniversalCode:
    """The pair (encode, decode) with its decoding set descriptor.

    ``order`` selects the sequence ordering: "type" is the universal
    construction described above, "lexicographic" is the identity-style
    ordering (only sensible for m = n, used for one-time-pad baselines).
    """

    n: int
    m: int
    q: int
    order: str = "type"
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _digits: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.order not in ("type", "lexicographic"):
            raise ValueError(f"unknown order {self.order!r}")
        if self.order == "lexicographic" and self.m != self.n:
            raise ValueError("lexicographic order requires m = n")

    @cached_property
    def type_order(self) -> list:
        """The type classes of X^n in code order (ascending empirical
        entropy, ties by counts); empty for the lexicographic order.

        Sorted on first use, as ``offsets`` is summed: a block length whose
        classes are refused by the table cap, or that a table built before
        them refuses, sorts none."""
        if self.order == "lexicographic":
            return []
        return sorted(enumerate_types(self.n, self.q), key=lambda t: (t.entropy(), t.counts))

    @cached_property
    def offsets(self) -> list:
        """The canonical rank of each class's first member, in ``type_order``.

        Computed on first use: the class sizes are exact big integers, and
        a block length far past the table caps is refused before they are
        summed."""
        offsets = []
        pos = 0
        for t in self.type_order:
            offsets.append(pos)
            pos += t.size
        return offsets

    # -- descriptor ---------------------------------------------------------

    @property
    def decoding_set_size(self) -> int:
        return self.q**self.m

    @property
    def rate(self) -> float:
        """(m/n) ln q, the exact per-symbol code rate in nats."""
        return self.m / self.n * math.log(self.q)

    def rate_window_ok(self, R: float) -> bool:
        """Whether (m/n) ln q lies in the scheme's window [R - 1/n, R]."""
        return R - 1.0 / self.n - 1e-12 <= self.rate <= R + 1e-12

    # -- the ranking of X^n (desk-scale; guarded by the table cap) -----------

    def full_tables(self):
        """(image index, in-D mask, rank->lex map) over all of X^n.

        The first two are indexed by the lexicographic index of a sequence;
        the third maps a canonical rank to that index.  One stable lexsort
        by type-class position replicates the canonical ordering (classes in
        ``type_order``, lexicographic inside a class).  The tables are built
        on the first call, cached on the code and returned read-only.  The
        test suite checks them against the scalar ``TypeClass.rank`` path.

        The same call caches the digit tables of ``encode`` and ``decode``:
        all of X^n and all of X^m in lexicographic order, so that row i holds
        the base-q digits of index i and a word is one gather.  The largest
        table, the X^n digits, is checked by ``all_sequences``.
        """
        if self._tables is not None:
            return self._tables
        total = self.q**self.n
        seqs = all_sequences(self.n, self.q)
        if self.order == "lexicographic":
            idx = np.arange(total, dtype=np.int64)
            tables = (idx, np.ones(total, dtype=bool), idx)
        else:
            counts = np.stack([(seqs == a).sum(axis=1) for a in range(self.q)], axis=1)
            radix = (self.n + 1) ** np.arange(self.q, dtype=np.int64)
            keys = counts @ radix
            class_keys = np.array(
                [np.dot(np.array(t.counts), radix) for t in self.type_order]
            )
            sorter = np.argsort(class_keys)
            pos = sorter[np.searchsorted(class_keys[sorter], keys)]
            order = np.lexsort((np.arange(total), pos))
            ranks = np.empty(total, dtype=np.int64)
            ranks[order] = np.arange(total)
            images = np.minimum(ranks, self.decoding_set_size - 1)
            tables = (images, ranks < self.decoding_set_size, order)
        words = all_sequences(self.m, self.q)
        for t in tables + (seqs, words):
            t.setflags(write=False)
        self._tables = tables
        self._digits = (seqs, words)
        return tables

    def sequences(self) -> np.ndarray:
        """All of X^n in lexicographic order, shape (q**n, n): the cached,
        read-only digit table of ``full_tables``.  ``encode`` reads this very
        array as one gather."""
        self.full_tables()
        return self._digits[0]

    def _sequence_index(self, x) -> np.ndarray:
        return _as_symbols(x, self.n, self.q, "sequence") @ _radix(self.n, self.q)

    # -- the code itself ----------------------------------------------------

    def encode(self, x) -> np.ndarray:
        """phi: X^n -> X^m (surjective; bijective when restricted to D), for
        one sequence, shape (n,), or a batch, shape (B, n).

        Given the code's own table ``sequences()`` (recognised by identity),
        whose row i holds the digits of i, the index of every row is i, so
        the codewords are the image table gathered whole, with no validation
        or ranking of the rows; the result is a fresh array either way."""
        images, _, _ = self.full_tables()
        if x is self._digits[0]:
            return np.take(self._digits[1], images, axis=0)
        return np.take(self._digits[1], images[self._sequence_index(x)], axis=0)

    def decode(self, c) -> np.ndarray:
        """psi: X^m -> X^n, the inverse of encode on the decoding set, for
        one codeword, shape (m,), or a batch; a codeword's index is its rank."""
        _, _, order = self.full_tables()
        ranks = _as_symbols(c, self.m, self.q, "codeword") @ _radix(self.m, self.q)
        return np.take(self._digits[0], order[ranks], axis=0)

    def in_decoding_set(self, x):
        """Whether x (one sequence or each row of a batch) lies in D."""
        _, in_d, _ = self.full_tables()
        return in_d[self._sequence_index(x)]

    # -- what the leakage criteria read of X^n, as q^m vectors ---------------

    def image_law(self, p_x) -> np.ndarray:
        """The law of the codeword encode(X) over Z_q^m, for ``p_x`` a
        ``Pmf`` (X^n i.i.d.) or a vector over X^n in lexicographic order
        with length q^n, finite non-negative entries and sum 1 +- 1e-9."""
        if isinstance(p_x, Pmf):
            v = product_law(p_x, self.n)
        else:
            v = np.asarray(p_x, dtype=np.float64)
            if v.shape != (self.q**self.n,):
                raise ValueError(f"plaintext vector must have length q^n = {self.q**self.n}")
            if not np.all(np.isfinite(v)) or v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
                raise ValueError("plaintext vector is not a distribution")
        images, _, _ = self.full_tables()
        return np.bincount(images, weights=v, minlength=self.decoding_set_size)

    def image_counts(self) -> np.ndarray:
        """The number of decoding-set members of each codeword, as q^m
        floats: all ones for a valid code, whose encode maps D onto Z_q^m."""
        images, in_d, _ = self.full_tables()
        return np.bincount(images[in_d], minlength=self.decoding_set_size).astype(np.float64)

    @classmethod
    def identity(cls, n: int, q: int) -> "UniversalCode":
        """Lossless identity-style code (m = n, D = X^n)."""
        return cls(n, n, q, order="lexicographic")


def build_universal_code(n: int, R: float, q: int) -> UniversalCode:
    """Choose m as the largest integer with (m/n) ln q <= R and build.

    m is capped at n (the lossless regime); m = 0 (R below one symbol's
    worth of rate) is an error.
    """
    if R <= 0:
        raise ValueError(f"rate must be positive, got {R}")
    m = int(math.floor(n * R / math.log(q) + 1e-12))
    m = min(m, n)
    if m < 1:
        raise ValueError(
            f"rate R={R} gives m=0 at n={n}, q={q}; no code exists"
        )
    return UniversalCode(n, m, q)


def error_probability_exact(code: UniversalCode, p_X) -> float:
    """Pr[X^n not in D], summed exactly over type classes."""
    probs = p_X.probs if isinstance(p_X, Pmf) else np.asarray(p_X, dtype=np.float64)
    if probs.shape[0] != code.q:
        raise ValueError("source alphabet does not match the code")
    if code.order == "lexicographic":
        return 0.0
    dsize = code.decoding_set_size
    total = 0.0
    for t, off in zip(code.type_order, code.offsets):
        inside = min(max(dsize - off, 0), t.size)
        outside = t.size - inside
        if outside == 0:
            continue
        logp = t.log_prob_each(probs)
        if logp == -math.inf:
            continue
        total += outside * math.exp(logp)
    return total


def exponent_E(R: float, gamma: float, p_X) -> float:
    """min D(p_bar || p_X) over pmfs with H(p_bar) >= R - gamma, in nats.

    Solved exactly through the tilted family p_beta ~ p_X**beta: the problem
    is convex and its stationary points are tilts of p_X, with H(p_beta)
    strictly monotone in beta.  Returns +inf when the constraint set is
    empty (R - gamma > ln q) or unreachable within supp(p_X).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if R < 0:
        raise ValueError(f"rate must be >= 0, got {R}")
    p = p_X.probs if isinstance(p_X, Pmf) else np.asarray(p_X)
    target = R - gamma
    q = p.shape[0]
    if target > math.log(q) + 1e-15:
        return math.inf
    if target <= entropy(p):
        return 0.0
    supp = p > 0
    ps = p[supp]
    hmax = math.log(ps.size)
    if target > hmax + 1e-15:
        # feasible pmfs exist but all put mass outside supp(p_X)
        return math.inf

    def tilted(beta: float) -> np.ndarray:
        t = ps**beta
        return t / t.sum()

    lo, hi = 0.0, 1.0  # H(tilted) decreases as beta goes 0 -> 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if entropy(tilted(mid)) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    best = tilted(lo)
    full = np.zeros_like(p)
    full[supp] = best
    return kl_divergence(full, p)


@dataclass
class ErrorBoundReport:
    """Both sides of the universal-coding bound at one block length."""

    n: int
    gamma: float
    delta_n: float
    precondition_met: bool
    pe_exact: float
    exponent: float
    prefactor: float
    bound: float
    holds: bool


def verify_error_bound(code: UniversalCode, p_X, gamma: float, R: float) -> ErrorBoundReport:
    """Check exact p_e <= (n+1)^q * exp(-n * E_gamma(R | p_X)).

    ``R`` is the nominal scheme rate the exponent is evaluated at.
    ``delta_n = (|X| ln(n+1) + 1) / n`` must be <= gamma for the bound's
    formal preconditions; the report carries that flag and the check is run
    either way.
    """
    n, q = code.n, code.q
    pe = error_probability_exact(code, p_X)
    p = p_X if isinstance(p_X, Pmf) else Pmf(p_X)
    e = exponent_E(R, gamma, p)
    prefactor = float((n + 1) ** q)
    bound = 0.0 if e == math.inf else prefactor * math.exp(-n * e)
    delta_n = (q * math.log(n + 1) + 1.0) / n
    return ErrorBoundReport(
        n=n,
        gamma=gamma,
        delta_n=delta_n,
        precondition_met=delta_n <= gamma,
        pe_exact=pe,
        exponent=e,
        prefactor=prefactor,
        bound=bound,
        holds=pe <= bound + 1e-15,
    )
