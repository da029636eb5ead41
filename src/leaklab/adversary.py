"""Rate-limited helper encoders for the eavesdropper.

The side channel is given by one object, the single-symbol joint law
p_KZ(k, z) of a key symbol and its noisy observation; the key and the
observation sequences are i.i.d. draws from it.  The adversary compresses
the n-symbol observation into a message M_A of rate at most R_A nats per
symbol.

Two encoder families are supported at desk scale:

* scalar quantizers (one map f: Z -> cells applied per symbol), which keep
  the exact product-form analysis H(K^n | M_A) = n * H(K | f(Z)) available
  at any block length;
* explicit tables Z^n -> messages, exact by enumeration for small n.

Both reach p_KZ through ``adversary_joint``: the (key, cell) fold of a
quantizer, or the (key sequence, message) enumeration of a table.  The
leakage kernel folds the same joint into its masked-key law, and
``joint_equivocation`` turns it into H(K^n | M_A).

A scalar quantizer of rate ln|cells| is a valid rate-R_A helper whenever
ln|cells| <= R_A, but it need not attain the information-theoretic optimum
I(Z;U); the gap is reported alongside results wherever budgets appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import all_sequences, check_table, conditional_entropy

__all__ = [
    "ScalarQuantizerEncoder",
    "TableEncoder",
    "scalar_quantizer_encoder",
    "best_scalar_quantizer",
    "adversary_joint",
    "joint_equivocation",
    "key_equivocation",
    "set_partitions",
]

# The largest |Z| whose partitions ``best_scalar_quantizer`` searches.
MAX_SEARCH_OBS = 12


@dataclass(frozen=True)
class ScalarQuantizerEncoder:
    """Per-symbol map f: Z -> {0..cells-1}; the message is the n-tuple."""

    cells: tuple
    n: int

    kind = "scalar"

    def __post_init__(self):
        cells = tuple(int(c) for c in self.cells)
        if min(cells) != 0 or max(cells) + 1 != len(set(cells)):
            raise ValueError("cell labels must be 0..C-1 with every cell used")
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        object.__setattr__(self, "cells", cells)

    @property
    def num_cells(self) -> int:
        return max(self.cells) + 1

    @property
    def message_count(self) -> int:
        return self.num_cells**self.n

    @property
    def rate(self) -> float:
        """(1/n) ln |messages| = ln(number of cells), in nats per symbol."""
        return math.log(self.num_cells)


@dataclass(frozen=True)
class TableEncoder:
    """Explicit encoder over Z^n: table[lex index of z-seq] = message id >= 0."""

    table: np.ndarray
    n: int
    obs_size: int

    kind = "table"

    def __post_init__(self):
        t = np.array(self.table, dtype=np.int64)
        if t.shape != (self.obs_size**self.n,):
            raise ValueError(
                f"table length {t.shape} != |Z|^n = {self.obs_size ** self.n}"
            )
        if np.any(t < 0):
            i = int(np.argmax(t < 0))
            raise ValueError(f"table[{i}] = {t[i]} is a negative message id")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def message_count(self) -> int:
        return int(self.table.max()) + 1

    @property
    def rate(self) -> float:
        return math.log(self.message_count) / self.n


def scalar_quantizer_encoder(f, n: int) -> ScalarQuantizerEncoder:
    """Wrap a per-symbol map given as a sequence of cell labels over Z.

    Labels are renumbered by first appearance so that equal partitions get
    equal encodings.
    """
    f = list(int(c) for c in f)
    seen = {}
    canon = []
    for c in f:
        if c not in seen:
            seen[c] = len(seen)
        canon.append(seen[c])
    return ScalarQuantizerEncoder(tuple(canon), n)


def set_partitions(n_items: int, max_blocks: int):
    """Restricted-growth strings over n items with at most max_blocks cells."""

    def rec(prefix, used):
        if len(prefix) == n_items:
            yield tuple(prefix)
            return
        for c in range(min(used + 1, max_blocks)):
            prefix.append(c)
            yield from rec(prefix, max(used, c + 1))
            prefix.pop()

    yield from rec([], 0)


def _check_joint(p_kz) -> np.ndarray:
    p_kz = np.asarray(p_kz, dtype=np.float64)
    if p_kz.ndim != 2 or p_kz.size == 0:
        raise ValueError(f"p_KZ must be a non-empty 2-D table, got shape {p_kz.shape}")
    if not np.all(np.isfinite(p_kz)) or p_kz.min() < 0 or abs(p_kz.sum() - 1.0) > 1e-9:
        raise ValueError("p_KZ is not a distribution")
    return p_kz


def _cell_joint(p_kz, cells) -> np.ndarray:
    """The per-symbol (key, cell) joint p(k, c) = sum over f(z) = c of p_KZ(k, z).

    ``cells[z]`` is the cell label of observation z.  This is the one fold
    of p_KZ through a scalar quantizer: the best-scalar search, the scalar
    key equivocation and the leakage kernel's product fold all read it.
    """
    out = np.zeros((p_kz.shape[0], max(cells) + 1))
    for z, c in enumerate(cells):
        out[:, c] += p_kz[:, z]
    return out


def adversary_joint(enc, p_kz) -> np.ndarray:
    """The (key, message) law that ``enc`` induces from p_KZ.

    For a scalar quantizer it is the per-symbol (key, cell) joint
    (``_cell_joint``); the block law is its n-fold product.  For a table
    encoder it is the (key sequence, message) joint, rows in lexicographic
    order of the key sequence, by enumeration of every (k^n, z^n) pair:
    p(k^n, a) = sum over z^n with table[z^n] = a of prod_t p_KZ(k_t, z_t).
    That enumeration has q^n * |Z|^n entries, checked against the table cap.
    """
    p_kz = _check_joint(p_kz)
    if enc.kind == "scalar":
        if len(enc.cells) != p_kz.shape[1]:
            raise ValueError(
                f"quantizer covers {len(enc.cells)} observations, |Z| = {p_kz.shape[1]}"
            )
        return _cell_joint(p_kz, enc.cells)
    if enc.kind != "table":
        raise TypeError(f"unknown encoder kind {enc.kind!r}")
    q, zsym = p_kz.shape
    n = enc.n
    if zsym != enc.obs_size:
        raise ValueError(f"table encoder reads |Z| = {enc.obs_size}, p_KZ has {zsym}")
    check_table("q^n * |Z|^n", q**n * zsym**n)
    kseqs = all_sequences(n, q)
    zseqs = all_sequences(n, zsym)
    joint_kz = np.ones((kseqs.shape[0], zseqs.shape[0]))
    for t in range(n):
        joint_kz *= p_kz[kseqs[:, t][:, None], zseqs[None, :, t]]
    joint_km = np.zeros((kseqs.shape[0], enc.message_count))
    np.add.at(joint_km.T, enc.table, joint_kz.T)
    return joint_km


def joint_equivocation(enc, joint) -> float:
    """H(K^n | M_A) in nats from ``joint = adversary_joint(enc, p_kz)``.

    A table joint is the block law itself, so this is H(K^n | M_A) directly.
    For a scalar quantizer, M_A = (f(Z_1), ..., f(Z_n)) and the pairs
    (K_t, f(Z_t)) are i.i.d. with the per-symbol law ``joint``, so

        H(K^n | M_A) = H(K^n, M_A) - H(M_A)
                     = n H(K, f(Z)) - n H(f(Z)) = n H(K | f(Z)).
    """
    h = conditional_entropy(joint, given=1)
    return enc.n * h if enc.kind == "scalar" else h


def key_equivocation(enc, p_kz) -> float:
    """Exact H(K^n | M_A) in nats for the side channel p_KZ.

    Scalar encoders factor per symbol; table encoders are enumerated over
    (k-sequence, z-sequence) space, so keep n small there.
    """
    return joint_equivocation(enc, adversary_joint(enc, p_kz))


def best_scalar_quantizer(p_kz, R_A: float, n: int) -> ScalarQuantizerEncoder:
    """Exhaustive search for the partition of Z minimizing H(K | f(Z)).

    The budget allows at most floor(exp(R_A)) cells.  A budget of |Z| or
    more allows every partition, so it is capped at |Z| before exp(R_A) is
    taken, which overflows a float from R_A = 710.  Ties break toward
    the lexicographically smallest restricted-growth encoding.  Refuses
    |Z| beyond ``MAX_SEARCH_OBS`` (the partition count explodes).
    """
    p_kz = _check_joint(p_kz)
    z = p_kz.shape[1]
    if z > MAX_SEARCH_OBS:
        raise ValueError(f"|Z| = {z} exceeds exhaustive-search cap {MAX_SEARCH_OBS}")
    budget = z if R_A >= math.log(z) else max(1, int(math.floor(math.exp(R_A) + 1e-9)))
    best = None
    best_h = math.inf
    for part in set_partitions(z, budget):
        h = conditional_entropy(_cell_joint(p_kz, part), given=1)
        if h < best_h - 1e-15:
            best_h = h
            best = part
    return ScalarQuantizerEncoder(best, n)
