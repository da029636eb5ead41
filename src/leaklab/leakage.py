"""Exact plaintext-leakage quantities for the additive cryptosystem.

Everything is computed from one object: the family of stochastic kernels

    gamma[x](c | a) = Pr[ciphertext = c | side message = a, plaintext = x]

indexed by plaintexts x.  Because the key and the side message are jointly
independent of the plaintext, the kernel does not depend on the plaintext
distribution, and for the additive construction it collapses to a single
posterior table over masked keys:

    gamma[x](c | a) = Pr[keymap(K^n) = c - encode(x) | M_A = a].

Given M_A = a the ciphertext is the sum over Z_q^m of two independent
parts, encode(X) and the masked key, so the plaintext law reaches every
criterion only through the codeword law p_img on Z_q^m, and the code only
through its decoding-set members per codeword.  Both are q^m vectors that
the code computes (``UniversalCode.image_law`` and ``image_counts``); no
kernel reads X^n.  Every criterion has a closed form:

* ``delta_mi``       -- I(C; X | M_A) for a given codeword law, as a cyclic
  convolution over Z_q^m evaluated with one radix-q Fourier transform, one
  pass loop for every q (a Walsh-Hadamard butterfly per digit axis at
  q = 2, bit-identical to the matrix pass; one matrix product per digit
  axis for q >= 3), one block of messages at a time;
* ``delta_max_mi``   -- the worst case over all plaintext laws,
  m ln q - H(keymap(K^n) | M_A), reached by the uniform law on the decoding
  set (the channel x -> (C, M_A) is symmetric);
* closed-form lower / upper bounds through the key equivocations
  H(K^n | M_A) and H(keymap(K^n) | M_A), both read off the kernel, which
  holds the one (key, message) law that p_KZ and the adversary induce
  (H(post_a) is computed once per kernel, for all three criteria).

Production runs take the kernel as a ``KernelStream`` in one of two forms,
and every criterion reads either through ``blocks()``, one pass per kernel:

* ``build_dense_stream`` streams the dense (messages, q^m) posterior in
  blocks of whole message prefixes, each of at most ``_CHUNK`` messages, and
  never holds it whole (the proof that the blocks are the table's columns
  is below);
* ``build_translation_kernel`` applies when every cell law p(k | cell) of a
  scalar adversary is an exact translate over Z_q of one law: then every
  posterior is a translate of one law over Z_q^m, and the kernel is one
  block of that one row, folded in n steps over a q^m vector by the dense
  fold's own steps on one column (its docstring has the proof).

The blocks are the whole table's columns, bit for bit.  A scalar
adversary's (masked key, message) joint folds symbol by symbol, and column
(a_1..a_t) after step t reads only its parent column (a_1..a_(t-1)), through
the same products and the same order of the sum over the key symbol,
whatever the other columns.  So for each prefix (a_1..a_j), the first j
steps run on that one column, each with its one cell a_t, and give the
column bits of the whole fold; the last n - j steps then give the columns
of every message with that prefix, which are a contiguous run of the whole
table, in its order.  Each row's entropy and transform are computed on
their own, so the other rows of a block leave their bits too, given two or
more rows: numpy sums a lone (1, q^m) row pairwise, and each row of a
taller block, which is column-major, in sequence.  A prefix block keeps
no message or |C+|^(n - j) of them, C+ the cells of positive probability,
so it has one row only where the whole table has one (or where a
quantizer has more than ``_CHUNK`` cells); a table adversary's
posterior is cut into runs of ``_CHUNK`` kept messages, as it was before
it was streamed.

``leakage_report`` takes the translation kernel where it applies and the
dense stream elsewhere.  It returns numbers only: the CLI lays out
``leakage.csv`` and formats every value.

The averages over messages are ``math.fsum`` reductions, correctly rounded,
so their bits do not depend on the BLAS build, its thread count or how the
messages are split into blocks.

``structural_checks`` convolves every posterior with the decoding set's
image counts by the same transform, which it applies to the counts once.

``build_gamma_kernel``, the concatenated blocks held as one table with the
code's X^n tables that its per-plaintext ``gamma(x)`` reads,
``channel_capacity`` (the Blahut-Arimoto iteration) and
``GammaKernel.channel_rows`` stay as the slow path the tests check the
stream and the closed forms against; no pipeline path builds them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import adversary
from .codec import _radix
from .crypto import Cryptosystem
from .galois import affine_apply
from .probability import _xlogx, all_sequences, check_table

__all__ = [
    "GammaKernel",
    "KernelStream",
    "LeakageReport",
    "CapacityResult",
    "KernelCheckReport",
    "build_dense_stream",
    "build_gamma_kernel",
    "build_translation_kernel",
    "delta_mi",
    "delta_max_mi",
    "delta_max_lower_bound",
    "delta_max_upper_bound",
    "channel_capacity",
    "structural_checks",
    "leakage_report",
]

_TINY = np.finfo(np.float64).tiny
# The largest error ``structural_checks`` lets each identity have.
KERNEL_CHECK_TOL = 1e-10
# Messages per block of every pass over the posterior, which bounds the
# size of its (messages, q^m) temporaries; read at call time.
_CHUNK = 256


@dataclass
class _Kernel:
    """What every criterion reads of a kernel: its sizes, the code's
    ``image_counts`` (decoding-set members per codeword), H(K^n | M_A) in
    nats, and the posterior rows through ``blocks()``.  H(keymap(K^n) |
    M_A), from the one entropy pass over the blocks, is kept on first use;
    ``replace`` starts a kernel without it."""

    q: int
    n: int
    m: int
    image_counts: np.ndarray
    key_equivocation: float
    _equivocation: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def image_count(self) -> int:
        return self.q**self.m


@dataclass
class GammaKernel(_Kernel):
    """Ciphertext kernels of one (cryptosystem, adversary, key-source) triple,
    held whole.

    ``key_image_posterior[a, t] = Pr[keymap(K^n) = t | M_A = a]`` carries all
    randomness; ``gamma(x)`` materializes the per-plaintext stochastic matrix
    on demand through the code's X^n image table ``image_of``, which the
    oracle alone holds, with the X^n mask of D, ``in_decoding_set``.
    Messages of probability zero are dropped (their original indices remain
    in ``message_ids``).
    """

    image_of: np.ndarray
    in_decoding_set: np.ndarray
    p_message: np.ndarray
    key_image_posterior: np.ndarray
    message_ids: np.ndarray
    _sub: np.ndarray | None = field(default=None, repr=False)

    @property
    def message_count(self) -> int:
        return self.p_message.shape[0]

    def blocks(self):
        return _chunks(self.message_ids, self.p_message, self.key_image_posterior)

    def sub_index(self) -> np.ndarray:
        """sub[c, t] = index of the digitwise difference c - t (mod q).

        Its digit differences take q^m * q^m * m entries, checked against
        the table cap before they are built."""
        if self._sub is None:
            check_table("q^m * q^m * m", self.image_count**2 * self.m)
            digits = all_sequences(self.m, self.q)
            radix = _radix(self.m, self.q)
            diff = (digits[:, None, :] - digits[None, :, :]) % self.q
            self._sub = diff @ radix
        return self._sub

    def gamma(self, x_index: int) -> np.ndarray:
        """The stochastic matrix gamma[x](c | a), shape (q**m, messages)."""
        t = int(self.image_of[x_index])
        return self.key_image_posterior[:, self.sub_index()[:, t]].T

    def channel_rows(self, inputs=None) -> np.ndarray:
        """Rows of the plaintext-image -> (ciphertext, message) channel.

        Row t is the joint law p(c, a | image = t) flattened over (c, a).
        The array has q^m * q^m * messages entries; it feeds
        ``channel_capacity`` as the slow check of ``delta_max_mi`` in the
        tests and is not built on any pipeline path.
        """
        if inputs is None:
            inputs = np.arange(self.image_count)
        check_table("inputs * q^m * |M_A|", len(inputs) * self.image_count * self.message_count)
        sub = self.sub_index()
        # posterior[a, sub[c, t]] for selected t: -> (t, c, a)
        block = self.key_image_posterior[:, sub[:, inputs]]
        rows = np.transpose(block, (2, 1, 0)) * self.p_message
        return rows.reshape(len(inputs), -1)


@dataclass
class KernelStream(_Kernel):
    """A kernel as a stream: ``blocks()`` yields its (message ids,
    p_message, posterior rows), in order, one block at a time,
    ``block_count`` blocks of at most ``block_messages`` messages.  The
    dense stream's blocks are those of ``build_gamma_kernel``'s table, and
    a scalar adversary's are folded again on each call, so its posterior is
    never held whole; the translation kernel is one block of one row."""

    block_count: int
    block_messages: int
    _blocks: Callable = field(repr=False)

    def blocks(self):
        return self._blocks()


def _chunks(message_ids, p_message, rows):
    """(message ids, p_message, posterior rows) of a posterior held whole,
    ``_CHUNK`` messages at a time, in order."""
    for lo in range(0, len(p_message), _CHUNK):
        hi = lo + _CHUNK
        yield message_ids[lo:hi], p_message[lo:hi], rows[lo:hi]


def _check_adversary(sys: Cryptosystem, encoder, p_kz) -> None:
    """Refuse a side channel or an adversary that does not fit the system."""
    if np.shape(p_kz)[0] != sys.q:
        raise ValueError("p_KZ key alphabet does not match the system")
    if encoder.n != sys.n:
        raise ValueError(f"adversary block length {encoder.n} != system n {sys.n}")


def _translates(digits: np.ndarray, row: np.ndarray, q: int, radix: np.ndarray) -> np.ndarray:
    """perm[k, s] = index of the word s - k * row over Z_q^m, shape (q, q^m);
    ``digits`` holds every word of Z_q^m in lexicographic order.  A fold step
    over one key symbol gathers its q translates of a table through it."""
    shifts = (np.arange(q)[:, None] * row[None, :]) % q
    return ((digits[None, :, :] - shifts[:, None, :]) % q) @ radix


def _key_image_message_blocks(
    sys: Cryptosystem, joint: np.ndarray, prefix_steps: int, translates, origin: int
):
    """The (masked key image, adversary message) joint of a scalar adversary
    as blocks of its columns: one (q^m, cells^(n - j)) block per message
    prefix of length j = ``prefix_steps``, prefixes in lexicographic order.
    ``joint`` is the per-symbol (key, cell) law, ``translates`` yields the
    ``_translates`` table of each row t of the key map's matrix, in order,
    and the fold starts from all mass on the word of index ``origin``.

    The joint factorizes per coordinate, so it folds symbol by symbol into a
    running table over (image, prefix): column (a_1..a_t) after step t is

        col_(a_1..a_t)(s) = sum_k col_(a_1..a_(t-1))(s - k M[t]) joint[k, a_t],

    summed over k in order, and the table after step n is the whole joint,
    column a = (a_1..a_n) at the lexicographic index of a.  The module
    docstring proves that the blocks are its columns, bit for bit.
    Rebinding ``state`` to its gathered translates frees the old table
    before the product is allocated.  With one cell and j = n there is one
    block of one column, read in one pass over ``translates``.
    """
    q, m = sys.q, sys.m
    start = np.zeros((q**m, 1))
    start[origin] = 1.0
    for prefix in itertools.product(range(joint.shape[1]), repeat=prefix_steps):
        state = start
        for t, perm in enumerate(translates):
            cells = joint[:, prefix[t] : prefix[t] + 1] if t < prefix_steps else joint
            state = state[perm]  # (q, q^m, prefix)
            state = np.einsum("ksp,ka->spa", state, cells).reshape(q**m, -1)
        yield state


def _posterior_rows(raw: np.ndarray):
    """(kept column indices, p_message, posterior rows) of a (q^m, messages)
    joint: each column sum is the message's probability, and each column of
    positive probability is divided by it, in place on the kept copy (the
    same divisions, one table fewer); a message of probability zero is
    dropped."""
    p_message = raw.sum(axis=0)
    keep = np.flatnonzero(p_message > 0)
    posterior = raw[:, keep]
    posterior /= p_message[keep]
    return keep, p_message[keep], posterior.T


def _prefix_posteriors(sys: Cryptosystem, joint: np.ndarray, prefix_steps: int, translates):
    """(message ids, p_message, posterior rows) of each block of
    ``_key_image_message_blocks``, from the key map's offset; a prefix of
    probability zero yields no block."""
    size = joint.shape[1] ** (len(translates) - prefix_steps)
    origin = int(sys.keymap.offset @ _radix(sys.m, sys.q))
    blocks = _key_image_message_blocks(sys, joint, prefix_steps, translates, origin)
    for i, raw in enumerate(blocks):
        keep, p_message, rows = _posterior_rows(raw)
        if keep.size:
            yield i * size + keep, p_message, rows


def _table_posterior(sys: Cryptosystem, joint: np.ndarray):
    """(message ids, p_message, posterior rows) of a table adversary, held
    whole, from its (key sequence, message) enumeration ``joint``."""
    kimg_idx = affine_apply(sys.keymap, all_sequences(sys.n, sys.q)) @ _radix(sys.m, sys.q)
    g_joint = np.zeros((sys.q**sys.m, joint.shape[1]))
    np.add.at(g_joint, kimg_idx, joint)
    return _posterior_rows(g_joint)


def build_dense_stream(sys: Cryptosystem, encoder, p_kz) -> KernelStream:
    """The dense kernel as a ``KernelStream`` (product-form fold for scalar
    adversaries, full (k, z) enumeration for table adversaries).

    A scalar adversary's blocks hold the messages of one prefix of length
    j, the fewest symbols that leave at most ``_CHUNK`` messages per block:
    256 at two cells, 243 at three.  Every table the stream allocates is
    checked against the cap here, before its first block: the |M_A|
    vectors of a pass over all messages, the n translate tables of the fold
    (n * q * q^m) and the block table (q^m times the messages per block).
    A table adversary keeps its enumeration: its posterior is built whole
    here, under the same q^n * q^m and q^m * |M_A| checks as
    ``build_gamma_kernel``, and yielded ``_CHUNK`` messages at a time.
    """
    q, n, m = sys.q, sys.n, sys.m
    _check_adversary(sys, encoder, p_kz)
    check_table("|M_A|", encoder.message_count)
    if encoder.kind == "table":
        check_table("q^n * q^m", q**n * q**m)
        check_table("q^m * |M_A|", q**m * encoder.message_count)
        joint = adversary.adversary_joint(encoder, p_kz)
        whole = _table_posterior(sys, joint)
        size = min(_CHUNK, len(whole[0]))
        count = -(-len(whole[0]) // size)
        blocks = partial(_chunks, *whole)
    else:
        cells = encoder.num_cells
        steps = next(j for j in range(n + 1) if cells ** (n - j) <= _CHUNK)
        size, count = cells ** (n - steps), cells**steps
        check_table("n * q * q^m", n * q * q**m)
        check_table("q^m * messages per block", q**m * size)
        joint = adversary.adversary_joint(encoder, p_kz)
        digits = all_sequences(m, q)
        radix_m = _radix(m, q)
        translates = [_translates(digits, row, q, radix_m) for row in sys.keymap.matrix]
        blocks = partial(_prefix_posteriors, sys, joint, steps, translates)
    return KernelStream(
        q=q,
        n=n,
        m=m,
        image_counts=sys.code.image_counts(),
        key_equivocation=adversary.joint_equivocation(encoder, joint),
        block_count=count,
        block_messages=size,
        _blocks=blocks,
    )


def build_gamma_kernel(sys: Cryptosystem, encoder, p_kz) -> GammaKernel:
    """The dense kernel held whole: the blocks of ``build_dense_stream``
    concatenated, the test oracle of the stream.

    The q^n * q^m and q^m * |M_A| size checks run first, before any table
    is built."""
    q, n, m = sys.q, sys.n, sys.m
    check_table("q^n * q^m", q**n * q**m)
    check_table("q^m * |M_A|", q**m * encoder.message_count)
    stream = build_dense_stream(sys, encoder, p_kz)
    ids, p_message, rows = zip(*stream.blocks())
    # the blocks' (q^m, messages) tables side by side; the posterior is
    # their transpose, as each block's rows are
    posterior = np.concatenate([r.T for r in rows], axis=1)
    images, in_d, _ = sys.code.full_tables()
    return GammaKernel(
        q=q,
        n=n,
        m=m,
        image_counts=stream.image_counts,
        image_of=images,
        in_decoding_set=in_d,
        key_equivocation=stream.key_equivocation,
        p_message=np.concatenate(p_message),
        key_image_posterior=posterior.T,
        message_ids=np.concatenate(ids),
    )


def _translation_law(joint: np.ndarray) -> np.ndarray | None:
    """The law nu over Z_q of which every cell law of a scalar quantizer is a
    translate, exactly, or None.

    ``joint`` is the per-symbol (key, cell) law.  The law of cell c is
    p(k | c) = joint[k, c] / p(c), with p(c) the correctly rounded sum
    ``math.fsum``, which does not depend on the order of the entries; so a
    column that is a cyclic shift of another gives the same shift of its law.
    nu is the law of the first cell of positive probability, and every other
    such cell must satisfy p(k | c) = nu(k - s_c) for some shift s_c, with
    no tolerance: a law that is a translate only up to rounding gets None.
    Cells of probability zero carry no message and are not read.
    """
    laws = [col / total for col in joint.T if (total := math.fsum(col)) > 0]
    nu = laws[0]
    shifts = [np.roll(nu, s) for s in range(len(nu))]
    if all(any(np.array_equal(law, shifted) for shifted in shifts) for law in laws):
        return nu
    return None


def build_translation_kernel(sys: Cryptosystem, encoder, p_kz) -> KernelStream | None:
    """The kernel in closed form for a scalar adversary whose cell laws are
    translates over Z_q of one law nu (``_translation_law``), or None for a
    table adversary or any other law, which ``build_dense_stream`` takes.

    The kernel is a stream of one block of one row, the law of S = sum_t
    N_t M[t] over Z_q^m, with N_1, ..., N_n i.i.d. ~ nu and M[t] row t of
    the key map's matrix; that row has probability 1 and no message id.
    Only its q^m vector and the q^m * m digit table of Z_q^m are built, so
    only they are checked against the table cap.  It folds in n steps: the
    law of the partial sum after symbol t is sum_k nu(k) prev(s - k M[t]),
    summed over k in order.  That is the dense fold
    (``_key_image_message_blocks``) of the one-cell joint nu from the zero
    word, all n steps on its one prefix, with the translate tables built one
    at a time as the fold reads them.

    Proof.  The pairs (K_t, Z_t) are i.i.d., and the message is the tuple of
    cells a = (c_1, ..., c_n) of the Z_t, so given M_A = a the key symbols
    are independent with laws p(k | c_t) = nu(k - s_{c_t}): K_t = s_{c_t} +
    N_t with N_t i.i.d. ~ nu.  With b the key map's offset,

        keymap(K^n) = b + sum_t K_t M[t] = v_a + S,   v_a = b + sum_t s_{c_t} M[t],

    so post_a, the law of keymap(K^n) given a, is the law of S translated
    by v_a.  Entropy is invariant under translation, and a translate of S
    convolved with p_img is the same translate of S * p_img (Cover & Thomas,
    Elements of Information Theory, section 7.2, symmetric channels).  So
    for every message a

        H(post_a) = H(S),   H(post_a * p_img) = H(S * p_img),

    and each criterion, a p(a)-average of these entropies, equals its value
    on the one-row kernel:

        delta_mi        = H(S * p_img) - H(S),
        delta_max = ub  = m ln q - H(S),
        lb              = m ln q - n H(K | f(Z)),

    where lb reads ``key_equivocation``, the same n H(K | f(Z)) the dense
    kernel carries, bit for bit.  Equivalently, the one-row kernel is the
    channel from X to C - v_{M_A} = encode(X) + S, which is independent of
    M_A, and I(C; X | M_A) = I(C - v_{M_A}; X | M_A).  The precondition of
    ``delta_max_mi`` is checked on this kernel as on the dense one.
    """
    _check_adversary(sys, encoder, p_kz)
    if encoder.kind != "scalar":
        return None
    joint = adversary.adversary_joint(encoder, p_kz)
    nu = _translation_law(joint)
    if nu is None:
        return None
    q, n, m = sys.q, sys.n, sys.m
    check_table("q^m", q**m)
    check_table("q^m * m", q**m * m)
    digits = all_sequences(m, q)
    radix_m = _radix(m, q)
    translates = (_translates(digits, row, q, radix_m) for row in sys.keymap.matrix)
    [law] = _key_image_message_blocks(sys, nu[:, None], n, translates, 0)
    block = (np.zeros(0, dtype=np.int64), np.ones(1), law.T)
    return KernelStream(
        q=q,
        n=n,
        m=m,
        image_counts=sys.code.image_counts(),
        key_equivocation=adversary.joint_equivocation(encoder, joint),
        block_count=1,
        block_messages=1,
        _blocks=partial(iter, [block]),
    )


def _dft_matrix(q: int) -> np.ndarray:
    """The q-point DFT matrix F[j, k] = exp(-2 pi i jk / q)."""
    k = np.arange(q)
    return np.exp(-2j * np.pi * (np.outer(k, k) % q) / q)


def _zq_transform(a: np.ndarray, q: int, m: int, *, inverse: bool = False) -> np.ndarray:
    """The Fourier transform of Z_q^m along each row of a (batch, q^m) array,
    unnormalized; ``inverse`` uses the conjugate DFT matrix.

    Each of the m passes transforms the leading digit axis and moves it
    last, so after m passes the digits are back in their order.  For q >= 3
    a pass is one (batch * rest, q) by (q, q) ``np.dot`` with the q-point
    DFT matrix: the 2-D product that NumPy's tensor contraction over that
    axis forms, so with its bits (the tests hold that contraction as the
    oracle).  At q = 2 it is the Walsh-Hadamard butterfly: the pass writes
    a0 + a1 and a0 - a1 into a new (batch, rest, 2) array.  That is
    bit-identical to the matrix pass: at q = 2 the DFT matrix and its
    conjugate are both [[1, 1], [1, -1]], multiplying by +-1 is exact, so
    every entry of the matrix pass is the single rounding of a0 + a1 or
    a0 - a1 (up to the sign of a zero).  The passes run in the same order,
    so the whole transform is too.
    """
    batch = len(a)
    if q > 2:  # the butterflies read no matrix
        mat = _dft_matrix(q).conj() if inverse else _dft_matrix(q)
    for _ in range(m):
        a = a.reshape(batch, q, -1)
        if q == 2:
            out = np.empty((batch, a.shape[2], 2))
            np.add(a[:, 0], a[:, 1], out=out[:, :, 0])
            np.subtract(a[:, 0], a[:, 1], out=out[:, :, 1])
            a = out
        else:
            a = np.dot(a.transpose(0, 2, 1).reshape(-1, q), mat)
    return a.reshape(batch, -1)


def _zq_convolve(rows: np.ndarray, spectrum: np.ndarray, q: int, m: int) -> np.ndarray:
    """Cyclic convolution over Z_q^m of each row of ``rows`` with the vector
    whose transform is ``spectrum``, shape (1, q^m), from ``_zq_transform``.

    Index t stands for the digits t_j of t = sum_j t_j q^(m-1-j).  The
    Fourier transform of Z_q^m turns the convolution into a product and
    factorizes into the q-point DFT along each of the m digit axes.
    """
    product = _zq_transform(rows, q, m) * spectrum
    return np.real(_zq_transform(product, q, m, inverse=True)) / q**m


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of one block; each row is summed on its
    own, so the other rows of the block leave its bits."""
    return -_xlogx(rows).sum(axis=1)


def _entropy_pass(kernel: _Kernel, spectrum: np.ndarray | None = None) -> float:
    """One pass over the kernel's blocks.  It keeps H(keymap(K^n) | M_A) =
    sum_a p(a) H(post_a) on the kernel and, given the transform of p_img,
    returns sum_a p(a) [H(post_a * p_img) - H(post_a)] (``delta_mi``).

    A message whose posterior is constant gains exactly zero (its
    convolution is the same constant) and is skipped, so a kernel with no
    other message gives exactly 0.0.  Each sum is one ``math.fsum`` of the
    per-message terms, which are the same bits however the messages are
    split into blocks.
    """
    q, m = kernel.q, kernel.m
    weights, entropies, live_weights, gains = [], [], [], []
    for _, p_message, rows in kernel.blocks():
        h_post = _row_entropies(rows)
        weights.append(p_message)
        entropies.append(h_post)
        if spectrum is None:
            continue
        live = np.flatnonzero(np.any(rows != rows[:, :1], axis=1))
        if live.size:
            live_weights.append(p_message[live])
            gains.append(_row_entropies(_zq_convolve(rows[live], spectrum, q, m)) - h_post[live])
    kernel._equivocation = math.fsum(np.concatenate(weights) * np.concatenate(entropies))
    if not gains:
        return 0.0
    return math.fsum(np.concatenate(live_weights) * np.concatenate(gains))


def delta_mi(kernel: _Kernel, p_img: np.ndarray) -> float:
    """I(C; X | M_A) in nats, exactly, for a plaintext law given by its
    codeword law ``p_img`` over Z_q^m (``UniversalCode.image_law``): the
    plaintext reaches the ciphertext only through encode(X).

    Proof of the formula.  X is independent of (K^n, M_A).  Given M_A = a,
    the masked key T = keymap(K^n) has law post_a (the posterior row of a)
    and the codeword U = encode(X) has law p_img, independent of T; the
    ciphertext is C = U + T over Z_q^m.  Hence

        p(c | a)           = sum_u p_img(u) post_a(c - u) = (post_a * p_img)(c),
        H(C | X, M_A = a)  = H(U + T | U, M_A = a) = H(post_a),

    and I(C; X | M_A) = sum_a p(a) [H(post_a * p_img) - H(post_a)], where *
    is cyclic convolution over Z_q^m, evaluated by one radix-q Fourier
    transform (``_zq_convolve``) for each block of messages.  There is no
    precondition beyond the additive form of the kernel.

    The same pass (``_entropy_pass``) keeps H(keymap(K^n) | M_A) on the
    kernel, so ``delta_max_mi`` and the bounds after it run no second pass:
    the dense stream folds once per ``leakage_report``.
    """
    return _entropy_pass(kernel, _zq_transform(p_img[None], kernel.q, kernel.m))


@dataclass
class CapacityResult:
    """Outcome of the alternating capacity iteration."""

    value: float
    lower: float
    upper: float
    iterations: int
    converged: bool
    input_distribution: np.ndarray


def channel_capacity(
    rows: np.ndarray, *, tol: float = 1e-7, max_iter: int = 10**5
) -> CapacityResult:
    """Capacity (nats) of a discrete memoryless channel given as row laws.

    Alternating (Blahut-Arimoto style) iteration; stops when the standard
    duality bracket max_i D(P_i || r) - I(p) falls below ``tol``.  The
    reported value is the achievable side I(p) of the bracket.
    """
    P = np.asarray(rows, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ValueError("channel must be a 2-D row-stochastic array")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("channel rows must sum to 1")
    mask = P > 0
    logP = np.where(mask, np.log(np.maximum(P, _TINY)), 0.0)
    k = P.shape[0]
    p = np.full(k, 1.0 / k)
    lower = upper = 0.0
    iters = 0
    converged = False
    for iters in range(1, max_iter + 1):
        r = p @ P
        logr = np.log(np.maximum(r, _TINY))
        D = np.sum(np.where(mask, P * (logP - logr), 0.0), axis=1)
        lower = float(p @ D)
        upper = float(D.max())
        if upper - lower <= tol:
            converged = True
            break
        p = p * np.exp(D - D.max())
        p /= p.sum()
    return CapacityResult(
        value=max(lower, 0.0),
        lower=max(lower, 0.0),
        upper=upper,
        iterations=iters,
        converged=converged,
        input_distribution=p,
    )


def _masked_key_equivocation(kernel: _Kernel) -> float:
    """H(keymap(K^n) | M_A) in nats, from one entropy pass per kernel."""
    if kernel._equivocation is None:
        _entropy_pass(kernel)
    return kernel._equivocation


def _leakage_below(kernel: _Kernel, equivocation: float) -> float:
    """m ln q minus a key equivocation, floored at zero against rounding."""
    return max(0.0, kernel.m * math.log(kernel.q) - equivocation)


def delta_max_mi(kernel: _Kernel) -> float:
    """max over plaintext laws of I(C; X | M_A), in nats, in closed form:

        delta_max = m ln q - H(keymap(K^n) | M_A),

    reached by the uniform law on the decoding set D.  That law is stated
    here, not built: only its value is returned.

    Precondition: encode maps D onto Z_q^m, i.e. ``image_counts`` > 0 for
    every codeword (true for every valid system, where encode is a
    bijection D -> Z_q^m).  ``ValueError`` otherwise.

    Proof.  X is independent of (K^n, M_A) and C = encode(X) + keymap(K^n),
    so H(C | X, M_A) = H(keymap(K^n) | M_A) for every plaintext law, and

        I(C; X | M_A) = H(C | M_A) - H(keymap(K^n) | M_A).

    H(C | M_A) <= ln |Z_q^m| = m ln q.  A plaintext law whose codeword is
    uniform on Z_q^m makes C uniform given each message, whatever the masked
    key, so it meets the bound; by the precondition the uniform law on one
    D-member per image (the uniform law on D for a valid system, whose
    codeword law is uniform) is such a law.  Equivalently, the channel from
    codewords to (C, M_A) has rows that are translates of each other over
    Z_q^m, so it is symmetric and a uniform input is optimal (Cover &
    Thomas, Elements of Information Theory, section 7.2).  The value is the same number that
    ``delta_max_upper_bound`` returns, bit for bit.
    """
    missing = int(np.count_nonzero(~(kernel.image_counts > 0)))
    if missing:
        raise ValueError(
            f"encode does not map the decoding set onto Z_q^m "
            f"({missing} of {kernel.image_count} images unreached)"
        )
    return _leakage_below(kernel, _masked_key_equivocation(kernel))


def delta_max_lower_bound(kernel: _Kernel) -> float:
    """m ln q - H(K^n | M_A), floored at zero (always <= delta_max_mi).

    keymap(K^n) is a function of K^n, so H(keymap(K^n) | M_A) <=
    H(K^n | M_A), and this is at most ``delta_max_upper_bound``.
    """
    return _leakage_below(kernel, kernel.key_equivocation)


def delta_max_upper_bound(kernel: _Kernel) -> float:
    """m ln q - H(keymap(K^n) | M_A), floored at zero.

    For the additive construction this is also the exact worst case (see
    ``delta_max_mi``, which computes the same number).
    """
    return _leakage_below(kernel, _masked_key_equivocation(kernel))


@dataclass
class KernelCheckReport:
    """Row-sum and uniformity checks of the kernel family."""

    passed: bool
    row_sums_ok: bool
    row_sum_max_error: float
    row_sum_witness: tuple | None
    uniform_ok: bool
    uniform_max_error: float
    uniform_witness: tuple | None


def _worst_entry(err: np.ndarray, lo: int) -> tuple:
    """Largest entry of a (message, ciphertext) block starting at message
    ``lo``, and its (ciphertext, message); the first message, then the first
    ciphertext, wins a tie."""
    a, c = np.unravel_index(err.argmax(), err.shape)
    return float(err[a, c]), (int(c), lo + int(a))


def structural_checks(kernel: _Kernel) -> KernelCheckReport:
    """Verify the two exact identities every valid kernel family satisfies,
    each to within ``KERNEL_CHECK_TOL``.

    (a) For each (ciphertext, message), the kernel values summed over the
        decoding set equal 1.
    (b) A uniform plaintext on the decoding set makes the ciphertext uniform
        on X^m and independent of the message.

    Witnesses are (ciphertext index, message position) of the worst entry:
    the first message, then the first ciphertext, of the largest error.
    The sums over D are convolutions, sum_t post_a(c - t) n_D(t) with n_D(t)
    the number of D-members of image t (``image_counts``), evaluated by ``_zq_convolve`` for
    each of the kernel's blocks in one pass.
    """
    img_counts = kernel.image_counts
    d_size = img_counts.sum()
    target = 1.0 / kernel.image_count
    worst_a = worst_u = 0.0
    wit_a = wit_u = None
    spectrum = _zq_transform(img_counts[None], kernel.q, kernel.m)
    lo = 0
    for _, _, rows in kernel.blocks():
        sums = _zq_convolve(rows, spectrum, kernel.q, kernel.m)
        val, wit = _worst_entry(np.abs(sums - 1.0), lo)
        if val > worst_a:
            worst_a, wit_a = val, wit
        val, wit = _worst_entry(np.abs(sums / d_size - target), lo)
        if val > worst_u:
            worst_u, wit_u = val, wit
        lo += len(rows)
    rows_ok = worst_a <= KERNEL_CHECK_TOL
    unif_ok = worst_u <= KERNEL_CHECK_TOL
    return KernelCheckReport(
        passed=rows_ok and unif_ok,
        row_sums_ok=rows_ok,
        row_sum_max_error=worst_a,
        row_sum_witness=None if rows_ok else wit_a,
        uniform_ok=unif_ok,
        uniform_max_error=worst_u,
        uniform_witness=None if unif_ok else wit_u,
    )


@dataclass
class LeakageReport:
    """The leakage numbers of one configuration: exact leakage, worst-case
    leakage and both closed-form bounds, in nats."""

    delta_mi: float
    delta_max: float
    lower_bound: float
    upper_bound: float
    diagnostics: dict


def leakage_report(sys: Cryptosystem, encoder, p_kz, p_x) -> LeakageReport:
    """Assemble the full leakage picture for one configuration.

    The kernel is the translation kernel where the adversary's cell laws
    allow it, and the dense stream otherwise, folded once: ``delta_mi``'s
    pass keeps the entropies that the other criteria read.  The plaintext
    law ``p_x`` reaches it as its codeword law, ``sys.code.image_law``.
    ``diagnostics`` holds the ``kernel`` taken, "translation" or "dense",
    its ``blocks`` and the ``messages_per_block`` of each (1 and 1 for the
    translation kernel).
    """
    kernel, name = build_translation_kernel(sys, encoder, p_kz), "translation"
    if kernel is None:
        kernel, name = build_dense_stream(sys, encoder, p_kz), "dense"
    return LeakageReport(
        delta_mi=delta_mi(kernel, sys.code.image_law(p_x)),
        delta_max=delta_max_mi(kernel),
        lower_bound=delta_max_lower_bound(kernel),
        upper_bound=delta_max_upper_bound(kernel),
        diagnostics={
            "kernel": name,
            "blocks": kernel.block_count,
            "messages_per_block": kernel.block_messages,
        },
    )
