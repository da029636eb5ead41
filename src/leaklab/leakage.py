"""Exact plaintext-leakage quantities for the additive cryptosystem.

Everything is computed from one object: the family of stochastic kernels

    gamma[x](c | a) = Pr[ciphertext = c | side message = a, plaintext = x]

indexed by plaintexts x.  Because the key and the side message are jointly
independent of the plaintext, the kernel does not depend on the plaintext
distribution, and for the additive construction it collapses to a single
posterior table over masked keys:

    gamma[x](c | a) = Pr[keymap(K^n) = c - encode(x) | M_A = a].

Given M_A = a the ciphertext is the sum over Z_q^m of two independent
parts, encode(X) and the masked key, so every criterion has a closed form:

* ``delta_mi``       -- I(C; X | M_A) for a given plaintext law, as a cyclic
  convolution over Z_q^m evaluated with one radix-q Fourier transform
  (Walsh-Hadamard butterflies at q = 2, bit-identical to the matrix pass
  they replace; one matrix product per digit axis for q >= 3), over the
  posterior in chunks of 256 messages;
* ``delta_max_mi``   -- the worst case over all plaintext laws,
  m ln q - H(keymap(K^n) | M_A), reached by the uniform law on the decoding
  set (the channel x -> (C, M_A) is symmetric);
* closed-form lower / upper bounds through the key equivocations
  H(K^n | M_A) and H(keymap(K^n) | M_A), both read off the kernel, which
  holds the one (key, message) law that p_KZ and the adversary induce
  (H(post_a) is computed once per kernel, for all three criteria).

The kernel comes in two forms.  ``build_gamma_kernel`` holds the dense
(messages, q^m) posterior.  ``build_translation_kernel`` applies when every
cell law p(k | cell) of a scalar adversary is an exact translate over Z_q of
one law: then every posterior is a translate of one law over Z_q^m, and the
kernel is that one row, folded in n steps over a q^m vector (its docstring
has the proof).  ``leakage_report`` takes the translation kernel where it
applies and the dense one elsewhere; the criteria read either.  It returns
numbers only: the CLI lays out ``leakage.csv`` and formats every value.

The averages over messages are ``math.fsum`` reductions, correctly rounded,
so their bits do not depend on the BLAS build or its thread count.

``structural_checks`` convolves every posterior with the decoding set's
image counts by the same transform, which it applies to the counts once.

``channel_capacity`` (the Blahut-Arimoto iteration) and
``GammaKernel.channel_rows`` stay as the slow path the tests check the
closed forms against, as the dense kernel is for the translation kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import adversary
from .codec import _radix
from .crypto import Cryptosystem
from .galois import affine_apply
from .probability import Pmf, ProductDistribution, _xlogx, all_sequences, check_table

__all__ = [
    "GammaKernel",
    "LeakageReport",
    "CapacityResult",
    "DeltaMaxResult",
    "KernelCheckReport",
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


@dataclass
class GammaKernel:
    """Ciphertext kernels of one (cryptosystem, adversary, key-source) triple.

    ``key_image_posterior[a, t] = Pr[keymap(K^n) = t | M_A = a]`` carries all
    randomness; ``gamma(x)`` materializes the per-plaintext stochastic matrix
    on demand.  Messages of probability zero are dropped (their original
    indices remain in ``message_ids``).  ``key_equivocation`` is
    H(K^n | M_A) in nats, taken from the same (key, message) law.  The
    entropy of each posterior row is computed on first use and kept;
    ``replace`` starts a kernel without it.  A translation kernel
    (``build_translation_kernel``) has one row of probability 1 that stands
    for every message, and an empty ``message_ids``.
    """

    q: int
    n: int
    m: int
    p_message: np.ndarray
    key_image_posterior: np.ndarray
    image_of: np.ndarray
    in_decoding_set: np.ndarray
    message_ids: np.ndarray
    key_equivocation: float
    _sub: np.ndarray | None = field(default=None, repr=False)
    _row_entropy: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def message_count(self) -> int:
        return self.p_message.shape[0]

    @property
    def image_count(self) -> int:
        return self.q**self.m

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

    def lex_of_image(self) -> np.ndarray:
        """Lexicographic index of the decoding-set member of each image."""
        out = np.full(self.image_count, -1, dtype=np.int64)
        d = np.flatnonzero(self.in_decoding_set)
        out[self.image_of[d]] = d
        return out


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


def _key_image_message_joint(sys: Cryptosystem, encoder, p_kz):
    """Joint table over (masked key image, adversary message), and
    H(K^n | M_A), both from the one law ``adversary.adversary_joint``."""
    q, n, m = sys.q, sys.n, sys.m
    _check_adversary(sys, encoder, p_kz)
    check_table("q^m * |M_A|", q**m * encoder.message_count)
    joint = adversary.adversary_joint(encoder, p_kz)
    h_key = adversary.joint_equivocation(encoder, joint)
    radix_m = _radix(m, q)
    if encoder.kind == "table":
        kimg_idx = affine_apply(sys.keymap, all_sequences(n, q)) @ radix_m
        g_joint = np.zeros((q**m, joint.shape[1]))
        np.add.at(g_joint, kimg_idx, joint)
        return g_joint, h_key
    # the (masked key, message) joint factorizes per coordinate: fold the
    # per-symbol (key, cell) joint into a running table over (image, prefix).
    # Rebinding ``state`` to its gathered translates frees the old table
    # before the product is allocated: at q = 2 with two cells the last step
    # holds two posterior-sized tables, not two and a half.
    digits = all_sequences(m, q)
    state = np.zeros((q**m, 1))
    state[int(sys.keymap.offset @ radix_m)] = 1.0
    for t in range(n):
        state = state[_translates(digits, sys.keymap.matrix[t], q, radix_m)]  # (q, q^m, prefix)
        state = np.einsum("ksp,ka->spa", state, joint).reshape(q**m, -1)
    return state, h_key


def build_gamma_kernel(sys: Cryptosystem, encoder, p_kz) -> GammaKernel:
    """Exact kernel construction by joint enumeration (product-form for
    scalar adversaries, full (k, z) enumeration for table adversaries).

    The q^n * q^m size check runs first, before any table is built."""
    q, n, m = sys.q, sys.n, sys.m
    check_table("q^n * q^m", q**n * q**m)
    g_joint, h_key = _key_image_message_joint(sys, encoder, p_kz)
    p_message = g_joint.sum(axis=0)
    keep = np.flatnonzero(p_message > 0)
    posterior = g_joint[:, keep]
    posterior /= p_message[keep]  # in place: the same divisions, one table fewer
    images, in_d, _ = sys.code.full_tables()
    return GammaKernel(
        q=q,
        n=n,
        m=m,
        p_message=p_message[keep],
        key_image_posterior=posterior.T,
        image_of=images,
        in_decoding_set=in_d,
        message_ids=keep,
        key_equivocation=h_key,
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


def build_translation_kernel(sys: Cryptosystem, encoder, p_kz) -> GammaKernel | None:
    """The kernel in closed form for a scalar adversary whose cell laws are
    translates over Z_q of one law nu (``_translation_law``), or None for a
    table adversary or any other law, which ``build_gamma_kernel`` takes.

    The kernel has one row, the law of S = sum_t N_t M[t] over Z_q^m, with
    N_1, ..., N_n i.i.d. ~ nu and M[t] row t of the key map's matrix, and
    that row has probability 1.  Only its q^m vector and the q^m * m digit
    table of Z_q^m are built, so only they are checked against the table
    cap.  It folds in n steps: the law of the
    partial sum after symbol t is sum_k nu(k) prev(s - k M[t]), summed over
    k in a fixed order.

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
    law = np.zeros(q**m)
    law[0] = 1.0
    for t in range(n):
        perm = _translates(digits, sys.keymap.matrix[t], q, radix_m)
        law = sum(nu[k] * law[perm[k]] for k in range(q))
    images, in_d, _ = sys.code.full_tables()
    return GammaKernel(
        q=q,
        n=n,
        m=m,
        p_message=np.ones(1),
        key_image_posterior=law[None],
        image_of=images,
        in_decoding_set=in_d,
        message_ids=np.zeros(0, dtype=np.int64),
        key_equivocation=adversary.joint_equivocation(encoder, joint),
    )


def _plaintext_vector(kernel: GammaKernel, p_x) -> np.ndarray:
    """Coerce a plaintext law to a vector over X^n in lexicographic order."""
    total = kernel.q**kernel.n
    if isinstance(p_x, ProductDistribution):
        if p_x.q != kernel.q or p_x.n != kernel.n:
            raise ValueError("plaintext law does not match the kernel")
        return p_x.materialize()
    if isinstance(p_x, Pmf):
        return ProductDistribution(p_x, kernel.n).materialize()
    v = np.asarray(p_x, dtype=np.float64)
    if v.shape != (total,):
        raise ValueError(f"plaintext vector must have length q^n = {total}")
    if not np.all(np.isfinite(v)) or v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
        raise ValueError("plaintext vector is not a distribution")
    return v


def _dft_matrix(q: int) -> np.ndarray:
    """The q-point DFT matrix F[j, k] = exp(-2 pi i jk / q)."""
    k = np.arange(q)
    return np.exp(-2j * np.pi * (np.outer(k, k) % q) / q)


def _zq_transform(a: np.ndarray, q: int, m: int, *, inverse: bool = False) -> np.ndarray:
    """The Fourier transform of Z_q^m along each row of a (batch, q^m) array,
    unnormalized; ``inverse`` uses the conjugate DFT matrix.

    Each of the m passes transforms the leading digit axis and moves it
    last, so after m passes the digits are back in their order.  For q >= 3
    a pass is one matrix product with the q-point DFT matrix.  At q = 2 it
    is the Walsh-Hadamard butterfly: the pass writes a0 + a1 and a0 - a1
    into a new (batch, rest, 2) array.  That is bit-identical to the matrix
    pass: at q = 2 the DFT matrix and its conjugate are both [[1, 1],
    [1, -1]], multiplying by +-1 is exact, so every entry of the matrix pass
    is the single rounding of a0 + a1 or a0 - a1 (up to the sign of a zero).
    The passes run in the same order, so the whole transform is too.
    """
    if q == 2:
        for _ in range(m):
            a = a.reshape(len(a), 2, -1)
            out = np.empty((len(a), a.shape[2], 2))
            np.add(a[:, 0], a[:, 1], out=out[:, :, 0])
            np.subtract(a[:, 0], a[:, 1], out=out[:, :, 1])
            a = out
        return a.reshape(len(a), -1)
    mat = _dft_matrix(q).conj() if inverse else _dft_matrix(q)
    a = a.reshape((len(a),) + (q,) * m)
    for _ in range(m):
        a = np.tensordot(a, mat, axes=([1], [0]))
    return a.reshape(len(a), -1)


def _zq_convolve(rows: np.ndarray, spectrum: np.ndarray, q: int, m: int) -> np.ndarray:
    """Cyclic convolution over Z_q^m of each row of ``rows`` with the vector
    whose transform is ``spectrum``, shape (1, q^m), from ``_zq_transform``.

    Index t stands for the digits t_j of t = sum_j t_j q^(m-1-j).  The
    Fourier transform of Z_q^m turns the convolution into a product and
    factorizes into the q-point DFT along each of the m digit axes.
    """
    product = _zq_transform(rows, q, m) * spectrum
    return np.real(_zq_transform(product, q, m, inverse=True)) / q**m


# Messages per batch of every pass over the posterior, which bounds the
# size of its (messages, q^m) temporaries.
_CHUNK = 256


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of a 2-D C-ordered table, ``_CHUNK`` rows
    at a time; each row is summed on its own, so the batch leaves its bits."""
    out = np.empty(len(rows))
    for lo in range(0, len(rows), _CHUNK):
        out[lo : lo + _CHUNK] = -_xlogx(rows[lo : lo + _CHUNK]).sum(axis=1)
    return out


def _posterior_entropies(kernel: GammaKernel) -> np.ndarray:
    """H(post_a) for every message a, computed once per kernel."""
    if kernel._row_entropy is None:
        kernel._row_entropy = _row_entropies(kernel.key_image_posterior)
    return kernel._row_entropy


def delta_mi(kernel: GammaKernel, p_x) -> float:
    """I(C; X | M_A) in nats for the given plaintext law, exactly.

    Proof of the formula.  X is independent of (K^n, M_A).  Given M_A = a,
    the masked key T = keymap(K^n) has law post_a (the row a of
    ``key_image_posterior``) and the codeword U = encode(X) has law p_img,
    independent of T; the ciphertext is C = U + T over Z_q^m.  Hence

        p(c | a)           = sum_u p_img(u) post_a(c - u) = (post_a * p_img)(c),
        H(C | X, M_A = a)  = H(U + T | U, M_A = a) = H(post_a),

    and I(C; X | M_A) = sum_a p(a) [H(post_a * p_img) - H(post_a)], where *
    is cyclic convolution over Z_q^m, evaluated by one radix-q Fourier
    transform (``_zq_convolve``) for each chunk of ``_CHUNK`` messages.
    H(post_a) is the kernel's own row entropy.  There is no precondition
    beyond the additive form of the kernel.

    A message whose posterior is constant contributes exactly zero (its
    convolution is the same constant) and is skipped, so a kernel with no
    other message gives exactly 0.0.  The gains of all other messages are
    weighted in one ``math.fsum``, as when they were convolved at once.
    """
    q, m = kernel.q, kernel.m
    px = _plaintext_vector(kernel, p_x)
    p_img = np.bincount(kernel.image_of, weights=px, minlength=kernel.image_count)
    spectrum = _zq_transform(p_img[None], q, m)
    h_post = _posterior_entropies(kernel)
    post = kernel.key_image_posterior
    live, gain = [], []
    for lo in range(0, kernel.message_count, _CHUNK):
        rows = post[lo : lo + _CHUNK]
        idx = lo + np.flatnonzero(np.any(rows != rows[:, :1], axis=1))
        if idx.size:
            live.append(idx)
            gain.append(_row_entropies(_zq_convolve(post[idx], spectrum, q, m)) - h_post[idx])
    if not live:
        return 0.0
    live = np.concatenate(live)
    return math.fsum(kernel.p_message[live] * np.concatenate(gain))


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


@dataclass
class DeltaMaxResult:
    """Worst-case leakage with its achieving plaintext distribution."""

    value: float
    input_distribution: np.ndarray  # over X^n, lexicographic


def _masked_key_equivocation(kernel: GammaKernel) -> float:
    """H(keymap(K^n) | M_A) in nats, from the kernel's row entropies."""
    return math.fsum(kernel.p_message * _posterior_entropies(kernel))


def _leakage_below(kernel: GammaKernel, equivocation: float) -> float:
    """m ln q minus a key equivocation, floored at zero against rounding."""
    return max(0.0, kernel.m * math.log(kernel.q) - equivocation)


def delta_max_mi(kernel: GammaKernel) -> DeltaMaxResult:
    """max over plaintext laws of I(C; X | M_A), in nats, in closed form:

        delta_max = m ln q - H(keymap(K^n) | M_A),

    reached by the uniform law on the decoding set D.

    Precondition: encode maps D onto Z_q^m (true for every valid system,
    where encode is a bijection D -> Z_q^m).  ``ValueError`` otherwise.

    Proof.  X is independent of (K^n, M_A) and C = encode(X) + keymap(K^n),
    so H(C | X, M_A) = H(keymap(K^n) | M_A) for every plaintext law, and

        I(C; X | M_A) = H(C | M_A) - H(keymap(K^n) | M_A).

    H(C | M_A) <= ln |Z_q^m| = m ln q.  A plaintext law whose codeword is
    uniform on Z_q^m makes C uniform given each message, whatever the masked
    key, so it meets the bound; by the precondition the uniform law on one
    D-member per image (the uniform law on D for a valid system) is such a
    law.  Equivalently, the channel from codewords to (C, M_A) has rows that
    are translates of each other over Z_q^m, so it is symmetric and a
    uniform input is optimal (Cover & Thomas, Elements of Information
    Theory, section 7.2).  The value is the same number that
    ``delta_max_upper_bound`` returns, bit for bit.
    """
    lex = kernel.lex_of_image()
    if np.any(lex < 0):
        missing = int(np.count_nonzero(lex < 0))
        raise ValueError(
            f"encode does not map the decoding set onto Z_q^m "
            f"({missing} of {kernel.image_count} images unreached)"
        )
    x_dist = np.zeros(kernel.q**kernel.n)
    x_dist[lex] = 1.0 / kernel.image_count
    value = _leakage_below(kernel, _masked_key_equivocation(kernel))
    return DeltaMaxResult(value=value, input_distribution=x_dist)


def delta_max_lower_bound(kernel: GammaKernel) -> float:
    """m ln q - H(K^n | M_A), floored at zero (always <= delta_max_mi).

    keymap(K^n) is a function of K^n, so H(keymap(K^n) | M_A) <=
    H(K^n | M_A), and this is at most ``delta_max_upper_bound``.
    """
    return _leakage_below(kernel, kernel.key_equivocation)


def delta_max_upper_bound(kernel: GammaKernel) -> float:
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


def structural_checks(kernel: GammaKernel) -> KernelCheckReport:
    """Verify the two exact identities every valid kernel family satisfies,
    each to within ``KERNEL_CHECK_TOL``.

    (a) For each (ciphertext, message), the kernel values summed over the
        decoding set equal 1.
    (b) A uniform plaintext on the decoding set makes the ciphertext uniform
        on X^m and independent of the message.

    Witnesses are (ciphertext index, message position) of the worst entry:
    the first message, then the first ciphertext, of the largest error.
    The sums over D are convolutions, sum_t post_a(c - t) n_D(t) with n_D(t)
    the number of D-members of image t, evaluated by ``_zq_convolve``.
    """
    img_counts = np.bincount(
        kernel.image_of[np.flatnonzero(kernel.in_decoding_set)], minlength=kernel.image_count
    ).astype(np.float64)
    d_size = img_counts.sum()
    target = 1.0 / kernel.image_count
    worst_a = worst_u = 0.0
    wit_a = wit_u = None
    post = kernel.key_image_posterior
    spectrum = _zq_transform(img_counts[None], kernel.q, kernel.m)
    for lo in range(0, kernel.message_count, _CHUNK):
        sums = _zq_convolve(post[lo : lo + _CHUNK], spectrum, kernel.q, kernel.m)
        val, wit = _worst_entry(np.abs(sums - 1.0), lo)
        if val > worst_a:
            worst_a, wit_a = val, wit
        val, wit = _worst_entry(np.abs(sums / d_size - target), lo)
        if val > worst_u:
            worst_u, wit_u = val, wit
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
    allow it, and the dense kernel otherwise; ``diagnostics["kernel"]``
    names the one taken, "translation" or "dense".
    """
    kernel, path = build_translation_kernel(sys, encoder, p_kz), "translation"
    if kernel is None:
        kernel, path = build_gamma_kernel(sys, encoder, p_kz), "dense"
    return LeakageReport(
        delta_mi=delta_mi(kernel, p_x),
        delta_max=delta_max_mi(kernel).value,
        lower_bound=delta_max_lower_bound(kernel),
        upper_bound=delta_max_upper_bound(kernel),
        diagnostics={"kernel": path},
    )
