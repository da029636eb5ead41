"""The composed cryptosystem: affine key encoder plus universal source code.

Encryption adds the two encodings over GF(q)^m:

    encrypt(k, x) = keymap(k) + encode(x)   (componentwise, mod q)
    decrypt(k, c) = decode(c - keymap(k))

so decrypt(k, encrypt(k, x)) = decode(encode(x)) for every key, which is the
structural condition tying the cryptosystem to its underlying source code.
Both methods take one (key, word) pair or a batch.  Construction probes the
condition on seeded random pairs; the structural suite checks it on every
checked key's image, on the key-image sweep that its other checks share.

The validation level is decided once, at construction: "exhaustive" when
the system has at most ``EXHAUSTIVE_PAIR_CAP`` (key, plaintext) pairs, and
"sampled" otherwise.  ``Cryptosystem.validation`` records it, and the
probe's size and the structural suite's mode follow it.  The sample sizes
and their seed are module constants, read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import UniversalCode, _as_symbols, _radix
from .galois import AffineMap, affine_apply
from .probability import check_table

__all__ = [
    "Cryptosystem",
    "check_structural_properties",
    "StructuralReport",
]

# Exhaustive (key, plaintext) verification up to this many pairs; larger
# systems get a sampled spot check instead.
EXHAUSTIVE_PAIR_CAP = 2**20
# Random (key, plaintext) pairs of the construction probe; an exhaustive
# system, which the structural suite sweeps whole, probes at most 256.
SAMPLE_PAIRS = 10**4
# Probe pairs sent through encrypt/decrypt at once.
PROBE_CHUNK = 2**10
# Keys the structural suite checks on a sampled system.
SAMPLE_KEYS = 64
# Seed of the probe pairs and of the sampled keys.
VALIDATION_SEED = 0


class Cryptosystem:
    """Additive cipher built from a universal code and an affine key map."""

    def __init__(self, code: UniversalCode, keymap: AffineMap):
        if keymap.n != code.n or keymap.m != code.m:
            raise ValueError(
                f"keymap is {keymap.n}x{keymap.m}, code needs {code.n}x{code.m}"
            )
        if keymap.spec.q != code.q:
            raise ValueError("keymap and code live over different fields")
        self.code = code
        self.keymap = keymap
        self.n = code.n
        self.m = code.m
        self.q = code.q
        pairs = self.q ** (2 * self.n)
        self.validation = "exhaustive" if pairs <= EXHAUSTIVE_PAIR_CAP else "sampled"
        ok, witness = _condition_check(self)
        if not ok:
            raise AssertionError(f"structural condition violated at (k, x) = {witness}")

    def encrypt(self, k, x) -> np.ndarray:
        """keymap(k) + encode(x) mod q.

        ``k`` and ``x`` are each one length-n word or a (B, n) batch; a
        single key or plaintext is paired with every row of the other.
        Both terms are symbols in [0, q), so their sum s lies in
        [0, 2q - 2] and s mod q is s, or s - q when s >= q: one conditional
        wrap, not an integer division.
        """
        s = self.key_image(k) + self.code.encode(x)
        return np.where(s >= self.q, s - self.q, s)

    def decrypt(self, k, c) -> np.ndarray:
        """decode(c - keymap(k)); ``c`` is one length-m word or a (B, m) batch.

        Both terms are symbols in [0, q), so their difference d lies in
        [-(q - 1), q - 1] and d mod q is d, or d + q when d < 0.
        """
        c = _as_symbols(c, self.m, self.q, "ciphertext")
        d = c - self.key_image(k)
        return self.code.decode(np.where(d < 0, d + self.q, d))

    def key_image(self, k) -> np.ndarray:
        """keymap(k), the m-symbol masked key (one key or a batch)."""
        return affine_apply(self.keymap, k)


def _key_image_sweep(sys: Cryptosystem, keys: np.ndarray, seqs: np.ndarray):
    """Yield (k, encrypt(k, seqs), decrypt(k, encrypt(k, seqs))) for one
    representative k per distinct keymap(k) among the rows of ``keys``.

    The representative of an image is the first row of ``keys`` that maps
    to it; images are visited in order of that first occurrence.

    Exactness.  encrypt(k, x) = keymap(k) + encode(x) and decrypt(k, c) =
    decode(c - keymap(k)) read k only through keymap(k), so keys with the
    same image have the same tables, and a per-key predicate on them holds
    for all or none.  Let k* be the first row of ``keys`` that fails one.
    The representative of keymap(k*) is the first row with that image and
    fails too, so it is k*; every image visited earlier has a representative
    before k*, which passes.  So the first failing representative is the
    witness k* of the loop over all of ``keys``, found in at most q^m steps.
    An override that reads k otherwise is for the seeded probe of
    ``_condition_check`` to catch.
    """
    radix = _radix(sys.m, sys.q)
    _, first = np.unique(sys.key_image(keys) @ radix, return_index=True)
    for i in np.sort(first):
        k = keys[i]
        cipher = sys.encrypt(k, seqs)
        yield k, cipher, sys.decrypt(k, cipher)


def _condition_check(sys):
    """Probe decrypt(k, encrypt(k, x)) == decode(encode(x)) on seeded random
    pairs; returns (ok, first failing (k, x)).

    The pairs are drawn at once and go through encrypt/decrypt
    ``PROBE_CHUNK`` at a time, in order, so the first failing pair of the
    first chunk that has one is the first of all; the probe's temporaries
    stay chunk-sized.  It catches overrides that read the key beyond its
    image.  The structural suite's ``decryption_condition`` covers every
    pair of the checked keys' images.
    """
    n, q = sys.n, sys.q
    rng = np.random.default_rng(VALIDATION_SEED)
    n_probe = min(SAMPLE_PAIRS, 256) if sys.validation == "exhaustive" else SAMPLE_PAIRS
    check_table("n_probe * n", n_probe * n)
    keys = rng.integers(0, q, size=(n_probe, n))
    xs = rng.integers(0, q, size=(n_probe, n))
    for lo in range(0, n_probe, PROBE_CHUNK):
        k, x = keys[lo : lo + PROBE_CHUNK], xs[lo : lo + PROBE_CHUNK]
        want = sys.code.decode(sys.code.encode(x))
        bad = np.flatnonzero(np.any(sys.decrypt(k, sys.encrypt(k, x)) != want, axis=1))
        if bad.size:
            return False, (k[bad[0]].tolist(), x[bad[0]].tolist())
    return True, None


@dataclass
class StructuralReport:
    """Outcome of the executable structural property suite."""

    passed: bool = True
    mode: str = "exhaustive"
    failures: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def record(self, name: str, ok: bool, witness=None):
        self.checks[name] = {"ok": ok, "witness": witness}
        if not ok:
            self.passed = False
            self.failures.append((name, witness))


def check_structural_properties(sys: Cryptosystem) -> StructuralReport:
    """Run the decoding-set, per-key injectivity/surjectivity and
    decryption-condition checks.

    Checks, each with a named witness on failure:

    * ``decoding_set_size`` — the enumerated set {x : decode(encode(x)) = x}
      has exactly q**m elements.
    * ``injective_on_D`` — for every (checked) key, encrypt(k, .) is
      injective on that set.
    * ``surjective`` — for every (checked) key, encrypt(k, .) covers X^m.
    * ``key_independent_D`` — {x : decrypt(k, encrypt(k, x)) = x} is the
      same set for every checked key.
    * ``decryption_condition`` — decrypt(k, encrypt(k, x)) = decode(encode(x))
      for every checked key and every x; the witness is the first failing
      key and, for it, the first failing x in lexicographic order.

    All keys are checked when ``sys.validation`` is "exhaustive"; otherwise
    ``SAMPLE_KEYS`` seeded keys are, and the report's mode says so.
    ``_key_image_sweep`` gives each check the first failing checked key.
    """
    n, m, q = sys.n, sys.m, sys.q
    report = StructuralReport()

    seqs = sys.code.sequences()
    want = sys.code.decode(sys.code.encode(seqs))
    in_d = np.all(want == seqs, axis=1)
    d_count = int(in_d.sum())
    report.record(
        "decoding_set_size",
        d_count == q**m,
        None if d_count == q**m else {"enumerated": d_count, "expected": q**m},
    )

    report.mode = sys.validation
    if sys.validation == "exhaustive":
        keys = seqs
    else:
        rng = np.random.default_rng(VALIDATION_SEED)
        keys = rng.integers(0, q, size=(SAMPLE_KEYS, n))

    radix_m = _radix(m, q)
    d_indices = np.flatnonzero(in_d)
    inj_ok, inj_witness = True, None
    surj_ok, surj_witness = True, None
    dset_ok, dset_witness = True, None
    cond_ok, cond_witness = True, None
    for k, cipher, back in _key_image_sweep(sys, keys, seqs):
        cipher_idx = cipher @ radix_m
        if inj_ok:
            on_d = cipher_idx[d_indices]
            hits = np.bincount(on_d, minlength=q**m)
            if np.count_nonzero(hits) != on_d.size:
                inj_ok = False
                dup = np.flatnonzero(hits > 1)[0]
                pair = d_indices[np.flatnonzero(on_d == dup)[:2]]
                inj_witness = {
                    "key": k.tolist(),
                    "x": seqs[pair[0]].tolist(),
                    "y": seqs[pair[1]].tolist(),
                }
        if surj_ok:
            hits = np.bincount(cipher_idx, minlength=q**m)
            if np.count_nonzero(hits) != q**m:
                surj_ok = False
                missing = np.flatnonzero(hits[: q**m] == 0)[:4].tolist()
                surj_witness = {"key": k.tolist(), "missing_codewords": missing}
        # in_d is all(want == seqs), so a key with back == want meets the
        # condition and has in_d as its set; only a key whose table differs
        # needs its own rows searched
        if (cond_ok or dset_ok) and not np.array_equal(back, want):
            if cond_ok:
                cond_ok = False
                bad = np.flatnonzero(np.any(back != want, axis=1))[0]
                cond_witness = {"key": k.tolist(), "x": seqs[bad].tolist()}
            if dset_ok:
                ok_mask = np.all(back == seqs, axis=1)
                if not np.array_equal(ok_mask, in_d):
                    dset_ok = False
                    diff = int(np.flatnonzero(ok_mask != in_d)[0])
                    dset_witness = {"key": k.tolist(), "x": seqs[diff].tolist()}
    report.record("injective_on_D", inj_ok, inj_witness)
    report.record("surjective", surj_ok, surj_witness)
    report.record("key_independent_D", dset_ok, dset_witness)
    report.record("decryption_condition", cond_ok, cond_witness)
    return report
