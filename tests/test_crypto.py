import numpy as np
import pytest

from leaklab import crypto
from leaklab.codec import UniversalCode, build_universal_code
from leaklab.crypto import Cryptosystem, check_structural_properties
from leaklab.galois import AffineMap, FieldSpec, matrix_rank, random_affine
from leaklab.probability import all_sequences

from helpers import checked_keys, condition_oracle, structural_properties_oracle, swapped_decode

F2 = FieldSpec(2)
F3 = FieldSpec(3)

# A validation policy under which every fixture but the n = 3 binary one is
# sampled, with 40 keys drawn from seed 3.
SAMPLED_POLICY = {"EXHAUSTIVE_PAIR_CAP": 2**6, "SAMPLE_KEYS": 40, "VALIDATION_SEED": 3}


def identity_keymap(n, spec):
    return AffineMap(np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64), spec)


def zero_keymap(n, m, spec):
    return AffineMap(
        np.zeros((n, m), dtype=np.int64), np.zeros(m, dtype=np.int64), spec
    )


def make_system(n, R, q, seed=0):
    code = build_universal_code(n, R, q)
    spec = FieldSpec(q)
    keymap = random_affine(n, code.m, spec, seed)
    return Cryptosystem(code, keymap)


def unchecked(cls, code, keymap):
    """A system of class ``cls`` built without its construction-time
    condition check, for fixtures that violate the condition on purpose."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "_condition_check", lambda sys: (True, None))
        return cls(code, keymap)


def policies(monkeypatch):
    """Yield once under the default validation policy and once under
    ``SAMPLED_POLICY``, with the oracle's key-sample arguments of each;
    systems built in the loop body follow the policy of their step."""
    for policy in ({}, SAMPLED_POLICY):
        for name, value in policy.items():
            monkeypatch.setattr(crypto, name, value)
        yield {"sample_keys": crypto.SAMPLE_KEYS, "seed": crypto.VALIDATION_SEED}


def test_one_time_pad_is_xor():
    # identity code, identity keymap: the classical Vernam cipher
    sys = Cryptosystem(UniversalCode.identity(4, 2), identity_keymap(4, F2))
    k = np.array([1, 0, 1, 1])
    x = np.array([0, 0, 1, 1])
    assert np.array_equal(sys.encrypt(k, x), (k + x) % 2)
    assert np.array_equal(sys.decrypt(k, sys.encrypt(k, x)), x)


def test_zero_keymap_reduces_to_source_code():
    code = build_universal_code(5, 0.5, 2)
    sys = Cryptosystem(code, zero_keymap(5, code.m, F2))
    x = np.array([0, 1, 0, 0, 1])
    assert np.array_equal(sys.encrypt(np.zeros(5, dtype=int), x), code.encode(x))


def test_condition_random_pairs():
    # decrypt(k, encrypt(k, x)) == decode(encode(x)) on random draws
    sys = make_system(8, 0.5, 2, seed=1)
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = rng.integers(0, 2, 8)
        x = rng.integers(0, 2, 8)
        want = sys.code.decode(sys.code.encode(x))
        assert np.array_equal(sys.decrypt(k, sys.encrypt(k, x)), want)


def test_round_trip_on_decoding_set_exhaustive():
    sys = make_system(4, 0.6, 2, seed=2)  # q^{2n} = 2^8
    for x in all_sequences(4, 2):
        if sys.code.in_decoding_set(x):
            for k in all_sequences(4, 2):
                assert np.array_equal(sys.decrypt(k, sys.encrypt(k, x)), x)


def test_error_pattern_key_independent_outside_decoding_set():
    sys = make_system(6, 0.4, 2, seed=3)
    keys = all_sequences(6, 2)
    for x in all_sequences(6, 2):
        if sys.code.in_decoding_set(x):
            continue
        outs = {tuple(sys.decrypt(k, sys.encrypt(k, x))) for k in keys}
        assert len(outs) == 1  # same wrong output for every key
        assert tuple(x) not in outs


def test_uniform_ciphertext_ranges_over_decoding_set():
    sys = make_system(5, 0.45, 2, seed=4)
    k = np.array([1, 0, 1, 1, 0])
    outs = {
        tuple(sys.decrypt(k, c)) for c in all_sequences(sys.m, 2)
    }
    want = {
        tuple(x) for x in all_sequences(5, 2) if sys.code.in_decoding_set(x)
    }
    assert outs == want


def test_key_shift_invariance():
    # encrypt(k, x) - encrypt(k', x) does not depend on x
    sys = make_system(4, 0.6, 2, seed=5)
    keys = all_sequences(4, 2)
    xs = all_sequences(4, 2)
    k1, k2 = keys[3], keys[9]
    diffs = {
        tuple((sys.encrypt(k1, x) - sys.encrypt(k2, x)) % 2) for x in xs
    }
    assert len(diffs) == 1


def test_dimension_checks():
    code = build_universal_code(4, 0.6, 2)
    with pytest.raises(ValueError):
        Cryptosystem(code, identity_keymap(4, F2))  # m mismatch (4 vs 3)
    sys = make_system(4, 0.6, 2)
    with pytest.raises(ValueError):
        sys.encrypt(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        sys.decrypt(np.zeros(4, dtype=int), np.zeros(4, dtype=int))


def test_structural_checks_pass_otp():
    sys = Cryptosystem(UniversalCode.identity(3, 2), identity_keymap(3, F2))
    rep = check_structural_properties(sys)
    assert rep.passed and rep.mode == "exhaustive"


@pytest.mark.parametrize("q,n,R,seed", [(2, 6, 0.45, 11), (3, 4, 0.8, 13)])
def test_structural_checks_pass_random_systems(q, n, R, seed):
    sys = make_system(n, R, q, seed=seed)
    rep = check_structural_properties(sys)
    assert rep.passed, rep.failures


def test_structural_checks_pass_rank_deficient_keymap():
    # lossless code with an all-zero keymap: surjectivity must still hold
    code = UniversalCode.identity(4, 2)
    sys = Cryptosystem(code, zero_keymap(4, 4, F2))
    rep = check_structural_properties(sys)
    assert rep.passed
    assert matrix_rank(sys.keymap.matrix, 2) == 0


class _CorruptedDecoder(UniversalCode):
    """Decoder with two outputs swapped: shrinks the enumerated decoding set."""

    decode = swapped_decode(UniversalCode.decode)


def test_structural_checks_catch_corrupted_decoder():
    code = _CorruptedDecoder(5, 2, 2)
    spec = FieldSpec(2)
    keymap = random_affine(5, 2, spec, seed=0)
    sys = Cryptosystem(code, keymap)  # the condition holds; the suite fails
    rep = check_structural_properties(sys)
    assert not rep.passed
    assert not rep.checks["decoding_set_size"]["ok"]
    assert rep.checks["decoding_set_size"]["witness"]["enumerated"] < 4


def test_sampled_validation_path(monkeypatch):
    # q^{2n} > 2^20 forces the sampled spot check at construction, and the
    # structural suite takes its mode from the system
    sys = make_system(12, 0.5, 2, seed=6)
    assert sys.validation == "sampled"
    monkeypatch.setattr(crypto, "SAMPLE_KEYS", 8)
    rep = check_structural_properties(sys)
    assert rep.passed and rep.mode == "sampled"


def test_validation_level_is_decided_once(monkeypatch):
    # the construction check and the structural suite follow the level the
    # system recorded at construction, under the cap of that moment
    monkeypatch.setattr(crypto, "EXHAUSTIVE_PAIR_CAP", 2**8)
    small, large = make_system(4, 0.6, 2), make_system(5, 0.6, 2)
    assert (small.validation, large.validation) == ("exhaustive", "sampled")
    monkeypatch.setattr(crypto, "EXHAUSTIVE_PAIR_CAP", 2**20)
    assert check_structural_properties(small).mode == "exhaustive"
    assert check_structural_properties(large).mode == "sampled"


def test_condition_violation_detected_at_construction():
    code = _CorruptedDecoder(4, 2, 2)
    keymap = random_affine(4, 2, FieldSpec(2), seed=1)
    # swapped decode outputs keep psi∘phi == psi∘phi, so the condition holds;
    # a key-dependent corruption is needed to trip it
    sys = Cryptosystem(code, keymap)  # constructs fine

    class _KeyDependent(Cryptosystem):
        def decrypt(self, k, c):
            out = super().decrypt(k, c)
            return (out + np.asarray(k)[..., :1]) % 2

    with pytest.raises(AssertionError, match="structural condition violated"):
        _KeyDependent(code, keymap)


def test_construction_runs_only_the_probe(monkeypatch):
    # the exhaustive sweep of the condition is the structural suite's; an
    # exhaustive system's construction makes one encrypt and one decrypt
    # call, on the probe's whole batch
    calls = []

    def counted(name):
        method = getattr(Cryptosystem, name)
        return lambda self, k, w: calls.append(name) or method(self, k, w)

    for name in ("encrypt", "decrypt"):
        monkeypatch.setattr(Cryptosystem, name, counted(name))
    sys = make_system(10, 0.5, 2)
    assert sys.validation == "exhaustive"
    assert calls == ["encrypt", "decrypt"]


def test_probe_chunks_keep_the_first_failing_pair(monkeypatch):
    # a decrypt that reads the key beyond its image fails on the probe
    # pairs whose key is all zeros (the 7th, 51st and 54th); chunks of 4
    # pairs, in order, report the pair that one batch of all of them reports
    class _KeyDependent(Cryptosystem):
        def decrypt(self, k, c):
            out = super().decrypt(k, c)
            hit = np.all(np.asarray(k) == 0, axis=-1)
            out[..., 0] = np.where(hit, 1 - out[..., 0], out[..., 0])
            return out

    monkeypatch.setattr(crypto, "EXHAUSTIVE_PAIR_CAP", 2**6)
    monkeypatch.setattr(crypto, "SAMPLE_PAIRS", 100)
    code = build_universal_code(6, 0.5, 2)
    keymap = random_affine(6, code.m, F2, seed=2)
    messages, calls = [], []
    encrypt = Cryptosystem.encrypt
    monkeypatch.setattr(
        Cryptosystem, "encrypt", lambda self, k, x: calls.append(len(x)) or encrypt(self, k, x)
    )
    for chunk in (100, 4):
        monkeypatch.setattr(crypto, "PROBE_CHUNK", chunk)
        calls.clear()
        with pytest.raises(AssertionError, match="structural condition violated") as err:
            _KeyDependent(code, keymap)
        messages.append(str(err.value))
        assert max(calls) <= chunk
    assert messages[0] == messages[1]
    assert calls == [4, 4]  # the second chunk holds the first failing pair


class _ImageDependent(Cryptosystem):
    """encrypt zeroes the last ciphertext symbol, and decrypt flips the first
    plaintext symbol, for the keys of one key image only.  Both read the key
    only through its image, so the key-image sweep is exact for them."""

    bad_image = None
    corrupt = ("encrypt", "decrypt")

    def _hit(self, k):
        return np.all(self.key_image(k) == self.bad_image, axis=-1)

    def encrypt(self, k, x):
        out = super().encrypt(k, x)
        if "encrypt" in self.corrupt:
            out[..., -1] = np.where(self._hit(k), 0, out[..., -1])
        return out

    def decrypt(self, k, c):
        out = super().decrypt(k, c)
        if "decrypt" in self.corrupt:
            out[..., 0] = np.where(self._hit(k), (out[..., 0] + 1) % self.q, out[..., 0])
        return out


def _image_dependent(q, n, R, seed, key_index, corrupt):
    code = build_universal_code(n, R, q)
    keymap = random_affine(n, code.m, FieldSpec(q), seed=seed)
    sys = unchecked(_ImageDependent, code, keymap)
    sys.bad_image = sys.key_image(all_sequences(n, q)[key_index])
    sys.corrupt = corrupt
    return sys


def _sweep_fixtures():
    yield make_system(6, 0.45, 2, seed=11)
    yield make_system(4, 0.8, 3, seed=13)
    yield Cryptosystem(UniversalCode.identity(3, 2), identity_keymap(3, F2))
    yield Cryptosystem(UniversalCode.identity(4, 2), zero_keymap(4, 4, F2))
    yield Cryptosystem(_CorruptedDecoder(5, 2, 2), random_affine(5, 2, F2, seed=0))
    yield Cryptosystem(_CorruptedDecoder(4, 3, 3), random_affine(4, 3, F3, seed=2))
    yield _image_dependent(2, 6, 0.45, 3, 37, ("encrypt", "decrypt"))
    yield _image_dependent(2, 6, 0.45, 4, 21, ("encrypt",))
    yield _image_dependent(3, 4, 0.8, 5, 50, ("decrypt",))


def test_key_image_sweep_matches_full_key_loop(monkeypatch):
    # the structural suite sweeps one key per key image; a loop over every
    # checked key gives the same reports, witnesses included, on valid
    # systems and on mutated ones
    failing = set()
    modes = set()
    for sample in policies(monkeypatch):
        for sys in _sweep_fixtures():
            rep = check_structural_properties(sys)
            assert rep == structural_properties_oracle(sys, **sample)
            witness = condition_oracle(sys, checked_keys(sys, **sample))
            assert rep.checks["decryption_condition"]["witness"] == witness
            failing.update(name for name, _ in rep.failures)
            modes.add(rep.mode)
    assert modes == {"exhaustive", "sampled"}
    # the fixtures exercise every check's failure path
    assert failing == {
        "decoding_set_size", "injective_on_D", "surjective", "key_independent_D",
        "decryption_condition",
    }


def test_batch_encrypt_decrypt_match_single_pairs():
    sys = make_system(6, 0.45, 2, seed=9)
    rng = np.random.default_rng(4)
    ks = rng.integers(0, 2, size=(50, 6))
    xs = rng.integers(0, 2, size=(50, 6))
    cs = sys.encrypt(ks, xs)
    assert cs.shape == (50, sys.m)
    assert np.array_equal(cs, np.stack([sys.encrypt(k, x) for k, x in zip(ks, xs)]))
    back = sys.decrypt(ks, cs)
    assert np.array_equal(back, np.stack([sys.decrypt(k, c) for k, c in zip(ks, cs)]))
    # one key against a batch of plaintexts, and the reverse
    assert np.array_equal(sys.encrypt(ks[0], xs), np.stack([sys.encrypt(ks[0], x) for x in xs]))
    assert np.array_equal(sys.encrypt(ks, xs[0]), np.stack([sys.encrypt(k, xs[0]) for k in ks]))


def test_batch_encrypt_decrypt_reject_bad_input():
    sys = make_system(4, 0.6, 2)
    k = np.zeros((3, 4), dtype=int)
    with pytest.raises(ValueError):
        sys.encrypt(k, np.zeros((3, 5), dtype=int))  # plaintext width
    with pytest.raises(ValueError):
        sys.encrypt(np.zeros((3, 3), dtype=int), np.zeros((3, 4), dtype=int))  # key width
    with pytest.raises(ValueError):
        sys.encrypt(k, np.full((3, 4), 2))  # plaintext symbol outside GF(2)
    with pytest.raises(ValueError):
        sys.decrypt(k, np.zeros((3, 4), dtype=int))  # ciphertext width (m = 3)
    with pytest.raises(ValueError):
        sys.decrypt(k, np.array([[0, 0, 2]] * 3))  # ciphertext symbol outside GF(2)
    with pytest.raises(ValueError):
        sys.decrypt(k, np.zeros((1, 3, 3), dtype=int))  # not one word or a batch


def test_fractional_symbols_are_refused_not_truncated():
    sys = make_system(4, 0.6, 2)
    with pytest.raises(ValueError, match="whole numbers"):
        sys.encrypt([0.9, 1.5, 0, 1], [0.2, 1.7, 1, 0])  # key, through affine_apply
    with pytest.raises(ValueError, match="whole numbers"):
        sys.encrypt([0, 1, 0, 1], [0.2, 1.7, 1, 0])  # plaintext
    with pytest.raises(ValueError, match="whole numbers"):
        sys.decrypt([0, 1, 0, 1], [0.5, 0, 1])  # ciphertext
    with pytest.raises(ValueError, match="whole numbers"):
        sys.code.decode([np.nan, 0, 1])
    offset = sys.keymap.offset.tolist()
    offset[0] = 0.5
    with pytest.raises(ValueError, match="whole numbers"):
        AffineMap(sys.keymap.matrix.tolist(), offset, F2)
    # whole numbers of a float dtype are still symbols
    k, x = [0, 1, 0, 1], [1, 1, 0, 0]
    whole = sys.encrypt(np.array(k, float), np.array(x, float))
    assert np.array_equal(whole, sys.encrypt(k, x))


@pytest.mark.parametrize("q,n,R", [(2, 6, 0.45), (3, 4, 0.8), (5, 3, 1.1)])
def test_encrypt_decrypt_match_modular_formulas(q, n, R):
    # the conditional wraps of encrypt and decrypt against plain % q
    sys = make_system(n, R, q, seed=q)
    rng = np.random.default_rng(q)
    ks = rng.integers(0, q, size=(60, n))
    xs = rng.integers(0, q, size=(60, n))
    cs = rng.integers(0, q, size=(60, sys.m))
    image, encode, decode = sys.key_image, sys.code.encode, sys.code.decode
    # one key against a batch, and the reverse
    assert np.array_equal(sys.encrypt(ks[0], xs), (image(ks[0]) + encode(xs)) % q)
    assert np.array_equal(sys.encrypt(ks, xs[0]), (image(ks) + encode(xs[0])) % q)
    assert np.array_equal(sys.decrypt(ks[0], cs), decode((cs - image(ks[0])) % q))
    assert np.array_equal(sys.decrypt(ks, cs[0]), decode((cs[0] - image(ks)) % q))


class _Redirected(Cryptosystem):
    """For the keys of one key image, encrypt sends one plaintext outside D
    to the ciphertext of a plaintext inside D.  decrypt(k, encrypt(k, x))
    then differs from decode(encode(x)) at that one pair, yet every
    structural check but the decryption condition holds."""

    bad_image = x_out = x_in = None

    def encrypt(self, k, x):
        out = super().encrypt(k, x)
        hit = np.all(self.key_image(k) == self.bad_image, axis=-1)
        hit = hit & np.all(np.asarray(x) == self.x_out, axis=-1)
        return np.where(hit[..., None], super().encrypt(k, self.x_in), out)


def _last_visited_key(sys):
    """The key that the key-image sweep over all of X^n visits last: the
    first key of the image whose first occurrence comes latest."""
    keys = all_sequences(sys.n, sys.q)
    radix = sys.q ** np.arange(sys.m - 1, -1, -1)
    _, first = np.unique(sys.key_image(keys) @ radix, return_index=True)
    return keys[first.max()]


def _fast_path_fixtures():
    """Systems that fail at the last key image the sweep visits, and the
    plaintext outside D that the last one redirects."""
    seqs = all_sequences(6, 2)
    fixtures = []
    for corrupt in (("encrypt", "decrypt"), ("decrypt",)):
        sys = _image_dependent(2, 6, 0.45, 3, 0, corrupt)
        sys.bad_image = sys.key_image(_last_visited_key(sys))
        fixtures.append(sys)
    code = build_universal_code(6, 0.45, 2)
    sys = unchecked(_Redirected, code, random_affine(6, code.m, F2, seed=5))
    x_out = seqs[np.flatnonzero(~code.in_decoding_set(seqs))[-1]]
    sys.x_out, sys.x_in = x_out, seqs[0]  # all zeros: in D, not its last member
    sys.bad_image = sys.key_image(_last_visited_key(sys))
    fixtures.append(sys)
    return fixtures, x_out


def test_key_image_sweep_fast_paths_match_full_key_loop(monkeypatch):
    # failures at the last image the sweep visits, after whole-table
    # equality has passed every earlier image; one of them differs from
    # decode(encode(x)) only outside D, which only the condition check sees
    fixtures, _ = _fast_path_fixtures()
    rep = check_structural_properties(fixtures[2])
    assert [name for name, _ in rep.failures] == ["decryption_condition"]
    rep = check_structural_properties(fixtures[1])
    assert [name for name, _ in rep.failures] == ["key_independent_D", "decryption_condition"]
    assert rep.failures[0][1]["key"] == _last_visited_key(fixtures[1]).tolist()
    for sample in policies(monkeypatch):
        fixtures, x_out = _fast_path_fixtures()
        for sys in fixtures:
            rep = check_structural_properties(sys)
            assert rep == structural_properties_oracle(sys, **sample)
            witness = rep.checks["decryption_condition"]["witness"]
            assert witness is not None
            assert witness == condition_oracle(sys, checked_keys(sys, **sample))
            if rep.mode == "exhaustive":
                assert witness["key"] == _last_visited_key(sys).tolist()
        assert witness["x"] == x_out.tolist()
