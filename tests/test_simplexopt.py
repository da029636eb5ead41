"""The batched solver engines against their sequential oracles.

The fused Adam and the lockstep dense scan are exact re-batchings of the
sequential loops in ``helpers``: they rest on every production objective
being row-independent bit for bit, which the batch-invariance tests check.
"""

import numpy as np
import pytest

from helpers import dense_scan_oracle, golden_polish_oracle, multistart_adam_oracle
from leaklab import analysis, simplexopt
from leaklab.probability import ChannelMatrix, Pmf, joint_from_channel
from leaklab.simplexopt import SolverOptions, minimize_blocks

BSC_KZ = joint_from_channel(Pmf.uniform(2), ChannelMatrix.bsc(0.1))
TERNARY_KZ = joint_from_channel(
    Pmf([0.4, 0.35, 0.25]),
    ChannelMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]),
)
BINARY_TO_TERNARY_KZ = joint_from_channel(
    Pmf([0.6, 0.4]), ChannelMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
)


def psh_objective(p_kz, mu):
    """The r_mu objective over test channels U|Z, as ``r_mu`` builds it."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        i_zu, h_kgu = analysis._psh_objective_terms(blocks[0], p_z, pkgz)
        return mu * i_zu + (1.0 - mu) * h_kgu

    return f


def omega_objective(p_kz, mu, alpha):
    """The omega objective over (U marginal, Z|U channel), as ``omega_min``
    builds it."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        return analysis._omega_batch(blocks[0][:, 0, :], blocks[1], p_z, pkgz, mu, alpha)

    return f


def omega_tilde_objective(p_kz, mu, lam):
    """The omega~ objective over test channels U|Z, as ``omega_tilde_min``
    builds it."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        return analysis._omega_tilde_batch(blocks[0], p_z, pkgz, mu, lam)

    return f


def counting(f):
    calls = []

    def g(blocks):
        calls.append(blocks[0].shape[0])
        return f(blocks)

    return g, calls


def assert_same_result(got, want):
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
    assert np.array_equal(got[2], want[2])


# ---------------------------------------------------------------------------
# fused Adam
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, shapes, opts",
    [
        # the ternary r_mu sweep of the region workload, at default options
        (psh_objective(TERNARY_KZ, 0.25), [(3, 3)], SolverOptions()),
        # omega with a 3-column Z|U block
        (
            omega_objective(BINARY_TO_TERNARY_KZ, 0.4, 0.7),
            [(1, 2), (2, 3)],
            SolverOptions(n_starts=24, iters=60, seed=3),
        ),
    ],
    ids=["ternary-r_mu", "omega-3col"],
)
def test_fused_adam_matches_sequential_oracle(f, shapes, opts):
    got = minimize_blocks(f, shapes, opts=opts)
    want = multistart_adam_oracle(f, shapes, opts)
    assert_same_result(got, want)


def test_adam_makes_two_calls_per_iteration():
    opts = SolverOptions(n_starts=10, iters=17)
    f, calls = counting(psh_objective(TERNARY_KZ, 0.5))
    minimize_blocks(f, [(3, 3)], opts=opts)
    assert len(calls) == 1 + 2 * opts.iters
    dim = 3 * 3
    assert calls == [10] + [dim * 10, 10] * opts.iters


# ---------------------------------------------------------------------------
# lockstep dense scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, shapes",
    [
        (omega_objective(BSC_KZ, 0.3, 0.8), [(1, 2), (2, 2)]),
        (omega_tilde_objective(BSC_KZ, 0.5, 1.5), [(2, 2)]),
        (psh_objective(BSC_KZ, 0.4), [(2, 2)]),
        # mu = 0: the optimum U = Z is a corner, so the winning basin's
        # golden brackets are clipped at 0 or 1
        (psh_objective(BSC_KZ, 0.0), [(2, 2)]),
    ],
    ids=["omega", "omega_tilde", "r_mu", "r_mu-corner"],
)
def test_lockstep_dense_scan_matches_sequential_oracle(f, shapes):
    opts = SolverOptions()
    got = minimize_blocks(f, shapes, opts=opts)
    want = dense_scan_oracle(f, shapes, opts)
    assert_same_result(got, want)


def test_corner_basin_is_clipped():
    # the r_mu-corner case above does polish on the simplex boundary
    _, blocks, _ = minimize_blocks(psh_objective(BSC_KZ, 0.0), [(2, 2)])
    assert np.min(blocks[0]) < 1e-6


def test_lockstep_polish_with_unequal_loop_lengths():
    # one start sits on the boundary, so its golden loops are shorter; the
    # lockstep polish still reproduces every sequential one bit for bit and
    # makes as many calls as the longest of them
    shapes = [(2, 2)]
    f = omega_tilde_objective(BSC_KZ, 0.3, 0.9)
    starts = [np.array([0.0, 0.7]), np.array([0.4, 0.55]), np.array([1.0, 1.0])]
    width = 0.05
    want, lengths = [], []
    for x in starts:
        single, calls = counting(f)
        want.append(
            golden_polish_oracle(
                lambda p: float(single(simplexopt._blocks_from_free(p[None, :], shapes))[0]),
                x,
                width,
            )
        )
        lengths.append(len(calls))
    assert len(set(lengths)) > 1
    g, calls = counting(f)
    got = simplexopt._lockstep(
        g, shapes, [simplexopt._golden_polish(x, width) for x in starts]
    )
    for (gx, gv), (wx, wv) in zip(got, want):
        assert gv == wv and np.array_equal(gx, wx)
    # the lockstep polish asks for the two opening points of each of its
    # sweeps * dim brackets in one call, where the oracle makes two
    n_brackets = 2 * 2
    assert len(calls) == max(lengths) - n_brackets
    assert len(calls) < sum(lengths)


# ---------------------------------------------------------------------------
# the exactness premise: every production objective is row-independent
# ---------------------------------------------------------------------------


def _channels(rng, batch, rows, cols):
    ch = rng.dirichlet(np.ones(cols), size=(batch, rows))
    # exact boundary rows in a few batch entries
    ch[::7, 0, :] = 0.0
    ch[::7, 0, 0] = 1.0
    return ch


def _assert_row_independent(f, inputs):
    full = f(*inputs)
    assert full.shape == (576,)
    assert np.array_equal(f(*(a[:64] for a in inputs)), full[:64])
    for i in range(576):
        assert np.array_equal(f(*(a[i : i + 1] for a in inputs)), full[i : i + 1]), i


@pytest.mark.parametrize("p_kz", [BSC_KZ, BINARY_TO_TERNARY_KZ, TERNARY_KZ])
def test_objectives_are_batch_invariant(p_kz):
    rng = np.random.default_rng(7)
    p_z, pkgz, q, zs = analysis._prep(p_kz)
    u = min(zs, q)
    mu = 0.35

    def psh(ch):
        i_zu, h_kgu = analysis._psh_objective_terms(ch, p_z, pkgz)
        return mu * i_zu + (1.0 - mu) * h_kgu

    def tilde(ch):
        return analysis._omega_tilde_batch(ch, p_z, pkgz, mu, 0.8)

    def om(q_u, q_zgu):
        return analysis._omega_batch(q_u, q_zgu, p_z, pkgz, mu, 0.6)

    ch = _channels(rng, 576, zs, u)
    _assert_row_independent(psh, [ch])
    _assert_row_independent(tilde, [ch])
    q_u = rng.dirichlet(np.ones(u), size=576)
    q_u[::11] = np.eye(u)[0]
    _assert_row_independent(om, [q_u, _channels(rng, 576, u, zs)])
