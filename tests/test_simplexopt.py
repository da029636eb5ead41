"""The batched solver engines against their sequential oracles.

The many-problem Adam and dense scan are exact re-batchings of the
sequential loops in ``helpers``: they rest on every production objective
being row-independent bit for bit, which the batch-invariance tests check,
and on the batch-last kernels giving the bits of their batch-first,
NumPy-reduced oracles, which the oracle tests check.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    blocks_from_free_oracle,
    blocks_from_logits_oracle,
    dense_scan_oracle,
    full_zoom,
    golden_polish_oracle,
    k_sums_oracle,
    multistart_adam_oracle,
    omega_batch_oracle,
    omega_tilde_batch_oracle,
    psh_objective_terms_oracle,
    psh_quantities_oracle,
    softmax_oracle,
)
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


def last(a):
    """A batch-first array as the batch-last view the kernels take."""
    return np.moveaxis(a, 0, -1)


def psh_objective(p_kz, mu):
    """The r_mu objective over test channels U|Z, as ``r_mu`` builds it."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        i_zu, h_kgu = analysis._psh_objective_terms(last(blocks[0]), p_z, pkgz)
        return mu * i_zu + (1.0 - mu) * h_kgu

    return f


def psh_objective_oracle(p_kz, mu):
    """The r_mu objective on NumPy's own sum reductions."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        i_zu, h_kgu = psh_objective_terms_oracle(blocks[0], p_z, pkgz)
        return mu * i_zu + (1.0 - mu) * h_kgu

    return f


def omega_objective(p_kz, mu, alpha):
    """The omega objective over (U marginal, Z|U channel), as ``omega_min``
    builds it."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        return analysis._omega_batch(last(blocks[0])[0], last(blocks[1]), p_z, pkgz, mu, alpha)

    return f


def omega_tilde_objective(p_kz, mu, lam):
    """The omega~ objective over test channels U|Z, as ``omega_tilde_min``
    builds it."""
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks):
        return analysis._omega_tilde_batch(last(blocks[0]), p_z, pkgz, mu, lam)

    return f


def omega_rows_objective(p_kz):
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks, rows):
        q_u, q_zgu = last(blocks[0])[0], last(blocks[1])
        return analysis._omega_batch(q_u, q_zgu, p_z, pkgz, rows[:, 0], rows[:, 1])

    return f


def omega_tilde_rows_objective(p_kz):
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks, rows):
        return analysis._omega_tilde_batch(last(blocks[0]), p_z, pkgz, rows[:, 0], rows[:, 1])

    return f


def psh_rows_objective(p_kz):
    p_z, pkgz, _, _ = analysis._prep(p_kz)

    def f(blocks, rows):
        i_zu, h_kgu = analysis._psh_objective_terms(last(blocks[0]), p_z, pkgz)
        return rows[:, 0] * i_zu + (1.0 - rows[:, 0]) * h_kgu

    return f


# kind -> (one problem's objective f(blocks) at fixed parameters, as the
# sequential oracles call it; the objective f(blocks, rows) of parameter
# rows, as minimize_blocks calls it)
OBJECTIVES = {
    "psh": (psh_objective, psh_rows_objective),
    "omega": (omega_objective, omega_rows_objective),
    "omega_tilde": (omega_tilde_objective, omega_tilde_rows_objective),
}


def fixed_objective(kind, p_kz, row):
    return OBJECTIVES[kind][0](p_kz, *row)


def solve_one(kind, p_kz, row, shapes, opts=None):
    """One problem as a many-problem call with a single parameter row."""
    return minimize_blocks(OBJECTIVES[kind][1](p_kz), shapes, [row], opts=opts)[0]


def counting(f):
    calls = []

    def g(blocks, *rows):
        calls.append(blocks[0].shape[0])
        return f(blocks, *rows)

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
    "kind, p_kz, row, shapes, opts",
    [
        # the ternary r_mu sweep of the region workload, at default options
        ("psh", TERNARY_KZ, (0.25,), [(3, 3)], SolverOptions()),
        # omega with a 3-column Z|U block
        (
            "omega",
            BINARY_TO_TERNARY_KZ,
            (0.4, 0.7),
            [(1, 2), (2, 3)],
            SolverOptions(n_starts=24, iters=60, seed=3),
        ),
    ],
    ids=["ternary-r_mu", "omega-3col"],
)
def test_fused_adam_matches_sequential_oracle(kind, p_kz, row, shapes, opts):
    got = solve_one(kind, p_kz, row, shapes, opts)
    want = multistart_adam_oracle(fixed_objective(kind, p_kz, row), shapes, opts)
    assert_same_result(got, want)


def test_adam_makes_two_calls_per_iteration():
    opts = SolverOptions(n_starts=10, iters=17)
    f, calls = counting(psh_rows_objective(TERNARY_KZ))
    minimize_blocks(f, [(3, 3)], [(0.5,)], opts=opts)
    assert len(calls) == 1 + 2 * opts.iters
    dim = 3 * 3
    assert calls == [10] + [dim * 10, 10] * opts.iters


# ---------------------------------------------------------------------------
# many-basin dense scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, row, shapes",
    [
        ("omega", (0.3, 0.8), [(1, 2), (2, 2)]),
        ("omega_tilde", (0.5, 1.5), [(2, 2)]),
        ("psh", (0.4,), [(2, 2)]),
        # mu = 0: the optimum U = Z is a corner, so the winning basin's
        # golden brackets are clipped at 0 or 1
        ("psh", (0.0,), [(2, 2)]),
    ],
    ids=["omega", "omega_tilde", "r_mu", "r_mu-corner"],
)
def test_lockstep_dense_scan_matches_sequential_oracle(kind, row, shapes):
    opts = SolverOptions()
    got = solve_one(kind, BSC_KZ, row, shapes, opts)
    want = dense_scan_oracle(fixed_objective(kind, BSC_KZ, row), shapes, opts)
    assert_same_result(got, want)


@pytest.mark.parametrize(
    "kind, row, shapes, most, exact",
    [
        # 3 free parameters: a 33^3 global mesh (35,937 points), then 13^3
        # zoom meshes (5 rounds x 3 basins x 2,197), then the polish; with
        # the 33^3 zoom meshes of full_zoom it costs 251,994 points
        ("omega", (0.3, 0.8), [(1, 2), (2, 2)], 75_000, False),
        # 2 free parameters keep the two 33^2 zoom rounds
        ("omega_tilde", (0.5, 1.5), [(2, 2)], 7_904, True),
        ("psh", (0.4,), [(2, 2)], 7_912, True),
    ],
    ids=["omega", "omega_tilde", "r_mu"],
)
def test_dense_scan_work_counts(kind, row, shapes, most, exact):
    # the objective points of one minimize_blocks call, which no timing
    # noise moves: a regression of the zoom schedule shows here first
    g, calls = counting(OBJECTIVES[kind][1](BSC_KZ))
    minimize_blocks(g, shapes, [row])
    assert sum(calls) == most if exact else sum(calls) <= most


def test_zoom_schedule_matches_full_zoom_accuracy():
    # the 13-point zoom of 3-parameter problems against the two 33-point
    # rounds they ran before, on the omega cells of the exponent-surface
    # benchmark's 3 x 3 (mu, alpha) grid and of a 5 x 5 grid (alpha = 0
    # needs no solve); its minima may be lower, never higher beyond 1e-9
    grids = [(np.linspace(0, 1, n), np.linspace(0, 1, n)[1:]) for n in (3, 5)]
    cells = sorted({(mu, alpha) for mus, alphas in grids for mu in mus for alpha in alphas})
    assert len(cells) == 20
    shapes = [(1, 2), (2, 2)]
    opts = SolverOptions()
    got = minimize_blocks(omega_rows_objective(BSC_KZ), shapes, cells, opts=opts)
    for cell, res in zip(cells, got):
        want = dense_scan_oracle(omega_objective(BSC_KZ, *cell), shapes, opts, full_zoom(opts))
        assert res[0] <= want[0] + 1e-9, (cell, res[0], want[0])


def test_corner_basin_is_clipped():
    # the r_mu-corner case above does polish on the simplex boundary
    _, blocks, _ = solve_one("psh", BSC_KZ, (0.0,), [(2, 2)])
    assert np.min(blocks[0]) < 1e-6


def test_lockstep_polish_with_unequal_loop_lengths():
    # one start sits on the boundary, so its golden loops are shorter; the
    # brackets of all starts step together as arrays, a closed bracket stops
    # asking, and the polish still reproduces every sequential one bit for
    # bit and makes as many calls as the longest of them
    shapes = [(2, 2)]
    f = omega_tilde_objective(BSC_KZ, 0.3, 0.9)
    starts = [np.array([0.0, 0.7]), np.array([0.4, 0.55]), np.array([1.0, 1.0])]
    width = 0.05
    want, lengths = [], []
    for x in starts:
        single, calls = counting(f)
        want.append(
            golden_polish_oracle(
                lambda p: float(single(blocks_from_free_oracle(p[None, :], shapes))[0]),
                x,
                width,
            )
        )
        lengths.append(len(calls))
    assert len(set(lengths)) > 1
    g, calls = counting(omega_tilde_rows_objective(BSC_KZ))
    params = np.array([(0.3, 0.9)] * len(starts))
    x, widths = np.stack(starts, axis=1), np.full(len(starts), width)
    x, fx = simplexopt._golden_polish(g, shapes, params, np.arange(len(starts)), x, widths)
    got = zip(x.T, fx)
    for (gx, gv), (wx, wv) in zip(got, want):
        assert gv == wv and np.array_equal(gx, wx)
    # the polish asks for the two opening points of each of its sweeps * dim
    # brackets in one call, where the oracle makes two
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
        i_zu, h_kgu = analysis._psh_objective_terms(last(ch), p_z, pkgz)
        return mu * i_zu + (1.0 - mu) * h_kgu

    def tilde(ch):
        return analysis._omega_tilde_batch(last(ch), p_z, pkgz, mu, 0.8)

    def om(q_u, q_zgu):
        return analysis._omega_batch(last(q_u), last(q_zgu), p_z, pkgz, mu, 0.6)

    ch = _channels(rng, 576, zs, u)
    _assert_row_independent(psh, [ch])
    _assert_row_independent(tilde, [ch])
    q_u = rng.dirichlet(np.ones(u), size=576)
    q_u[::11] = np.eye(u)[0]
    _assert_row_independent(om, [q_u, _channels(rng, 576, u, zs)])


# ---------------------------------------------------------------------------
# batch-last kernels against their batch-first oracles
# ---------------------------------------------------------------------------


def assert_same_bits(got, want):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _rows_with_specials(rng, shape):
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    a[0] = -0.0  # NumPy's sum starts from 0.0, so this row sums to +0.0
    a[1] = 0.0
    a[2, ..., 0] = np.inf
    a[3, ..., -1] = np.nan
    a[4] = -a[5]
    return a


def test_unrolled_reductions_match_numpy():
    # the row sums follow NumPy's contiguous-axis order: left to right below
    # 8 terms, pairwise from 8, split in halves above 128
    rng = np.random.default_rng(5)
    for n in list(range(1, 41)) + [127, 128, 129, 136, 200, 257, 300]:
        a = _rows_with_specials(rng, (67, n))
        assert_same_bits(simplexopt._sum_rows(a.T), a.sum(axis=-1))
        assert_same_bits(simplexopt._sum_rows(list(a.T)), a.sum(axis=-1))
        assert_same_bits(simplexopt._max_rows(a.T), a.max(axis=-1))
    for n in range(1, 10):
        for m in range(1, 5):
            a = _rows_with_specials(rng, (67, n, m))
            assert_same_bits(simplexopt._sum_rows(a.reshape(67, -1).T), a.sum(axis=(1, 2)))
    logits = rng.normal(scale=4.0, size=(50, 3, 3))
    got = simplexopt._softmax(np.ascontiguousarray(last(logits)))
    assert_same_bits(np.moveaxis(got, -1, 0), softmax_oracle(logits))


@pytest.mark.parametrize("u", [1, 2, 3])
@pytest.mark.parametrize("z", [1, 2, 3, 7, 8, 10])
def test_channel_laws_match_numpy_reduction_oracle(z, u):
    # p(u) sums the z axis as NumPy sums the middle axis of a (B, z, u)
    # array: left to right, or pairwise from 8 terms when u = 1 makes it
    # the contiguous axis.  p(k|u) is checked against the flat
    # (B*u, z) @ (z, k) product, since the oracle's stacked product takes a
    # matrix-vector path with other bits when u = 1 and z >= 4.
    rng = np.random.default_rng(10 * z + u)
    p_z = rng.dirichlet(np.ones(z))
    pkgz = rng.dirichlet(np.ones(2), size=z)
    ch = _channels(rng, 300, z, u)
    got = analysis._psh_quantities(np.ascontiguousarray(last(ch)), p_z, pkgz)
    p_uz, p_u, p_zgu, p_kgu = psh_quantities_oracle(ch, p_z, pkgz)
    assert_same_bits(np.moveaxis(got["p_uz"], -1, 0), p_uz)
    assert_same_bits(got["p_u"].T, p_u)
    assert_same_bits(np.transpose(got["p_zgu"], (2, 1, 0)), p_zgu)
    flat = (np.ascontiguousarray(p_zgu).reshape(-1, z) @ pkgz).reshape(p_kgu.shape)
    assert_same_bits(np.transpose(got["p_kgu"], (2, 1, 0)), flat)


def _logit_rows(rng, batch, dim):
    """Logits with large entries, -inf entries, and rows that are all -inf
    (their softmax is NaN)."""
    theta = rng.normal(scale=4.0, size=(batch, dim))
    theta[::3, 1] = 40.0
    theta[::13, 0] = -np.inf
    theta[::17, :3] = -np.inf
    return theta


@pytest.mark.parametrize("p_kz", [BSC_KZ, BINARY_TO_TERNARY_KZ, TERNARY_KZ])
@pytest.mark.parametrize("batch", [1, 5, 700, simplexopt.CHUNK_ROWS, simplexopt.CHUNK_ROWS + 1])
def test_integrands_match_numpy_reduction_oracles(p_kz, batch):
    # every batch-last kernel, fed contiguous batch-last arrays as the
    # solver stores them, against its batch-first oracle: the unrolled sums
    # follow the memory order NumPy's reductions took (z-major for p(z|u)
    # in omega~), p(k|u) and the k-sums are transposed flat matrix products
    # where the oracle stacks one per row, and q(z) adds left to right
    # where the oracle calls einsum
    rng = np.random.default_rng(17 + batch)
    p_z, pkgz, q, zs = analysis._prep(p_kz)
    u = min(zs, q)

    def bl(a):
        return np.ascontiguousarray(last(a))

    free = rng.random((batch, 3))
    free[::4, 0], free[1::4, 1] = 0.0, 1.0
    shapes = [(1, 2), (2, 2)]
    got = simplexopt._blocks_from_free(bl(free), shapes)
    for got_block, want in zip(got, blocks_from_free_oracle(free, shapes)):
        assert_same_bits(np.moveaxis(got_block, -1, 0), want)
    shapes = [(1, u), (u, zs)]
    theta = _logit_rows(rng, batch, u + u * zs)
    with np.errstate(invalid="ignore"):  # -inf - -inf in the all -inf rows
        got = simplexopt._blocks_from_logits(bl(theta), shapes)
        for got_block, want in zip(got, blocks_from_logits_oracle(theta, shapes)):
            assert_same_bits(np.moveaxis(got_block, -1, 0), want)

    ch = _channels(rng, batch, zs, u)
    q_u = rng.dirichlet(np.ones(u), size=batch)
    q_u[::11] = np.eye(u)[0]
    q_zgu = _channels(rng, batch, u, zs)
    got = analysis._psh_quantities(bl(ch), p_z, pkgz)
    want = psh_quantities_oracle(ch, p_z, pkgz)
    assert_same_bits(np.transpose(got["p_kgu"], (2, 1, 0)), want[3])
    for got, want in zip(
        analysis._psh_objective_terms(bl(ch), p_z, pkgz), psh_objective_terms_oracle(ch, p_z, pkgz)
    ):
        assert_same_bits(got, want)
    cond = _channels(rng, batch, u, q)
    for power in (0.0, 0.4, 1.0, 2.5):
        got = analysis._k_sums(np.ascontiguousarray(np.transpose(cond, (2, 1, 0))), pkgz, power)
        assert_same_bits(np.transpose(got, (2, 1, 0)), k_sums_oracle(cond, pkgz, power))
    # lam * mu = 1 exactly at (0.5, 2.0)
    for mu, second in [(0.35, 0.8), (0.0, 1.0), (1.0, 0.5), (0.5, 2.0), (0.6, 1.0 / 0.6)]:
        assert_same_bits(
            analysis._omega_tilde_batch(bl(ch), p_z, pkgz, mu, second),
            omega_tilde_batch_oracle(ch, p_z, pkgz, mu, second),
        )
        alpha = min(second, 1.0)
        assert_same_bits(
            analysis._omega_batch(bl(q_u), bl(q_zgu), p_z, pkgz, mu, alpha),
            omega_batch_oracle(q_u, q_zgu, p_z, pkgz, mu, alpha),
        )


def test_blas_and_einsum_orders_are_pinned():
    # The exponents' bits rest on two facts about this NumPy and its BLAS,
    # at the shapes production uses: the transposed product M.T @ X over a
    # (z, u*B) array gives the bits of the batch-first (B*u, z) @ M, and
    # einsum adds q(u) q(z|u) left to right over u.  A BLAS or NumPy whose
    # kernels order these sums differently fails here, not as silently
    # moved goldens.
    rng = np.random.default_rng(23)
    for z in (2, 3):
        for k in (2, 3):
            for u in (2, 3):
                for b in (1, 5, 64, 700, simplexopt.CHUNK_ROWS, simplexopt.CHUNK_ROWS + 1):
                    m = rng.dirichlet(np.ones(k), size=z)  # a (z, k) law p(k|z)
                    m[0] = np.eye(k)[0]
                    x = _channels(rng, b, u, z)  # (B, u, z) laws, exact 0/1 rows
                    got = m.T @ np.ascontiguousarray(np.transpose(x, (2, 1, 0))).reshape(z, -1)
                    want = (x.reshape(b * u, z) @ m).reshape(b, u, k)
                    assert_same_bits(np.transpose(got.reshape(k, u, b), (2, 1, 0)), want)
                    y = rng.random((b, u, k))
                    got = m @ np.ascontiguousarray(np.transpose(y, (2, 1, 0))).reshape(k, -1)
                    want = (y.reshape(b * u, k) @ m.T).reshape(b, u, z)
                    assert_same_bits(np.transpose(got.reshape(z, u, b), (2, 1, 0)), want)
                    q_u = rng.dirichlet(np.ones(u), size=b)
                    q_u[::11] = np.eye(u)[0]
                    got = q_u[:, 0, None] * x[:, 0]
                    for j in range(1, u):
                        got = got + q_u[:, j, None] * x[:, j]
                    assert_same_bits(got, np.einsum("bu,buz->bz", q_u, x))


@pytest.mark.parametrize("mu", [0.0, 0.25, 1.0])
def test_unrolled_adam_matches_reduction_oracle(mu):
    # production: unrolled softmax and psh terms, 2 calls per iteration, the
    # per-row parameter path of one many-problem solve; oracle: NumPy's own
    # reductions and dim + 2 calls per iteration
    opts = SolverOptions(n_starts=24, iters=80)
    level = analysis._r_mu_levels(TERNARY_KZ, [mu], opts=opts)[0]
    want = multistart_adam_oracle(psh_objective_oracle(TERNARY_KZ, mu), [(3, 3)], opts)
    assert level.value == want[0]
    assert np.array_equal(level.channel, want[1][0])


@pytest.mark.parametrize(
    "mus", [[0.0, 0.25, 1.0], list(np.linspace(0.0, 1.0, 33))], ids=["P3", "P33"]
)
def test_lockstep_adam_matches_per_problem_oracle(mus):
    # the starts of all problems step as one array: at P = 3 each
    # iteration's bumped rows of every problem go in one call, and at
    # P = 33 the 33 * 216 bumped rows are split across 4096-row chunks,
    # with a problem's rows split between two calls; each problem still
    # follows its own sequential path bit for bit
    opts = SolverOptions(n_starts=24, iters=30)
    dim = 3 * 3
    g, calls = counting(psh_rows_objective(TERNARY_KZ))
    got = minimize_blocks(g, [(3, 3)], np.array(mus)[:, None], opts=opts)
    for mu, res in zip(mus, got):
        want = multistart_adam_oracle(psh_objective_oracle(TERNARY_KZ, mu), [(3, 3)], opts)
        assert_same_result(res, want)
    assert sum(calls) == len(mus) * 24 * (1 + opts.iters * (dim + 1))
    if len(mus) == 3:
        assert calls == [3 * 24] + [3 * dim * 24, 3 * 24] * opts.iters
    else:
        assert max(calls) == simplexopt.CHUNK_ROWS
        assert len(calls) < 2 * opts.iters * len(mus) // 4


# ---------------------------------------------------------------------------
# many problems in one dense solve
# ---------------------------------------------------------------------------


def test_many_problem_omega_matches_per_problem_oracle():
    # every 33^3 mesh spans chunk boundaries; the last chunk of a mesh is
    # shared with the next problem's rows
    cells = [(0.3, 0.8), (0.0, 0.5), (1.0, 1.0), (0.6, 0.2)]
    opts = SolverOptions()
    g, calls = counting(omega_rows_objective(BSC_KZ))
    got = minimize_blocks(g, [(1, 2), (2, 2)], cells, opts=opts)
    assert max(calls) == simplexopt.CHUNK_ROWS
    for cell, res in zip(cells, got):
        assert_same_result(res, dense_scan_oracle(omega_objective(BSC_KZ, *cell), [(1, 2), (2, 2)], opts))


def test_many_problem_omega_tilde_packs_meshes_across_chunks():
    cells = [(0.5, 1.5), (0.1, 0.3), (0.9, 0.7), (0.0, 4.0), (1.0, 0.05), (0.3, 2.0)]
    opts = SolverOptions()
    g, calls = counting(omega_tilde_rows_objective(BSC_KZ))
    got = minimize_blocks(g, [(2, 2)], cells, opts=opts)
    # the 33^2 global meshes of the first problems fill the first call, and
    # the fourth mesh is split between it and the next call
    assert simplexopt.CHUNK_ROWS % 33**2 != 0
    assert calls[0] == simplexopt.CHUNK_ROWS
    assert max(calls) == simplexopt.CHUNK_ROWS
    for cell, res in zip(cells, got):
        assert_same_result(res, dense_scan_oracle(omega_tilde_objective(BSC_KZ, *cell), [(2, 2)], opts))


def test_many_problem_r_mu_matches_per_problem_oracle():
    # mu = 0 is the clipped corner basin
    mus = [0.4, 0.0, 1.0, 0.75]
    opts = SolverOptions()
    got = minimize_blocks(psh_rows_objective(BSC_KZ), [(2, 2)], np.array(mus)[:, None], opts=opts)
    for mu, res in zip(mus, got):
        assert_same_result(res, dense_scan_oracle(psh_objective(BSC_KZ, mu), [(2, 2)], opts))
    assert np.min(got[1][1][0]) < 1e-6
    levels = analysis._r_mu_levels(BSC_KZ, mus, opts=opts)
    assert [lv.value for lv in levels] == [res[0] for res in got]


@pytest.mark.parametrize(
    "f, shapes, row, opts",
    [
        # the local meshes of a zoom round are built as the stream draws
        # them, and the polish holds no mesh
        (omega_rows_objective(BSC_KZ), [(1, 2), (2, 2)], lambda k: (0.5, 0.1 * (k + 1)), None),
        # each problem's bumped rows are a lazy ask of 9 * 9 * 1000 values,
        # more than a chunk: six problems read 1.7 times one problem's peak
        # here, and 2.3 times if all six asks are built at once
        (
            psh_rows_objective(TERNARY_KZ),
            [(3, 3)],
            lambda k: (0.1 * (k + 1),),
            SolverOptions(n_starts=1000, iters=3),
        ),
    ],
    ids=["dense", "adam"],
)
def test_many_problem_memory_does_not_grow_with_problems(f, shapes, row, opts):
    # six problems peak well below six times one problem's memory
    peaks = []
    tracemalloc.start()
    try:
        for n in (1, 6):
            tracemalloc.reset_peak()
            minimize_blocks(f, shapes, [row(k) for k in range(n)], opts=opts)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_params_must_be_one_row_per_problem():
    with pytest.raises(ValueError):
        minimize_blocks(psh_rows_objective(BSC_KZ), [(2, 2)], [0.1, 0.2])


# ---------------------------------------------------------------------------
# per-row parameters in the integrands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p_kz", [BSC_KZ, BINARY_TO_TERNARY_KZ, TERNARY_KZ])
def test_per_row_parameters_match_scalar_integrands(p_kz):
    rng = np.random.default_rng(13)
    p_z, pkgz, q, zs = analysis._prep(p_kz)
    u = min(zs, q)
    b = 96
    ch = _channels(rng, b, zs, u)
    q_u = rng.dirichlet(np.ones(u), size=b)
    q_u[::11] = np.eye(u)[0]
    q_zgu = _channels(rng, b, u, zs)
    mu = rng.random(b)
    mu[::5], mu[1::5] = 0.0, 1.0
    alpha = rng.random(b)
    alpha[2::7], alpha[3::7] = 0.0, 1.0
    lam = 3.0 * rng.random(b)
    lam[4::9] = 1.0 / np.maximum(mu[4::9], 0.25)  # lam * mu = 1 where mu >= 0.25
    def tilde(ch, mu, lam):
        return analysis._omega_tilde_batch(last(ch), p_z, pkgz, mu, lam)

    def om(q_u, q_zgu, mu, alpha):
        return analysis._omega_batch(last(q_u), last(q_zgu), p_z, pkgz, mu, alpha)

    all_tilde = tilde(ch, mu, lam)
    all_om = om(q_u, q_zgu, mu, alpha)
    for i in range(b):
        one = slice(i, i + 1)
        assert_same_bits(all_tilde[one], tilde(ch[one], float(mu[i]), float(lam[i])))
        assert_same_bits(all_om[one], om(q_u[one], q_zgu[one], float(mu[i]), float(alpha[i])))
    # one parameter row broadcast over the whole call
    assert_same_bits(tilde(ch, mu[:1], lam[:1]), tilde(ch, float(mu[0]), float(lam[0])))
    assert_same_bits(
        om(q_u, q_zgu, mu[:1], alpha[:1]), om(q_u, q_zgu, float(mu[0]), float(alpha[0]))
    )
