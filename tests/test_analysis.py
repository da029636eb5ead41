import math

import numpy as np
import pytest

from helpers import (
    MU_LEVELS,
    in_helper_region,
    mu_weighted_information,
    omega,
    omega_tilde,
    positivity_floor,
    sup_oracle,
)
from leaklab import analysis
from leaklab.analysis import (
    ExponentCalculator,
    ExponentGrid,
    akw_boundary,
    r_mu,
    region_membership,
)
from leaklab import simplexopt
from leaklab.probability import ChannelMatrix, Pmf, entropy, joint_from_channel

LN2 = math.log(2)
H01 = 0.3250829733914482

BSC_KZ = joint_from_channel(Pmf.uniform(2), ChannelMatrix.bsc(0.1))
SMALL_GRID = ExponentGrid(mu_points=11, alpha_points=11, lambda_points=16, refine_rounds=1)


@pytest.fixture(scope="module")
def small_calc():
    return ExponentCalculator(BSC_KZ, SMALL_GRID)


def set_schedule(monkeypatch, **constants):
    """Patch ``simplexopt``'s schedule constants, which it reads at call time."""
    for name, value in constants.items():
        monkeypatch.setattr(simplexopt, name, value)


def only_u_size(monkeypatch, u):
    """Solve the inner minima over |U| = u alone."""
    monkeypatch.setattr(analysis, "_u_sizes", lambda zs, q: [u])


def psh_joint(channel_ugz, p_kz):
    """Joint (U, Z, K) law of a test channel attached to the true p_KZ."""
    p_z, pk_given_z, q, zs = analysis._prep(p_kz)
    ch = np.asarray(channel_ugz, dtype=np.float64)
    p_uz = p_z[:, None] * ch  # (z, u)
    return np.transpose(p_uz, (1, 0))[:, :, None] * pk_given_z[None, :, :]


# ---------------------------------------------------------------------------
# r_mu and the boundary
# ---------------------------------------------------------------------------


def test_r_mu_endpoints():
    assert r_mu(BSC_KZ, 1.0).value <= 1e-12  # constant U kills I(Z;U)
    assert abs(r_mu(BSC_KZ, 0.0).value - H01) < 1e-9  # U = Z reaches H(K|Z)


def test_r_mu_midpoint_against_random_search():
    res = r_mu(BSC_KZ, 0.5)
    rng = np.random.default_rng(0)
    ch = rng.dirichlet([1, 1], size=(1000000, 2))
    p_z, pkgz, _, _ = analysis._prep(BSC_KZ)
    i_zu, h_kgu = analysis._psh_objective_terms(np.moveaxis(ch, 0, -1), p_z, pkgz)
    oracle = float((0.5 * i_zu + 0.5 * h_kgu).min())
    assert res.value <= oracle + 1e-9
    assert oracle - res.value < 1e-5


def test_r_mu_reports_achieving_channel():
    res = r_mu(BSC_KZ, 0.3)
    joint = psh_joint(res.channel, BSC_KZ)
    # recompute the objective from the reported channel
    val = mu_weighted_information(joint, 0.3)
    assert abs(val - res.value) < 1e-9


def test_r_mu_ternary_alphabet_descent_path(monkeypatch):
    # |Z| = 3 exercises the multi-start descent engine
    W = ChannelMatrix([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]])
    p_kz = joint_from_channel(Pmf.uniform(2), W)
    set_schedule(monkeypatch, N_STARTS=24, ADAM_ITERS=120)
    only_u_size(monkeypatch, 3)
    res = r_mu(p_kz, 0.5)
    rng = np.random.default_rng(1)
    ch = rng.dirichlet([1, 1, 1], size=(200000, 3))
    p_z, pkgz, _, _ = analysis._prep(p_kz)
    i_zu, h_kgu = analysis._psh_objective_terms(np.moveaxis(ch, 0, -1), p_z, pkgz)
    oracle = float((0.5 * i_zu + 0.5 * h_kgu).min())
    assert res.value <= oracle + 1e-6
    assert oracle - res.value < 1e-3


def test_cardinality_sensitivity(monkeypatch):
    # |U| = |Z| suffices (the support lemma) and |U| = |K| may not; on this
    # |Z| = 3 law at mu = 0.4, |U| = |K| = 2 happens to lose less than 1e-5
    W = ChannelMatrix([[0.7, 0.2, 0.1], [0.05, 0.25, 0.7]])
    p_kz = joint_from_channel(Pmf([0.6, 0.4]), W)
    set_schedule(monkeypatch, N_STARTS=24, ADAM_ITERS=150)
    only_u_size(monkeypatch, 2)
    v2 = r_mu(p_kz, 0.4).value
    only_u_size(monkeypatch, 3)
    v3 = r_mu(p_kz, 0.4).value
    assert v3 <= v2 + 1e-9  # larger class can only do better
    assert v2 - v3 < 1e-5  # and should not need to


def _laws_with_z_above_k():
    """Six random joints p_KZ with |K| = 2 and |Z| = 3, 4, 3, 4, 3, 4."""
    rng = np.random.default_rng(0)
    return [rng.dirichlet(np.ones(2 * zs)).reshape(2, zs) for zs in (3, 4) * 3]


@pytest.mark.parametrize("law", range(6))
def test_r_mu_with_z_above_k_uses_u_equal_z(monkeypatch, law):
    # |U| = min(|Z|, |K|) overstates the mu = 0 level of these laws by up to
    # 0.057 nats; with |U| = |Z| it is H(K|Z), reached by U = Z, and no
    # level is above the |U| = |K| level
    p_kz = _laws_with_z_above_k()[law]
    h_k_given_z = entropy(p_kz.ravel()) - entropy(p_kz.sum(axis=0))
    mus = [0.0, 1 / 16, 1 / 8, 3 / 16, 1 / 2]
    levels = analysis._r_mu_levels(p_kz, mus)
    assert abs(levels[0].value - h_k_given_z) < 2e-5
    only_u_size(monkeypatch, 2)
    small = analysis._r_mu_levels(p_kz, mus)
    for full, part in zip(levels, small):
        assert full.value <= part.value + 1e-9, (full.mu, full.value, part.value)


@pytest.mark.parametrize("mu", [0.0, 0.2, 0.3, 0.5, 0.7, 1.0])
def test_r_mu_noiseless_channel_closed_form(mu):
    # Z = K exactly: I(Z;U) + H(K|U) = H(K) for every test channel, so the
    # weighted objective collapses to min(mu, 1-mu) * ln 2
    p_kz = joint_from_channel(Pmf.uniform(2), ChannelMatrix.identity(2))
    want = min(mu, 1.0 - mu) * LN2
    assert abs(r_mu(p_kz, mu).value - want) < 1e-10


def test_boundary_contains_zero_hk_point():
    bd = akw_boundary(BSC_KZ, MU_LEVELS)
    assert in_helper_region(bd, 0.0, bd.h_k, band=1e-8)
    assert abs(bd.envelope(0.0) - bd.h_k) < 1e-8


def test_boundary_points_satisfy_sum_rate_bound():
    bd = akw_boundary(BSC_KZ, MU_LEVELS)
    for p in bd.points:
        assert p.i_zu + p.h_kgu >= bd.h_k - 1e-8


def test_boundary_midpoint_convexity():
    bd = akw_boundary(BSC_KZ, MU_LEVELS)
    pts = [(0.05, 0.6), (0.2, 0.5), (0.4, 0.45), (0.1, 0.69)]
    members = [p for p in pts if in_helper_region(bd, *p, band=1e-9)]
    for i in range(len(members)):
        for j in range(i, len(members)):
            mid = (
                0.5 * (members[i][0] + members[j][0]),
                0.5 * (members[i][1] + members[j][1]),
            )
            assert in_helper_region(bd, *mid, band=1e-9)


def test_boundary_reconstruction_idempotent():
    # every computed supporting point lies on the reconstructed envelope
    bd = akw_boundary(BSC_KZ, np.linspace(0, 1, 21))
    for p in bd.points:
        assert abs(p.h_kgu - bd.envelope(p.i_zu)) <= 1e-6, p


def test_r_mu_concave_in_mu():
    mus = np.linspace(0, 1, 11)
    vals = [r_mu(BSC_KZ, float(m)).value for m in mus]
    for i in range(1, 10):
        assert vals[i] >= 0.5 * (vals[i - 1] + vals[i + 1]) - 1e-9


# ---------------------------------------------------------------------------
# the tilted integrands
# ---------------------------------------------------------------------------


def test_omega_alpha_zero_is_zero():
    rng = np.random.default_rng(3)
    p_z, pkgz, _, _ = analysis._prep(BSC_KZ)
    for _ in range(5):
        q_u = rng.dirichlet([1, 1])
        q_zgu = rng.dirichlet([1, 1], size=2)
        joint = q_u[:, None, None] * q_zgu[:, :, None] * pkgz[None, :, :]
        assert abs(omega(joint, p_z, mu=rng.random(), alpha=0.0)) < 1e-12


def test_omega_matches_hand_expanded_sum():
    # 2x2x2 example evaluated with explicit loops
    p_z = np.array([0.6, 0.4])
    q_u = np.array([0.3, 0.7])
    q_zgu = np.array([[0.2, 0.8], [0.5, 0.5]])
    pkgz = np.array([[0.9, 0.1], [0.25, 0.75]])
    joint = q_u[:, None, None] * q_zgu[:, :, None] * pkgz[None, :, :]
    mu, alpha = 0.35, 0.8
    q_z = joint.sum(axis=(0, 2))
    q_kgu = joint.sum(axis=1) / q_u[:, None]
    total = 0.0
    for u in range(2):
        for z in range(2):
            for k in range(2):
                w = (1 - alpha) * math.log(q_z[z] / p_z[z]) + alpha * (
                    mu * math.log(q_zgu[u, z] / p_z[z])
                    + (1 - mu) * math.log(1.0 / q_kgu[u, k])
                )
                total += joint[u, z, k] * math.exp(-w)
    want = -math.log(total)
    assert abs(omega(joint, p_z, mu, alpha) - want) < 1e-12


def test_omega_constant_u_collapses():
    # mu = alpha = 1 with constant U: the integrand telescopes over q_Z
    p_z = np.array([0.5, 0.5])
    pkgz = np.array([[0.8, 0.2], [0.3, 0.7]])
    q_zgu = np.array([[0.25, 0.75]])
    joint = q_zgu[:, :, None] * pkgz[None, :, :]
    got = omega(joint, p_z, mu=1.0, alpha=1.0)
    want = -math.log(sum(p_z))  # E[p_Z/q_Z] over q = sum of p_Z on support
    assert abs(got - want) < 1e-12


def test_omega_log_and_linear_agree():
    rng = np.random.default_rng(4)
    p_z, pkgz, _, _ = analysis._prep(BSC_KZ)
    for _ in range(10):
        q_u = rng.dirichlet([1, 1])
        q_zgu = rng.dirichlet([1, 1], size=2)
        joint = q_u[:, None, None] * q_zgu[:, :, None] * pkgz[None, :, :]
        mu, alpha = rng.random(), rng.random()
        a = omega(joint, p_z, mu, alpha)
        b = omega(joint, p_z, mu, alpha, log_space=False)
        assert abs(a - b) < 1e-10


def test_omega_support_violation_sentinel():
    p_z = np.array([1.0, 0.0])
    q_u = np.array([1.0])
    q_zgu = np.array([[0.5, 0.5]])
    pkgz = np.array([[0.8, 0.2], [0.5, 0.5]])
    joint = q_u[:, None, None] * q_zgu[:, :, None] * pkgz[None, :, :]
    assert omega(joint, p_z, 0.5, 0.5) == math.inf


def test_omega_tilde_small_lambda_slope():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ch = rng.dirichlet([1, 1], size=2)  # U|Z channel
        joint = psh_joint(ch, BSC_KZ)
        mu = rng.random()
        lam = 1e-4
        slope = omega_tilde(joint, mu, lam) / lam
        want = mu_weighted_information(joint, mu)
        assert abs(slope - want) < 1e-3


def test_omega_tilde_lambda_zero():
    ch = np.array([[0.3, 0.7], [0.6, 0.4]])
    joint = psh_joint(ch, BSC_KZ)
    assert omega_tilde(joint, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)


TINY_Z_KZ = np.array([[0.45, 0.05, 0.5e-150], [0.05, 0.45, 0.5e-150]])
TERNARY_KEY_KZ = joint_from_channel(
    Pmf([0.5, 0.3, 0.2]), ChannelMatrix([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.3, 0.6]])
)


def _batched_vs_public(p_kz, ch, q_u, q_zgu, mu, alpha, lam, tol):
    p_z, pkgz, _, _ = analysis._prep(p_kz)
    got_t = analysis._omega_tilde_batch(ch[:, :, None], p_z, pkgz, mu, lam)[0]
    want_t = omega_tilde(psh_joint(ch, p_kz), mu, lam)
    assert abs(got_t - want_t) < tol, (mu, lam, got_t, want_t)
    got_o = analysis._omega_batch(q_u[:, None], q_zgu[:, :, None], p_z, pkgz, mu, alpha)[0]
    joint_q = q_u[:, None, None] * q_zgu[:, :, None] * pkgz[None, :, :]
    want_o = omega(joint_q, p_z, mu, alpha)
    assert abs(got_o - want_o) < tol, (mu, alpha, got_o, want_o)


@pytest.mark.parametrize(
    "p_kz",
    [
        BSC_KZ,
        joint_from_channel(
            Pmf([0.6, 0.4]), ChannelMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        ),
        TINY_Z_KZ,  # an observation of mass 1e-150
        TERNARY_KEY_KZ,  # a q = 3 key
    ],
)
def test_batched_integrands_match_public_evaluations(p_kz):
    # the batched solver objectives (factored k-sums) must agree with the
    # single-evaluation forms (log-sum-exp over (u, z, k), themselves pinned
    # to hand-expanded sums)
    rng = np.random.default_rng(11)
    p_z, pkgz, q, zs = analysis._prep(p_kz)
    for _ in range(8):
        u = int(rng.integers(2, 4))
        mu, alpha, lam = rng.random(), rng.random(), 2.0 * rng.random()
        ch = rng.dirichlet(np.ones(u), size=zs)
        q_u = rng.dirichlet(np.ones(u))
        q_zgu = rng.dirichlet(np.ones(zs), size=u)
        _batched_vs_public(p_kz, ch, q_u, q_zgu, mu, alpha, lam, 1e-12)
    # boundary channels with exact 0 and 1 entries, and boundary tilts:
    # alpha, mu in {0, 1} and lam * mu = 1
    u = 2
    ch_rand = rng.dirichlet(np.ones(u), size=zs)
    ch_corner = np.zeros((zs, u))
    ch_corner[np.arange(zs), np.arange(zs) % u] = 1.0  # U a function of Z
    ch_const = np.zeros((zs, u))
    ch_const[:, 0] = 1.0  # U constant: one letter unused
    ch_mixed = ch_rand.copy()
    ch_mixed[0] = [0.0, 1.0]
    qzgu_corner = np.zeros((u, zs))
    qzgu_corner[0, 0] = 1.0  # q(z|u=0) a point mass
    qzgu_corner[1] = rng.dirichlet(np.ones(zs))
    qzgu_gap = rng.dirichlet(np.ones(zs), size=u)
    qzgu_gap[:, -1] = 0.0  # q(z) = 0 on the last observation
    qzgu_gap /= qzgu_gap.sum(axis=1, keepdims=True)
    channels = [
        (ch_rand, np.array([0.3, 0.7]), rng.dirichlet(np.ones(zs), size=u)),
        (ch_corner, np.array([1.0, 0.0]), qzgu_corner),
        (ch_const, np.array([0.0, 1.0]), qzgu_gap),
        (ch_mixed, np.array([0.5, 0.5]), qzgu_corner),
    ]
    tilts = [
        (0.0, 0.0, 0.7),
        (0.0, 1.0, 1.0),
        (1.0, 0.0, 1.0),  # lam * mu = 1
        (1.0, 1.0, 0.4),
        (0.5, 1.0, 2.0),  # lam * mu = 1
        (0.25, 0.5, 4.0),  # lam * mu = 1
    ]
    for ch, q_u, q_zgu in channels:
        for mu, alpha, lam in tilts:
            _batched_vs_public(p_kz, ch, q_u, q_zgu, mu, alpha, lam, 1e-12)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def test_exponent_F_nonnegative_and_zero_inside(small_calc):
    # deep inside the helper region: R_A >= ln|Z|, R >= H(K)
    assert small_calc.F(0.8, 0.8).value == 0.0
    assert small_calc.F(0.0, 0.0).value >= 0.0


def test_exponent_F_positive_outside(small_calc):
    assert small_calc.F(0.1, 0.2).value > 0.01


def test_upper_exponent_dominates_lower(small_calc):
    calc = small_calc
    for ra, r in [(ra, r) for ra in (0.0, 0.2, 0.4) for r in (0.1, 0.3, 0.5)] + [(0.1, 0.2)]:
        f, fl = calc.F(ra, r), calc.F_lower(ra, r)
        assert f.value >= fl.value - 1e-6
        assert 0 <= f.alpha <= 1 and fl.lam >= 0
        assert type(fl.value) is float and type(fl.witness_ratio) is float


def test_exponents_non_increasing_in_rates(small_calc):
    calc = small_calc
    f_vals = [calc.F(ra, 0.2).value for ra in (0.0, 0.15, 0.3)]
    assert f_vals[0] >= f_vals[1] - 1e-9 >= f_vals[2] - 2e-9
    fl_vals = [calc.F_lower(0.1, r).value for r in (0.1, 0.25, 0.4)]
    assert fl_vals[0] >= fl_vals[1] - 1e-9 >= fl_vals[2] - 2e-9


def test_lower_exponent_threshold_outside_region(small_calc):
    bd = akw_boundary(BSC_KZ, MU_LEVELS)
    calc = small_calc
    tau = 0.1
    for (ra, r) in [(0.05, 0.15), (0.1, 0.25), (0.3, 0.2)]:
        if not in_helper_region(bd, ra + tau, r + tau, band=0):
            res = calc.F_lower(ra, r)
            assert res.value > 0
            assert res.value > positivity_floor(res, tau)


def test_exponents_ternary_observation_descent_path(monkeypatch):
    # |Z| = 3 channel blocks have three columns: the multi-start descent
    # engine carries the inner minimizations instead of the dense scan
    W = ChannelMatrix([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    p_kz = joint_from_channel(Pmf.uniform(2), W)
    grid = ExponentGrid(mu_points=5, alpha_points=5, lambda_points=6, refine_rounds=1)
    set_schedule(monkeypatch, N_STARTS=16, ADAM_ITERS=80)
    calc = ExponentCalculator(p_kz, grid)
    for (ra, r) in [(0.05, 0.2), (0.2, 0.4)]:
        F = calc.F(ra, r)
        FL = calc.F_lower(ra, r)
        assert F.value >= FL.value - 2e-5  # descent-path solver noise
        assert F.value >= 0 and FL.value >= 0


# ---------------------------------------------------------------------------
# the reliable-and-secure region
# ---------------------------------------------------------------------------


def test_region_membership_reliability_gate():
    p_x = Pmf.bernoulli(0.3)  # H = 0.611 nats
    res = region_membership((0.1, 0.3), p_x, akw_boundary(BSC_KZ, MU_LEVELS))
    assert res.label == "outside" and not res.reliability_ok


def test_region_membership_secure_band():
    p_x = Pmf.bernoulli(0.05)  # H = 0.199 nats
    bd = akw_boundary(BSC_KZ, MU_LEVELS)
    # below the helper boundary and above H(X): reliable and secure
    inside = region_membership((0.0, 0.55), p_x, bd)
    assert inside.label == "inside"
    # strictly inside the helper region: secrecy impossible
    outside = region_membership((0.5, 0.6), p_x, bd)
    assert outside.label == "outside"
    # on the helper boundary
    edge = region_membership((0.0, bd.envelope(0.0)), p_x, bd)
    assert edge.label == "boundary-band"


def _cells_seen(calc):
    """Record every (mu, second) value pair whose cache key ``calc`` forms."""
    seen = []
    key = calc._key

    def recording_key(a, b):
        seen.append((float(a), float(b)))
        return key(a, b)

    calc._key = recording_key
    return seen


@pytest.mark.parametrize("lambda_max", [1e-6, 1e-5, 1e-4, 2e-4, 0.5, 5.0])
def test_lambda_grid_stays_in_range(lambda_max):
    # F_lower takes its supremum over lam in [0, lambda_max]; below 1e-4
    # the geometric ladder used to start at 1e-4 all the same, and a
    # one-rung ladder (lambda_points = 2) used to be [1e-4]
    for points in (5, 2):
        grid = ExponentGrid(lambda_points=points, lambda_max=lambda_max).lambda_grid()
        assert grid[0] == 0.0 and np.all(grid[1:] > 0)
        assert max(grid) <= lambda_max
        assert grid[-1] == lambda_max
        if lambda_max >= 1e-4 and points > 2:  # unchanged: the ladder from 1e-4
            assert np.array_equal(grid[1:], np.geomspace(1e-4, lambda_max, points - 1))


def test_grid_fill_matches_lazy_cell_by_cell_fill(monkeypatch):
    # Steps of 1/6 and 1/18 make the refine grids revisit cells at values
    # such as 0.33333333333333337 whose rounded keys collide with cached
    # 0.3333333333333333, and the lambda ladder is never 12-digit round, so
    # a fill at the wrong one of two colliding values, or at the rounded key
    # itself, would move minima.
    grid = ExponentGrid(
        mu_points=7, alpha_points=7, lambda_points=6, refine_rounds=2, refine_points=4
    )
    # 42 coarse omega meshes of 729 rows span chunks
    set_schedule(monkeypatch, DENSE_POINTS=9)
    rates = [(0.0, 0.1), (0.3, 0.5), (0.2, 0.3)]
    filled = ExponentCalculator(BSC_KZ, grid)
    seen = _cells_seen(filled)
    got = [(filled.F(ra, r), filled.F_lower(ra, r)) for ra, r in rates]

    lazy = ExponentCalculator(BSC_KZ, grid)
    fill = lazy._fill

    def cell_by_cell(table, mus, seconds):
        # one solve per cell, in the scan order of the grid
        return np.array([[fill(table, [mu], [s])[0, 0] for s in seconds] for mu in mus])

    monkeypatch.setattr(lazy, "_fill", cell_by_cell)
    want = [(lazy.F(ra, r), lazy.F_lower(ra, r)) for ra, r in rates]

    assert got == want
    for cache in ("_omega_cache", "_omega_tilde_cache"):
        mine, theirs = getattr(filled, cache), getattr(lazy, cache)
        assert list(mine) == sorted(mine, key=list(theirs).index)  # same cells
        assert {k: v.hex() for k, v in mine.items()} == {k: v.hex() for k, v in theirs.items()}
    by_key = {}
    for cell in seen:
        by_key.setdefault(ExponentCalculator._key(*cell), set()).add(cell)
    assert any(len(cells) > 1 for cells in by_key.values())
    assert any(cell != key for key, cells in by_key.items() for cell in cells)


# F and F_lower on the golden exponent config (tests/golden/exponent.csv,
# whose CSV bounds them to 1e-10 only), as float.hex: (value, mu, alpha) of
# F and (value, mu, lam, witness_mu, witness_lam, witness_ratio) of F_lower
# at each of its six rate points.  The bits rest on the BLAS's matrix-product
# order, which every run's manifest records.
EXPONENT_BITS = {
    (0.0, 0.1): (
        ("0x1.e5e7fac71a45ap-4", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        (
            "0x1.996c5e6abe204p-6", "0x1.0000000000000p-1", "0x1.15f4d44462724p-2",
            "0x1.0000000000000p-1", "0x1.15f4d44462724p-2", "0x1.2fb0fcbc706b3p-2",
        ),
    ),
    (0.0, 0.3): (
        ("0x1.4210f089a9a1cp-4", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        (
            "0x1.0f5f44d7bb491p-6", "0x1.0000000000000p-1", "0x1.15f4d44462724p-2",
            "0x1.0000000000000p-1", "0x1.15f4d44462724p-2", "0x1.92952cac1409ap-3",
        ),
    ),
    (0.0, 0.5): (
        ("0x1.3c73cc9871fbdp-5", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        (
            "0x1.0aa4568970e3ap-7", "0x1.0000000000000p-1", "0x1.15f4d44462724p-2",
            "0x1.0000000000000p-1", "0x1.15f4d44462724p-2", "0x1.8b90bfbe8e798p-4",
        ),
    ),
    (0.3, 0.1): (
        ("0x1.e04ad6d5e29fap-5", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        (
            "0x1.ced0cd75ec50cp-7", "0x0.0p+0", "0x1.15f4d44462724p-2",
            "0x0.0p+0", "0x1.a36e2eb1c432dp-14", "0x1.ccece9947048dp-3",
        ),
    ),
    (0.3, 0.3): (
        ("0x1.313984b602b00p-6", "0x1.0000000000000p-1", "0x1.0000000000000p+0"),
        (
            "0x1.012e79ecdc191p-8", "0x1.0000000000000p-1", "0x1.15f4d44462724p-2",
            "0x1.0000000000000p-1", "0x1.15f4d44462724p-2", "0x1.7d87e5e38359cp-5",
        ),
    ),
    (0.3, 0.5): (
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        (
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.0000000000000p-1", "0x1.15f4d44462724p-3", "-0x1.b5ab4d4fafe1ep-5",
        ),
    ),
}


def test_exponent_bits_on_the_golden_config():
    grid = ExponentGrid(
        mu_points=3, alpha_points=3, lambda_points=5, refine_rounds=1, refine_points=3
    )
    calc = ExponentCalculator(BSC_KZ, grid)
    for (ra, r), (f_bits, f_lower_bits) in EXPONENT_BITS.items():
        f, lower = calc.F(ra, r), calc.F_lower(ra, r)
        got = tuple(float(v).hex() for v in (f.value, f.mu, f.alpha))
        assert got == f_bits, (ra, r)
        got = tuple(float(v).hex() for v in (
            lower.value, lower.mu, lower.lam,
            lower.witness_mu, lower.witness_lam, lower.witness_ratio,
        ))
        assert got == f_lower_bits, (ra, r)


GOLDEN_GRID = ExponentGrid(
    mu_points=3, alpha_points=3, lambda_points=5, refine_rounds=1, refine_points=3
)


def _hex(*values):
    return tuple(float(v).hex() for v in values)


def _scan_bits(calc, ra, r):
    """F's (value, mu, alpha) and F_lower's (value, mu, lam, witness_mu,
    witness_lam, witness_ratio) of the array scan and of the cell scan, as
    float.hex."""
    f, lower = calc.F(ra, r), calc.F_lower(ra, r)
    (f_val, f_mu, alpha), _ = sup_oracle(calc, False, ra, r)
    (val, mu, lam), (ratio, w_mu, w_lam) = sup_oracle(calc, True, ra, r)
    got = _hex(f.value, f.mu, f.alpha, lower.value, lower.mu, lower.lam,
               lower.witness_mu, lower.witness_lam, lower.witness_ratio)
    want = _hex(max(f_val, 0.0), f_mu, alpha, max(val, 0.0), mu, lam, w_mu, w_lam, ratio)
    return got, want


@pytest.mark.parametrize("case", ["golden", "collision", "one-point", "descent", "nan-cell"])
def test_array_scan_matches_the_cell_scan(case, monkeypatch):
    # each refine round of _sup is one array expression whose first maximum
    # in C order is the first best cell of the cell-by-cell scan
    p_kz, grid, rates = BSC_KZ, GOLDEN_GRID, list(EXPONENT_BITS)
    if case == "collision":  # as in test_grid_fill_matches_lazy_cell_by_cell_fill
        grid = ExponentGrid(
            mu_points=7, alpha_points=7, lambda_points=6, refine_rounds=2, refine_points=4
        )
        set_schedule(monkeypatch, DENSE_POINTS=9)
        rates = [(0.0, 0.1), (0.3, 0.5), (0.2, 0.3)]
    elif case == "one-point":  # the 0.5 steps of one-point axes
        grid = ExponentGrid(
            mu_points=1, alpha_points=1, lambda_points=2, refine_rounds=2, refine_points=3
        )
    elif case == "descent":
        W = ChannelMatrix([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        p_kz = joint_from_channel(Pmf.uniform(2), W)
        grid = ExponentGrid(mu_points=5, alpha_points=5, lambda_points=6, refine_rounds=1)
        set_schedule(monkeypatch, N_STARTS=16, ADAM_ITERS=80)
        rates = [(0.05, 0.2), (0.2, 0.4)]
    calc = ExponentCalculator(p_kz, grid)
    spoiled = []
    if case == "nan-cell":  # the best cached cells of both exponents turn NaN
        f, lower = calc.F(*rates[0]), calc.F_lower(*rates[0])
        for cache, cell in ((calc._omega_cache, (f.mu, f.alpha)),
                            (calc._omega_tilde_cache, (lower.mu, lower.lam))):
            key = calc._key(*cell)
            cache[key] = math.nan
            spoiled.append(key)
    for ra, r in rates:
        got, want = _scan_bits(calc, ra, r)
        assert got == want, (ra, r)
        f, lower = calc.F(ra, r), calc.F_lower(ra, r)
        picked = [(f.mu, f.alpha), (lower.mu, lower.lam), (lower.witness_mu, lower.witness_lam)]
        assert not set(spoiled) & {calc._key(*cell) for cell in picked}, (ra, r)
        assert not math.isnan(f.value) and not math.isnan(lower.value)


def test_one_cell_reads_are_the_scanned_cells():
    # omega_min and omega_tilde_min are one-cell reads of _fill: the cells
    # that need no solve, one solved cell, and every cell the scans used
    calc = ExponentCalculator(BSC_KZ, GOLDEN_GRID)
    for mu in (0.0, 0.3, 1.0):
        assert calc.omega_min(mu, 0.0) == 0.0 and calc.omega_tilde_min(mu, 0.0) == 0.0
    assert calc.omega_tilde_min(0.9, 2.0) == -math.inf  # lam mu > 1, |Z| = 2
    one_z = joint_from_channel(Pmf([0.6, 0.4]), ChannelMatrix([[1.0, 0.0], [1.0, 0.0]]))
    solved = ExponentCalculator(one_z, GOLDEN_GRID).omega_tilde_min(0.9, 2.0)  # |Z| = 1
    assert math.isfinite(solved) and abs(solved - 0.13381765778967428) < 1e-9

    scanned = []
    fill = calc._fill

    def recording(table, mus, seconds):
        out = fill(table, mus, seconds)
        scanned.append((table, mus, seconds, out.copy()))
        return out

    calc._fill = recording
    for ra, r in EXPONENT_BITS:
        calc.F(ra, r), calc.F_lower(ra, r)
    del calc._fill
    assert {id(table) for table, *_ in scanned} == {id(calc._omega), id(calc._omega_tilde)}
    for table, mus, seconds, out in scanned:
        read = calc.omega_min if table is calc._omega else calc.omega_tilde_min
        for i, mu in enumerate(mus):
            for j, s in enumerate(seconds):
                assert read(mu, s).hex() == float(out[i, j]).hex(), (mu, s)


def test_first_above_keeps_the_running_cell_on_ties():
    # a cell replaces the running best only when strictly above it, the
    # first of equal maxima in C order wins, and a NaN never does
    mus, seconds = np.array([0.0, 0.5]), np.array([0.25, 0.75])
    a = np.array([[1.0, 2.0], [2.0, math.nan]])
    assert analysis._first_above(a, (2.0, 9.0, 9.0), mus, seconds) == (2.0, 9.0, 9.0)
    assert analysis._first_above(a, (1.5, 9.0, 9.0), mus, seconds) == (2.0, 0.0, 0.75)
    nan_first = np.array([[math.nan, -math.inf], [0.5, 0.5]])
    first = analysis._first_above(nan_first, (-math.inf, 0.0, 0.0), mus, seconds)
    assert first == (0.5, 0.5, 0.25)
    all_nan = np.full((2, 2), math.nan)
    assert analysis._first_above(all_nan, (-1.0, 0.0, 0.0), mus, seconds) == (-1.0, 0.0, 0.0)
