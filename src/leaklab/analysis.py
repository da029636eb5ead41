"""Helper-coding rate region and the secrecy-exponent functions.

Inputs are a joint key/observation law p_KZ (array of shape (|K|, |Z|)).
The free objects are auxiliary channels:

* for the supporting-hyperplane family and the lower exponent, a test
  channel U|Z attached to the true (Z, K) marginal;
* for the upper exponent, a pair (U marginal, Z|U channel) whose K|Z leg is
  pinned to the true posterior but whose Z marginal may move.

Both inner minimizations are non-convex; they run through the deterministic
solvers in :mod:`leaklab.simplexopt` (dense zoom scans for binary-alphabet
problems, batched multi-start descent otherwise) and report the achieved
minimum.  Outer suprema run on explicit grids with local refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import entropy
from .simplexopt import SolverOptions, minimize_blocks

__all__ = [
    "RMuResult",
    "BoundaryPoint",
    "AkwBoundary",
    "ExponentGrid",
    "ExponentCalculator",
    "MembershipResult",
    "r_mu",
    "akw_boundary",
    "omega",
    "omega_tilde",
    "mu_weighted_information",
    "exponent_F",
    "exponent_F_lower",
    "region_membership",
]

_TINY = np.finfo(np.float64).tiny


# ---------------------------------------------------------------------------
# p_KZ preparation and batched channel algebra
# ---------------------------------------------------------------------------


def _prep(p_kz):
    """Validate p_KZ and prune Z to its support.

    Returns (p_z on support, posterior K|Z on support, q, |Z| support size).
    """
    p = np.asarray(p_kz, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("p_KZ must be a 2-D joint table")
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p_KZ is not a distribution")
    p_z = p.sum(axis=0)
    supp = np.flatnonzero(p_z > 0)
    p_z_s = p_z[supp]
    pk_given_z = (p[:, supp] / p_z_s).T  # (zs, q)
    return p_z_s, pk_given_z, p.shape[0], supp.size


def _psh_quantities(channel, p_z, pk_given_z):
    """Derived laws of a batch of test channels U|Z.

    ``channel``: (B, zs, u).  Returns dict of batched arrays.
    """
    ch = np.asarray(channel, dtype=np.float64)
    p_uz = p_z[None, :, None] * ch  # (B, z, u)
    p_u = p_uz.sum(axis=1)  # (B, u)
    safe_pu = np.maximum(p_u, _TINY)
    p_zgu = np.transpose(p_uz, (0, 2, 1)) / safe_pu[:, :, None]  # (B, u, z)
    p_kgu = p_zgu @ pk_given_z  # (B, u, k)
    return {"p_uz": p_uz, "p_u": p_u, "p_zgu": p_zgu, "p_kgu": p_kgu}


def _psh_objective_terms(channel, p_z, pk_given_z):
    """(I(Z;U), H(K|U)) for a batch of test channels."""
    d = _psh_quantities(channel, p_z, pk_given_z)
    ch = np.asarray(channel, dtype=np.float64)
    ratio = np.where(
        ch > 0, np.log(np.maximum(ch, _TINY)) - np.log(np.maximum(d["p_u"], _TINY))[:, None, :], 0.0
    )
    i_zu = np.sum(d["p_uz"] * ratio, axis=(1, 2))
    pk = d["p_kgu"]
    h_kgu = -np.sum(
        d["p_u"][:, :, None] * np.where(pk > 0, pk * np.log(np.maximum(pk, _TINY)), 0.0),
        axis=(1, 2),
    )
    return i_zu, h_kgu


def _logsumexp(a, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def _omega_tilde_batch(channel, p_z, pk_given_z, mu, lam):
    """Lower-exponent integrand, batched over test channels U|Z."""
    d = _psh_quantities(channel, p_z, pk_given_z)
    # joint (B, u, z, k) = p(u, z) * p(k | z)
    joint = (
        np.transpose(d["p_uz"], (0, 2, 1))[:, :, :, None]
        * pk_given_z[None, None, :, :]
    )
    log_pzgu = np.log(np.maximum(d["p_zgu"], _TINY))
    log_pkgu = np.log(np.maximum(d["p_kgu"], _TINY))
    w = mu * (log_pzgu - np.log(p_z)[None, None, :])[:, :, :, None] + (1.0 - mu) * (
        -log_pkgu[:, :, None, :]
    )
    logterm = np.where(
        joint > 0, np.log(np.maximum(joint, _TINY)) - lam * w, -np.inf
    )
    return -_logsumexp(logterm.reshape(logterm.shape[0], -1), axis=1)


def _q_quantities(q_u, q_zgu, pk_given_z):
    joint = q_u[:, :, None, None] * q_zgu[:, :, :, None] * pk_given_z[None, None, :, :]
    q_z = np.einsum("bu,buz->bz", q_u, q_zgu)
    q_kgu = q_zgu @ pk_given_z
    return joint, q_z, q_kgu


def _omega_batch(q_u, q_zgu, p_z, pk_given_z, mu, alpha):
    """Upper-exponent integrand, batched over (U marginal, Z|U channel)."""
    joint, q_z, q_kgu = _q_quantities(q_u, q_zgu, pk_given_z)
    log_pz = np.log(p_z)
    log_qz = np.log(np.maximum(q_z, _TINY))
    log_qzgu = np.log(np.maximum(q_zgu, _TINY))
    log_qkgu = np.log(np.maximum(q_kgu, _TINY))
    w = (1.0 - alpha) * (log_qz - log_pz)[:, None, :, None] + alpha * (
        mu * (log_qzgu - log_pz[None, None, :])[:, :, :, None]
        + (1.0 - mu) * (-log_qkgu[:, :, None, :])
    )
    logterm = np.where(joint > 0, np.log(np.maximum(joint, _TINY)) - w, -np.inf)
    return -_logsumexp(logterm.reshape(logterm.shape[0], -1), axis=1)


# ---------------------------------------------------------------------------
# Supporting hyperplanes of the helper rate region
# ---------------------------------------------------------------------------


@dataclass
class RMuResult:
    """One supporting-hyperplane level: min of mu*I(Z;U) + (1-mu)*H(K|U)."""

    mu: float
    value: float
    i_zu: float
    h_kgu: float
    channel: np.ndarray
    dispersion: float


def r_mu(p_kz, mu: float, *, u_size: int | None = None, opts: SolverOptions = None) -> RMuResult:
    """Numerically minimize the mu-weighted helper objective over U|Z."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    p_z, pk_given_z, q, zs = _prep(p_kz)
    u = u_size or min(zs, q)

    def f(blocks):
        i_zu, h_kgu = _psh_objective_terms(blocks[0], p_z, pk_given_z)
        return mu * i_zu + (1.0 - mu) * h_kgu

    val, blocks, finals = minimize_blocks(f, [(zs, u)], opts=opts)
    ch = blocks[0][None, :, :]
    i_zu, h_kgu = _psh_objective_terms(ch, p_z, pk_given_z)
    return RMuResult(
        mu=mu,
        value=val,
        i_zu=float(i_zu[0]),
        h_kgu=float(h_kgu[0]),
        channel=blocks[0],
        dispersion=float(np.ptp(finals)),
    )


@dataclass
class BoundaryPoint:
    mu: float
    r_mu: float
    R_A: float
    R: float


@dataclass
class AkwBoundary:
    """Hyperplane family mu*R_A + (1-mu)*R >= R^(mu) with its touch points.

    The helper region is the intersection of the half-planes; equivalently
    {R >= envelope(R_A)} on the positive quadrant, where the envelope is the
    upper envelope of the support lines with mu < 1 (mu = 1 contributes only
    the trivial constraint R_A >= 0).  The closed complement, which is what
    secure operation needs, is {R <= envelope(R_A)}.
    """

    points: list
    h_k: float

    def hyperplanes(self) -> np.ndarray:
        return np.array([(p.mu, p.r_mu) for p in self.points])

    def envelope(self, R_A: float) -> float:
        """The boundary height min{H(K|U) : I(Z;U) <= R_A}, reconstructed
        as the upper envelope of the supporting lines."""
        h = self.hyperplanes()
        mask = h[:, 0] < 1.0
        mu, r = h[mask, 0], h[mask, 1]
        return float(np.max((r - mu * R_A) / (1.0 - mu)))

    def contains(self, R_A: float, R: float, band: float = 1e-9) -> bool:
        """Membership in the (closed) helper region."""
        return R_A >= -band and R >= self.envelope(R_A) - band

    def membership(self, R_A: float, R: float, band: float = 1e-9) -> str:
        """Classify against the helper region: inside / outside / boundary-band."""
        gap = R - self.envelope(R_A)
        if gap > band:
            return "inside"
        if gap < -band:
            return "outside"
        return "boundary-band"


def akw_boundary(
    p_kz, mu_grid=None, *, u_size: int | None = None, opts: SolverOptions = None
) -> AkwBoundary:
    """Sweep mu over [0, 1]; each level yields one half-plane and the
    touching (I(Z;U), H(K|U)) point of the achieving channel."""
    if mu_grid is None:
        mu_grid = np.linspace(0.0, 1.0, 33)
    pts = []
    for mu in np.asarray(mu_grid, dtype=np.float64):
        res = r_mu(p_kz, float(mu), u_size=u_size, opts=opts)
        pts.append(BoundaryPoint(mu=float(mu), r_mu=res.value, R_A=res.i_zu, R=res.h_kgu))
    p = np.asarray(p_kz, dtype=np.float64)
    return AkwBoundary(points=pts, h_k=entropy(p.sum(axis=1)))


# ---------------------------------------------------------------------------
# The tilted integrands (public single evaluations)
# ---------------------------------------------------------------------------


def _joint_split(q_uzk):
    j = np.asarray(q_uzk, dtype=np.float64)
    if j.ndim != 3:
        raise ValueError("joint must have axes (U, Z, K)")
    if j.min() < 0 or abs(j.sum() - 1.0) > 1e-9:
        raise ValueError("joint is not a distribution")
    q_u = j.sum(axis=(1, 2))
    q_z = j.sum(axis=(0, 2))
    safe_u = np.maximum(q_u, _TINY)
    q_zgu = j.sum(axis=2) / safe_u[:, None]
    q_kgu = j.sum(axis=1) / safe_u[:, None]
    return j, q_u, q_z, q_zgu, q_kgu


def omega(q_uzk, p_z, mu: float, alpha: float, *, log_space: bool = True) -> float:
    """-ln E_q[exp(-w)] for the two-parameter tilted weight w(z, k | u).

    ``p_z`` is the reference observation marginal; if the joint puts mass on
    observations outside its support the sentinel +inf is returned.
    """
    joint, q_u, q_z, q_zgu, q_kgu = _joint_split(q_uzk)
    p_z = np.asarray(p_z, dtype=np.float64)
    if np.any((q_z > 0) & (p_z <= 0)):
        return math.inf
    log_pz = np.log(np.maximum(p_z, _TINY))
    w = (1.0 - alpha) * (np.log(np.maximum(q_z, _TINY)) - log_pz)[None, :, None] + alpha * (
        mu * (np.log(np.maximum(q_zgu, _TINY)) - log_pz[None, :])[:, :, None]
        + (1.0 - mu) * (-np.log(np.maximum(q_kgu, _TINY)))[:, None, :]
    )
    mask = joint > 0
    if log_space:
        logterm = np.where(mask, np.log(np.maximum(joint, _TINY)) - w, -np.inf)
        return float(-_logsumexp(logterm.reshape(-1), axis=0))
    return float(-math.log(np.sum(np.where(mask, joint * np.exp(-w), 0.0))))


def omega_tilde(p_uzk, mu: float, lam: float, *, log_space: bool = True) -> float:
    """-ln E_p[exp(-lam * w~)] with the one-parameter weight w~(z, k | u).

    The observation marginal of the joint itself is the reference here (test
    channels never move it).
    """
    joint, p_u, p_z, p_zgu, p_kgu = _joint_split(p_uzk)
    log_pz = np.log(np.maximum(p_z, _TINY))
    w = mu * (np.log(np.maximum(p_zgu, _TINY)) - log_pz[None, :])[:, :, None] + (
        1.0 - mu
    ) * (-np.log(np.maximum(p_kgu, _TINY)))[:, None, :]
    mask = joint > 0
    if log_space:
        logterm = np.where(mask, np.log(np.maximum(joint, _TINY)) - lam * w, -np.inf)
        return float(-_logsumexp(logterm.reshape(-1), axis=0))
    return float(-math.log(np.sum(np.where(mask, joint * np.exp(-lam * w), 0.0))))


def mu_weighted_information(p_uzk, mu: float) -> float:
    """mu * I(U;Z) + (1-mu) * H(K|U): the small-tilt slope of omega_tilde."""
    joint, p_u, p_z, p_zgu, p_kgu = _joint_split(p_uzk)
    p_uz = joint.sum(axis=2)
    ratio = np.where(
        p_uz > 0,
        np.log(np.maximum(p_zgu, _TINY)) - np.log(np.maximum(p_z, _TINY))[None, :],
        0.0,
    )
    i_uz = float(np.sum(p_uz * ratio))
    h = float(
        -np.sum(
            p_u[:, None]
            * np.where(p_kgu > 0, p_kgu * np.log(np.maximum(p_kgu, _TINY)), 0.0)
        )
    )
    return mu * i_uz + (1.0 - mu) * h


# ---------------------------------------------------------------------------
# Exponent functions F and F_lower
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentGrid:
    """Outer-supremum grids with local zoom refinement."""

    mu_points: int = 21
    alpha_points: int = 21
    lambda_points: int = 40
    lambda_max: float = 5.0
    refine_rounds: int = 2
    refine_points: int = 5

    def mu_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.mu_points)

    def alpha_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.alpha_points)

    def lambda_grid(self) -> np.ndarray:
        """Zero plus a geometric ladder; the small-tilt end carries the
        positivity witnesses, the large end the suprema."""
        tail = np.geomspace(1e-4, self.lambda_max, self.lambda_points - 1)
        return np.concatenate([[0.0], tail])


@dataclass
class FResult:
    value: float
    mu: float
    alpha: float


@dataclass
class FLowerResult:
    """Lower exponent with its supremum argmax and a positivity witness.

    ``(mu, lam)`` achieve the supremum.  ``(witness_mu, witness_lam)`` are
    the evaluated pair maximizing the ratio of the objective to the floor
    shape lam / (2 + lam(5 - mu)); outside the helper region (at depth tau)
    that ratio exceeds tau/2, which is the quantitative positivity
    statement.  The witness is a small-lam pair in general, not the argmax:
    the floor grows with lam while the guarantee is anchored at small tilt.
    """

    value: float
    mu: float
    lam: float
    witness_mu: float = 0.0
    witness_lam: float = 0.0
    witness_ratio: float = -math.inf

    def threshold(self, tau: float) -> float:
        """The quantitative positivity floor at the returned witness pair."""
        lam, mu = self.witness_lam, self.witness_mu
        return 0.5 * tau * lam / (2.0 + lam * (5.0 - mu))


class ExponentCalculator:
    """Caches the inner minimizations so rate sweeps reuse them.

    The inner objectives do not depend on (R_A, R); F and F_lower for any
    number of rate points share one table of minima over the tilt grids.
    """

    def __init__(
        self,
        p_kz,
        grid: ExponentGrid | None = None,
        *,
        u_size: int | None = None,
        opts: SolverOptions = None,
    ):
        self.p_kz = np.asarray(p_kz, dtype=np.float64)
        self.grid = grid or ExponentGrid()
        self.opts = opts
        p_z, pk_given_z, q, zs = _prep(self.p_kz)
        self._pz = p_z
        self._pkgz = pk_given_z
        self._zs = zs
        self._u = u_size or min(zs, q)
        self._omega_cache: dict = {}
        self._omega_tilde_cache: dict = {}

    @staticmethod
    def _key(a: float, b: float) -> tuple:
        return (round(float(a), 12), round(float(b), 12))

    def omega_min(self, mu: float, alpha: float) -> float:
        """min over the free (U, Z|U) pair of the two-parameter integrand."""
        if alpha == 0.0:
            return 0.0
        key = self._key(mu, alpha)
        if key not in self._omega_cache:

            def f(blocks):
                q_u = blocks[0][:, 0, :]
                return _omega_batch(q_u, blocks[1], self._pz, self._pkgz, mu, alpha)

            val, blocks, _ = minimize_blocks(
                f, [(1, self._u), (self._u, self._zs)], opts=self.opts
            )
            self._omega_cache[key] = val
        return self._omega_cache[key]

    def omega_tilde_min(self, mu: float, lam: float) -> float:
        """inf over test channels U|Z of the one-parameter integrand.

        For lam * mu > 1 (and at least two observation symbols) the infimum
        is -inf: the integrand carries p(z|u)**(1 - lam*mu), which blows up
        as a channel entry approaches the simplex boundary.  Those cells can
        never achieve the supremum defining the lower exponent (which is
        >= 0 through lam = 0), so they are reported as -inf directly.
        """
        if lam == 0.0:
            return 0.0
        if lam * mu > 1.0 + 1e-12 and self._zs >= 2:
            return -math.inf
        key = self._key(mu, lam)
        if key not in self._omega_tilde_cache:

            def f(blocks):
                return _omega_tilde_batch(blocks[0], self._pz, self._pkgz, mu, lam)

            val, blocks, _ = minimize_blocks(f, [(self._zs, self._u)], opts=self.opts)
            self._omega_tilde_cache[key] = val
        return self._omega_tilde_cache[key]

    # -- outer suprema -------------------------------------------------------

    def _sup(self, mus, seconds, inner, objective):
        best = (-math.inf, 0.0, 0.0)
        for mu in mus:
            for s in seconds:
                v = objective(inner(float(mu), float(s)), float(mu), float(s))
                if v > best[0]:
                    best = (v, float(mu), float(s))
        return best

    def F(self, R_A: float, R: float) -> FResult:
        """sup over (mu, alpha) in the unit square of the upper exponent."""

        def obj(om, mu, alpha):
            return (om - alpha * (mu * R_A + (1 - mu) * R)) / (2.0 + alpha * (1 - mu))

        mus = self.grid.mu_grid()
        alphas = self.grid.alpha_grid()
        val, mu, alpha = self._sup(mus, alphas, self.omega_min, obj)
        dmu = mus[1] - mus[0] if len(mus) > 1 else 0.5
        da = alphas[1] - alphas[0] if len(alphas) > 1 else 0.5
        for _ in range(self.grid.refine_rounds):
            mus = np.clip(np.linspace(mu - dmu, mu + dmu, self.grid.refine_points), 0, 1)
            alphas = np.clip(np.linspace(alpha - da, alpha + da, self.grid.refine_points), 0, 1)
            cand = self._sup(mus, alphas, self.omega_min, obj)
            if cand[0] > val:
                val, mu, alpha = cand
            dmu /= self.grid.refine_points - 1
            da /= self.grid.refine_points - 1
        return FResult(value=max(val, 0.0), mu=mu, alpha=alpha)

    def F_lower(self, R_A: float, R: float) -> FLowerResult:
        """sup over mu in [0,1], lam in [0, lambda_max] of the lower exponent."""

        def obj(om, mu, lam):
            return (om - lam * (mu * R_A + (1 - mu) * R)) / (2.0 + lam * (5.0 - mu))

        witness = [-math.inf, 0.0, 0.0]  # ratio, mu, lam

        def scan(mus, lams):
            best = (-math.inf, 0.0, 0.0)
            for mu in mus:
                for lam in lams:
                    v = obj(self.omega_tilde_min(float(mu), float(lam)), mu, lam)
                    if v > best[0]:
                        best = (v, float(mu), float(lam))
                    if lam > 0:
                        ratio = v * (2.0 + lam * (5.0 - mu)) / lam
                        if ratio > witness[0]:
                            witness[:] = [ratio, float(mu), float(lam)]
            return best

        mus = self.grid.mu_grid()
        lams = self.grid.lambda_grid()
        val, mu, lam = scan(mus, lams)
        dmu = mus[1] - mus[0] if len(mus) > 1 else 0.5
        for _ in range(self.grid.refine_rounds):
            mus_r = np.clip(np.linspace(mu - dmu, mu + dmu, self.grid.refine_points), 0, 1)
            lam_lo = lam / 2 if lam > 0 else 0.0
            lam_hi = min(lam * 2 if lam > 0 else lams[1], self.grid.lambda_max)
            lams_r = np.linspace(lam_lo, lam_hi, self.grid.refine_points)
            cand = scan(mus_r, lams_r)
            if cand[0] > val:
                val, mu, lam = cand
            dmu /= self.grid.refine_points - 1
        return FLowerResult(
            value=max(val, 0.0),
            mu=mu,
            lam=lam,
            witness_mu=witness[1],
            witness_lam=witness[2],
            witness_ratio=witness[0],
        )


def exponent_F(
    R_A: float,
    R: float,
    p_kz,
    grid: ExponentGrid | None = None,
    *,
    calculator: ExponentCalculator | None = None,
) -> FResult:
    calc = calculator or ExponentCalculator(p_kz, grid)
    return calc.F(R_A, R)


def exponent_F_lower(
    R_A: float,
    R: float,
    p_kz,
    grid: ExponentGrid | None = None,
    *,
    calculator: ExponentCalculator | None = None,
) -> FLowerResult:
    calc = calculator or ExponentCalculator(p_kz, grid)
    return calc.F_lower(R_A, R)


# ---------------------------------------------------------------------------
# The reliable-and-secure region
# ---------------------------------------------------------------------------


@dataclass
class MembershipResult:
    label: str
    reliability_ok: bool
    akw_slack: float
    h_x: float


def region_membership(
    point,
    p_x,
    p_kz,
    *,
    band: float = 1e-6,
    boundary: AkwBoundary | None = None,
    u_size: int | None = None,
    opts: SolverOptions = None,
) -> MembershipResult:
    """Classify a rate point against {R >= H(X)} and the helper region.

    A point is in the reliable-and-secure region when the coding rate covers
    the source entropy and the pair lies in the closed complement of the
    helper region (slack <= 0 against every supporting hyperplane).
    """
    R_A, R = float(point[0]), float(point[1])
    if boundary is None:
        boundary = akw_boundary(p_kz, u_size=u_size, opts=opts)
    h_x = entropy(np.asarray(p_x, dtype=np.float64) if not hasattr(p_x, "probs") else p_x.probs)
    gap = R - boundary.envelope(R_A)  # > 0: strictly above the helper boundary
    rel_ok = R >= h_x - band
    if not rel_ok or gap > band:
        label = "outside"
    elif abs(gap) <= band or abs(R - h_x) <= band:
        label = "boundary-band"
    else:
        label = "inside"
    return MembershipResult(label=label, reliability_ok=rel_ok, akw_slack=gap, h_x=h_x)
