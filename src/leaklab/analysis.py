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

from .adversary import _check_joint
from .probability import check_table, entropy
from .simplexopt import _sum_rows, minimize_blocks

__all__ = [
    "RMuResult",
    "BoundaryPoint",
    "AkwBoundary",
    "ExponentGrid",
    "ExponentCalculator",
    "MembershipResult",
    "r_mu",
    "akw_boundary",
    "region_membership",
]

_TINY = np.finfo(np.float64).tiny
# Half-width of the "boundary-band" label of ``region_membership``, in nats.
MEMBERSHIP_BAND = 1e-6


# ---------------------------------------------------------------------------
# p_KZ preparation and batched channel algebra
# ---------------------------------------------------------------------------


def _prep(p_kz):
    """Validate p_KZ and prune Z to its support.

    Returns (p_z on support, posterior K|Z on support, q, |Z| support size).
    """
    p = _check_joint(p_kz)
    p_z = p.sum(axis=0)
    supp = np.flatnonzero(p_z > 0)
    p_z_s = p_z[supp]
    pk_given_z = (p[:, supp] / p_z_s).T  # (zs, q)
    return p_z_s, pk_given_z, p.shape[0], supp.size


def _u_sizes(zs: int, q: int) -> list:
    """The |U| of each class an inner minimum is solved over: |Z| (the
    support lemma: enough, see ``_r_mu_levels``) and, when it is smaller,
    |K|.  The |K| class is a subset of the |Z| one (a channel with unused
    U symbols), so its solution bounds the minimum too; it is kept where it
    is lower, because the descent engine reaches optima with exact zeros,
    such as a U symbol left unused, only in the limit of infinite logits."""
    return [zs] if q >= zs else [zs, q]


def _better(solves) -> list:
    """Per problem, the lowest of several ``minimize_blocks`` results (the
    first on ties)."""
    return [min(res, key=lambda r: r[0]) for res in zip(*solves)]


def _psh_quantities(channel, p_z, pk_given_z):
    """Derived laws of a batch of test channels U|Z, batch last.

    ``channel``: (z, u, B).  Returns a dict of p(z,u) and p(z|u), both
    (z, u, B), p(u), (u, B), and p(k|u), (k, u, B), which is one
    (k, z) @ (z, u*B) product.
    """
    z, u, b = channel.shape
    p_uz = p_z[:, None, None] * channel
    if u == 1 or z < 8:
        p_u = _sum_rows(p_uz)
    else:
        # NumPy adds the z axis of a (B, z, u) array left to right unless
        # u = 1 makes it the contiguous axis
        p_u = p_uz[0] + 0.0
        for row in p_uz[1:]:
            p_u += row
    p_zgu = p_uz / np.maximum(p_u, _TINY)
    p_kgu = (pk_given_z.T @ p_zgu.reshape(z, -1)).reshape(-1, u, b)
    return {"p_uz": p_uz, "p_u": p_u, "p_zgu": p_zgu, "p_kgu": p_kgu}


def _psh_objective_terms(channel, p_z, pk_given_z):
    """(I(Z;U), H(K|U)) for a batch of test channels, (z, u, B).

    The (z, u) sum runs z-major and the (u, k) sum u-major, the orders in
    which ``np.sum(..., axis=(1, 2))`` reduces the batch-first (B, z, u)
    and (B, u, k) arrays.
    """
    d = _psh_quantities(channel, p_z, pk_given_z)
    z, u, b = channel.shape
    ratio = _log(channel)  # ln p(u|z) - ln p(u), 0 where p(u|z) = 0
    ratio -= _log(d["p_u"])
    np.copyto(ratio, 0.0, where=~(channel > 0))
    ratio *= d["p_uz"]
    i_zu = _sum_rows(ratio.reshape(z * u, b))
    pk = d["p_kgu"]
    plogp = _log(pk)  # p(u) p(k|u) ln p(k|u), 0 where p(k|u) = 0
    plogp *= pk
    np.copyto(plogp, 0.0, where=~(pk > 0))
    plogp *= d["p_u"]
    h_kgu = -_sum_rows([row[j] for j in range(u) for row in plogp])
    return i_zu, h_kgu


def _log(x):
    """ln max(x, tiny), into a new array."""
    out = np.maximum(x, _TINY)
    return np.log(out, out=out)


def _k_sums(cond_k_given_u, pk_given_z, power):
    """S(z, u) = sum_k p(k|z) c(k|u)**power for a batch of laws c, (k, u, B),
    as one (z, k) @ (k, u*B) product, shaped (z, u, B); ``power`` is a
    scalar or one per batch entry."""
    k, u, b = cond_k_given_u.shape
    tilted = _log(cond_k_given_u)
    tilted *= power
    np.exp(tilted, out=tilted)
    return (pk_given_z @ tilted.reshape(k, -1)).reshape(-1, u, b)


def _omega_tilde_batch(channel, p_z, pk_given_z, mu, lam):
    """Lower-exponent integrand, batched over test channels U|Z, (z, u, B).

    With p(u,z,k) = p(u,z) p(k|z) and
    w~ = mu ln(p(z|u)/p(z)) - (1-mu) ln p(k|u), the weight factors as
    exp(-lam w~) = (p(z|u)/p(z))**(-lam mu) * p(k|u)**(lam (1-mu)), and only
    the second factor involves k, so

        omega~ = -ln sum_{u,z} p(u,z) (p(z|u)/p(z))**(-lam mu)
                          * sum_k p(k|z) p(k|u)**(lam (1-mu)).

    The (u, z) factor is exponentiated from its logarithm and cells with
    p(u,z) = 0 are dropped, as the masked (u, z, k) log-sum-exp of the
    single-evaluation oracle in ``tests/helpers.py`` drops them; k with
    p(k|z) = 0 vanish in the k-sum.  The (u, z) sum runs z-major.
    ``mu`` and ``lam`` are scalars, or arrays of one value per batch entry
    or of a single value; each entry goes through the same operations in
    the same order either way.
    """
    mu = np.asarray(mu, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    d = _psh_quantities(channel, p_z, pk_given_z)
    z, u, b = channel.shape
    log_uz = _log(d["p_zgu"])
    log_uz -= np.log(p_z)[:, None, None]
    log_uz *= -lam * mu
    log_uz += _log(d["p_uz"])
    np.copyto(log_uz, -np.inf, where=d["p_uz"] <= 0)
    terms = np.exp(log_uz, out=log_uz)
    terms *= _k_sums(d["p_kgu"], pk_given_z, lam * (1.0 - mu))
    return -np.log(_sum_rows(terms.reshape(z * u, b)))


def _omega_batch(q_u, q_zgu, p_z, pk_given_z, mu, alpha):
    """Upper-exponent integrand, batched over (U marginal, Z|U channel),
    shaped (u, B) and (u, z, B).

    With q(u,z,k) = q(u) q(z|u) p(k|z), q(z) = sum_u q(u) q(z|u),
    q(k|u) = sum_z q(z|u) p(k|z) and
    w = (1-alpha) ln(q(z)/p(z)) + alpha [mu ln(q(z|u)/p(z)) - (1-mu) ln q(k|u)],
    collecting the powers of each factor in q(u,z,k) exp(-w) gives

        omega = -ln sum_{u,z} q(u) q(z|u)**(1 - alpha mu)
                        * p(z)**(1 - alpha + alpha mu) q(z)**(-(1 - alpha))
                        * sum_k p(k|z) q(k|u)**(alpha (1-mu)).

    The (u, z) factor is exponentiated from its logarithm, as
    ln(q(u) q(z|u)) - alpha mu ln q(z|u) - [(1-alpha) ln q(z)
    - (1 - alpha + alpha mu) ln p(z)], and cells with q(u) q(z|u) = 0 are
    dropped, as the masked (u, z, k) log-sum-exp of the single-evaluation
    oracle in ``tests/helpers.py`` drops them; k with p(k|z) = 0 vanish in
    the k-sum.  The cells are laid out (z, u, B), as the q(k|u) product
    needs them, and summed u-major.  q(z) adds the products q(u) q(z|u) left
    to right over u, as ``np.einsum("bu,buz->bz")`` does.  ``mu`` and
    ``alpha`` are scalars, or arrays of one value per batch entry or of a
    single value; each entry goes through the same operations in the same
    order either way.
    """
    mu = np.asarray(mu, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    u, z, b = q_zgu.shape
    q_z = q_u[0] * q_zgu[0]
    for j in range(1, u):
        q_z += q_u[j] * q_zgu[j]
    q_zu = q_zgu.transpose(1, 0, 2).copy()  # (z, u, B)
    q_kgu = (pk_given_z.T @ q_zu.reshape(z, -1)).reshape(-1, u, b)
    mass = q_u * q_zu
    log_uz = _log(q_zu)
    log_uz *= -alpha * mu
    log_uz += _log(mass)
    z_part = _log(q_z)
    z_part *= 1.0 - alpha
    z_part -= (1.0 - alpha + alpha * mu) * np.log(p_z)[:, None]
    log_uz -= z_part[:, None]
    np.copyto(log_uz, -np.inf, where=mass <= 0)
    terms = np.exp(log_uz, out=log_uz)
    terms *= _k_sums(q_kgu, pk_given_z, alpha * (1.0 - mu))
    return -np.log(_sum_rows([row[j] for j in range(u) for row in terms]))


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


def _r_mu_levels(p_kz, mus) -> list:
    """The levels of every mu in ``mus``, solved in one many-problem call.

    U ranges over |Z| symbols (|Z| the size of Z's support; see
    ``_u_sizes``), and |U| = |Z| loses
    nothing (the support lemma; Csiszar & Korner, *Information Theory*,
    2nd ed., Lemma 15.4).
    Proof: the objective is sum_u p(u) phi(r_u) over laws r_u = p(z|u)
    with mean sum_u p(u) r_u = p_Z, where
    phi(r) = mu H(p_Z) - mu H(r) + (1-mu) H(sum_z r_z p(k|z)); its minimum
    is a boundary point of the convex hull of {(r, phi(r))} in R^|Z| (|Z|-1
    free numbers of r, one value), and by Caratheodory's theorem in a
    supporting hyperplane such a point is a mixture of |Z| of the points.
    Fewer than |Z| may not do: min(|Z|, |K|) overstates R_mu for some laws
    with |Z| > |K|.
    """
    mus = [float(mu) for mu in mus]
    for mu in mus:
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {mu}")
    p_z, pk_given_z, q, zs = _prep(p_kz)

    def f(blocks, rows):
        i_zu, h_kgu = _psh_objective_terms(blocks[0].transpose(1, 2, 0), p_z, pk_given_z)
        mu = rows[:, 0]
        return mu * i_zu + (1.0 - mu) * h_kgu

    params = np.array(mus).reshape(-1, 1)
    solved = _better(minimize_blocks(f, [(zs, u)], params) for u in _u_sizes(zs, q))
    out = []
    for mu, (val, blocks, finals) in zip(mus, solved):
        i_zu, h_kgu = _psh_objective_terms(blocks[0][:, :, None], p_z, pk_given_z)
        out.append(
            RMuResult(
                mu=mu,
                value=val,
                i_zu=float(i_zu[0]),
                h_kgu=float(h_kgu[0]),
                channel=blocks[0],
                dispersion=float(np.ptp(finals)),
            )
        )
    return out


def r_mu(p_kz, mu: float) -> RMuResult:
    """Numerically minimize the mu-weighted helper objective over U|Z."""
    return _r_mu_levels(p_kz, [mu])[0]


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


def akw_boundary(p_kz, mu_grid) -> AkwBoundary:
    """Sweep mu over the levels ``mu_grid``; each level yields one half-plane
    and the touching (I(Z;U), H(K|U)) point of the achieving channel.  All
    levels are solved in one many-problem call of the minimizer."""
    levels = _r_mu_levels(p_kz, np.asarray(mu_grid, dtype=np.float64))
    pts = [BoundaryPoint(mu=r.mu, r_mu=r.value, R_A=r.i_zu, R=r.h_kgu) for r in levels]
    p = np.asarray(p_kz, dtype=np.float64)
    return AkwBoundary(points=pts, h_k=entropy(p.sum(axis=1)))


# ---------------------------------------------------------------------------
# Exponent functions F and F_lower
# ---------------------------------------------------------------------------


def _around(x: float, d: float, points: int) -> np.ndarray:
    """``points`` values from x - d to x + d, clipped to [0, 1]."""
    return np.clip(np.linspace(x - d, x + d, points), 0, 1)


@dataclass(frozen=True)
class ExponentGrid:
    """Outer-supremum grids with local zoom refinement."""

    mu_points: int = 21
    alpha_points: int = 21
    lambda_points: int = 40
    lambda_max: float = 5.0
    refine_rounds: int = 2
    refine_points: int = 5

    def __post_init__(self):
        for name, least in (
            ("mu_points", 1),
            ("alpha_points", 1),
            ("lambda_points", 2),
            ("refine_rounds", 0),
            ("refine_points", 2),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.lambda_max) and self.lambda_max > 0):
            raise ValueError(f"lambda_max must be positive and finite, got {self.lambda_max}")

    def mu_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.mu_points)

    def alpha_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.alpha_points)

    def lambda_grid(self) -> np.ndarray:
        """Zero plus a geometric ladder; the small-tilt end carries the
        positivity witnesses, the large end the suprema.  The ladder starts
        at 1e-4, or at lambda_max if that is smaller, so every tilt lies in
        [0, lambda_max]."""
        tail = np.geomspace(min(1e-4, self.lambda_max), self.lambda_max, self.lambda_points - 1)
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
    Every cell is solved by :meth:`_fill`: each scan of F and F_lower fills
    all of its uncached cells in one many-problem solve before it reads
    them, and a lookup that misses fills its one cell.  Both exponents are
    one tilted supremum over a grid (:meth:`_sup`), whose cell counts
    (mu_points * alpha_points, mu_points * lambda_points and
    refine_points^2) are checked against the table cap here, before any
    grid is built.

    U ranges over |Z| symbols, |Z| the size of Z's support (see
    ``_u_sizes``), and that loses nothing (the support lemma, as in
    ``_r_mu_levels``).  Proof:
    exp(-omega~) is sum_u p(u) G(r_u) over laws r_u = p(z|u) with mean p_Z,
    and for each q_Z, exp(-omega) is sum_u q(u) G_q(r_u) over r_u = q(z|u)
    with mean q_Z, where G and G_q take a law r on Z to one value; the
    maximum of such a mixture is a boundary point of the convex hull of
    {(r, G(r))} in R^|Z|, a mixture of |Z| of the points by Caratheodory's
    theorem in a supporting hyperplane.
    """

    def __init__(self, p_kz, grid: ExponentGrid | None = None):
        self.p_kz = np.asarray(p_kz, dtype=np.float64)
        self.grid = g = grid or ExponentGrid()
        check_table("mu_points * alpha_points", g.mu_points * g.alpha_points)
        check_table("mu_points * lambda_points", g.mu_points * g.lambda_points)
        check_table("refine_points^2", g.refine_points**2)
        p_z, pk_given_z, q, zs = _prep(self.p_kz)
        self._zs = zs

        # the solver's blocks are batch-last arrays seen through
        # batch-first views; moving the axis back is a view again
        def omega(blocks, rows):
            q_u = blocks[0].transpose(1, 2, 0)[0]
            q_zgu = blocks[1].transpose(1, 2, 0)
            return _omega_batch(q_u, q_zgu, p_z, pk_given_z, rows[:, 0], rows[:, 1])

        def omega_tilde(blocks, rows):
            ch = blocks[0].transpose(1, 2, 0)
            return _omega_tilde_batch(ch, p_z, pk_given_z, rows[:, 0], rows[:, 1])

        self._omega_cache: dict = {}
        self._omega_tilde_cache: dict = {}
        # each table: (cache, key of a cell, objective, the solver block
        # shapes of each |U| class); omega runs over the free (U, Z|U) pair,
        # omega~ over test channels U|Z
        sizes = _u_sizes(zs, q)
        self._omega = (
            self._omega_cache, self._omega_key, omega, [[(1, u), (u, zs)] for u in sizes]
        )
        self._omega_tilde = (
            self._omega_tilde_cache, self._omega_tilde_key, omega_tilde, [[(zs, u)] for u in sizes]
        )

    @staticmethod
    def _key(a: float, b: float) -> tuple:
        return (round(float(a), 12), round(float(b), 12))

    def _omega_key(self, mu: float, alpha: float):
        """Cache key of an omega_min cell; None where no solve is needed."""
        return None if alpha == 0.0 else self._key(mu, alpha)

    def _omega_tilde_key(self, mu: float, lam: float):
        """Cache key of an omega_tilde_min cell; None where no solve is
        needed."""
        if lam == 0.0 or (lam * mu > 1.0 + 1e-12 and self._zs >= 2):
            return None
        return self._key(mu, lam)

    def _fill(self, table, mus, seconds) -> None:
        """Solve every uncached cell of ``table`` on the grid mus x seconds
        in one many-problem solve.

        A cell is solved at the unrounded values of its key's first
        occurrence in the (mu outer, second inner) loop of the scans, so the
        cache holds exactly what lookups one cell at a time in that order
        would store.
        """
        cache, key_of, f, classes = table
        todo = {}
        for mu in mus:
            for s in seconds:
                mu, s = float(mu), float(s)
                key = key_of(mu, s)
                if key is not None and key not in cache and key not in todo:
                    todo[key] = (mu, s)
        if todo:
            cells = list(todo.values())
            solved = _better(minimize_blocks(f, s, cells) for s in classes)
            cache.update(zip(todo, (r[0] for r in solved)))

    def omega_min(self, mu: float, alpha: float) -> float:
        """min over the free (U, Z|U) pair of the two-parameter integrand."""
        key = self._omega_key(mu, alpha)
        if key is None:
            return 0.0
        self._fill(self._omega, [mu], [alpha])
        return self._omega_cache[key]

    def omega_tilde_min(self, mu: float, lam: float) -> float:
        """inf over test channels U|Z of the one-parameter integrand.

        For lam * mu > 1 (and at least two observation symbols) the infimum
        is -inf: the integrand carries p(z|u)**(1 - lam*mu), which blows up
        as a channel entry approaches the simplex boundary.  Those cells can
        never achieve the supremum defining the lower exponent (which is
        >= 0 through lam = 0), so they are reported as -inf directly.
        """
        key = self._omega_tilde_key(mu, lam)
        if key is None:
            return 0.0 if lam == 0.0 else -math.inf
        self._fill(self._omega_tilde, [mu], [lam])
        return self._omega_tilde_cache[key]

    # -- outer suprema -------------------------------------------------------

    def _sup(self, table, lookup, R_A, R, c, seconds, zoom):
        """The supremum of both exponents over mu in [0, 1] and a second
        parameter s (alpha for F, lam for F_lower):

            (omega(mu, s) - s (mu R_A + (1 - mu) R)) / (2 + s (c - mu)),

        omega = ``lookup(mu, s)``, on the grid ``mu_grid()`` x ``seconds``,
        then ``refine_rounds`` grids of ``refine_points`` per axis around the
        best cell: the mu axis ``_around`` it at +-dmu, the second axis
        ``zoom(s, ds, refine_points)``.  dmu and ds start as the first grids' steps (0.5 on
        a one-point axis) and are divided by refine_points - 1 after each
        round.  Each grid's uncached cells of ``table`` are filled in one
        solve first.

        Returns (value, mu, s) of the first best cell in scan order (mu
        outer, s inner, rounds in order) and the witness (ratio, mu, s): the
        first evaluated cell with s > 0 of largest ratio value * (2 + s (c -
        mu)) / s.
        """
        points = self.grid.refine_points
        mus = self.grid.mu_grid()
        dmu, ds = (g[1] - g[0] if len(g) > 1 else 0.5 for g in (mus, seconds))
        best = witness = (-math.inf, 0.0, 0.0)
        for r in range(self.grid.refine_rounds + 1):
            if r:
                mus = _around(best[1], dmu, points)
                seconds = zoom(best[2], ds, points)
                dmu /= points - 1
                ds /= points - 1
            self._fill(table, mus, seconds)
            for mu in mus:
                for s in seconds:
                    mu, s = float(mu), float(s)
                    den = 2.0 + s * (c - mu)
                    v = (lookup(mu, s) - s * (mu * R_A + (1 - mu) * R)) / den
                    if v > best[0]:
                        best = (v, mu, s)
                    if s > 0 and (ratio := v * den / s) > witness[0]:
                        witness = (ratio, mu, s)
        return best, witness

    def F(self, R_A: float, R: float) -> FResult:
        """sup over (mu, alpha) in the unit square of the upper exponent."""
        alphas = self.grid.alpha_grid()
        (val, mu, alpha), _ = self._sup(self._omega, self.omega_min, R_A, R, 1.0, alphas, _around)
        return FResult(value=max(val, 0.0), mu=mu, alpha=alpha)

    def F_lower(self, R_A: float, R: float) -> FLowerResult:
        """sup over mu in [0,1], lam in [0, lambda_max] of the lower exponent."""
        lams = self.grid.lambda_grid()

        def zoom(lam, _, points):
            hi = min(lam * 2 if lam > 0 else lams[1], self.grid.lambda_max)
            return np.linspace(lam / 2 if lam > 0 else 0.0, hi, points)

        (val, mu, lam), wit = self._sup(
            self._omega_tilde, self.omega_tilde_min, R_A, R, 5.0, lams, zoom
        )
        return FLowerResult(
            value=max(val, 0.0),
            mu=mu,
            lam=lam,
            witness_mu=wit[1],
            witness_lam=wit[2],
            witness_ratio=wit[0],
        )


# ---------------------------------------------------------------------------
# The reliable-and-secure region
# ---------------------------------------------------------------------------


@dataclass
class MembershipResult:
    label: str
    reliability_ok: bool
    akw_slack: float
    h_x: float


def region_membership(point, p_x, boundary: AkwBoundary) -> MembershipResult:
    """Classify a rate point against {R >= H(X)} and the helper region.

    A point is in the reliable-and-secure region when the coding rate covers
    the source entropy and the pair lies in the closed complement of the
    helper region (slack <= 0 against every supporting hyperplane).  Points
    within ``MEMBERSHIP_BAND`` of either boundary are labelled
    "boundary-band".  ``boundary`` is the helper region's, from
    ``akw_boundary``.
    """
    R_A, R = float(point[0]), float(point[1])
    h_x = entropy(np.asarray(p_x, dtype=np.float64) if not hasattr(p_x, "probs") else p_x.probs)
    gap = R - boundary.envelope(R_A)  # > 0: strictly above the helper boundary
    rel_ok = R >= h_x - MEMBERSHIP_BAND
    if not rel_ok or gap > MEMBERSHIP_BAND:
        label = "outside"
    elif abs(gap) <= MEMBERSHIP_BAND or abs(R - h_x) <= MEMBERSHIP_BAND:
        label = "boundary-band"
    else:
        label = "inside"
    return MembershipResult(label=label, reliability_ok=rel_ok, akw_slack=gap, h_x=h_x)
