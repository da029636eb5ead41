"""Deterministic minimizers over products of row-stochastic blocks.

The auxiliary-channel minimizations in the rate-region and exponent code are
non-convex, so nothing here certifies global optimality; the contract is
determinism (fixed seeds, fixed schedules) and enough coverage that the
binary-alphabet problems of the test corpus are solved to well below the
acceptance tolerances.

Two engines:

* a nested zoom grid scan, used when every block has two columns and the
  total number of free parameters is at most ``DENSE_MAX_DIM`` (each row of
  a 2-column block is one free number in [0, 1]);
* batched multi-start Adam on row-softmax logits with forward-difference
  gradients, used for everything else.

Both engines batch every solver step into one objective call: the mesh of a
zoom round, one golden-section step of every basin, or every bumped copy of
every Adam start.  Each objective passed to :func:`minimize_blocks` is
row-independent bit for bit, so the batching changes which call carries a
point but not its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SolverOptions", "minimize_blocks"]

DENSE_MAX_DIM = 3


@dataclass(frozen=True)
class SolverOptions:
    n_starts: int = 64
    iters: int = 200
    seed: int = 0
    dense_points: int = 33
    dense_rounds: int = 3
    lr: float = 0.3


def _blocks_from_free(x: np.ndarray, shapes) -> list:
    """Free parameters in [0,1] -> list of 2-column stochastic blocks."""
    blocks = []
    pos = 0
    for rows, cols in shapes:
        assert cols == 2
        p0 = x[..., pos : pos + rows]
        pos += rows
        blocks.append(np.stack([p0, 1.0 - p0], axis=-1))
    return blocks


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_polish(x, width, sweeps=2, tol=1e-7):
    """Cyclic per-coordinate golden-section around x, as a coroutine.

    It yields each batch of points it needs, as an (r, dim) array, is sent
    their r objective values as a list, and returns ``(x, f(x))``.  The
    bracket arithmetic is scalar, so the search is the same whichever
    batch carries its points.
    """
    x = x.copy()
    (fx,) = yield x[None, :]
    for _ in range(sweeps):
        for d in range(x.shape[0]):
            a = max(0.0, x[d] - width)
            b = min(1.0, x[d] + width)
            c = b - _GOLDEN * (b - a)
            e = a + _GOLDEN * (b - a)
            xc = x.copy()
            xc[d] = c
            xe = x.copy()
            xe[d] = e
            fc, fe = yield np.stack([xc, xe])
            while b - a > tol:
                if fc <= fe:
                    b, e, fe = e, c, fc
                    c = b - _GOLDEN * (b - a)
                    xc[d] = c
                    (fc,) = yield xc[None, :]
                else:
                    a, c, fc = c, e, fe
                    e = a + _GOLDEN * (b - a)
                    xe[d] = e
                    (fe,) = yield xe[None, :]
            mid = 0.5 * (a + b)
            xm = x.copy()
            xm[d] = mid
            (fm,) = yield xm[None, :]
            if fm < fx:
                x, fx = xm, fm
        width /= 4.0
    return x, fx


def _lockstep(f, shapes, searches) -> list:
    """Run point-requesting coroutines together and return their results.

    Each round stacks the points that every unfinished search asks for into
    one objective call; a search whose bracket has closed drops out.  Every
    objective here is row-independent bit for bit (a row's value does not
    depend on the other rows of its batch), so each search sees exactly the
    values that one call per point would give it.
    """
    results = [None] * len(searches)
    asks = {i: next(s) for i, s in enumerate(searches)}
    while asks:
        pts = np.concatenate(list(asks.values()))
        vals = np.asarray(f(_blocks_from_free(pts, shapes)), dtype=np.float64).tolist()
        pos = 0
        for i, ask in list(asks.items()):
            try:
                asks[i] = searches[i].send(vals[pos : pos + len(ask)])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
            pos += len(ask)
    return results


def _dense_scan(f, shapes, opts: SolverOptions, n_basins: int = 3):
    """Global mesh scan, then independent zooms on the best few basins.

    The objectives here can carry several local minima whose depths at grid
    resolution do not predict their depths at full resolution, so a single
    zoom path is not trusted with the global answer.  Each basin zooms with
    meshes of its own; the golden-section polishes of all basins then run in
    lockstep, one objective call per golden step.
    """
    dim = sum(r for r, _ in shapes)
    pts = opts.dense_points
    axes = [np.linspace(0.0, 1.0, pts) for _ in range(dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    vals = np.asarray(f(_blocks_from_free(mesh, shapes)), dtype=np.float64)
    order = np.argsort(vals)
    step0 = 1.0 / (pts - 1)
    seeds = []
    for i in order:
        x = mesh[i]
        if all(np.max(np.abs(x - s)) > 3.0 * step0 for s in seeds):
            seeds.append(x)
        if len(seeds) == n_basins:
            break

    polishes = []
    for seed_x in seeds:
        x, v = seed_x, np.inf
        lo = np.clip(x - 2.5 * step0, 0.0, 1.0)
        hi = np.clip(x + 2.5 * step0, 0.0, 1.0)
        step = step0
        for _ in range(opts.dense_rounds - 1):
            local_axes = [np.linspace(lo[i], hi[i], pts) for i in range(dim)]
            local = np.stack(np.meshgrid(*local_axes, indexing="ij"), axis=-1)
            local = local.reshape(-1, dim)
            lv = np.asarray(f(_blocks_from_free(local, shapes)), dtype=np.float64)
            j = int(np.argmin(lv))
            if lv[j] < v:
                v = float(lv[j])
                x = local[j]
            step = (hi - lo).max() / (pts - 1)
            lo = np.clip(x - 2.5 * step, 0.0, 1.0)
            hi = np.clip(x + 2.5 * step, 0.0, 1.0)
        polishes.append(_golden_polish(x, width=2.5 * step))

    best_x, best_val = None, np.inf
    for x, v in _lockstep(f, shapes, polishes):
        if v < best_val:
            best_val, best_x = v, x
    blocks = _blocks_from_free(best_x[None, :], shapes)
    return best_val, [b[0] for b in blocks], np.array([best_val])


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _blocks_from_logits(theta: np.ndarray, shapes) -> list:
    blocks = []
    pos = 0
    for rows, cols in shapes:
        size = rows * cols
        block = theta[..., pos : pos + size].reshape(theta.shape[:-1] + (rows, cols))
        pos += size
        blocks.append(_softmax(block))
    return blocks


def _initial_logits(shapes, opts: SolverOptions, extra_starts) -> np.ndarray:
    dim = sum(r * c for r, c in shapes)
    rng = np.random.default_rng(opts.seed)
    starts = [np.zeros(dim)]  # uniform blocks
    # deterministic corner-ish starts: mass concentrated per row, rotated
    for shift in range(max(c for _, c in shapes)):
        theta = []
        for rows, cols in shapes:
            t = np.full((rows, cols), -3.0)
            for r in range(rows):
                t[r, (r + shift) % cols] = 3.0
            theta.append(t.reshape(-1))
        starts.append(np.concatenate(theta))
    for blocks in extra_starts or []:
        theta = []
        for (rows, cols), b in zip(shapes, blocks):
            p = np.clip(np.asarray(b, dtype=np.float64), 1e-12, None)
            theta.append(np.log(p).reshape(-1))
        starts.append(np.concatenate(theta))
    need = max(opts.n_starts - len(starts), 0)
    if need:
        starts.extend(rng.normal(scale=2.0, size=(need, dim)))
    return np.stack(starts)


def _multistart_adam(f, shapes, opts: SolverOptions, extra_starts):
    """Batched Adam on row-softmax logits with forward-difference gradients.

    Each iteration makes two objective calls: one for the dim bumped copies
    of every start, stacked into a (dim * starts, dim) batch, and one for
    the stepped logits, whose values are the next iteration's base.  The
    objectives are row-independent bit for bit, so this gives the values of
    one call per bumped coordinate.
    """
    theta = _initial_logits(shapes, opts, extra_starts)
    batch, dim = theta.shape

    def eval_theta(t):
        return np.asarray(f(_blocks_from_logits(t, shapes)), dtype=np.float64)

    base = eval_theta(theta)
    best_vals = base.copy()
    best_theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    h = 1e-6
    lr = opts.lr
    diag = np.arange(dim)
    for it in range(1, opts.iters + 1):
        bumped = np.repeat(theta[None], dim, axis=0)  # (dim, batch, dim)
        bumped[diag, :, diag] += h
        bumped_vals = eval_theta(bumped.reshape(dim * batch, dim)).reshape(dim, batch)
        grad = ((bumped_vals - base) / h).T
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        mhat = m / (1 - 0.9**it)
        vhat = v / (1 - 0.999**it)
        theta = theta - lr * mhat / (np.sqrt(vhat) + 1e-10)
        lr *= 0.985
        base = eval_theta(theta)
        improved = base < best_vals
        best_vals[improved] = base[improved]
        best_theta[improved] = theta[improved]
    i = int(np.argmin(best_vals))
    blocks = _blocks_from_logits(best_theta[i : i + 1], shapes)
    return float(best_vals[i]), [b[0] for b in blocks], best_vals


def minimize_blocks(f, shapes, *, opts: SolverOptions = None, extra_starts=None):
    """Minimize a batched objective over a product of stochastic blocks.

    ``f`` receives a list of arrays (one per shape, with a leading batch
    axis) and returns a batch of objective values.  It must be
    row-independent bit for bit: a row's value may not depend on the other
    rows of its batch, because the engines stack points freely.  Returns
    ``(best_value, best_blocks, per_start_values)``; the last entry is the
    dispersion diagnostic (dense scans report a single value).
    """
    opts = opts or SolverOptions()
    shapes = [tuple(s) for s in shapes]
    free = sum(r * (c - 1) for r, c in shapes)
    if all(c == 2 for _, c in shapes) and free <= DENSE_MAX_DIM:
        return _dense_scan(f, shapes, opts)
    return _multistart_adam(f, shapes, opts, extra_starts)
