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

One call of :func:`minimize_blocks` solves many problems that differ only in
a row of parameters.  The dense engine runs the scans of all of them
through one queue of objective calls of at most ``CHUNK_ROWS`` rows: meshes
go through in chunks, and the zoom and golden-section steps of many basins
and problems share calls.  Adam stacks every bumped copy of every start of
one problem into one call, and runs the problems one after another.  Each
objective passed to :func:`minimize_blocks` is row-independent bit for bit,
so the batching changes which call carries a point but not its value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["SolverOptions", "minimize_blocks"]

DENSE_MAX_DIM = 3
# Rows per objective call of the dense engine; larger fresh temporaries cost
# more in page faults than in arithmetic.
CHUNK_ROWS = 4096


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
        block = np.empty(p0.shape + (2,))
        block[..., 0] = p0
        np.subtract(1.0, p0, out=block[..., 1])
        blocks.append(block)
    return blocks


def _mesh(axes) -> np.ndarray:
    """Every combination of the axis values, the last axis varying fastest,
    as a (points, len(axes)) array (``np.meshgrid`` with "ij" indexing)."""
    dim = len(axes)
    out = np.empty([len(a) for a in axes] + [dim])
    for i, a in enumerate(axes):
        out[..., i] = a.reshape([-1 if j == i else 1 for j in range(dim)])
    return out.reshape(-1, dim)


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


def _lockstep(f, shapes, searches, params) -> list:
    """Run the point-asking coroutines of many problems and return their
    results.

    Each search yields an (r, dim) array of free points, is sent their r
    values, and returns its result.  All asks join one queue of rows, which
    is evaluated in calls of ``CHUNK_ROWS`` rows: a call is made as soon as
    that many rows wait, and the rows left over are evaluated in one call
    when every search waits.  So an ask larger than a chunk goes through in
    chunk-sized calls, and the small asks of many searches share one call.
    A search whose ask has been answered runs next (depth first), so only a
    few searches hold a large ask at any time.

    ``params`` holds one row of problem parameters per search.  Every call
    is ``f(blocks, rows)``, where ``rows[r]`` is the parameter row of the
    search that asked for point r, or ``rows`` is that one row, shape
    (1, k), when a single search asked for every point of the call.
    Every objective here is row-independent bit for bit (a row's value does
    not depend on the other rows of its call), so each search sees exactly
    the values that one call per point would give it.
    """
    results = [None] * len(searches)
    runnable = [(i, None) for i in reversed(range(len(searches)))]
    queue = deque()  # [search, ask, first unsent row, values so far]
    waiting = 0
    while runnable or waiting:
        if runnable and waiting < CHUNK_ROWS:
            i, vals = runnable.pop()
            try:
                ask = searches[i].send(vals)
            except StopIteration as done:
                results[i] = done.value
                continue
            queue.append([i, ask, 0, []])
            waiting += len(ask)
            continue
        size = min(waiting, CHUNK_ROWS)
        waiting -= size
        pieces = []
        while size:
            entry = queue[0]
            start = entry[2]
            stop = min(len(entry[1]), start + size)
            pieces.append((entry, start, stop))
            size -= stop - start
            entry[2] = stop
            if stop == len(entry[1]):
                queue.popleft()
        blocks = _blocks_from_free(
            np.concatenate([e[1][a:b] for e, a, b in pieces]), shapes
        )
        if len(pieces) == 1:
            vals = f(blocks, params[pieces[0][0][0]][None, :])
        else:
            owners = [e[0] for e, _, _ in pieces]
            rows = np.repeat(params[owners], [b - a for _, a, b in pieces], axis=0)
            vals = f(blocks, rows)
        vals = np.asarray(vals, dtype=np.float64)
        pos = 0
        answered = []
        for entry, start, stop in pieces:
            entry[3].append(vals[pos : pos + stop - start])
            pos += stop - start
            if stop == len(entry[1]):
                got = entry[3]
                answered.append((entry[0], got[0] if len(got) == 1 else np.concatenate(got)))
        runnable.extend(reversed(answered))
    return results


def _zoom(x, step0, pts, rounds):
    """Nested zoom meshes around a seed point, as a coroutine; returns the
    best point found and the last mesh step."""
    dim = x.shape[0]
    v = np.inf
    lo = np.clip(x - 2.5 * step0, 0.0, 1.0)
    hi = np.clip(x + 2.5 * step0, 0.0, 1.0)
    step = step0
    for _ in range(rounds - 1):
        local = _mesh([np.linspace(lo[i], hi[i], pts) for i in range(dim)])
        lv = yield local
        j = int(np.argmin(lv))
        if lv[j] < v:
            v = float(lv[j])
            x = local[j]
        step = (hi - lo).max() / (pts - 1)
        lo = np.clip(x - 2.5 * step, 0.0, 1.0)
        hi = np.clip(x + 2.5 * step, 0.0, 1.0)
    return x.copy(), step


def _seed_search(mesh, step0, n_basins):
    """One problem's global mesh scan, as a coroutine for :func:`_lockstep`;
    returns its best mesh points at least 3 mesh steps apart, in value
    order, as the seeds of its basins."""
    seeds = []
    for i in np.argsort((yield mesh)):
        x = mesh[i]
        if all(np.max(np.abs(x - s)) > 3.0 * step0 for s in seeds):
            seeds.append(x)
        if len(seeds) == n_basins:
            break
    return seeds


def _basin_search(x, step0, pts, rounds):
    """Zoom meshes around one seed, then a golden-section polish, as a
    coroutine for :func:`_lockstep`; returns ``(x, f(x))``.  The meshes are
    dropped before the polish, so a search that waits on its small asks
    holds little."""
    x, step = yield from _zoom(x, step0, pts, rounds)
    return (yield from _golden_polish(x, width=2.5 * step))


def _dense_scan(f, shapes, opts: SolverOptions, params, n_basins: int = 3) -> list:
    """Global mesh scan, then independent zooms on the best few basins, for
    every problem; one result per problem.

    The objectives here can carry several local minima whose depths at grid
    resolution do not predict their depths at full resolution, so a single
    zoom path is not trusted with the global answer.  The global scans of
    all problems run through one :func:`_lockstep` queue, then the zooms and
    polishes of all their basins through another.
    """
    free = sum(r for r, _ in shapes)
    pts = opts.dense_points
    step0 = 1.0 / (pts - 1)
    mesh = _mesh([np.linspace(0.0, 1.0, pts)] * free)
    seeds = _lockstep(f, shapes, [_seed_search(mesh, step0, n_basins) for _ in params], params)
    owners = [i for i, found in enumerate(seeds) for _ in found]
    basins = _lockstep(
        f,
        shapes,
        [_basin_search(x, step0, pts, opts.dense_rounds) for found in seeds for x in found],
        params[owners],
    )
    best = [(np.inf, None)] * len(params)
    for owner, (x, v) in zip(owners, basins):
        if v < best[owner][0]:
            best[owner] = (v, x)
    results = []
    for v, x in best:
        blocks = _blocks_from_free(x[None, :], shapes)
        results.append((float(v), [b[0] for b in blocks], np.array([v])))
    return results


def _sum_rows(a):
    """``np.sum(a, axis=-1)`` of a C-contiguous array, unrolled into whole
    column adds.

    NumPy reduces a contiguous axis of n <= 128 entries from 0.0: left to
    right when n < 8, and otherwise by pairwise summation, with eight
    partial sums r_j of every eighth entry combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the remainder
    added left to right.  The same adds in the same order give the same
    bits, without NumPy's per-row reduction overhead, which dominates on
    short rows; each level of the pairwise tree is one add of strided
    column views.
    """
    n = a.shape[-1]
    if not 0 < n <= 128:
        return a.sum(axis=-1)
    if n < 8:
        total = a[..., 0] + 0.0
        for j in range(1, n):
            total += a[..., j]
        return total
    full = n - n % 8
    r = a[..., :8]
    for i in range(8, full, 8):
        r = r + a[..., i : i + 8]
    r = r[..., 0::2] + r[..., 1::2]
    r = r[..., 0::2] + r[..., 1::2]
    total = r[..., 0] + r[..., 1]
    for j in range(full, n):
        total += a[..., j]
    total += 0.0
    return total


def _max_rows(a):
    """``np.max(a, axis=-1)``, unrolled into whole-column maxima (the
    maximum does not depend on the order)."""
    total = a[..., 0]
    for j in range(1, a.shape[-1]):
        total = np.maximum(total, a[..., j])
    return total


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _max_rows(logits)[..., None]
    e = np.exp(z)
    return e / _sum_rows(e)[..., None]


def _blocks_from_logits(theta: np.ndarray, shapes) -> list:
    blocks = []
    pos = 0
    for rows, cols in shapes:
        size = rows * cols
        block = theta[..., pos : pos + size].reshape(theta.shape[:-1] + (rows, cols))
        pos += size
        blocks.append(_softmax(block))
    return blocks


def _initial_logits(shapes, opts: SolverOptions) -> np.ndarray:
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
    need = max(opts.n_starts - len(starts), 0)
    if need:
        starts.extend(rng.normal(scale=2.0, size=(need, dim)))
    return np.stack(starts)


def _multistart_adam(f, shapes, opts: SolverOptions, row):
    """Batched Adam on row-softmax logits with forward-difference gradients,
    for the one problem of parameter row ``row``.

    Each iteration makes two objective calls: one for the dim bumped copies
    of every start, stacked into a (dim * starts, dim) batch, and one for
    the stepped logits, whose values are the next iteration's base.  The
    objectives are row-independent bit for bit, so this gives the values of
    one call per bumped coordinate.
    """
    theta = _initial_logits(shapes, opts)
    batch, dim = theta.shape

    def eval_theta(t):
        return np.asarray(f(_blocks_from_logits(t, shapes), row[None, :]), dtype=np.float64)

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


def minimize_blocks(f, shapes, params, *, opts: SolverOptions = None) -> list:
    """Minimize a batched objective over a product of stochastic blocks, for
    each of P problems.

    ``params`` is a (P, k) array of the problems' parameter rows.  ``f``
    receives ``(blocks, rows)``: a list of arrays (one per shape, with a
    leading batch axis), and the parameter row of each point's problem, or
    one (1, k) row shared by every point of the call.  It returns a batch of
    objective values and must be row-independent bit for bit: a row's value
    may not depend on the other rows of its batch, because the engines stack
    points freely.  Returns one ``(best_value, best_blocks,
    per_start_values)`` per problem, each equal to a solve of that problem
    alone; the last entry is the dispersion diagnostic (dense scans report a
    single value).
    """
    opts = opts or SolverOptions()
    shapes = [tuple(s) for s in shapes]
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2:
        raise ValueError(f"params must be a (problems, k) array, got shape {params.shape}")
    free = sum(r * (c - 1) for r, c in shapes)
    if all(c == 2 for _, c in shapes) and free <= DENSE_MAX_DIM:
        return _dense_scan(f, shapes, opts, params)
    return [_multistart_adam(f, shapes, opts, row) for row in params]
