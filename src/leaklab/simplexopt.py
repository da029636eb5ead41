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
a row of parameters.  Both engines run the searches of all of them through
one queue of objective calls of at most ``CHUNK_ROWS`` rows: meshes go
through in chunks, and the zoom, golden-section and Adam steps of many
basins and problems share calls.  Each objective passed to
:func:`minimize_blocks` is row-independent bit for bit, so the batching
changes which call carries a point but not its value.

Points, logits and blocks are stored with the batch axis last: a batch of
points is a (dim, N) array and a batch of blocks a C-contiguous (rows, cols,
N) array, so every operation over a short block axis runs on contiguous
length-N rows.  The objective still receives each block with the batch on
axis 0, as the view ``block.transpose(2, 0, 1)`` (which is
``np.moveaxis(block, -1, 0)``); an objective that works batch-last moves the
axis back, which is again a view of the contiguous block.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["SolverOptions", "minimize_blocks"]

DENSE_MAX_DIM = 3
# Rows per objective call; larger fresh temporaries cost more in page faults
# than in arithmetic.
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SolverOptions:
    n_starts: int = 64
    iters: int = 200
    seed: int = 0
    dense_points: int = 33
    dense_rounds: int = 3
    lr: float = 0.3


def _sum_rows(rows):
    """The sum of n equal-shape arrays ``rows[0..n-1]`` (the leading axis of
    an array, or a list of views), added in the order NumPy reduces a
    contiguous axis of n entries, so with the same bits.

    NumPy sums from 0.0: left to right when n < 8, and otherwise pairwise.
    Up to 128 entries, eight partial sums r_j of every eighth entry are
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the
    remainder is added left to right; a longer run is split at half its
    length, rounded down to a multiple of 8, and its halves are summed so
    and added.  Every add here is one operation on whole rows, without
    NumPy's per-entry reduction overhead, which dominates on short axes.
    """
    n = len(rows)
    if n < 8:
        total = rows[0] + 0.0
        for j in range(1, n):
            total += rows[j]
        return total
    total = _pairwise(rows, 0, n)
    total += 0.0
    return total


def _pairwise(rows, lo, n):
    """NumPy's pairwise sum of rows[lo : lo + n], n >= 8, into a new array."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise(rows, lo, half) + _pairwise(rows, lo + half, n - half)
    full = n - n % 8
    r = [rows[lo + j] for j in range(8)]
    for i in range(8, full, 8):
        r = [r[j] + rows[lo + i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(full, n):
        total += rows[lo + j]
    return total


def _max_rows(rows):
    """The elementwise maximum of ``rows[0..n-1]`` (the maximum does not
    depend on the order)."""
    total = rows[0]
    for j in range(1, len(rows)):
        total = np.maximum(total, rows[j])
    return total


def _blocks_from_free(x: np.ndarray, shapes) -> list:
    """Free parameters in [0, 1], a (dim, N) array -> list of 2-column
    stochastic blocks, each (rows, 2, N)."""
    blocks = []
    pos = 0
    for rows, cols in shapes:
        assert cols == 2
        p0 = x[pos : pos + rows]
        pos += rows
        block = np.empty((rows, 2) + x.shape[1:])
        block[:, 0] = p0
        np.subtract(1.0, p0, out=block[:, 1])
        blocks.append(block)
    return blocks


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the column axis of a (rows, cols, N) array."""
    cols = logits.transpose(1, 0, 2)  # cols[j] is column j, (rows, N)
    e = np.exp(logits - _max_rows(cols)[:, None])
    return e / _sum_rows(e.transpose(1, 0, 2))[:, None]


def _blocks_from_logits(theta: np.ndarray, shapes) -> list:
    """Logits, a (dim, N) array -> list of row-softmax blocks, each
    (rows, cols, N)."""
    blocks = []
    pos = 0
    for rows, cols in shapes:
        size = rows * cols
        blocks.append(_softmax(theta[pos : pos + size].reshape((rows, cols) + theta.shape[1:])))
        pos += size
    return blocks


def _mesh(axes) -> np.ndarray:
    """Every combination of the axis values, the last axis varying fastest,
    as a (len(axes), points) array (``np.meshgrid`` with "ij" indexing)."""
    dim = len(axes)
    out = np.empty([dim] + [len(a) for a in axes])
    for i, a in enumerate(axes):
        out[i] = a.reshape([-1 if j == i else 1 for j in range(dim)])
    return out.reshape(dim, -1)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_polish(x, width, sweeps=2, tol=1e-7):
    """Cyclic per-coordinate golden-section around x, as a coroutine.

    It yields each batch of points it needs, as a (dim, r) array, is sent
    their r objective values, and returns ``(x, f(x))``.  The bracket
    arithmetic is scalar, so the search is the same whichever batch carries
    its points.
    """
    x = x.copy()
    (fx,) = yield x[:, None]
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
            fc, fe = yield np.stack([xc, xe], axis=1)
            while b - a > tol:
                if fc <= fe:
                    b, e, fe = e, c, fc
                    c = b - _GOLDEN * (b - a)
                    xc[d] = c
                    (fc,) = yield xc[:, None]
                else:
                    a, c, fc = c, e, fe
                    e = a + _GOLDEN * (b - a)
                    xe[d] = e
                    (fe,) = yield xe[:, None]
            mid = 0.5 * (a + b)
            xm = x.copy()
            xm[d] = mid
            (fm,) = yield xm[:, None]
            if fm < fx:
                x, fx = xm, fm
        width /= 4.0
    return x, fx


def _lockstep(f, shapes, searches, params, to_blocks=_blocks_from_free) -> list:
    """Run the point-asking coroutines of many problems and return their
    results.

    Each search yields a (dim, r) array of points, is sent their r values,
    and returns its result.  ``to_blocks(points, shapes)`` turns points into
    blocks: free parameters for the dense engine, logits for Adam.  All asks
    join one queue of points, which is evaluated in calls of ``CHUNK_ROWS``
    points: a call is made as soon as that many points wait, and the points
    left over are evaluated in one call when every search waits.  So an ask
    larger than a chunk goes through in chunk-sized calls, and the small
    asks of many searches share one call.  A search whose ask has been
    answered runs next (depth first), so only a few searches hold a large
    ask at any time.

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
    queue = deque()  # [search, ask, first unsent point, values so far]
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
            waiting += ask.shape[1]
            continue
        size = min(waiting, CHUNK_ROWS)
        waiting -= size
        pieces = []
        while size:
            entry = queue[0]
            start = entry[2]
            stop = min(entry[1].shape[1], start + size)
            pieces.append((entry, start, stop))
            size -= stop - start
            entry[2] = stop
            if stop == entry[1].shape[1]:
                queue.popleft()
        points = np.concatenate([e[1][:, a:b] for e, a, b in pieces], axis=1)
        blocks = [b.transpose(2, 0, 1) for b in to_blocks(points, shapes)]
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
            if stop == entry[1].shape[1]:
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
            x = local[:, j]
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
        x = mesh[:, i]
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
        blocks = _blocks_from_free(x[:, None], shapes)
        results.append((float(v), [b[..., 0] for b in blocks], np.array([v])))
    return results


def _initial_logits(shapes, opts: SolverOptions) -> np.ndarray:
    """The Adam starts, as a (dim, starts) array of logits."""
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
    return np.stack(starts, axis=1)


def _multistart_adam(theta, opts: SolverOptions):
    """Batched Adam on row-softmax logits with forward-difference gradients,
    from the (dim, starts) logits ``theta``, as a coroutine for
    :func:`_lockstep`; returns the best value of each start and the logits
    of the best start.

    Each iteration makes two asks: the dim bumped copies of every start, as
    one (dim, dim * starts) batch, and the stepped logits, whose values are
    the next iteration's base.  The objectives are row-independent bit for
    bit and Adam's arithmetic is elementwise, so this gives the path of one
    call per bumped coordinate, whichever calls carry the points.
    """
    dim, starts = theta.shape
    base = yield theta
    best_vals = base.copy()
    best_theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    h = 1e-6
    lr = opts.lr
    diag = np.arange(dim)
    for it in range(1, opts.iters + 1):
        bumped = np.repeat(theta[:, None, :], dim, axis=1)  # (dim, bumped coordinate, starts)
        bumped[diag, diag] += h
        bumped_vals = (yield bumped.reshape(dim, dim * starts)).reshape(dim, starts)
        grad = (bumped_vals - base) / h
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        mhat = m / (1 - 0.9**it)
        vhat = v / (1 - 0.999**it)
        theta = theta - lr * mhat / (np.sqrt(vhat) + 1e-10)
        lr *= 0.985
        base = yield theta
        improved = base < best_vals
        best_vals[improved] = base[improved]
        best_theta[:, improved] = theta[:, improved]
    return best_vals, best_theta[:, int(np.argmin(best_vals))]


def minimize_blocks(f, shapes, params, *, opts: SolverOptions = None) -> list:
    """Minimize a batched objective over a product of stochastic blocks, for
    each of P problems.

    ``params`` is a (P, k) array of the problems' parameter rows.  ``f``
    receives ``(blocks, rows)``: a list of arrays (one per shape, with a
    leading batch axis; each is a view of a C-contiguous batch-last array),
    and the parameter row of each point's problem, or one (1, k) row shared
    by every point of the call.  It returns a batch of objective values and
    must be row-independent bit for bit: a row's value may not depend on the
    other rows of its batch, because the engines stack points freely.
    Returns one ``(best_value, best_blocks, per_start_values)`` per problem,
    each equal to a solve of that problem alone; the last entry is the
    dispersion diagnostic (dense scans report a single value).
    """
    opts = opts or SolverOptions()
    shapes = [tuple(s) for s in shapes]
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2:
        raise ValueError(f"params must be a (problems, k) array, got shape {params.shape}")
    free = sum(r * (c - 1) for r, c in shapes)
    if all(c == 2 for _, c in shapes) and free <= DENSE_MAX_DIM:
        return _dense_scan(f, shapes, opts, params)
    theta = _initial_logits(shapes, opts)
    found = _lockstep(
        f, shapes, [_multistart_adam(theta, opts) for _ in params], params, _blocks_from_logits
    )
    results = []
    for best_vals, x in found:
        blocks = _blocks_from_logits(x[:, None], shapes)
        results.append((float(best_vals.min()), [b[..., 0] for b in blocks], best_vals))
    return results
