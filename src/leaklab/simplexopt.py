"""Deterministic minimizers over products of row-stochastic blocks.

The auxiliary-channel minimizations in the rate-region and exponent code are
non-convex, so nothing here certifies global optimality; the contract is
determinism (fixed seeds, fixed schedules) and enough coverage that the
binary-alphabet problems of the test corpus are solved to well below the
acceptance tolerances.

Two engines:

* a nested zoom grid scan, used when every block has two columns and the
  total number of free parameters is at most ``DENSE_MAX_DIM`` (each row of
  a 2-column block is one free number in [0, 1]): a global mesh of
  ``dense_points`` per axis, zoom rounds around its best basins and a
  golden-section polish.  With 1 or 2 free parameters the zoom runs two
  rounds on ``dense_points`` axes; with 3 it runs five rounds on 13-point
  axes, 2,197 points a mesh instead of 35,937, and ends on a finer step
  than two 33-point rounds;
* batched multi-start Adam on row-softmax logits with forward-difference
  gradients, used for everything else.

One call of :func:`minimize_blocks` solves many problems that differ only in
a row of parameters, in phases over arrays that span all of them: the global
meshes, each zoom round and the golden-section polish of the dense engine,
and each Adam step.  A phase hands its points to one stream evaluator,
:func:`_evaluate`, which makes objective calls of at most ``CHUNK_ROWS``
points with one parameter row per point.  Each objective is row-independent
bit for bit, so the batching changes which call carries a point but not its
value.

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
DENSE_ROUNDS = 3  # the global mesh, then zoom rounds around each basin
DENSE_BASINS = 3  # basins zoomed and polished per problem
# The zoom of problems with 3 free parameters: local meshes of 13 points per
# axis (2,197 points, not 33^3 = 35,937), each spanning 5 steps of the last,
# so each round shrinks the step by 5/12, and 5 rounds end no coarser than
# DENSE_ROUNDS - 1 rounds of 33-point axes do: (5/12)^5 < (5/32)^2.  Fewer
# free parameters keep those rounds on ``dense_points`` axes.
DENSE_3D_ZOOM_POINTS = 13
DENSE_3D_ZOOM_ROUNDS = 5
ADAM_LR = 0.3
# Rows per objective call; larger fresh temporaries cost more in page faults
# than in arithmetic.
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SolverOptions:
    n_starts: int = 64
    iters: int = 200
    seed: int = 0
    dense_points: int = 33


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


def _evaluate(f, shapes, asks, params, to_blocks=_blocks_from_free):
    """Evaluate a stream of asks; yield the values of each ask.

    An ask is ``(owners, points)``: a (dim, n) array of points and the
    problem of each, an index into the rows of ``params`` (one for all n
    points, or n of them).  The points of all asks form one stream,
    evaluated in calls ``f(blocks, rows)`` of at most ``CHUNK_ROWS`` points,
    where ``rows[r]`` is the parameter row of point r's problem and
    ``to_blocks(points, shapes)`` makes the blocks: free parameters for the
    dense engine, logits for Adam.  Each ask is answered, in order, as soon
    as its last point is evaluated.  The next ask is drawn only while fewer
    than ``CHUNK_ROWS`` points wait, so a lazy stream of large asks holds
    about two of them at a time.
    """
    asks = iter(asks)
    queue = deque()  # [owners, points, values so far, first unevaluated point]
    waiting = 0
    while True:
        while waiting < CHUNK_ROWS and (ask := next(asks, None)) is not None:
            owners, points = ask
            queue.append([np.broadcast_to(owners, points.shape[1:]), points, [], 0])
            waiting += points.shape[1]
        if not waiting:
            return
        size = min(waiting, CHUNK_ROWS)
        waiting -= size
        pieces = []
        for entry in queue:
            if not size:
                break
            stop = min(entry[1].shape[1], entry[3] + size)
            pieces.append((entry, entry[3], stop))
            size -= stop - entry[3]
            entry[3] = stop
        points = np.concatenate([e[1][:, a:b] for e, a, b in pieces], axis=1)
        rows = params[np.concatenate([e[0][a:b] for e, a, b in pieces])]
        vals = f([b.transpose(2, 0, 1) for b in to_blocks(points, shapes)], rows)
        vals = np.asarray(vals, dtype=np.float64)
        pos = 0
        for entry, start, stop in pieces:
            entry[2].append(vals[pos : pos + stop - start])
            pos += stop - start
        while queue and queue[0][3] == queue[0][1].shape[1]:
            got = queue.popleft()[2]
            yield got[0] if len(got) == 1 else np.concatenate(got)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_polish(f, shapes, params, owners, x, width, sweeps=2, tol=1e-7):
    """Cyclic per-coordinate golden-section around every column of x, a
    (dim, B) array of basins of the problems ``owners``, with bracket
    half-widths ``width`` (B,); returns ``(x, f(x))`` of every basin.

    The brackets of all basins are arrays that step together, one ask per
    step, and a closed bracket stops asking.  The bracket arithmetic is
    elementwise, so each basin follows its own scalar search.
    """

    def values(who, points):
        [vals] = _evaluate(f, shapes, [(who, points)], params)
        return vals

    def moved(d, t, cols=slice(None)):  # x[:, cols] with coordinate d set to t
        out = x[:, cols].copy()
        out[d] = t
        return out

    x = x.copy()
    fx = values(owners, x)
    for _ in range(sweeps):
        for d in range(x.shape[0]):
            a = np.maximum(0.0, x[d] - width)
            b = np.minimum(1.0, x[d] + width)
            c = b - _GOLDEN * (b - a)
            e = a + _GOLDEN * (b - a)
            opening = np.concatenate([moved(d, c), moved(d, e)], axis=1)
            fc, fe = np.split(values(np.tile(owners, 2), opening), 2)
            active = b - a > tol
            while active.any():
                left = active & (fc <= fe)
                right = active & ~(fc <= fe)
                b[left], e[left], fe[left] = e[left], c[left], fc[left]
                c[left] = b[left] - _GOLDEN * (b[left] - a[left])
                a[right], c[right], fc[right] = c[right], e[right], fe[right]
                e[right] = a[right] + _GOLDEN * (b[right] - a[right])
                got = values(owners[active], moved(d, np.where(left, c, e)[active], active))
                fc[left] = got[left[active]]
                fe[right] = got[right[active]]
                active = b - a > tol
            mid = 0.5 * (a + b)
            fm = values(owners, moved(d, mid))
            better = fm < fx
            x[d, better] = mid[better]
            fx[better] = fm[better]
        width = width / 4.0
    return x, fx


def _dense_scan(f, shapes, opts: SolverOptions, params) -> list:
    """Global mesh scan, then zooms and a polish on the best few basins, for
    every problem; one result per problem.

    The objectives here can carry several local minima whose depths at grid
    resolution do not predict their depths at full resolution, so a single
    zoom path is not trusted with the global answer.  Each phase is one
    stream over all problems: the global meshes, each zoom round over all
    basins (its local meshes built as the stream draws them), the polish.

    The zoom schedule depends on the dimension.  With at most 2 free
    parameters it runs DENSE_ROUNDS - 1 rounds on ``dense_points`` axes
    (1,089 points a mesh at the default 33).  With 3, where such a mesh
    would have 35,937 points, the global mesh has already found the basins
    and the zoom only refines them: DENSE_3D_ZOOM_ROUNDS rounds on
    DENSE_3D_ZOOM_POINTS axes, ending on a finer step than two rounds on
    33-point axes would.
    """
    dim = sum(r for r, _ in shapes)
    pts = opts.dense_points
    step0 = 1.0 / (pts - 1)
    if dim > 2:
        zoom_pts, rounds = DENSE_3D_ZOOM_POINTS, DENSE_3D_ZOOM_ROUNDS
    else:
        zoom_pts, rounds = pts, DENSE_ROUNDS - 1
    mesh = _mesh([np.linspace(0.0, 1.0, pts)] * dim)
    seeds, owners = [], []
    meshes = ((i, mesh) for i in range(len(params)))
    for i, vals in enumerate(_evaluate(f, shapes, meshes, params)):
        # the best mesh points at least 3 mesh steps apart, in value order
        found = []
        for j in np.argsort(vals):
            if all(np.max(np.abs(mesh[:, j] - s)) > 3.0 * step0 for s in found):
                found.append(mesh[:, j])
            if len(found) == DENSE_BASINS:
                break
        seeds += found
        owners += [i] * len(found)
    owners = np.array(owners)
    x = np.stack(seeds, axis=1)
    v, step = np.full(len(owners), np.inf), np.full(len(owners), step0)
    coords = np.arange(dim)
    for _ in range(rounds):
        lo = np.clip(x - 2.5 * step, 0.0, 1.0)
        hi = np.clip(x + 2.5 * step, 0.0, 1.0)
        # the axes of every basin, (zoom_pts, dim, B); each has the bits of
        # its own np.linspace, as every hi > lo
        axes = np.linspace(lo, hi, zoom_pts)
        local = ((owner, _mesh(axes[:, :, j].T)) for j, owner in enumerate(owners))
        for j, vals in enumerate(_evaluate(f, shapes, local, params)):
            k = int(np.argmin(vals))
            if vals[k] < v[j]:
                v[j] = vals[k]
                x[:, j] = axes[np.unravel_index(k, (zoom_pts,) * dim), coords, j]
        step = (hi - lo).max(axis=0) / (zoom_pts - 1)
    x, v = _golden_polish(f, shapes, params, owners, x, 2.5 * step)
    best = [(np.inf, None)] * len(params)
    for owner, xj, vj in zip(owners, x.T, v):
        if vj < best[owner][0]:
            best[owner] = (vj, xj)
    results = []
    for vj, xj in best:
        blocks = _blocks_from_free(xj[:, None], shapes)
        results.append((float(vj), [b[..., 0] for b in blocks], np.array([vj])))
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


def _multistart_adam(f, shapes, opts: SolverOptions, params) -> list:
    """Batched Adam on row-softmax logits with forward-difference gradients,
    for every problem; one result per problem.

    The starts of all problems form one (dim, problems * starts) array of
    logits, evaluated twice per iteration: first the dim bumped copies of
    every start, one lazy ask per problem so that only a few problems'
    bumped rows are held at a time, then the stepped logits, whose values
    are the next iteration's base.  Adam's arithmetic is elementwise, so
    every start follows its path in a solve of its problem alone.
    """
    start = _initial_logits(shapes, opts)
    dim, starts = start.shape
    theta = np.tile(start, len(params))
    owners = np.repeat(np.arange(len(params)), starts)
    h = 1e-6
    diag = np.arange(dim)

    def evaluate(asks):
        return _evaluate(f, shapes, asks, params, _blocks_from_logits)

    def bumped(theta):
        for p in range(len(params)):
            t = np.repeat(theta[:, None, p * starts : (p + 1) * starts], dim, axis=1)
            t[diag, diag] += h  # (dim, bumped coordinate, starts)
            yield p, t.reshape(dim, dim * starts)

    [base] = evaluate([(owners, theta)])
    best_vals = base.copy()
    best_theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    lr = ADAM_LR
    for it in range(1, opts.iters + 1):
        grad = [vals.reshape(dim, starts) for vals in evaluate(bumped(theta))]
        grad = (np.concatenate(grad, axis=1) - base) / h
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        theta = theta - lr * (m / (1 - 0.9**it)) / (np.sqrt(v / (1 - 0.999**it)) + 1e-10)
        lr *= 0.985
        [base] = evaluate([(owners, theta)])
        improved = base < best_vals
        best_vals[improved] = base[improved]
        best_theta[:, improved] = theta[:, improved]
    results = []
    for p in range(len(params)):
        vals = best_vals[p * starts : (p + 1) * starts]
        x = best_theta[:, p * starts + int(np.argmin(vals)), None]
        blocks = _blocks_from_logits(x, shapes)
        results.append((float(vals.min()), [b[..., 0] for b in blocks], vals))
    return results


def minimize_blocks(f, shapes, params, *, opts: SolverOptions = None) -> list:
    """Minimize a batched objective over a product of stochastic blocks, for
    each of P problems.

    ``params`` is a (P, k) array of the problems' parameter rows.  ``f``
    receives ``(blocks, rows)``: a list of arrays (one per shape, with a
    leading batch axis; each is a view of a C-contiguous batch-last array),
    and a (N, k) array holding the parameter row of each point's problem.
    It returns a batch of objective values and must be row-independent bit
    for bit: a row's value may not depend on the other rows of its batch,
    because the engines stack points freely.  Returns one ``(best_value,
    best_blocks, per_start_values)`` per problem, each equal to a solve of
    that problem alone; the last entry is the dispersion diagnostic (dense
    scans report a single value).
    """
    opts = opts or SolverOptions()
    shapes = [tuple(s) for s in shapes]
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2:
        raise ValueError(f"params must be a (problems, k) array, got shape {params.shape}")
    free = sum(r * (c - 1) for r, c in shapes)
    if all(c == 2 for _, c in shapes) and free <= DENSE_MAX_DIM:
        return _dense_scan(f, shapes, opts, params)
    return _multistart_adam(f, shapes, opts, params)
