"""Codebook formation: uniform column sampling, K-means, and greedy K-centers.

Exact-arithmetic contract: ``kmeans`` and ``kcenters`` return the same bits
as their plain forms, which evaluate the full distance matrix
``max((‖p‖² − 2 p·c) + ‖c‖², 0)`` twice per Lloyd step, take each centroid
as ``pts[assign == j].mean(axis=0)``, and lower the running min-distance by
``((pts − x)**2).sum(1)`` over every point for each new seed or center.
The work saved never changes a rounding:

* squared point norms are computed once per call, and one Lloyd step makes
  one distance pass (``_nearest``): a full-height matmul into an N x c view
  of the call's one scratch buffer of N * max(c, d) doubles, then, per
  cache-sized row block, the two additions, the ``argmin`` and the row
  minima. The minima are the step's objective;
* centroids come from one stable radix sort of the assignments: each
  cluster's mean is summed over the same rows in the same order as the
  boolean mask. The rows are gathered in cluster order into an N x d view
  of the same scratch buffer, since the distances are dead by then, so a
  call holds one copy of the points beside it;
* k-means++ seeding and K-centers share one greedy loop (``_greedy``), in
  which a new seed or center is compared exactly only with the rows that a
  one mat-vec estimate cannot rule out (``_lower_min_sq_dists``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .coding import Dictionary
from .data import DataMatrix, normalize_columns

BLOCK_ROWS = 512  # rows of the N x c distance buffer finished per cache-sized block


def sample_indices(N: int, c: int, seed: int) -> np.ndarray:
    """Draw c distinct column indices uniformly without replacement, sorted ascending."""
    if not (1 <= c <= N):
        raise ValueError(f"need 1 <= c <= N, got c={c}, N={N}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(N, size=c, replace=False))


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Lloyd's algorithm output.

    ``centroids`` are the raw cluster means (d x c); ``dictionary`` holds the
    atoms used for encoding, the centroids scaled to unit norm (a zero-norm
    centroid is left unscaled). ``history`` records the objective (sum of
    squared point-to-nearest-centroid distances) after each completed
    iteration.
    """

    dictionary: Dictionary
    centroids: np.ndarray
    history: list[float]

    @property
    def iterations(self) -> int:
        return len(self.history)


def kmeans(X: DataMatrix, c: int, max_iters: int, seed: int) -> KMeansResult:
    """Cluster the columns of X into c centroids (k-means++ init, Lloyd updates).

    Stops when assignments are unchanged or after ``max_iters`` iterations.
    A cluster that loses all members is re-seeded at the point currently
    farthest from its nearest centroid, so the result always has c atoms.
    The atoms are ``normalize_columns`` of the centroids in "unit_l2" mode.

    The result is bit-identical to the plain algorithm described in the
    module docstring. One Lloyd step costs one distance pass (an N x d by
    d x c matmul into the call's scratch buffer, two additions and an
    ``argmin`` over it), one radix sort of the N assignments, one N x d row
    gather into the same buffer and c slice sums. A step that empties a
    cluster adds one more distance pass for the relocation, into the same
    buffer. Beside X the call holds about 8 * N * (max(c, d) + d) bytes: the
    scratch buffer and a row-major copy of the points.
    """
    if not (1 <= c <= X.N):
        raise ValueError(f"need 1 <= c <= N, got c={c}, N={X.N}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    pts = np.asarray(X.values, dtype=float).T  # (N, d)
    pts_sq = (pts**2).sum(axis=1)
    centroids = _kmeanspp_init(pts, pts_sq, c, rng)

    prev_assign = None
    history: list[float] = []
    pts_rows = np.ascontiguousarray(pts)  # row gathers from a row-major copy are cheap
    sums = np.empty_like(centroids)
    # the call's one scratch buffer: the N x c distances of every pass, and between
    # passes, while the distances are dead, the N x d cluster-ordered rows
    scratch = np.empty(X.N * max(c, pts.shape[1]))
    d2 = scratch[: X.N * c].reshape(X.N, c)
    grouped = scratch[: pts.size].reshape(pts.shape)
    assign, minima = _nearest(pts, centroids, pts_sq, d2)
    for _ in range(max_iters):
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        order = np.argsort(assign.astype(np.min_scalar_type(c - 1)), kind="stable")  # radix
        # each cluster's rows, in the order a boolean mask gives them; "clip" writes
        # straight into ``out``, where the default "raise" fills a copy first
        np.take(pts_rows, order, axis=0, out=grouped, mode="clip")
        counts = np.bincount(assign, minlength=c)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        for j in range(c):  # an empty slice sums to zero and is not used
            np.add.reduce(grouped[bounds[j] : bounds[j + 1]], axis=0, out=sums[j])
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]  # what .mean(axis=0) does
        if not filled.all():
            centroids = _relocate_empty(pts, pts_sq, centroids, assign, d2)
        assign, minima = _nearest(pts, centroids, pts_sq, d2)
        history.append(float(minima.sum()))

    centroids = centroids.T.copy()
    return KMeansResult(
        dictionary=Dictionary(normalize_columns(DataMatrix(centroids), "unit_l2").values),
        centroids=centroids,
        history=history,
    )


def _kmeanspp_init(
    pts: np.ndarray, pts_sq: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    def pick(d2: np.ndarray, chosen: list[int]) -> int:
        total = d2.sum()
        if total > 0.0:
            return _draw(rng, d2 / total)
        # remaining points coincide with chosen centers: take the first unchosen
        return int(np.setdiff1d(np.arange(len(d2)), chosen)[0])

    return pts[_greedy(pts, pts_sq, int(rng.integers(pts.shape[0])), c, pick)]


def _greedy(pts: np.ndarray, pts_sq: np.ndarray, first: int, c: int, pick: Callable) -> list[int]:
    """Rows chosen one at a time: ``first``, then ``pick(d2, chosen)`` until there
    are c, where ``d2`` holds each row's squared distance to its nearest chosen row."""
    chosen = [first]
    d2 = np.full(pts.shape[0], np.inf)
    _lower_min_sq_dists(pts, pts_sq, pts[first], d2)
    for _ in range(1, c):
        chosen.append(pick(d2, chosen))
        _lower_min_sq_dists(pts, pts_sq, pts[chosen[-1]], d2)
    return chosen


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, bit for bit, without choice's
    per-call validation of ``p`` (a compensated sum and a sign check)."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def _relocate_empty(
    pts: np.ndarray, pts_sq: np.ndarray, centroids: np.ndarray, assign: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    empty = np.setdiff1d(np.arange(centroids.shape[0]), assign)
    minima = _nearest(pts, centroids, pts_sq, d2)[1]
    for j in empty:
        far = int(np.argmax(minima))
        centroids[j] = pts[far]
        minima[far] = 0.0  # taken; the next empty cluster picks a different point
    return centroids


def _nearest(
    pts: np.ndarray, centers: np.ndarray, pts_sq: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest center and distance under ``max((‖p‖² − 2 p·c) + ‖c‖², 0)``.

    The product fills ``d2`` (N x c) in one BLAS call, since OpenBLAS picks
    its kernels by shape and a row block multiplied alone can round otherwise.
    Scaling by −2 is exact, and adding ``‖p‖²`` to ``pts @ (−2 centers)ᵀ`` is
    the IEEE operation that subtracts ``2 pts @ centersᵀ`` from it. The rest
    runs per row block while it is in cache. The clamp would tie a row's
    entries <= 0 at +0.0, won by the first (``argmin`` resolves ties to the
    lowest index), so a row whose minimum is <= 0 takes its first such entry.
    """
    d2 = np.matmul(pts, (-2.0 * centers).T, out=d2)
    c_sq = (centers**2).sum(axis=1)
    assign = np.empty(len(pts), dtype=np.intp)
    minima = np.empty(len(pts))
    for start in range(0, len(pts), BLOCK_ROWS):
        block, near = d2[start : start + BLOCK_ROWS], assign[start : start + BLOCK_ROWS]
        block += pts_sq[start : start + BLOCK_ROWS, None]
        block += c_sq
        np.argmin(block, axis=1, out=near)
        least = np.take_along_axis(block, near[:, None], axis=1)[:, 0]
        low = np.flatnonzero(least <= 0.0)
        near[low] = np.argmax(block[low] <= 0.0, axis=1)
        least[low] = 0.0
        minima[start : start + BLOCK_ROWS] = least
    return assign, minima


def _lower_min_sq_dists(
    pts: np.ndarray, pts_sq: np.ndarray, x: np.ndarray, d2: np.ndarray
) -> None:
    """In place, ``d2 = minimum(d2, ((pts - x)**2).sum(axis=1))``, bit for bit.

    The expansion ``approx = ‖p‖² − 2 p·x + ‖x‖²`` costs one mat-vec. Let
    S = ‖p‖² + ‖x‖², u = eps/2 and γ_n = n·u/(1 − n·u) (Higham, Accuracy and
    Stability of Numerical Algorithms, §3.1). The two norms are off by at
    most γ_d·S together and 2 p·x by at most 2γ_d·‖p‖·‖x‖ ≤ γ_d·S; the two
    additions add at most 4u·S. The exact form sums d non-negative rounded
    squares of rounded differences, so it is off by at most
    γ_{d+2}·‖p − x‖² ≤ 2γ_{d+2}·S. Hence |approx − exact| < (4d + 8)·u·S,
    and the slack 4(d + 2)·eps·S is twice that, which also covers the
    rounding of ``d2 + slack``. A row whose exact distance is below ``d2``
    therefore always has ``approx <= d2 + slack``; any other row keeps its
    ``d2``, as it would under the full update.
    """
    x_sq = float(x @ x)
    approx = pts_sq - 2.0 * (pts @ x) + x_sq
    limit = d2 + (4.0 * (pts.shape[1] + 2) * np.finfo(float).eps) * (pts_sq + x_sq)
    rows = np.flatnonzero(~(approx > limit))  # NaN/inf rows are kept, as the full update would
    if rows.size:
        d2[rows] = np.minimum(d2[rows], _row_sq_dists(pts, x, rows))


def _row_sq_dists(pts: np.ndarray, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``((pts - x)**2).sum(axis=1)[rows]``, bit for bit, reading only those rows."""
    n = rows.size
    if pts.shape[0] > 1 and pts.strides[0] < pts.strides[1]:
        # numpy sums a column-major (N, d) array one column at a time but a
        # row-major one pairwise along each row. Gather column-major too; a
        # lone row would count as row-major, so pad it with a copy.
        diff = np.take(pts.T, np.append(rows, rows[0]), axis=1).T
    else:
        diff = np.take(pts, rows, axis=0)
    diff -= x
    diff *= diff
    return diff.sum(axis=1)[:n]


def kcenters(F: np.ndarray, c: int, seed: int, first: int | None = None) -> list[int]:
    """Greedy farthest-first traversal over the rows of F.

    The first center is drawn uniformly from the rows (or forced via
    ``first``); each subsequent center is the row farthest from its nearest
    already-chosen center, ties broken by lowest row index. Returns the chosen
    row indices in selection order.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be a 2-D matrix with one row per item")
    n = F.shape[0]
    if not (1 <= c <= n):
        raise ValueError(f"need 1 <= c <= number of rows, got c={c}, rows={n}")
    if first is None:
        first = int(np.random.default_rng(seed).integers(n))
    elif not (0 <= first < n):
        raise ValueError(f"first pick {first} out of range 0..{n - 1}")
    return _greedy(F, (F**2).sum(axis=1), first, c, lambda d2, _: int(np.argmax(d2)))
