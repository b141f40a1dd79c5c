"""Codebook formation: uniform column sampling, K-means, and greedy K-centers.

Exact-arithmetic contract: ``kmeans``, ``kcenters`` and ``covering_radius``
return the same bits as their plain forms, which evaluate the full distance
matrix ``max((‖p‖² − 2 p·c) + ‖c‖², 0)`` twice per Lloyd step, take each
centroid as ``pts[assign == j].mean(axis=0)``, and lower the running
min-distance by ``((pts − x)**2).sum(1)`` over every point for each new
seed or center. The work saved never changes a rounding:

* squared point norms are computed once per call, and one Lloyd step makes
  one N x c distance matrix: a matmul and three in-place passes over
  cache-sized row blocks. Its ``argmin`` is the next assignment and its row
  minima are the step's objective;
* centroids come from one stable sort of the assignments: each cluster's
  mean is summed over the same rows in the same order as the boolean mask;
* a new seed or center is compared exactly only with the rows that a one
  mat-vec estimate cannot rule out (``_lower_min_sq_dists``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import Dictionary
from .data import DataMatrix

BLOCK_ROWS = 512  # rows of the N x c distance matrix finished per cache-sized block


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
    def objective(self) -> float:
        return self.history[-1]

    @property
    def iterations(self) -> int:
        return len(self.history)


def kmeans(X: DataMatrix, c: int, max_iters: int, seed: int) -> KMeansResult:
    """Cluster the columns of X into c centroids (k-means++ init, Lloyd updates).

    Stops when assignments are unchanged or after ``max_iters`` iterations.
    A cluster that loses all members is re-seeded at the point currently
    farthest from its nearest centroid, so the result always has c atoms.
    The dictionary's atoms are the centroids scaled to unit norm (zero-norm
    centroids are left unscaled); ``centroids`` stay raw.

    The result is bit-identical to the plain algorithm described in the
    module docstring. One Lloyd step costs one N x c distance matrix (an
    N x d by d x c matmul plus three passes over it), one ``argmin`` over
    it, one stable sort of the N assignments, one N x d row gather and c
    slice sums. A step that empties a cluster adds one more distance matrix
    for the relocation.
    """
    if not (1 <= c <= X.N):
        raise ValueError(f"need 1 <= c <= N, got c={c}, N={X.N}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    pts = X.values.T  # (N, d)
    pts_sq = (pts**2).sum(axis=1)
    centroids = _kmeanspp_init(pts, pts_sq, c, rng)

    prev_assign = None
    history: list[float] = []
    every_row = np.arange(X.N)
    pts_rows = np.ascontiguousarray(pts)  # row gathers from a row-major copy are cheap
    sums = np.empty_like(centroids)
    assign = np.argmin(_sq_dists(pts, centroids, pts_sq), axis=1)
    for _ in range(max_iters):
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        order = np.argsort(assign, kind="stable")
        grouped = pts_rows[order]  # each cluster's rows, in the order a boolean mask gives them
        counts = np.bincount(assign, minlength=c)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        for j in range(c):  # an empty slice sums to zero and is not used
            np.add.reduce(grouped[bounds[j] : bounds[j + 1]], axis=0, out=sums[j])
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]  # what .mean(axis=0) does
        if not filled.all():
            centroids = _relocate_empty(pts, centroids, assign)
        d2 = _sq_dists(pts, centroids, pts_sq)
        assign = np.argmin(d2, axis=1)  # ties resolve to the lowest centroid index
        history.append(float(d2[every_row, assign].sum()))  # the row minima

    centroids = centroids.T.copy()
    norms = np.linalg.norm(centroids, axis=0)
    return KMeansResult(
        dictionary=Dictionary(centroids / np.where(norms == 0.0, 1.0, norms)),
        centroids=centroids,
        history=history,
    )


def _kmeanspp_init(
    pts: np.ndarray, pts_sq: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((c, pts.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers[0] = pts[first]
    chosen[first] = True
    d2 = np.full(n, np.inf)
    _lower_min_sq_dists(pts, pts_sq, centers[0], d2)
    for j in range(1, c):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # remaining points coincide with chosen centers: take the first unchosen
            idx = int(np.flatnonzero(~chosen)[0])
        centers[j] = pts[idx]
        chosen[idx] = True
        _lower_min_sq_dists(pts, pts_sq, centers[j], d2)
    return centers


def _relocate_empty(pts: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> np.ndarray:
    empty = np.setdiff1d(np.arange(centroids.shape[0]), assign)
    if empty.size == 0:
        return centroids
    d2 = _sq_dists(pts, centroids).min(axis=1)
    for j in empty:
        far = int(np.argmax(d2))
        centroids[j] = pts[far]
        d2[far] = 0.0  # taken; the next empty cluster picks a different point
    return centroids


def _sq_dists(
    pts: np.ndarray, centers: np.ndarray, pts_sq: np.ndarray | None = None
) -> np.ndarray:
    """``max((‖p‖² − 2 p·c) + ‖c‖², 0)`` for every row pair, built in one buffer.

    Scaling by −2 is exact, so ``pts @ (−2 centers)ᵀ`` is ``−(2 pts @ centersᵀ)``
    bit for bit, and adding ``‖p‖²`` to it is the same IEEE operation as
    subtracting ``2 pts @ centersᵀ`` from ``‖p‖²``. The additions run over
    row blocks that stay in cache.
    """
    if pts_sq is None:
        pts_sq = (pts**2).sum(axis=1)
    d2 = pts @ (-2.0 * centers).T
    c_sq = (centers**2).sum(axis=1)
    for start in range(0, d2.shape[0], BLOCK_ROWS):
        block = d2[start : start + BLOCK_ROWS]
        block += pts_sq[start : start + BLOCK_ROWS, None]
        block += c_sq
        np.maximum(block, 0.0, out=block)
    return d2


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
    F_sq = (F**2).sum(axis=1)
    selected = [first]
    d2 = np.full(n, np.inf)
    _lower_min_sq_dists(F, F_sq, F[first], d2)
    for _ in range(1, c):
        nxt = int(np.argmax(d2))
        selected.append(nxt)
        _lower_min_sq_dists(F, F_sq, F[nxt], d2)
    return selected


def covering_radius(F: np.ndarray, selected: list[int]) -> float:
    """Max over rows of the distance to the nearest selected row."""
    F = np.asarray(F, dtype=float)
    F_sq = (F**2).sum(axis=1)
    d2 = np.full(F.shape[0], np.inf)
    for s in selected:
        _lower_min_sq_dists(F, F_sq, F[s], d2)
    return float(np.sqrt(d2.max()))
