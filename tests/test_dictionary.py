import itertools

import numpy as np
import pytest

import nyscode.dictionary as dictionary
from nyscode.data import DataMatrix, extract_patches_stack, normalize_columns
from nyscode.dictionary import (
    _lower_min_sq_dists,
    _relocate_empty,
    _row_sq_dists,
    covering_radius,
    kcenters,
    kmeans,
    sample_indices,
)
from nyscode.harness import synth_texture_images


class TestSampleIndices:
    def test_exhaustive_sample(self):
        for seed in range(5):
            assert np.array_equal(sample_indices(5, 5, seed), [0, 1, 2, 3, 4])

    def test_single_index_in_range(self):
        idx = sample_indices(5, 1, seed=0)
        assert idx.shape == (1,)
        assert 0 <= idx[0] < 5

    def test_deterministic_and_seed_sensitive(self):
        a = sample_indices(1000, 100, seed=42)
        b = sample_indices(1000, 100, seed=42)
        c = sample_indices(1000, 100, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sorted_and_distinct(self):
        idx = sample_indices(50, 20, seed=3)
        assert np.all(np.diff(idx) > 0)

    @pytest.mark.parametrize("N,c", [(5, 6), (5, 0), (0, 1)])
    def test_invalid_sizes(self, N, c):
        with pytest.raises(ValueError):
            sample_indices(N, c, seed=0)

    def test_marginal_uniformity(self):
        # N=10, c=1 over 10000 seeds: each index within 5 sigma of 1000
        counts = np.zeros(10, dtype=int)
        for seed in range(10000):
            counts[sample_indices(10, 1, seed)[0]] += 1
        sigma = np.sqrt(10000 * 0.1 * 0.9)
        assert np.abs(counts - 1000).max() <= 5 * sigma


class TestKMeans:
    def test_distinct_points_recovered_exactly(self):
        pts = np.array([[0.0, 10.0, 20.0], [0.0, 0.0, 5.0]])
        res = kmeans(DataMatrix(pts), c=3, max_iters=10, seed=0)
        assert res.objective == 0.0
        got = {tuple(a) for a in res.centroids.T}
        assert got == {tuple(p) for p in pts.T}

    def test_two_far_clusters_hit_cluster_means(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 1.0, (3, 10))
        b = rng.normal(100.0, 1.0, (3, 10))
        res = kmeans(DataMatrix(np.concatenate([a, b], axis=1)), c=2, max_iters=50, seed=1)
        means = sorted([a.mean(axis=1), b.mean(axis=1)], key=lambda v: v[0])
        got = sorted(res.centroids.T, key=lambda v: v[0])
        assert np.abs(np.array(got) - np.array(means)).max() <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_objective_history_non_increasing(self, seed):
        X = DataMatrix(np.random.default_rng(seed).standard_normal((4, 60)))
        res = kmeans(X, c=6, max_iters=30, seed=seed)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 1e-12 * max(hist[0], 1.0))
        assert res.objective == hist[-1]
        assert 1 <= res.iterations <= 30

    def test_deterministic(self):
        X = DataMatrix(np.random.default_rng(9).standard_normal((3, 40)))
        a = kmeans(X, c=5, max_iters=20, seed=4)
        b = kmeans(X, c=5, max_iters=20, seed=4)
        assert np.array_equal(a.centroids, b.centroids)

    def test_atom_normalization_flag(self):
        # the dictionary's atoms are the centroids scaled to unit norm
        X = DataMatrix(np.random.default_rng(2).standard_normal((4, 30)) + 5.0)
        res = kmeans(X, c=3, max_iters=20, seed=0)
        norms = np.linalg.norm(res.centroids, axis=0)
        assert np.allclose(np.linalg.norm(res.dictionary.atoms, axis=0), 1.0)
        assert np.array_equal(res.dictionary.atoms, res.centroids / norms)
        # raw centroids stay unnormalized
        assert not np.allclose(norms, 1.0)

    def test_zero_norm_centroid_left_unscaled(self):
        res = kmeans(DataMatrix(np.array([[0.0, 0.0, 0.0, 5.0, 5.0]])), c=2, max_iters=10, seed=0)
        assert sorted(res.centroids[0]) == [0.0, 5.0]
        assert sorted(res.dictionary.atoms[0]) == [0.0, 1.0]

    def test_duplicate_points_keep_atom_count(self):
        # more clusters than distinct values: relocation policy keeps c atoms
        pts = np.array([[0.0, 0.0, 0.0, 1.0, 1.0]])
        res = kmeans(DataMatrix(pts), c=3, max_iters=10, seed=0)
        assert res.centroids.shape == (1, 3)
        assert res.dictionary.c == 3

    def test_relocate_empty_takes_farthest_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [10.0, 0.0]])
        centroids = np.array([[0.0, 0.0], [0.5, 0.0], [99.0, 99.0]])
        assign = np.array([0, 1, 1])  # centroid 2 is empty; point 2 is farthest
        out = _relocate_empty(pts, centroids.copy(), assign)
        assert np.array_equal(out[2], pts[2])

    @pytest.mark.parametrize("c,iters", [(0, 5), (10, 5), (2, 0)])
    def test_invalid_arguments(self, c, iters):
        X = DataMatrix(np.ones((2, 4)))
        with pytest.raises(ValueError):
            kmeans(X, c, iters, seed=0)


class TestKCenters:
    @staticmethod
    def _greedy_oracle(F, c, first):
        # enumerate the greedy trace step by step with explicit loops
        F = np.asarray(F, dtype=float)
        chosen = [first]
        for _ in range(c - 1):
            best, best_d = None, -1.0
            for i in range(F.shape[0]):
                d = min(np.linalg.norm(F[i] - F[s]) for s in chosen)
                if d > best_d + 1e-15:
                    best, best_d = i, d
            chosen.append(best)
        return chosen

    def test_line_instance(self):
        F = np.array([[0.0], [1.0], [10.0]])
        assert kcenters(F, 2, seed=0, first=0) == [0, 2]
        assert kcenters(F, 2, seed=0, first=0) == self._greedy_oracle(F, 2, 0)

    def test_all_rows_covering_radius_zero(self):
        F = np.random.default_rng(0).standard_normal((6, 2))
        sel = kcenters(F, 6, seed=1)
        assert sorted(sel) == list(range(6))
        assert covering_radius(F, sel) == 0.0

    def test_duplicate_rows_never_picked_together(self):
        # 4-row instance with one duplicated pair, exhaustively over first picks
        F = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        for first in range(4):
            sel = kcenters(F, 2, seed=0, first=first)
            assert set(sel) != {0, 1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_greedy_oracle(self, seed):
        F = np.random.default_rng(seed).standard_normal((12, 3))
        for c in (2, 5, 8):
            assert kcenters(F, c, seed=0, first=3) == self._greedy_oracle(F, c, 3)

    def test_covering_radius_non_increasing_in_c(self):
        F = np.random.default_rng(7).standard_normal((30, 2))
        radii = [covering_radius(F, kcenters(F, c, seed=0, first=0)) for c in range(1, 15)]
        assert all(radii[i + 1] <= radii[i] + 1e-12 for i in range(len(radii) - 1))

    def test_seeded_first_pick_deterministic(self):
        F = np.random.default_rng(3).standard_normal((9, 2))
        assert kcenters(F, 4, seed=11) == kcenters(F, 4, seed=11)

    def test_c_exceeds_rows(self):
        with pytest.raises(ValueError):
            kcenters(np.ones((3, 1)), 4, seed=0)


# Plain K-means with unit-norm atoms: a boolean mask per centroid, two full
# distance matrices per Lloyd step and a full exact update per k-means++ seed.
# kmeans must match it bit for bit.
def _plain_sq_dists(pts, centers):
    d2 = (
        (pts**2).sum(axis=1)[:, None]
        - 2.0 * pts @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _plain_kmeans(X, c, max_iters, seed):
    rng = np.random.default_rng(seed)
    pts = X.values.T
    n = pts.shape[0]
    centroids = np.empty((c, pts.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = pts[first]
    chosen[first] = True
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(np.flatnonzero(~chosen)[0])
        centroids[j] = pts[idx]
        chosen[idx] = True
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))

    prev_assign = None
    history = []
    for _ in range(max_iters):
        assign = np.argmin(_plain_sq_dists(pts, centroids), axis=1)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for j in range(c):
            members = assign == j
            if members.any():
                centroids[j] = pts[members].mean(axis=0)
        empty = np.setdiff1d(np.arange(c), assign)
        if empty.size:
            far_d2 = _plain_sq_dists(pts, centroids).min(axis=1)
            for j in empty:
                far = int(np.argmax(far_d2))
                centroids[j] = pts[far]
                far_d2[far] = 0.0
        history.append(float(_plain_sq_dists(pts, centroids).min(axis=1).sum()))
    atoms = centroids.T.copy()
    norms = np.linalg.norm(atoms, axis=0)
    return atoms, atoms / np.where(norms == 0.0, 1.0, norms), history


def _unit_patches():
    images, _ = synth_texture_images(6, 2, 16, 4, 5, 0.8, seed=0)
    return normalize_columns(extract_patches_stack(images, 4, 2).patches, "unit_l2").values


def _offset():
    return np.random.default_rng(1).standard_normal((8, 300)) + 1e4


def _duplicates():
    # 5 distinct points, 12 copies each: seeding runs out of distance mass
    return np.repeat(np.random.default_rng(2).standard_normal((3, 5)), 12, axis=1)


def _integer_grid():
    return np.array(list(itertools.product(range(5), repeat=3)), dtype=float).T.copy()


def _near_distinct():
    # 36 distinct points plus copies of 4 of them: with c > 36 two centers
    # coincide, one of them loses every point and is relocated
    values = np.random.default_rng(3).standard_normal((4, 36))
    return np.concatenate([values, values[:, :4]], axis=1)


BIT_IDENTITY_CASES = {
    # name: (d x N values, cluster counts)
    "unit_patches": (_unit_patches, (8, 64)),
    "offset_1e4": (_offset, (5, 40)),
    "offset_1e4_column_major": (lambda: np.asfortranarray(_offset()), (5, 40)),
    "duplicates": (_duplicates, (4, 8)),
    "integer_grid": (_integer_grid, (6, 30)),
    "c_close_to_n": (_near_distinct, (37, 39)),
}


class TestKMeansBitIdentity:
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_CASES))
    def test_matches_plain_kmeans(self, name):
        make, cs = BIT_IDENTITY_CASES[name]
        X = DataMatrix(make())
        for c, seed in itertools.product(cs, (0, 1, 2)):
            res = kmeans(X, c, max_iters=20, seed=seed)
            centroids, atoms, history = _plain_kmeans(X, c, 20, seed)
            assert res.centroids.tobytes() == centroids.tobytes()
            assert res.dictionary.atoms.tobytes() == atoms.tobytes()
            assert res.history == history
            assert res.iterations == len(history)
            assert res.objective == history[-1]

    @pytest.mark.parametrize("name", ["duplicates", "c_close_to_n"])
    def test_cases_relocate_empty_clusters(self, name, monkeypatch):
        # the relocation path is exercised by the bit-identity cases above
        calls = []
        real = dictionary._relocate_empty
        monkeypatch.setattr(
            dictionary, "_relocate_empty", lambda *a: calls.append(1) or real(*a)
        )
        make, cs = BIT_IDENTITY_CASES[name]
        for seed in (0, 1, 2):
            kmeans(DataMatrix(make()), max(cs), max_iters=20, seed=seed)
        assert calls

    def test_duplicates_take_the_seeding_fallback(self):
        # sampling never picks a point at distance 0 from a chosen center, so
        # 8 centers on 5 distinct points need 3 picks from the total == 0 branch
        pts = _duplicates().T
        centers = dictionary._kmeanspp_init(pts, (pts**2).sum(axis=1), 8, np.random.default_rng(0))
        assert len(np.unique(centers, axis=0)) == 5

    # the (d, N) values' memory order; pts = values.T has the other one
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_filtered_update_matches_full_update(self, order):
        pts = np.asarray(_offset(), order=order).T
        pts_sq = (pts**2).sum(axis=1)
        d2 = np.full(pts.shape[0], np.inf)
        full = d2.copy()
        for i in np.random.default_rng(4).choice(pts.shape[0], 40, replace=False):
            _lower_min_sq_dists(pts, pts_sq, pts[i], d2)
            full = np.minimum(full, ((pts - pts[i]) ** 2).sum(axis=1))
            assert d2.tobytes() == full.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_filter_keeps_rows_one_ulp_below(self, order):
        # every row's exact distance sits one ulp below its d2, where the
        # mat-vec estimate is off by far more than an ulp: all must be lowered
        pts = np.asarray(_offset(), order=order).T
        x = pts[0] + 0.25
        exact = ((pts - x) ** 2).sum(axis=1)
        d2 = np.nextafter(exact, np.inf)
        _lower_min_sq_dists(pts, (pts**2).sum(axis=1), x, d2)
        assert d2.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_rows", [1, 2, 17])
    def test_row_subset_matches_full_rows(self, order, n_rows):
        pts = np.asarray(_offset(), order=order).T
        x = pts[7] + 0.5
        rows = np.arange(n_rows) * 13
        full = ((pts - x) ** 2).sum(axis=1)
        assert _row_sq_dists(pts, x, rows).tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("name,c", [("offset_1e4", 5), ("unit_patches", 64), ("duplicates", 8)])
    def test_one_distance_matrix_per_step(self, name, c, monkeypatch):
        # iterations + 1 distance matrices, plus one per step that relocates
        dists, relocations = [], []
        real_dists, real_relocate = dictionary._sq_dists, dictionary._relocate_empty
        monkeypatch.setattr(
            dictionary, "_sq_dists", lambda *a: dists.append(1) or real_dists(*a)
        )
        monkeypatch.setattr(
            dictionary, "_relocate_empty", lambda *a: relocations.append(1) or real_relocate(*a)
        )
        make, _ = BIT_IDENTITY_CASES[name]
        res = kmeans(DataMatrix(make()), c, max_iters=20, seed=0)
        assert len(dists) == res.iterations + 1 + len(relocations)
        assert (len(relocations) > 0) == (name == "duplicates")


class TestKCentersBitIdentity:
    @staticmethod
    def _plain_kcenters(F, c, first):
        selected = [first]
        d2 = ((F - F[first]) ** 2).sum(axis=1)
        for _ in range(1, c):
            nxt = int(np.argmax(d2))
            selected.append(nxt)
            d2 = np.minimum(d2, ((F - F[nxt]) ** 2).sum(axis=1))
        return selected, float(np.sqrt(d2.max()))

    @pytest.mark.parametrize("name", ["offset_1e4", "integer_grid", "duplicates"])
    def test_matches_plain_traversal(self, name):
        F = BIT_IDENTITY_CASES[name][0]().T
        for c, first in [(2, 0), (10, 3), (F.shape[0], 1)]:
            selected, radius = self._plain_kcenters(F, c, first)
            assert kcenters(F, c, seed=0, first=first) == selected
            assert covering_radius(F, selected) == radius
