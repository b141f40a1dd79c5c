import re

import numpy as np
import pytest

from nyscode import pooling
from nyscode.coding import CodeMatrix, encode
from nyscode.data import DataMatrix, PatchGrid
from nyscode.dictionary import kmeans
from nyscode.pooling import check_regions, pdl, pool


def _codes(values):
    return CodeMatrix(np.asarray(values, dtype=float))


def _pool_oracle(values, images, gr, gc, pr, pc, op):
    # nested-loop reference with explicit region membership
    c = values.shape[1]
    base_r, base_c = gr // pr, gc // pc
    out = np.zeros((images, pr * pc * c))
    for img in range(images):
        for ri in range(pr):
            for rj in range(pc):
                rows = range(ri * base_r, (ri + 1) * base_r if ri < pr - 1 else gr)
                cols = range(rj * base_c, (rj + 1) * base_c if rj < pc - 1 else gc)
                members = [img * gr * gc + r * gc + cc for r in rows for cc in cols]
                block = values[members, :]
                agg = block.mean(axis=0) if op == "average" else block.max(axis=0)
                reg = ri * pc + rj
                out[img, reg * c : (reg + 1) * c] = agg
    return out


class TestPool:
    def test_constant_field_average(self):
        values = np.full((4, 3), 2.5)
        out = pool(_codes(values), grid=(2, 2), regions=(1, 1), op="average")
        assert np.allclose(out.values, 2.5)
        assert out.values.shape == (1, 3)

    def test_one_patch_per_region_is_identity(self):
        values = np.random.default_rng(0).random((4, 3))
        out = pool(_codes(values), grid=(2, 2), regions=(2, 2), op="average")
        assert np.allclose(out.values, values.reshape(1, -1))

    @pytest.mark.parametrize("op", ["average", "max"])
    def test_matches_nested_loop_oracle(self, op):
        rng = np.random.default_rng(1)
        values = rng.random((2 * 16, 5))  # 2 images on a 4x4 patch grid
        out = pool(CodeMatrix(values), grid=(4, 4), regions=(2, 2), op=op)
        expected = _pool_oracle(values, 2, 4, 4, 2, 2, op)
        assert isinstance(out, CodeMatrix)
        assert np.array_equal(out.values, expected)

    @pytest.mark.parametrize("op", ["average", "max"])
    def test_uneven_split_remainder_goes_to_last_region(self, op):
        rng = np.random.default_rng(2)
        values = rng.random((5 * 3, 2))  # one image, 5x3 patch grid
        out = pool(_codes(values), grid=(5, 3), regions=(2, 2), op=op)
        expected = _pool_oracle(values, 1, 5, 3, 2, 2, op)
        assert np.array_equal(out.values, expected)

    def test_max_dominates_average(self):
        values = np.random.default_rng(3).random((16, 4))
        avg = pool(_codes(values), grid=(4, 4), regions=(2, 2), op="average")
        mx = pool(_codes(values), grid=(4, 4), regions=(2, 2), op="max")
        assert np.all(mx.values >= avg.values - 1e-15)

    def test_max_output_non_negative(self):
        values = np.random.default_rng(4).random((8, 3))
        out = pool(_codes(values), grid=(2, 4), regions=(2, 2), op="max")
        assert out.values.min() >= 0.0

    def test_region_grid_too_large(self):
        with pytest.raises(ValueError):
            pool(_codes(np.ones((4, 2))), grid=(2, 2), regions=(3, 1), op="average")

    def test_rows_not_multiple_of_grid(self):
        with pytest.raises(ValueError):
            pool(_codes(np.ones((5, 2))), grid=(2, 2), regions=(1, 1), op="average")

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            pool(_codes(np.ones((4, 2))), grid=(2, 2), regions=(1, 1), op="median")

    @pytest.mark.parametrize("grid", [(0, 2), (2, 0)])
    def test_non_positive_patch_grid(self, grid):
        with pytest.raises(ValueError, match=re.escape(f"patch grid must be positive, got {grid}")):
            check_regions(grid, (1, 1))


def _texture_patch_grid(seed, images=24, gr=2, gc=2, dim=8):
    # patches drawn from a few prototype directions, one image = gr*gc patches
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((6, dim))
    cols = []
    for _ in range(images * gr * gc):
        p = protos[rng.integers(6)] + 0.05 * rng.standard_normal(dim)
        cols.append(p / np.linalg.norm(p))
    patches = DataMatrix(np.array(cols).T)
    return PatchGrid(patches, gr, gc)


class TestPdl:
    def test_overshoot_one_keeps_all_kmeans_atoms(self):
        grid = _texture_patch_grid(0)
        D = pdl(grid, final_c=4, overshoot=1, alpha=0.25, seed=7)
        km = kmeans(grid.patches, 4, 50, seed=7)
        assert D.c == 4
        # same atom set as the direct kmeans dictionary, up to selection order
        got = {tuple(np.round(a, 12)) for a in D.atoms.T}
        expected = {tuple(np.round(a, 12)) for a in km.dictionary.atoms.T}
        assert got == expected

    def test_atom_count_and_distinct_indices(self):
        grid = _texture_patch_grid(1)
        D = pdl(grid, final_c=3, overshoot=2, alpha=0.25, seed=0)
        big = kmeans(grid.patches, 6, 50, seed=0).dictionary.atoms
        # each atom is a column of the overshoot dictionary, and no column is kept twice
        indices = [int(np.flatnonzero((big == a[:, None]).all(axis=0))[0]) for a in D.atoms.T]
        assert D.c == 3
        assert len(set(indices)) == 3

    def test_duplicate_atoms_never_selected_together(self):
        # exhaustive over first picks on a 3-profile instance with one duplicate pair
        from nyscode.dictionary import kcenters

        profiles = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        for first in range(3):
            sel = kcenters(profiles, 2, seed=0, first=first)
            assert set(sel) != {0, 1}

    def test_deterministic(self):
        grid = _texture_patch_grid(2)
        a = pdl(grid, final_c=4, overshoot=2, alpha=0.25, seed=3)
        b = pdl(grid, final_c=4, overshoot=2, alpha=0.25, seed=3)
        assert np.array_equal(a.atoms, b.atoms)

    def test_insufficient_patches(self):
        grid = _texture_patch_grid(3, images=2)  # 8 patches
        with pytest.raises(ValueError):
            pdl(grid, final_c=5, overshoot=2, alpha=0.25, seed=0)

    def test_invalid_overshoot(self):
        grid = _texture_patch_grid(4)
        with pytest.raises(ValueError):
            pdl(grid, final_c=4, overshoot=0, alpha=0.25, seed=0)

    def test_invalid_final_c(self):
        grid = _texture_patch_grid(4)
        with pytest.raises(ValueError, match="final_c must be >= 1, got 0"):
            pdl(grid, final_c=0, overshoot=2, alpha=0.25, seed=0)

    def test_atom_profiles_hold_each_atoms_pooled_responses(self, monkeypatch):
        # K-centers sees one row per atom: its pooled response at (image, region)
        grid = _texture_patch_grid(5, images=6, gr=4, gc=4)
        seen = []
        real = pooling.kcenters

        def spy(F, *args):
            seen.append(F)
            return real(F, *args)

        monkeypatch.setattr(pooling, "kcenters", spy)
        pdl(grid, final_c=2, overshoot=3, alpha=0.25, regions=(2, 2), kmeans_iters=5, seed=1)
        km = kmeans(grid.patches, 6, 5, seed=1)
        pooled = pool(encode(grid.patches, km.dictionary, 0.25), (4, 4), (2, 2)).values
        expected = np.empty((6, 6 * 4))
        for atom in range(6):
            for img in range(6):
                for reg in range(4):
                    expected[atom, img * 4 + reg] = pooled[img, reg * 6 + atom]
        assert np.array_equal(seen[0], expected)
