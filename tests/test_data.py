import re
import warnings

import numpy as np
import pytest

from nyscode.data import (
    DataMatrix,
    FormatError,
    LabeledDataset,
    PatchGrid,
    csv_text,
    extract_patches_stack,
    load_csv,
    normalize_columns,
    save_csv,
    synth_labeled_manifold,
    synth_manifold,
    synth_texture_images,
)


class TestDataMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            DataMatrix(np.ones(3))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no-rows", "no-columns"])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"at least 1x1, got {shape}")):
            DataMatrix(np.ones(shape))

    def test_shape_properties(self):
        m = DataMatrix(np.ones((3, 5)))
        assert (m.d, m.N) == (3, 5)


@pytest.mark.parametrize(
    "labels, n_classes, message",
    [
        (np.zeros(2, dtype=int), 2, "labels must have shape (3,), got (2,)"),
        (np.zeros(3, dtype=int), 0, "n_classes must be >= 1"),
        (np.array([0, 2, 1]), 2, "labels must lie in [0, n_classes)"),
        (np.array([0, -1, 1]), 2, "labels must lie in [0, n_classes)"),
    ],
    ids=["wrong-shape", "no-classes", "label-too-large", "label-negative"],
)
def test_labeled_dataset_rejects_bad_labels(labels, n_classes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LabeledDataset(DataMatrix(np.ones((2, 3))), labels, n_classes)


def test_patch_grid_rejects_wrong_patch_count():
    with pytest.raises(ValueError, match=re.escape("5 patches do not fill whole 1x2 grids")):
        PatchGrid(DataMatrix(np.ones((4, 5))), grid_rows=1, grid_cols=2)


@pytest.mark.parametrize("rows,cols", [(0, 2), (2, 0)])
def test_patch_grid_rejects_zero_side(rows, cols):
    # checked before the patch count is divided by the grid size
    with pytest.raises(ValueError, match=re.escape(f"4 patches do not fill whole {rows}x{cols}")):
        PatchGrid(DataMatrix(np.ones((4, 4))), grid_rows=rows, grid_cols=cols)


class TestSynthManifold:
    @pytest.mark.parametrize("d,k,N", [(5, 2, 50), (8, 3, 20), (10, 1, 10), (6, 6, 40)])
    def test_noiseless_rank_exactly_k(self, d, k, N):
        X = synth_manifold(d, k, N, 0.0, seed=7)
        s = np.linalg.svd(X.values, compute_uv=False)
        if k < min(d, N):
            assert s[k] < 1e-10 * s[0]
        assert s[k - 1] > 1e-10 * s[0]

    def test_full_rank_square(self):
        X = synth_manifold(5, 5, 5, 0.0, seed=1)
        s = np.linalg.svd(X.values, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]

    def test_small_noise_keeps_spectrum_concentrated(self):
        # frozen from the generating run: s4/s1 = 0.0101 for this instance
        X = synth_manifold(8, 3, 100, 0.01, seed=3)
        s = np.linalg.svd(X.values, compute_uv=False)
        assert s[3] / s[0] < 0.05

    def test_deterministic(self):
        a = synth_manifold(6, 2, 30, 0.1, seed=9)
        b = synth_manifold(6, 2, 30, 0.1, seed=9)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("d,k,N", [(3, 4, 10), (5, 0, 10), (5, 3, 2)])
    def test_invalid_dims(self, d, k, N):
        with pytest.raises(ValueError):
            synth_manifold(d, k, N, 0.0, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"need 1 <= k <= min(d, N), got d={d}")):
            synth_labeled_manifold(d, k, N, 2, 0.0, seed=0)


class TestSynthLabeledManifold:
    def test_shapes_and_labels(self):
        ds = synth_labeled_manifold(16, 3, 60, 4, 0.1, seed=0)
        assert ds.data.values.shape == (16, 60)
        assert ds.n_classes == 4
        assert set(np.unique(ds.labels)) == {0, 1, 2, 3}

    def test_deterministic(self):
        a = synth_labeled_manifold(8, 2, 40, 2, 0.1, seed=3)
        b = synth_labeled_manifold(8, 2, 40, 2, 0.1, seed=3)
        assert np.array_equal(a.data.values, b.data.values)
        assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize(
    "generate",
    [
        lambda noise: synth_manifold(6, 2, 20, noise, seed=0),
        lambda noise: synth_labeled_manifold(6, 2, 20, 2, noise, seed=0),
        lambda noise: synth_texture_images(2, 2, 8, 4, 2, noise, seed=0),
    ],
    ids=["synth_manifold", "synth_labeled_manifold", "synth_texture_images"],
)
def test_negative_noise_rejected(generate):
    generate(0.0)
    with pytest.raises(ValueError, match=re.escape("noise must be >= 0, got -1.0")):
        generate(-1.0)


@pytest.mark.parametrize(
    "generate, scales",
    [
        (lambda: synth_manifold(6, 2, 20, 1e308, seed=0), "noise=1e+308"),
        (lambda: synth_labeled_manifold(6, 2, 20, 2, 0.1, seed=0, within=1e308),
         "noise=0.1, class_sep=2.0, within=1e+308"),
        (lambda: synth_texture_images(2, 2, 8, 4, 2, 1e308, seed=0), "noise=1e+308"),
    ],
    ids=["synth_manifold", "synth_labeled_manifold", "synth_texture_images"],
)
def test_overflowing_scale_named(generate, scales):
    # finite scales whose samples overflow used to warn in the multiply, then fail naming
    # only NaN or Inf in the matrix (or, for the images, later in patch extraction)
    message = f"the synthetic samples overflow the float range at {scales}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate()


class TestExtractPatches:
    def test_exact_tiling(self):
        img = np.arange(16.0).reshape(4, 4)
        g = extract_patches_stack(img[None], patch=2, stride=2)
        assert (g.grid_rows, g.grid_cols, g.patches.N) == (2, 2, 4)

    def test_whole_image_single_patch(self):
        img = np.arange(9.0).reshape(3, 3)
        g = extract_patches_stack(img[None], patch=3, stride=1)
        assert g.patches.N == 1
        assert np.array_equal(g.patches.values[:, 0], img.reshape(-1))

    def test_overlapping_patch_content(self):
        img = np.arange(25.0).reshape(5, 5)
        g = extract_patches_stack(img[None], patch=2, stride=1)
        assert g.patches.N == 16
        # patch at grid position (1, 2) must equal the sub-block at offset (1, 2)
        col = 1 * g.grid_cols + 2
        assert np.array_equal(g.patches.values[:, col], img[1:3, 2:4].reshape(-1))

    @pytest.mark.parametrize("h,w,patch,stride", [(7, 9, 3, 2), (6, 6, 2, 3), (5, 8, 4, 1)])
    def test_patch_count_formula(self, h, w, patch, stride):
        img = np.random.default_rng(0).standard_normal((h, w))
        g = extract_patches_stack(img[None], patch, stride)
        expected = ((h - patch) // stride + 1) * ((w - patch) // stride + 1)
        assert g.patches.N == expected

    def test_patch_too_large(self):
        with pytest.raises(ValueError):
            extract_patches_stack(np.ones((1, 3, 3)), patch=4, stride=1)

    def test_stride_below_1(self):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            extract_patches_stack(np.ones((1, 3, 3)), patch=2, stride=0)

    def test_stack_orders_images_consecutively(self):
        imgs = np.random.default_rng(1).standard_normal((3, 4, 4))
        g = extract_patches_stack(imgs, patch=2, stride=2)
        assert g.patches.N == 3 * g.grid_rows * g.grid_cols
        assert g.patches.N == 12
        single = extract_patches_stack(imgs[2:3], patch=2, stride=2)
        assert np.array_equal(g.patches.values[:, 8:12], single.patches.values)


def _patch_oracle(image, patch, stride):
    h, w = image.shape
    cols = [
        image[r : r + patch, c : c + patch].reshape(-1)
        for r in range(0, h - patch + 1, stride)
        for c in range(0, w - patch + 1, stride)
    ]
    return np.stack(cols, axis=1)


class TestPatchesMatchLoopOracle:
    # (shape, patch, stride); 11 - 3 = 8 and 9 - 4 = 5 are not multiples of 3
    CASES = [((11, 9), 3, 3), ((11, 9), 4, 3), ((8, 8), 4, 4), ((7, 5), 1, 2)]

    @pytest.mark.parametrize("shape,patch,stride", CASES)
    def test_single_image(self, shape, patch, stride):
        img = np.random.default_rng(0).standard_normal(shape)
        g = extract_patches_stack(img[None], patch, stride)
        expected = _patch_oracle(img, patch, stride)
        assert g.patches.values.tobytes() == expected.tobytes()
        assert g.patches.values.shape == expected.shape
        assert g.patches.values.flags.c_contiguous
        assert not np.shares_memory(g.patches.values, img)
        assert g.grid_rows * g.grid_cols == expected.shape[1]

    @pytest.mark.parametrize("shape,patch,stride", CASES)
    def test_stack(self, shape, patch, stride):
        imgs = np.random.default_rng(1).standard_normal((3, *shape))
        g = extract_patches_stack(imgs, patch, stride)
        expected = np.concatenate([_patch_oracle(im, patch, stride) for im in imgs], axis=1)
        assert g.patches.values.tobytes() == expected.tobytes()
        assert g.patches.values.shape == expected.shape
        assert g.patches.values.flags.c_contiguous
        assert g.patches.N == 3 * g.grid_rows * g.grid_cols

    # a 2-D image, a 4-D (channels) stack and a 5-D array
    @pytest.mark.parametrize("ndim", [1, 3, 4])
    def test_wrong_ndim(self, ndim):
        message = f"image stack must be 3-D, got ndim={ndim + 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_patches_stack(np.ones((4,) * (ndim + 1)), patch=2, stride=1)


class TestNormalizeColumns:
    def test_unit_l2(self):
        out = normalize_columns(DataMatrix(np.array([[3.0], [4.0]])), "unit_l2")
        assert np.allclose(out.values[:, 0], [0.6, 0.8])

    def test_mean_center(self):
        out = normalize_columns(DataMatrix(np.array([[5.0], [5.0]])), "mean_center")
        assert np.array_equal(out.values[:, 0], [0.0, 0.0])

    def test_both_gives_zero_mean_unit_norm(self):
        X = DataMatrix(np.random.default_rng(4).standard_normal((4, 10)))
        out = normalize_columns(X, "both")
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(out.values, axis=0), 1.0)

    def test_zero_column_passes_through_and_is_counted(self):
        X = DataMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        out = normalize_columns(X, "unit_l2")
        assert np.array_equal(out.values[:, 1], [0.0, 0.0])

    def test_constant_column_counted_after_centering(self):
        X = DataMatrix(np.array([[2.0], [2.0]]))
        # centering zeroes the column, and the zero column then passes through
        assert np.array_equal(normalize_columns(X, "both").values, [[0.0], [0.0]])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize_columns(DataMatrix(np.ones((2, 2))), "sphere")

    @pytest.mark.parametrize("mode", ["unit_l2", "both"])
    def test_extreme_magnitudes_scaled_to_unit_norm(self, mode):
        # sums of squares that overflow (1e200 and up) or fall below the smallest
        # normal float (1e-160 and down) still give unit columns, with no warning
        scales = 10.0 ** np.arange(-300, 301, 20)
        X = DataMatrix(np.array([[1.0], [2.0], [-4.0]]) * scales)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_columns(X, mode).values
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("column", [[1e308, 1.5e308], [-1.7e308, 1e308, 1.7e308]],
                             ids=["mean-overflows", "centered-value-overflows"])
    @pytest.mark.parametrize("mode", ["mean_center", "both"])
    def test_centering_that_overflows(self, column, mode):
        # beside an ordinary column 0, column 1 is divided by its largest magnitude
        # before centering (both) or named (mean_center), with no warning
        col = np.array(column)
        X = DataMatrix(np.column_stack([np.arange(1.0, len(col) + 1), col]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if mode == "mean_center":
                with pytest.raises(ValueError, match="column 1 overflows the float range when "
                                   "mean-centered"):
                    normalize_columns(X, mode)
                return
            out = normalize_columns(X, mode).values
        centered = col / np.abs(col).max()
        centered -= centered.mean()
        assert np.abs(out[:, 1] - centered / np.linalg.norm(centered)).max() <= 1e-15
        alone = normalize_columns(DataMatrix(X.values[:, :1]), mode).values
        assert np.array_equal(out[:, :1], alone)

    def test_ordinary_columns_keep_their_bits(self):
        X = DataMatrix(np.random.default_rng(7).standard_normal((5, 40)) * 3.0)
        expected = X.values / np.linalg.norm(X.values, axis=0)
        assert np.array_equal(normalize_columns(X, "unit_l2").values, expected)


class TestLoadCsv:
    def test_with_labels(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,0\n3,4,1\n")
        ds = load_csv(p, has_labels=True)
        assert (ds.data.d, ds.data.N) == (2, 2)
        assert np.array_equal(ds.labels, [0, 1])
        assert np.array_equal(ds.data.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_without_labels(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1,2\n3,4\n")
        ds = load_csv(p, has_labels=False)
        assert (ds.data.d, ds.data.N) == (2, 2)
        assert ds.n_classes == 1

    def test_label_remap_preserves_numeric_order(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,3\n2,7\n3,3\n")
        ds = load_csv(p, has_labels=True)
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert ds.n_classes == 2

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n3,4\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(p, has_labels=True)

    @pytest.mark.parametrize("text,message", [
        ("f1,f2\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
        ("f1,f2\n1,2\nx,4\n", "line 3: non-numeric field 'x'"),
    ])
    def test_header_counts_in_line_numbers(self, tmp_path, text, message):
        p = tmp_path / "h2.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
            load_csv(p, has_labels=False, header=True)

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2\nx,4\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(p, has_labels=False)

    def test_non_numeric_names_first_bad_field(self, tmp_path):
        p = tmp_path / "e2.csv"
        p.write_text("1,2,3\n1,x,y\n")
        with pytest.raises(FormatError, match="line 2: non-numeric field 'x'$"):
            load_csv(p, has_labels=False)

    def test_labeled_row_without_a_feature(self, tmp_path):
        p = tmp_path / "one_field.csv"
        p.write_text("0\n1\n")
        with pytest.raises(FormatError, match="line 1: need at least one feature and a label"):
            load_csv(p, has_labels=True)

    def test_non_utf8_names_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"1,2\n3,\xe94\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}: not UTF-8 text: ")):
            load_csv(p, has_labels=False)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,zero\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(p, has_labels=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_csv(p, has_labels=False)

    @pytest.mark.parametrize("text", ["", "f1,f2\n"])
    def test_empty_file_with_header(self, tmp_path, text):
        p = tmp_path / "g2.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match="empty file"):
            load_csv(p, has_labels=False, header=True)

    def test_non_finite_value_names_line(self, tmp_path):
        p = tmp_path / "nf.csv"
        p.write_text("1,2\nnan,4\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(p, has_labels=False)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("f1,f2\n1,2\n")
        ds = load_csv(p, has_labels=False, header=True)
        assert ds.data.N == 1

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((3, 7)) * np.pi
        ds = LabeledDataset(DataMatrix(values), rng.integers(0, 3, 7), 3)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p, has_labels=True)
        assert np.array_equal(back.data.values, values)
        assert np.array_equal(back.labels, ds.labels)


class TestCsvText:
    def test_field_rules(self):
        rows = [
            [None, True, np.bool_(False), np.int64(7), 0.1],
            [3, np.float64(np.pi), -0.0, 1e-300, None],
        ]
        assert csv_text(rows) == (
            ",1,0,7,0.10000000000000001\n3,3.1415926535897931,-0,1e-300,\n"
        )

    def test_float_array_label_column_reads_as_integers(self):
        # labels held as floats print like ints: .17g drops a zero fraction
        values = np.column_stack([[0.5, -2.25], np.array([1.0, 0.0])])
        assert csv_text(values) == "0.5,1\n-2.25,0\n"

    def test_no_rows(self):
        assert csv_text([]) == ""
