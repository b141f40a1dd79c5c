"""Subsampled-dictionary feature coding and its low-rank reconstruction view.

Encodes data with rectified similarities to a codebook, scores the Nystrom
reconstruction of the ideal code and kernel matrices from sampled columns,
evaluates Frobenius error bounds, fits two-point saturation models to predict
accuracy at larger sizes, and prunes overshoot dictionaries by pooled responses.
"""

from .bounds import (
    ACCURACY_FORM,
    ERROR_FORM,
    SaturationModel,
    epsilon_min,
    eval_eq1_bound,
    fit_two_point,
)
from .classifier import LinearModel, accuracy, train_ridge
from .coding import CodeMatrix, Dictionary, encode, full_code
from .data import (
    DataMatrix,
    FormatError,
    LabeledDataset,
    PatchGrid,
    extract_patches_stack,
    load_csv,
    normalize_columns,
    save_csv,
    synth_labeled_manifold,
    synth_manifold,
    synth_texture_images,
)
from .dictionary import KMeansResult, kcenters, kmeans, sample_indices
from .harness import (
    CurveConfig,
    CurvePoint,
    ExperimentReport,
    NystromEvalConfig,
    PdlConfig,
    emit,
    run_curve,
    run_nystrom_eval,
    run_pdl_compare,
)
from .nystrom import (
    ApproximationErrors,
    CodeKernel,
    NystromFactors,
    approximation_errors,
    code_kernel,
    decompose,
)
from .pooling import pdl, pool
from .spectra import SpectralReport, rank_k_residual, spectral_report

__version__ = "0.1.0"
