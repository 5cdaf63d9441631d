"""Differentially private bivariate causal inference with additive noise models."""

from .data_io import SamplePairs, SplitData, load_pairs_file, normalize, split, synth_anm
from .inference import (
    Decision,
    InferenceReport,
    PrivateInferenceReport,
    anm_infer_detailed,
    private_test_infer,
    private_train_infer,
    utility_four_score,
    utility_two_score,
)
from .privacy import (
    PrivacyParams,
    ReleaseOutcome,
    derive_rng,
    laplace_mechanism,
    private_log_iqr,
    test_sensitivity,
    train_sensitivity_hsic,
)
from .regression import fit_krr, predict, residual_perturbation_bound, residuals
from .scores import (
    DegenerateDataError,
    KernelSpec,
    ScoreKind,
    UnsupportedScoreError,
    hsic,
    kendall_tau,
    spearman_rho,
)

__version__ = "0.1.0"
