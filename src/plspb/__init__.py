"""Principal balances for compositional regression and classification.

The package builds orthonormal, interpretable balance coordinates for a
strictly positive part table: a supervised variant that greedily maximizes
covariance with a response and an unsupervised variant driven by variance.
It also ships the latent engines behind them (SIMPLS and PCA on clr data),
cross-validated model-size selection and a block-covariance simulator for
marker recovery benchmarks. See the ``plspb`` command line tool for the
file-based workflow.
"""

from .coda import (
    BalanceBasis,
    ClrMatrix,
    CompositionMatrix,
    balance_values,
    center_columns,
    closure,
    clr,
    inverse_pivot,
    pivot_basis,
    pivot_coordinates,
    signs_to_coefficients,
)
from .latent import (
    LatentModel,
    classify,
    pca_fit,
    pls_fit,
    pls_predict,
    pls_regression,
    predict_components,
)
from .modelsel import (
    CvResult,
    cross_validate,
    fit_on_balances,
    fold_indices,
    misclassification_error,
    one_se_select,
    rmsep,
)
from .pb import PartitionNode, best_balance, candidate_signs, pca_pb, pls_pb
from .simgen import (
    SimScenario,
    SimulatedDataset,
    build_sigma,
    marker_recovery,
    mvn_sample,
    simulate_dataset,
)

__version__ = "0.3.0"

__all__ = [
    "BalanceBasis",
    "ClrMatrix",
    "CompositionMatrix",
    "CvResult",
    "LatentModel",
    "PartitionNode",
    "SimScenario",
    "SimulatedDataset",
    "balance_values",
    "best_balance",
    "build_sigma",
    "candidate_signs",
    "center_columns",
    "classify",
    "closure",
    "clr",
    "cross_validate",
    "fit_on_balances",
    "fold_indices",
    "inverse_pivot",
    "marker_recovery",
    "misclassification_error",
    "mvn_sample",
    "one_se_select",
    "pca_fit",
    "pca_pb",
    "pivot_basis",
    "pivot_coordinates",
    "pls_fit",
    "pls_pb",
    "pls_predict",
    "pls_regression",
    "predict_components",
    "rmsep",
    "signs_to_coefficients",
    "simulate_dataset",
]
