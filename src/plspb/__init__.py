"""Principal balances for compositional regression and classification.

The package builds orthonormal, interpretable balance coordinates for a
strictly positive part table: a supervised variant that greedily maximizes
covariance with a response and an unsupervised variant driven by variance.
Around them it ships plain PLS regression on clr data (SIMPLS) as the
comparison method, cross-validated model-size selection and a
block-covariance simulator for marker recovery benchmarks. See the
``plspb`` command line tool for the file-based workflow.
"""

from .coda import (
    BalanceBasis,
    CompositionMatrix,
    LogContrastModel,
    closure,
    clr,
    inverse_pivot,
    pivot_basis,
    pivot_coordinates,
    signs_to_coefficients,
)
from .latent import LatentModel, pls_regression
from .modelsel import (
    CvResult,
    cross_validate,
    fit_on_balances,
    fold_indices,
    misclassification_error,
    one_se_select,
    rmsep,
)
from .pb import PartitionNode, candidate_signs, pca_pb, pls_pb
from .simgen import (
    SimScenario,
    SimulatedDataset,
    build_sigma,
    marker_recovery,
    mvn_sample,
    simulate_dataset,
)

__version__ = "0.8.0"

__all__ = [
    "BalanceBasis",
    "CompositionMatrix",
    "CvResult",
    "LatentModel",
    "LogContrastModel",
    "PartitionNode",
    "SimScenario",
    "SimulatedDataset",
    "build_sigma",
    "candidate_signs",
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
    "pca_pb",
    "pivot_basis",
    "pivot_coordinates",
    "pls_pb",
    "pls_regression",
    "rmsep",
    "signs_to_coefficients",
    "simulate_dataset",
]
