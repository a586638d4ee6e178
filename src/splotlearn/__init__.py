"""Event weighting for mixed samples and classifier training without negative weights.

The package computes per-event species weights from known one-dimensional
densities of a discriminative variable, and trains small neural networks on
the weighted (background-subtracted) data using objectives that stay bounded
from below.
"""

__version__ = "0.1.0"

from .density import (
    Density1D,
    MixtureDensity,
    MixtureModel,
    TruncatedExponential,
    TruncatedGaussian,
    Uniform,
    canonical_background_density,
    canonical_mixture,
    canonical_signal_density,
)
from .splot import SWeightTable, compute_sweights, compute_vinv, fit_yields
from .losses import LossEval, constrained_mse, exact_likelihood, plain_ce, weighted_ce
from .model import METHODS, AdamConfig, Mlp, MlpConfig, TrainReport, train
from .data import CsvSchema, CwolaLabeling, Dataset, attach_sweights, cwola_label, generate_synthetic, ingest_csv, split
from .evaluation import RocResult, learning_curve, roc_auc, size_sweep

__all__ = [
    "AdamConfig",
    "CsvSchema",
    "CwolaLabeling",
    "Dataset",
    "Density1D",
    "LossEval",
    "METHODS",
    "MixtureDensity",
    "MixtureModel",
    "Mlp",
    "MlpConfig",
    "RocResult",
    "SWeightTable",
    "TrainReport",
    "TruncatedExponential",
    "TruncatedGaussian",
    "Uniform",
    "attach_sweights",
    "canonical_background_density",
    "canonical_mixture",
    "canonical_signal_density",
    "compute_sweights",
    "compute_vinv",
    "constrained_mse",
    "cwola_label",
    "exact_likelihood",
    "fit_yields",
    "generate_synthetic",
    "ingest_csv",
    "learning_curve",
    "plain_ce",
    "roc_auc",
    "size_sweep",
    "split",
    "train",
    "weighted_ce",
]
