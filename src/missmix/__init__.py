"""Multinomial mixture rating models with explicit missing-data mechanisms."""

from .analysis import skl, skl_report, smoothed_distribution
from .cptv import (CptvParams, YAHOO_MU, build_mu_prior, e_step_nmar,
                   estimate_mu_heldout, fit_nmar, log_posterior_nmar,
                   m_step_nmar)
from .data import (RatingDataset, SplitPair, load_csv, min_ratings_filter,
                   save_csv)
from .errors import (ConfigurationError, DataValidationError, EstimationError,
                     EvaluationError, GenerationError, MissmixError,
                     ParseError)
from .mixture import (FitConfig, FitResult, MixtureParams, e_step_mar, fit_mar,
                      init_params, log_posterior_mar, m_step_mar)
from .modelio import LoadedModel, load_model, save_model
from .predict import mae, posterior_z, predict_median, predictive_distribution
from .protocol import ModelSpec, run_protocol, write_report
from .synthetic import (GroundTruth, apply_cptv_missingness,
                        build_study_dataset, sample_ground_truth,
                        sample_mcar_test)

__version__ = "0.1.0"

__all__ = [
    "CptvParams", "ConfigurationError", "DataValidationError",
    "EstimationError", "EvaluationError", "FitConfig", "FitResult",
    "GenerationError", "GroundTruth", "LoadedModel", "MissmixError",
    "MixtureParams", "ModelSpec", "ParseError", "RatingDataset", "SplitPair",
    "YAHOO_MU", "apply_cptv_missingness", "build_mu_prior",
    "build_study_dataset", "e_step_mar", "e_step_nmar", "estimate_mu_heldout",
    "fit_mar", "fit_nmar", "init_params", "load_csv", "load_model",
    "log_posterior_mar", "log_posterior_nmar", "m_step_mar", "m_step_nmar",
    "mae", "min_ratings_filter", "posterior_z", "predict_median",
    "predictive_distribution", "run_protocol", "sample_ground_truth",
    "sample_mcar_test", "save_csv", "save_model", "skl", "skl_report",
    "smoothed_distribution", "write_report",
]
