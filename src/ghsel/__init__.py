"""Bayesian variable and hazard-structure selection for right-censored
time-to-event data.

The model space crosses per-variable roles (time-level, hazard-level, both,
or tied) with four symmetric baseline kernels.  The package provides exact
likelihood derivatives, two marginal-likelihood approximations, a
trans-structural Metropolis-Hastings sampler, posterior summaries, a data
simulator, and a command-line interface.
"""

from .baseline import Kernel
from .ghlik import Dataset
from .marglik import MarglikMethod, ModelScorer, ScorerConfig
from .modelspace import (Gamma, HazardClass, classify, enumerate_models,
                         log_model_prior)
from .priors import CoefficientPrior
from .sampler import ChainConfig, ChainTrace, run_chain
from .simulate import (LogLocationScaleBaseline, PGWBaseline, SimConfig,
                       protocol_truth, simulate_dataset)
from .summarize import (hazard_posterior, hpm_credible_set, pip,
                        probs_frequency, probs_renormalized, score_selection,
                        top_model)

__all__ = [
    "Kernel", "Dataset", "MarglikMethod", "ModelScorer", "ScorerConfig",
    "Gamma", "HazardClass", "classify", "enumerate_models", "log_model_prior",
    "CoefficientPrior",
    "ChainConfig", "ChainTrace", "run_chain", "LogLocationScaleBaseline",
    "PGWBaseline", "SimConfig", "protocol_truth", "simulate_dataset",
    "hazard_posterior", "hpm_credible_set", "pip", "probs_frequency",
    "probs_renormalized", "score_selection", "top_model",
]

__version__ = "0.1.0"
