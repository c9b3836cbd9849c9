"""Likelihood-free Bayesian inference with an exponential-kernel pseudo-posterior.

Core pieces: simulator models with priors (``models``), summary statistics
and distances (``statistics``), the adaptive tempered SMC sampler with
pseudo-marginal rejuvenation and replicate-count adaptation (``smc``,
``mcmc``, ``madapt``), computable PAC-Bayes bounds with adaptive bandwidth
selection (``bounds``), an estimator facade (``estimator``), and a CLI
(``cli``).
"""

from .bounds import (
    BoundConstants,
    BoundReport,
    adaptive_objective,
    adaptive_select_lambda,
    corollary1_terms,
    effective_statistic_count,
    empirical_bound,
    exponential_family_kl,
    mcdiarmid_f,
    nonparametric_rate,
    small_ball_log_prior_mass,
)
from .estimator import ABCPosteriorEstimator
from .exceptions import (
    ABCSMCError,
    DegenerateSystemError,
    InvalidConfigError,
    InvalidInputError,
    InvalidParameterError,
    LadderStallError,
    OutOfRangeError,
)
from .madapt import adapt_m
from .mcmc import calibrate
from .models import (
    DiscreteToyModel,
    GaussianLocationModel,
    GenerativeModel,
    MixtureModel,
    TruthGenerator,
    enumerated_posterior,
    three_component_truth,
)
from .smc import (
    LadderTrace,
    ParticleSystem,
    SMCConfig,
    ess,
    find_next_lambda,
    load_trace_csv,
    posterior_at_lambda,
    run_smc,
    systematic_resample,
)
from .statistics import (
    DistanceSpec,
    SummarySpec,
    distance,
    distance_batch,
    summarize,
    summarize_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ABCPosteriorEstimator",
    "ABCSMCError",
    "BoundConstants",
    "BoundReport",
    "DegenerateSystemError",
    "DiscreteToyModel",
    "DistanceSpec",
    "GaussianLocationModel",
    "GenerativeModel",
    "InvalidConfigError",
    "InvalidInputError",
    "InvalidParameterError",
    "LadderStallError",
    "LadderTrace",
    "MixtureModel",
    "OutOfRangeError",
    "ParticleSystem",
    "SMCConfig",
    "SummarySpec",
    "TruthGenerator",
    "adapt_m",
    "adaptive_objective",
    "adaptive_select_lambda",
    "calibrate",
    "corollary1_terms",
    "distance",
    "distance_batch",
    "effective_statistic_count",
    "empirical_bound",
    "enumerated_posterior",
    "ess",
    "exponential_family_kl",
    "find_next_lambda",
    "load_trace_csv",
    "mcdiarmid_f",
    "nonparametric_rate",
    "posterior_at_lambda",
    "run_smc",
    "small_ball_log_prior_mass",
    "summarize",
    "summarize_batch",
    "systematic_resample",
    "three_component_truth",
]
