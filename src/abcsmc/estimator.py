"""Estimator-style facade over the SMC driver.

Mirrors the familiar fit/predict/get_params surface: construct with
hyperparameters, ``fit`` on an observed dataset, then read the fitted
attributes (trailing underscore) or draw posterior samples.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bounds import BoundConstants, adaptive_select_lambda
from .exceptions import InvalidConfigError, InvalidInputError
from .smc import SMCConfig, posterior_at_lambda, run_smc, weighted_moments
from .statistics import DistanceSpec, SummarySpec

_SMC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SMCConfig)}
_PARAMS = ("model", "summary", "distance", "select_lambda", "bound_constants", *_SMC_DEFAULTS)


class ABCPosteriorEstimator:
    """Likelihood-free posterior approximation via adaptive tempered SMC.

    Parameters are the simulator model, the summary/distance specs, the
    bandwidth selection switch and its constants, and, as keyword arguments,
    every ``SMCConfig`` field with its ``SMCConfig`` default.  ``fit(y)`` runs
    the sampler on the observed dataset y; the fitted particle system, ladder
    trace, posterior moments, and log-Z estimate are exposed as
    trailing-underscore attributes.
    """

    def __init__(
        self,
        model=None,
        summary: SummarySpec | None = None,
        distance: DistanceSpec | None = None,
        *,
        select_lambda: bool = False,
        bound_constants: BoundConstants | None = None,
        **smc_settings,
    ):
        self.model = model
        self.summary = summary
        self.distance = distance
        self.select_lambda = select_lambda
        self.bound_constants = bound_constants
        for name, default in _SMC_DEFAULTS.items():
            setattr(self, name, smc_settings.pop(name, default))
        if smc_settings:
            raise InvalidConfigError(f"unknown parameter {sorted(smc_settings)[0]!r}")

    # -- parameter plumbing (estimator convention) --------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAMS}

    def set_params(self, **params):
        for key, value in params.items():
            if key not in _PARAMS:
                raise InvalidConfigError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    # -- fitting -------------------------------------------------------------

    def fit(self, y):
        if self.model is None or self.summary is None or self.distance is None:
            raise InvalidConfigError("model, summary, and distance must be set before fit")
        if self.select_lambda:  # checked before the run, which these settings would waste
            if self.kernel != "exponential":
                raise InvalidConfigError("select_lambda requires the exponential kernel's lambda ladder")
            if self.bound_constants is None:
                raise InvalidConfigError("select_lambda requires bound_constants")
        settings = {name: getattr(self, name) for name in _SMC_DEFAULTS}
        settings["store_snapshots"] = self.store_snapshots or self.select_lambda
        system, trace = run_smc(SMCConfig(**settings), self.model, self.summary, self.distance, y)
        self.system_ = system
        self.trace_ = trace
        self.log_z_ = system.log_z
        self.lambda_ = system.lam
        if self.select_lambda:
            self.lambda_, self.bound_report_ = adaptive_select_lambda(
                trace, self.bound_constants, distance_kind=self.distance.kind
            )
            self.theta_, self.weights_ = posterior_at_lambda(trace, self.lambda_)
        else:
            self.theta_, self.weights_ = system.theta, system.weights()
        self.posterior_mean_, self.posterior_sd_ = weighted_moments(self.theta_, self.weights_)
        return self

    def _check_fitted(self):
        if not hasattr(self, "theta_"):
            raise InvalidInputError("estimator is not fitted; call fit(y) first")

    def predict(self, y=None) -> np.ndarray:
        """Posterior-mean parameter estimate (fits y first when provided)."""
        if y is not None:
            self.fit(y)
        self._check_fitted()
        return self.posterior_mean_

    def sample_posterior(self, size: int, rng=None) -> np.ndarray:
        """Draws from the fitted particle approximation (multinomial on particles)."""
        self._check_fitted()
        rng = np.random.default_rng(rng)
        idx = rng.choice(self.theta_.shape[0], size=size, p=self.weights_)
        return self.theta_[idx]

    def posterior_at(self, lam: float):
        """(theta, weights) at an off-ladder bandwidth via snapshot reweighting."""
        self._check_fitted()
        return posterior_at_lambda(self.trace_, lam)
