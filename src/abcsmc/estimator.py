"""Estimator-style facade over the SMC driver.

Mirrors the familiar fit/predict/get_params surface: construct with
hyperparameters, ``fit`` on an observed dataset, then read the fitted
attributes (trailing underscore) or draw posterior samples.
"""

from __future__ import annotations

import inspect

import numpy as np

from .bounds import BoundConstants, adaptive_select_lambda
from .exceptions import InvalidConfigError, InvalidInputError
from .smc import SMCConfig, posterior_at_lambda, run_smc
from .statistics import DistanceSpec, SummarySpec


class ABCPosteriorEstimator:
    """Likelihood-free posterior approximation via adaptive tempered SMC.

    Parameters are the simulator model, the summary/distance specs, and the
    SMC controls.  ``fit(y)`` runs the sampler on the observed dataset y; the
    fitted particle system, ladder trace, posterior moments, and log-Z
    estimate are exposed as trailing-underscore attributes.
    """

    def __init__(
        self,
        model=None,
        summary: SummarySpec | None = None,
        distance: DistanceSpec | None = None,
        n_particles: int = 1000,
        lambda_target: float | None = 60.0,
        lambda_max: float | None = None,
        tau: float = 0.9,
        mcmc_steps: int = 3,
        accept_target: float = 0.1,
        adapt_m: bool = True,
        m_max: int = 128,
        m_change: str = "gibbs",
        kernel: str = "exponential",
        eps_target: float | None = None,
        store_snapshots: bool = False,
        select_lambda: bool = False,
        bound_constants: BoundConstants | None = None,
        seed: int = 0,
    ):
        self.model = model
        self.summary = summary
        self.distance = distance
        self.n_particles = n_particles
        self.lambda_target = lambda_target
        self.lambda_max = lambda_max
        self.tau = tau
        self.mcmc_steps = mcmc_steps
        self.accept_target = accept_target
        self.adapt_m = adapt_m
        self.m_max = m_max
        self.m_change = m_change
        self.kernel = kernel
        self.eps_target = eps_target
        self.store_snapshots = store_snapshots
        self.select_lambda = select_lambda
        self.bound_constants = bound_constants
        self.seed = seed

    # -- parameter plumbing (estimator convention) --------------------------

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise InvalidConfigError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    # -- fitting -------------------------------------------------------------

    def _smc_config(self) -> SMCConfig:
        return SMCConfig(
            n_particles=self.n_particles,
            lambda_target=self.lambda_target,
            lambda_max=self.lambda_max,
            tau=self.tau,
            mcmc_steps=self.mcmc_steps,
            accept_target=self.accept_target,
            adapt_m=self.adapt_m,
            m_max=self.m_max,
            m_change=self.m_change,
            kernel=self.kernel,
            eps_target=self.eps_target,
            store_snapshots=self.store_snapshots or self.select_lambda,
            seed=self.seed,
        ).validate()

    def fit(self, y):
        if self.model is None or self.summary is None or self.distance is None:
            raise InvalidConfigError("model, summary, and distance must be set before fit")
        y = np.asarray(y, dtype=float)
        system, trace = run_smc(self._smc_config(), self.model, self.summary, self.distance, y)
        self.system_ = system
        self.trace_ = trace
        self.log_z_ = system.log_z
        self.lambda_ = system.lam
        if self.select_lambda:
            if self.bound_constants is None:
                raise InvalidConfigError("select_lambda requires bound_constants")
            lam_hat, report = adaptive_select_lambda(trace, self.bound_constants, distance_kind=self.distance.kind)
            theta, weights = posterior_at_lambda(trace, lam_hat)
            self.lambda_ = lam_hat
            self.bound_report_ = report
            self.theta_ = theta
            self.weights_ = weights
        else:
            self.theta_ = system.theta
            self.weights_ = system.weights()
        self.posterior_mean_ = self.weights_ @ self.theta_
        var = self.weights_ @ (self.theta_ - self.posterior_mean_) ** 2
        self.posterior_sd_ = np.sqrt(np.maximum(var, 0.0))
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
