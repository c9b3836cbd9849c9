import dataclasses
from unittest import mock

import numpy as np
import pytest

from abcsmc import smc
from abcsmc.bounds import BoundConstants
from abcsmc.estimator import ABCPosteriorEstimator
from abcsmc.exceptions import InvalidConfigError, InvalidInputError
from abcsmc.models import GaussianLocationModel
from abcsmc.smc import SMCConfig
from abcsmc.statistics import DistanceSpec, SummarySpec


def _gaussian_estimator(**kw):
    params = dict(
        model=GaussianLocationModel(prior_var=4.0, noise_sd=1.0),
        summary=SummarySpec(kind="mean"),
        distance=DistanceSpec(kind="scaled_empirical_l2"),
        n_particles=800,
        lambda_target=15.0,
        adapt_m=False,
        seed=1,
    )
    params.update(kw)
    return ABCPosteriorEstimator(**params)


class TestParams:
    def test_get_set_round_trip(self):
        est = _gaussian_estimator()
        params = est.get_params()
        assert params["n_particles"] == 800
        est.set_params(n_particles=100, tau=0.8)
        assert est.n_particles == 100 and est.tau == 0.8
        # unchanged keys stay put
        assert est.get_params()["lambda_target"] == 15.0

    def test_set_unknown_param_rejected(self):
        with pytest.raises(InvalidConfigError):
            _gaussian_estimator().set_params(bogus=1)

    def test_clone_from_params(self):
        est = _gaussian_estimator(seed=5)
        clone = ABCPosteriorEstimator(**est.get_params())
        assert clone.get_params() == est.get_params()


class TestSMCSettings:
    def test_every_smc_config_field_is_a_param_with_its_default(self):
        params = ABCPosteriorEstimator().get_params()
        for f in dataclasses.fields(SMCConfig):
            assert f.name in params
            assert params[f.name] == getattr(SMCConfig(), f.name)

    def test_set_params_and_clone_reach_every_field(self):
        est = _gaussian_estimator().set_params(sim_budget=5000, m_schedule={2: 2}, on_stall="stop")
        clone = ABCPosteriorEstimator(**est.get_params())
        assert clone.get_params() == est.get_params()
        assert (clone.sim_budget, clone.m_schedule, clone.on_stall) == (5000, {2: 2}, "stop")

    def test_max_steps_reaches_the_run(self, rng):
        est = _gaussian_estimator(max_steps=2).fit(rng.normal(0.7, 1.0, size=100))
        assert len(est.trace_) == 2
        assert est.trace_.status == "max_steps"

    def test_unknown_constructor_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            _gaussian_estimator(bogus=1)


class TestFit:
    def test_fit_recovers_location(self, rng):
        y = rng.normal(0.7, 1.0, size=200)
        est = _gaussian_estimator().fit(y)
        assert est.lambda_ == 15.0
        assert np.isfinite(est.log_z_)
        # at a moderate bandwidth the posterior mean should sit near the
        # sample mean, well inside the prior sd
        assert abs(est.posterior_mean_[0] - y.mean()) < 0.3
        assert 0.0 < est.posterior_sd_[0] < 2.0
        assert est.weights_.sum() == pytest.approx(1.0)

    def test_predict_refits_on_new_data(self, rng):
        est = _gaussian_estimator()
        mean_a = est.predict(rng.normal(-1.0, 1.0, size=200))[0]
        mean_b = est.predict(rng.normal(2.0, 1.0, size=200))[0]
        assert mean_a < 0 < mean_b

    def test_unfitted_errors(self):
        est = _gaussian_estimator()
        with pytest.raises(InvalidInputError):
            est.predict()
        with pytest.raises(InvalidInputError):
            est.sample_posterior(5)

    def test_missing_components_errors(self):
        with pytest.raises(InvalidConfigError):
            ABCPosteriorEstimator().fit([1.0, 2.0])

    def test_sample_posterior_moments_match_weights(self, rng):
        y = rng.normal(0.0, 1.0, size=100)
        est = _gaussian_estimator(seed=2).fit(y)
        draws = est.sample_posterior(50_000, rng=3)
        assert draws.shape == (50_000, 1)
        assert draws.mean() == pytest.approx(est.posterior_mean_[0], abs=0.05)

    def test_deterministic_given_seed(self, rng):
        y = rng.normal(0.0, 1.0, size=80)
        a = _gaussian_estimator(seed=9).fit(y)
        b = _gaussian_estimator(seed=9).fit(y)
        np.testing.assert_array_equal(a.theta_, b.theta_)
        assert a.log_z_ == b.log_z_


class TestBandwidthSelection:
    def test_select_lambda_path(self, rng):
        y = rng.normal(0.3, 1.0, size=120)
        constants = BoundConstants(n=120, m=1, p=2, K=1.0, d=1, theta_var=4.0)
        est = _gaussian_estimator(
            select_lambda=True, bound_constants=constants, lambda_target=25.0, seed=4
        ).fit(y)
        assert 0 < est.lambda_ <= 25.0
        assert est.bound_report_.value == pytest.approx(
            sum(est.bound_report_.components.values()), rel=1e-9
        )
        assert est.weights_.sum() == pytest.approx(1.0)
        # snapshot reweighting works at arbitrary bandwidths too
        theta, w = est.posterior_at(est.lambda_ * 0.5)
        assert theta.shape[0] == w.shape[0]

    def test_select_lambda_requires_constants(self, rng):
        est = _gaussian_estimator(select_lambda=True)
        with pytest.raises(InvalidConfigError):
            est.fit(rng.normal(size=50))

    @pytest.mark.parametrize(
        "settings",
        [
            dict(bound_constants=None),
            dict(kernel="uniform", eps_target=0.05, lambda_target=None),  # no lambda ladder to select on
        ],
        ids=["no-constants", "uniform-kernel"],
    )
    def test_bad_selection_settings_fail_before_simulating(self, rng, settings):
        constants = BoundConstants(n=50, m=1, p=2, K=1.0, d=1, theta_var=4.0)
        est = _gaussian_estimator(select_lambda=True, **{"bound_constants": constants, **settings})
        with mock.patch.object(smc, "simulate_distances", wraps=smc.simulate_distances) as sim:
            with pytest.raises(InvalidConfigError, match="select_lambda"):
                est.fit(rng.normal(size=50))
        assert sim.call_count == 0


class TestPosteriorAt:
    def test_uniform_fit_reweights_with_the_uniform_kernel(self):
        # a uniform-kernel fit queried just inside a rung: particles whose
        # replicate distance exceeds the query eps get weight exactly 0
        y = np.random.default_rng(0).normal(0.5, 1.0, size=50)
        est = _gaussian_estimator(
            kernel="uniform",
            eps_target=0.05,
            lambda_target=None,
            n_particles=2000,
            store_snapshots=True,
        ).fit(y)
        rec = est.trace_.records[-6]
        eps = 0.98 * rec.lam
        nearest = min(est.trace_.records, key=lambda r: abs(r.lam - eps))
        assert nearest is rec
        _, w = est.posterior_at(eps)
        outside = rec.snapshot[1][:, 0] > eps
        assert outside.any()
        assert np.all(w[outside] == 0.0)
        assert np.all(w[~outside] > 0.0)
        assert w.sum() == pytest.approx(1.0)
