import math

import numpy as np
import pytest
from scipy import stats as sps

from abcsmc.exceptions import InvalidConfigError, InvalidParameterError
from abcsmc.models import (
    DiscreteToyModel,
    GaussianLocationModel,
    MixtureModel,
    TruthGenerator,
    enumerated_posterior,
    three_component_truth,
)
from abcsmc.statistics import BLOCK_ELEMENTS, DistanceSpec, SummarySpec, summarize_batch


def small_discrete_model():
    return DiscreteToyModel.from_obs_probs(
        theta_values=[0.0, 1.0],
        prior_weights=[0.6, 0.4],
        obs_values=[0.0, 1.0, 2.0],
        obs_probs=[[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]],
        n=2,
    )


class TestMixtureModel:
    def test_prior_logpdf_matches_scipy(self, rng):
        model = MixtureModel(p=0.8, mu_prior_sd=10.0, logsigma_prior_sd=1.0)
        theta = rng.normal(size=4)
        expected = (
            sps.norm.logpdf(theta[0], scale=10)
            + sps.norm.logpdf(theta[1], scale=1)
            + sps.norm.logpdf(theta[2], scale=10)
            + sps.norm.logpdf(theta[3], scale=1)
        )
        batch = model.prior_logpdf_batch(np.stack([theta, 2 * theta]))
        assert batch[0] == pytest.approx(expected, rel=1e-12)

    def test_simulator_moments(self, rng):
        model = MixtureModel(p=0.8)
        theta = np.array([0.0, 0.0, 3.0, math.log(0.5)])
        x = model.simulate_batch(theta, 200_000, 1, rng)[0, 0]
        assert x.mean() == pytest.approx(0.2 * 3.0, abs=0.02)
        second = 0.8 * 1.0 + 0.2 * (9.0 + 0.25)
        assert (x**2).mean() == pytest.approx(second, rel=0.02)

    @pytest.mark.parametrize(
        "b,m,n",
        [
            (1, 4, 90),  # a single parameter row
            (200, 8, 90),  # 91 rows per block: B is not a multiple of it
            (3, 2, BLOCK_ELEMENTS // 2 + 10),  # m*n exceeds one block: one row per block
            (50, 1, 90),  # m = 1
        ],
    )
    def test_blocked_draws_equal_one_shot_formula(self, rng, b, m, n):
        model = MixtureModel(p=0.7)
        thetas = model.prior_sample(rng, b)
        out = model.simulate_batch(thetas, n, m, np.random.default_rng(42))
        naive_rng = np.random.default_rng(42)
        mu1, s1 = thetas[:, 0, None, None], np.exp(thetas[:, 1, None, None])
        mu2, s2 = thetas[:, 2, None, None], np.exp(thetas[:, 3, None, None])
        u = naive_rng.random((b, m, n))
        z = naive_rng.normal(size=(b, m, n))
        assert np.array_equal(out, np.where(u < 0.7, mu1 + s1 * z, mu2 + s2 * z))

    def test_bad_parameters(self, rng):
        model = MixtureModel()
        with pytest.raises(InvalidParameterError):
            model.simulate_batch(np.array([[np.nan, 0, 0, 0]]), 5, 1, rng)
        with pytest.raises(InvalidConfigError):
            MixtureModel(p=1.5)

    def test_prior_sample_shape(self, rng):
        assert MixtureModel().prior_sample(rng, 7).shape == (7, 4)

    def test_reduced_keeps_full_data(self):
        model = MixtureModel()
        for kind in ("mean", "moments_and_tails"):
            assert model.reduced(SummarySpec(kind=kind), 90) == (model, 90)


class TestGaussianLocationModel:
    def test_simulate_and_prior(self, rng):
        model = GaussianLocationModel(prior_var=4.0, noise_sd=0.5)
        assert model.prior_logpdf_batch(np.array([[1.0]]))[0] == pytest.approx(
            sps.norm.logpdf(1.0, scale=2.0), rel=1e-12
        )
        x = model.simulate_batch(np.array([[2.0]]), 100_000, 1, rng)[0, 0]
        assert x.mean() == pytest.approx(2.0, abs=0.02)
        assert x.std() == pytest.approx(0.5, rel=0.02)

    def test_in_place_affine_map_equals_one_shot_formula(self, rng):
        model = GaussianLocationModel(noise_sd=0.7)
        thetas = model.prior_sample(rng, 30)
        out = model.simulate_batch(thetas, 90, 5, np.random.default_rng(8))
        z = np.random.default_rng(8).normal(size=(30, 5, 90))
        assert np.array_equal(out, thetas[:, 0, None, None] + 0.7 * z)


    def test_reduced_mean_is_one_draw_at_the_mean_sd(self):
        model = GaussianLocationModel(prior_var=4.0, noise_sd=0.7)
        twin, n = model.reduced(SummarySpec(kind="mean"), 50)
        assert n == 1 and isinstance(twin, GaussianLocationModel)
        assert twin.prior_var == 4.0 and twin.noise_sd == 0.7 / math.sqrt(50)

    @pytest.mark.parametrize(
        "summary, n",
        [
            (SummarySpec(kind="mean", clamp=(-1.0, 1.0)), 50),
            (SummarySpec(kind="identity"), 50),
            (SummarySpec(kind="moments_and_tails"), 50),
            (SummarySpec(kind="mean"), 1),
        ],
    )
    def test_reduced_keeps_full_data_otherwise(self, summary, n):
        model = GaussianLocationModel()
        assert model.reduced(summary, n) == (model, n)

    def test_reduced_mean_matches_the_sample_mean_law(self):
        # S(X) of n draws at theta is N(theta, sd^2/n); the reduced twin's
        # statistic must have that law (KS test on 200,000 draws)
        theta, sd, n = 0.7, 1.3, 50
        summary = SummarySpec(kind="mean")
        twin, n_red = GaussianLocationModel(noise_sd=sd).reduced(summary, n)
        sims = twin.simulate_batch(np.array([[theta]]), n_red, 200_000, np.random.default_rng(3))
        stats = summarize_batch(summary, sims)[0, :, 0]
        assert sps.kstest(stats, "norm", args=(theta, sd / math.sqrt(n))).pvalue > 1e-3


class TestDiscreteToyModel:
    def test_likelihood_rows_sum_to_one(self):
        model = small_discrete_model()
        np.testing.assert_allclose(model.likelihood.sum(axis=1), 1.0, atol=1e-12)
        assert model.likelihood.shape == (2, 9)

    def test_dataset_probabilities_from_iid_product(self):
        model = small_discrete_model()
        # dataset (0, 2) under atom 0: 0.5 * 0.2
        ds = model.enumerate_datasets()
        j = next(i for i, d in enumerate(ds) if tuple(d) == (0.0, 2.0))
        assert model.likelihood[0, j] == pytest.approx(0.1, rel=1e-12)

    def test_simulator_matches_table(self, rng):
        model = small_discrete_model()
        sims = model.simulate_batch(np.array([[1.0]]), 2, 60_000, rng)[0]
        ds = model.enumerate_datasets()
        freq = np.array([np.mean(np.all(sims == d, axis=1)) for d in ds])
        np.testing.assert_allclose(freq, model.likelihood[1], atol=0.01)

    def test_atom_index_and_prior(self):
        model = small_discrete_model()
        assert model.atom_index_batch(np.array([1.0]))[0] == 1
        assert model.prior_logpdf_batch(np.array([[0.0], [0.5]])) == pytest.approx([math.log(0.6), -math.inf])
        with pytest.raises(InvalidParameterError):
            model.atom_index_batch(np.array([0.5]))

    def test_enumerated_posterior_is_bayes_at_lambda(self):
        # with the identity statistic, p=1 distance, and lambda -> large,
        # the pseudo-posterior concentrates on exact matches: it converges to
        # the exact Bayes posterior of the observed dataset.
        model = small_discrete_model()
        summary = SummarySpec(kind="identity")
        dist = DistanceSpec(kind="lp", p=1)
        obs = np.array([0.0, 2.0])
        post, log_z = enumerated_posterior(model, summary, dist, obs, 200.0)
        ds = model.enumerate_datasets()
        j = next(i for i, d in enumerate(ds) if tuple(d) == tuple(obs))
        exact = model.prior_weights * model.likelihood[:, j]
        exact = exact / exact.sum()
        np.testing.assert_allclose(post, exact, atol=1e-8)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_enumerated_posterior_at_zero_is_prior(self):
        model = small_discrete_model()
        post, log_z = enumerated_posterior(
            model, SummarySpec(kind="identity"), DistanceSpec(kind="lp", p=1), [0.0, 2.0], 0.0
        )
        np.testing.assert_allclose(post, model.prior_weights, atol=1e-12)
        assert log_z == pytest.approx(0.0, abs=1e-12)

    def test_reduced_keeps_full_data(self):
        model = small_discrete_model()
        for kind in ("mean", "identity"):
            assert model.reduced(SummarySpec(kind=kind), 2) == (model, 2)



class TestTruthGenerator:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            TruthGenerator(weights=(0.5, 0.4))
        with pytest.raises(InvalidConfigError):
            TruthGenerator(kind="three_component")  # needs 3 components

    def test_truncation(self, rng):
        gen = three_component_truth(n=5000)
        x = gen.sample(rng)
        assert x.min() >= -5.0 and x.max() <= 5.0
        assert len(x) == 5000

    def test_two_component_moments(self, rng):
        gen = TruthGenerator(n=200_000)
        x = gen.sample(rng)
        assert x.mean() == pytest.approx(0.2 * 3.0, abs=0.02)

