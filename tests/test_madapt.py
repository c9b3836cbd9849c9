import math
import warnings

import numpy as np
import pytest

from abcsmc.exceptions import InvalidConfigError, InvalidInputError
from abcsmc.madapt import (
    adapt_m,
    gibbs_refresh_system,
    is_log_correction,
    is_refresh_system,
    retention_log_weights,
)
from abcsmc.models import GaussianLocationModel
from abcsmc.smc import ParticleSystem, simulate_distances
from abcsmc.statistics import DistanceSpec, ExponentialKernel, SummarySpec, UniformKernel, summarize


class TestAdaptM:
    @pytest.mark.parametrize(
        "rate,m,expected",
        [
            (0.05, 4, (8, False)),  # below target: double
            (0.10, 4, (4, False)),  # at target: keep
            (0.50, 4, (4, False)),  # above target: keep
            (0.05, 128, (128, True)),  # would exceed cap: saturate
            (0.05, 100, (100, True)),  # 2m > cap even if m < cap
            (0.0, 1, (2, False)),
        ],
    )
    def test_doubling_table(self, rate, m, expected):
        assert adapt_m(rate, m, target=0.1, m_max=128) == expected

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            adapt_m(1.5, 4, 0.1, 128)
        with pytest.raises(InvalidConfigError):
            adapt_m(0.5, 0, 0.1, 128)
        with pytest.raises(InvalidConfigError):
            adapt_m(0.5, 256, 0.1, 128)


def _gaussian_setup(rng, n, m, lam=2.0, n_obs=25):
    model = GaussianLocationModel()
    summary = SummarySpec(kind="mean")
    dist_spec = DistanceSpec(kind="lp", p=2)
    obs = rng.normal(0.3, 1.0, size=n_obs)
    obs_stats = summarize(summary, obs)
    theta = model.prior_sample(rng, n)
    dists = simulate_distances(model, theta, n_obs, m, rng, summary, dist_spec, obs_stats)
    system = ParticleSystem(
        theta=theta,
        dists=dists,
        log_weights=np.full(n, -math.log(n)),
        lam=lam,
        log_z=0.0,
        observed_stats=obs_stats,
    )
    return model, summary, dist_spec, obs, system


class TestGibbsRefresh:
    def test_retention_log_weights(self):
        np.testing.assert_allclose(
            retention_log_weights([1.0, 2.0], 3.0, ExponentialKernel), [-3.0, -6.0], rtol=1e-15
        )

    def test_retention_frequencies_match_distribution(self, rng):
        # retained replicate index k must follow p_k proportional to e^(-lam d_k)
        # within each particle's own row: half the rows hold the reversed distances
        dists_old = np.array([0.1, 0.6, 1.4])
        lam = 2.5
        p = np.exp(-lam * dists_old)
        p /= p.sum()
        trials = 40_000
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=2 * trials, m=1, lam=lam)
        system.dists = np.concatenate([np.tile(dists_old, (trials, 1)), np.tile(dists_old[::-1], (trials, 1))])
        gibbs_refresh_system(system, 1, model, summary, dist_spec, len(obs), rng, ExponentialKernel)
        kept = system.dists[:, 0]
        for rows in (kept[:trials], kept[trials:]):
            hits = np.array([np.mean(rows == v) for v in dists_old])
            np.testing.assert_allclose(hits, p, atol=0.01)

    def test_kept_replicate_placed_first(self, rng):
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=1, m=2, lam=3.0, n_obs=5)
        dists_old = np.array([0.5, 0.7])
        system.dists = dists_old[None, :].copy()
        gibbs_refresh_system(system, 4, model, summary, dist_spec, len(obs), rng, ExponentialKernel)
        assert system.dists.shape == (1, 4)
        assert system.dists[0, 0] in dists_old

    def test_system_refresh_preserves_weights_and_counts_sims(self, rng):
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=200, m=4)
        lw_before = system.log_weights.copy()
        old_dists = system.dists.copy()
        sims = gibbs_refresh_system(system, 8, model, summary, dist_spec, len(obs), rng, ExponentialKernel)
        assert sims == 200 * 7
        assert system.dists.shape == (200, 8)
        np.testing.assert_array_equal(system.log_weights, lw_before)
        # first column is one of the particle's old replicates
        kept = system.dists[:, 0]
        assert np.all(np.any(old_dists == kept[:, None], axis=1))

    def test_system_refresh_vectorized_retention_frequencies(self, rng):
        # every particle shares the same replicate distances, so pooled
        # retention frequencies must match the closed-form distribution
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=30_000, m=3)
        fixed = np.array([0.2, 0.5, 1.1])
        system.dists = np.tile(fixed, (30_000, 1))
        p = np.exp(-system.lam * fixed)
        p /= p.sum()
        gibbs_refresh_system(system, 1, model, summary, dist_spec, len(obs), rng, ExponentialKernel)
        freqs = np.array([np.mean(system.dists[:, 0] == v) for v in fixed])
        np.testing.assert_allclose(freqs, p, atol=0.01)

    def test_uniform_kernel_keeps_only_replicates_inside_eps(self, rng):
        # under the uniform kernel the exact conditional is uniform over the
        # replicates with d <= eps: the one outside the window is never kept
        n = 10_000
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=n, m=2, lam=1.0)
        system.dists = np.tile([0.5, 2.0], (n, 1))
        gibbs_refresh_system(system, 1, model, summary, dist_spec, len(obs), rng, UniformKernel)
        np.testing.assert_array_equal(system.dists[:, 0], 0.5)
        system.dists = np.tile([0.5, 0.9, 2.0], (n, 1))
        gibbs_refresh_system(system, 1, model, summary, dist_spec, len(obs), rng, UniformKernel)
        assert not np.any(system.dists[:, 0] == 2.0)
        assert np.mean(system.dists[:, 0] == 0.5) == pytest.approx(0.5, abs=0.02)

    def test_row_without_kernel_mass_keeps_a_uniform_replicate(self, rng):
        # every replicate outside eps: the particle has zero target density,
        # so any replicate may be kept; it is picked uniformly, with no NaN
        # retention weight, and rows with kernel mass are unaffected
        n = 10_000
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=2 * n, m=2, lam=1.0)
        system.dists = np.concatenate([np.tile([2.0, 3.0], (n, 1)), np.tile([0.5, 2.0], (n, 1))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gibbs_refresh_system(system, 1, model, summary, dist_spec, len(obs), rng, UniformKernel)
        empty = system.dists[:n, 0]
        assert np.mean(empty == 2.0) == pytest.approx(0.5, abs=0.02)
        assert np.mean(empty == 3.0) == pytest.approx(0.5, abs=0.02)
        np.testing.assert_array_equal(system.dists[n:, 0], 0.5)

    def test_row_at_infinite_distance_refreshes_without_warning(self, rng):
        n = 1000
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=n, m=2, lam=1.0)
        system.dists[: n // 2] = math.inf
        kept = system.dists.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gibbs_refresh_system(system, 3, model, summary, dist_spec, len(obs), rng, ExponentialKernel)
        assert system.dists.shape == (n, 3)
        assert np.all(system.dists[: n // 2, 0] == math.inf)
        assert np.all(np.any(kept == system.dists[:, :1], axis=1))

    def test_shrinking_m(self, rng):
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=50, m=6)
        sims = gibbs_refresh_system(system, 1, model, summary, dist_spec, len(obs), rng, ExponentialKernel)
        assert sims == 0
        assert system.dists.shape == (50, 1)


class TestISRefresh:
    def test_log_weight_formula(self, rng):
        d_old = rng.exponential(size=4)
        d_new = rng.exponential(size=8)
        lam = 1.7
        naive = math.log(
            (4 * np.exp(-lam * d_new).sum() / 8) / np.exp(-lam * d_old).sum()
        )
        assert is_log_correction(d_old, d_new, lam) == pytest.approx(naive, rel=1e-12)

    def test_uniform_kernel_correction_counts_window_hits(self):
        eps = 1.0
        d_old = np.array([[0.5, 2.0], [0.2, 0.9]])
        d_new = np.array([[0.1, 0.3, 1.5], [3.0, 4.0, 5.0]])
        # log [M #{d~ <= eps}] - log [M' #{d <= eps}]
        expected = [math.log(2 * 2 / (3 * 1)), -math.inf]
        out = is_log_correction(d_old, d_new, eps, UniformKernel)
        assert out[0] == pytest.approx(expected[0], rel=1e-12)
        assert out[1] == expected[1]

    def test_system_refresh_updates_weights_consistently(self, rng):
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=100, m=3)
        lw0 = system.log_weights.copy()
        d_old = system.dists.copy()
        rng_clone = np.random.default_rng(999)
        system_rng = np.random.default_rng(999)
        # run the system refresh with a cloned stream, then replay the
        # simulation alone to recover the fresh distances as an oracle
        sims = is_refresh_system(system, 6, model, summary, dist_spec, len(obs), system_rng, ExponentialKernel)
        d_new_oracle = simulate_distances(
            model, system.theta, len(obs), 6, rng_clone, summary, dist_spec, system.observed_stats
        )
        assert sims == 100 * 6
        np.testing.assert_array_equal(system.dists, d_new_oracle)
        lam = system.lam
        expected = lw0 + np.log(
            (3 * np.exp(-lam * system.dists).sum(axis=1) / 6) / np.exp(-lam * d_old).sum(axis=1)
        )
        np.testing.assert_allclose(system.log_weights, expected, rtol=1e-12)

    def test_is_correction_unbiased_in_expectation(self, rng):
        # E[w] over fresh replicates equals 1 when weights average kernel
        # sums correctly: check the normalized estimator on a single particle
        model, summary, dist_spec, obs, system = _gaussian_setup(rng, n=1, m=16, lam=1.0)
        d_old = system.dists[0]
        lam = system.lam
        denom = np.exp(-lam * d_old).mean()
        draws = simulate_distances(
            model, system.theta, len(obs), 20_000, rng, summary, dist_spec, system.observed_stats
        )[0]
        est = np.exp(-lam * draws).mean()
        # the correction ratio recentres the kernel estimate on its true mean
        w = math.exp(is_log_correction(d_old, draws, lam))
        assert w == pytest.approx(est / denom, rel=1e-10)
