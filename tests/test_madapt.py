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
)
from abcsmc.models import GaussianLocationModel
from abcsmc.smc import ParticleSystem, simulator
from abcsmc.statistics import DistanceSpec, ExponentialKernel, SummarySpec, UniformKernel


class TestAdaptM:
    @pytest.mark.parametrize(
        "rate,m,expected",
        [
            (0.05, 4, (8, "below target: double")),
            (0.10, 4, (4, "at target: keep")),
            (0.50, 4, (4, "above target: keep")),
            (0.05, 128, (128, "would exceed cap: saturate")),
            (0.05, 100, (100, "2m > cap even if m < cap: saturate")),
            (0.0, 1, (2, "below target: double")),
        ],
    )
    def test_doubling_table(self, rate, m, expected):
        new_m, _case = expected
        assert adapt_m(rate, m, target=0.1, m_max=128) == new_m

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            adapt_m(1.5, 4, 0.1, 128)
        with pytest.raises(InvalidConfigError):
            adapt_m(0.5, 0, 0.1, 128)
        with pytest.raises(InvalidConfigError):
            adapt_m(0.5, 256, 0.1, 128)


def _gaussian_setup(rng, n, m, lam=2.0, n_obs=25):
    """A Gaussian-location population at lam and the run's simulate function, drawing from rng."""
    model = GaussianLocationModel()
    obs = rng.normal(0.3, 1.0, size=n_obs)
    simulate = simulator(model, SummarySpec(kind="mean"), DistanceSpec(kind="lp", p=2), obs, rng)
    theta = model.prior_sample(rng, n)
    system = ParticleSystem(
        theta=theta,
        dists=simulate(theta, m),
        log_weights=np.full(n, -math.log(n)),
        lam=lam,
        log_z=0.0,
    )
    return simulate, system


class TestGibbsRefresh:
    def test_retention_log_weights(self):
        # the Gibbs refresh retains replicate k with log weight kernel.log_k(d_k)
        np.testing.assert_allclose(
            ExponentialKernel.log_k(np.array([1.0, 2.0]), 3.0), [-3.0, -6.0], rtol=1e-15
        )

    def test_retention_frequencies_match_distribution(self, rng):
        # retained replicate index k must follow p_k proportional to e^(-lam d_k)
        # within each particle's own row: half the rows hold the reversed distances
        dists_old = np.array([0.1, 0.6, 1.4])
        lam = 2.5
        p = np.exp(-lam * dists_old)
        p /= p.sum()
        trials = 40_000
        simulate, system = _gaussian_setup(rng, n=2 * trials, m=1, lam=lam)
        system.dists = np.concatenate([np.tile(dists_old, (trials, 1)), np.tile(dists_old[::-1], (trials, 1))])
        gibbs_refresh_system(system, 1, simulate, rng, ExponentialKernel)
        kept = system.dists[:, 0]
        for rows in (kept[:trials], kept[trials:]):
            hits = np.array([np.mean(rows == v) for v in dists_old])
            np.testing.assert_allclose(hits, p, atol=0.01)

    def test_kept_replicate_placed_first(self, rng):
        simulate, system = _gaussian_setup(rng, n=1, m=2, lam=3.0, n_obs=5)
        dists_old = np.array([0.5, 0.7])
        system.dists = dists_old[None, :].copy()
        gibbs_refresh_system(system, 4, simulate, rng, ExponentialKernel)
        assert system.dists.shape == (1, 4)
        assert system.dists[0, 0] in dists_old

    def test_system_refresh_preserves_weights_and_counts_sims(self, rng):
        simulate, system = _gaussian_setup(rng, n=200, m=4)
        lw_before = system.log_weights.copy()
        old_dists = system.dists.copy()
        sims = gibbs_refresh_system(system, 8, simulate, rng, ExponentialKernel)
        assert sims == 200 * 7
        assert system.dists.shape == (200, 8)
        np.testing.assert_array_equal(system.log_weights, lw_before)
        # first column is one of the particle's old replicates
        kept = system.dists[:, 0]
        assert np.all(np.any(old_dists == kept[:, None], axis=1))

    def test_system_refresh_vectorized_retention_frequencies(self, rng):
        # every particle shares the same replicate distances, so pooled
        # retention frequencies must match the closed-form distribution
        simulate, system = _gaussian_setup(rng, n=30_000, m=3)
        fixed = np.array([0.2, 0.5, 1.1])
        system.dists = np.tile(fixed, (30_000, 1))
        p = np.exp(-system.lam * fixed)
        p /= p.sum()
        gibbs_refresh_system(system, 1, simulate, rng, ExponentialKernel)
        freqs = np.array([np.mean(system.dists[:, 0] == v) for v in fixed])
        np.testing.assert_allclose(freqs, p, atol=0.01)

    def test_uniform_kernel_keeps_only_replicates_inside_eps(self, rng):
        # under the uniform kernel the exact conditional is uniform over the
        # replicates with d <= eps: the one outside the window is never kept
        n = 10_000
        simulate, system = _gaussian_setup(rng, n=n, m=2, lam=1.0)
        system.dists = np.tile([0.5, 2.0], (n, 1))
        gibbs_refresh_system(system, 1, simulate, rng, UniformKernel)
        np.testing.assert_array_equal(system.dists[:, 0], 0.5)
        system.dists = np.tile([0.5, 0.9, 2.0], (n, 1))
        gibbs_refresh_system(system, 1, simulate, rng, UniformKernel)
        assert not np.any(system.dists[:, 0] == 2.0)
        assert np.mean(system.dists[:, 0] == 0.5) == pytest.approx(0.5, abs=0.02)

    def test_row_without_kernel_mass_keeps_a_uniform_replicate(self, rng):
        # every replicate outside eps: the particle has zero target density,
        # so any replicate may be kept; it is picked uniformly, with no NaN
        # retention weight, and rows with kernel mass are unaffected
        n = 10_000
        simulate, system = _gaussian_setup(rng, n=2 * n, m=2, lam=1.0)
        system.dists = np.concatenate([np.tile([2.0, 3.0], (n, 1)), np.tile([0.5, 2.0], (n, 1))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gibbs_refresh_system(system, 1, simulate, rng, UniformKernel)
        empty = system.dists[:n, 0]
        assert np.mean(empty == 2.0) == pytest.approx(0.5, abs=0.02)
        assert np.mean(empty == 3.0) == pytest.approx(0.5, abs=0.02)
        np.testing.assert_array_equal(system.dists[n:, 0], 0.5)

    def test_row_at_infinite_distance_refreshes_without_warning(self, rng):
        n = 1000
        simulate, system = _gaussian_setup(rng, n=n, m=2, lam=1.0)
        system.dists[: n // 2] = math.inf
        kept = system.dists.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gibbs_refresh_system(system, 3, simulate, rng, ExponentialKernel)
        assert system.dists.shape == (n, 3)
        assert np.all(system.dists[: n // 2, 0] == math.inf)
        assert np.all(np.any(kept == system.dists[:, :1], axis=1))

    def test_shrinking_m(self, rng):
        simulate, system = _gaussian_setup(rng, n=50, m=6)
        sims = gibbs_refresh_system(system, 1, simulate, rng, ExponentialKernel)
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
        assert is_log_correction(d_old, d_new, lam, ExponentialKernel) == pytest.approx(naive, rel=1e-12)

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
        simulate, system = _gaussian_setup(rng, n=100, m=3)
        lw0 = system.log_weights.copy()
        d_old = system.dists.copy()
        # record what the refresh simulates: one call, M'=6 replicates of the current particles
        calls = []

        def recording(theta, m):
            calls.append((theta, m, simulate(theta, m)))
            return calls[-1][2]

        sims = is_refresh_system(system, 6, recording, ExponentialKernel)
        assert sims == 100 * 6
        [(theta, m, d_new)] = calls
        assert theta is system.theta and m == 6
        np.testing.assert_array_equal(system.dists, d_new)
        lam = system.lam
        expected = lw0 + np.log(
            (3 * np.exp(-lam * system.dists).sum(axis=1) / 6) / np.exp(-lam * d_old).sum(axis=1)
        )
        np.testing.assert_allclose(system.log_weights, expected, rtol=1e-12)

    def test_is_correction_unbiased_in_expectation(self, rng):
        # E[w] over fresh replicates equals 1 when weights average kernel
        # sums correctly: check the normalized estimator on a single particle
        simulate, system = _gaussian_setup(rng, n=1, m=16, lam=1.0)
        d_old = system.dists[0]
        lam = system.lam
        denom = np.exp(-lam * d_old).mean()
        draws = simulate(system.theta, 20_000)[0]
        est = np.exp(-lam * draws).mean()
        # the correction ratio recentres the kernel estimate on its true mean
        w = math.exp(is_log_correction(d_old, draws, lam, ExponentialKernel))
        assert w == pytest.approx(est / denom, rel=1e-10)
