import itertools
import math

import numpy as np
import pytest

from abcsmc.exceptions import InvalidInputError
from abcsmc.mcmc import SCREEN_INFLATION, calibrate, rejuvenate, stage_log_accept
from abcsmc.models import GaussianLocationModel
from abcsmc.smc import ExponentialKernel, ParticleSystem, simulator
from abcsmc.statistics import DistanceSpec, SummarySpec, UniformKernel

from test_models import small_discrete_model
from test_statistics import assert_same_bits


class TestCalibrate:
    def test_default_scale_and_recovery(self, rng):
        theta = rng.normal(size=(4000, 2)) @ np.array([[1.0, 0.0], [0.5, 2.0]])
        chol = calibrate(theta)
        cov_hat = chol @ chol.T / (2.38**2 / 2)
        np.testing.assert_allclose(cov_hat, np.cov(theta, rowvar=False), atol=1e-8)

    def test_degenerate_population_gets_ridge(self):
        theta = np.zeros((50, 2))  # zero covariance
        chol = calibrate(theta)
        assert np.all(np.isfinite(chol))
        assert chol[0, 0] > 0
        ridge = (chol @ chol.T / (2.38**2 / 2) - np.cov(theta, rowvar=False))[0, 0]
        # zero covariance factorizes with the default ridge 1e-10 itself; the
        # square root and its square round it to 9.999999999999998e-11 here
        assert ridge == pytest.approx(1e-10, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            calibrate(np.zeros((1, 2)))
        with pytest.raises(InvalidInputError):
            calibrate(np.zeros(5))


def pair_log_accept(dists_current, dists_proposal, lam, log_prior_current, log_prior_proposal):
    """The two-stage log acceptance ``rejuvenate`` applies, for one pair of states and their replicate distances.

    ``stage_log_accept`` of the prior densities plus that of the log kernel sums.
    """
    log_alpha = stage_log_accept(np.array([log_prior_current]), np.array([log_prior_proposal]))
    log_alpha += stage_log_accept(
        ExponentialKernel.log_sum(np.asarray([dists_current], dtype=float), lam),
        ExponentialKernel.log_sum(np.asarray([dists_proposal], dtype=float), lam),
    )
    return float(log_alpha[0])


class TestStageLogAccept:
    def test_matches_naive_on_random_inputs(self, rng):
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            dc = rng.exponential(size=m)
            dp = rng.exponential(size=m)
            lam = float(rng.uniform(0.0, 5.0))
            lpc = float(rng.normal())
            lpp = float(rng.normal())
            naive = min(0.0, lpp - lpc) + min(
                0.0, math.log(np.exp(-lam * dp).sum()) - math.log(np.exp(-lam * dc).sum())
            )
            got = pair_log_accept(dc, dp, lam, lpc, lpp)
            assert got == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_out_of_support_proposal(self):
        assert pair_log_accept([1.0], [0.5], 1.0, 0.0, -np.inf) == -np.inf

    def test_both_states_out_of_support_rejects(self):
        # -inf - (-inf) is undefined: no uniform may accept the move
        value = pair_log_accept([1.0], [0.5], 1.0, -np.inf, -np.inf)
        assert not np.any(np.log(np.linspace(1e-300, 1.0, 101)) < value)


class TestRejuvenate:
    def test_exact_detailed_balance_on_finite_joint_chain(self):
        # the joint state (parameter atom, replicate dataset) is finite for
        # the discrete model, so the one-sweep transition matrix implied by
        # the two-stage acceptance rule can be written down exactly and
        # checked against the joint target pi(theta) * p(x | theta) * e^(-lam d(x, y))
        model = small_discrete_model()
        summary = SummarySpec(kind="identity")
        dist_spec = DistanceSpec(kind="lp", p=1)
        obs = np.array([0.0, 1.0])
        lam = 1.5
        from abcsmc.statistics import distance_batch, summarize, summarize_batch

        datasets = model.enumerate_datasets()
        obs_stats = summarize(summary, obs)
        dvec = distance_batch(dist_spec, summarize_batch(summary, datasets), obs_stats)
        n_atoms = len(model.theta_values)
        n_data = len(datasets)
        states = [(i, x) for i in range(n_atoms) for x in range(n_data)]
        mu = np.array(
            [
                model.prior_weights[i] * model.likelihood[i, x] * math.exp(-lam * dvec[x])
                for i, x in states
            ]
        )
        mu /= mu.sum()

        trans = np.zeros((len(states), len(states)))
        for a, (i, x) in enumerate(states):
            for b, (j, xp) in enumerate(states):
                alpha = math.exp(pair_log_accept(
                    [dvec[x]],
                    [dvec[xp]],
                    lam,
                    math.log(model.prior_weights[i]),
                    math.log(model.prior_weights[j]),
                ))
                trans[a, b] += (1.0 / n_atoms) * model.likelihood[j, xp] * alpha
            trans[a, a] += 1.0 - trans[a].sum()

        np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)
        # invariance mu T == mu
        np.testing.assert_allclose(mu @ trans, mu, atol=1e-12)
        # elementwise detailed balance off the diagonal
        flow = mu[:, None] * trans
        off = ~np.eye(len(states), dtype=bool)
        np.testing.assert_allclose(flow[off], flow.T[off], atol=1e-14)

    def test_stationary_distribution_preserved(self):
        # start chains from the exact target; many sweeps must keep it fixed
        model = small_discrete_model()
        summary = SummarySpec(kind="identity")
        dist_spec = DistanceSpec(kind="lp", p=1)
        obs = np.array([0.0, 1.0])
        lam = 2.0
        from abcsmc.models import enumerated_posterior

        target, _ = enumerated_posterior(model, summary, dist_spec, obs, lam, ExponentialKernel)
        rng = np.random.default_rng(7)
        n = 100_000
        theta = rng.choice(model.theta_values, size=(n, 1), p=target)
        simulate = simulator(model, summary, dist_spec, obs, rng)
        # condition the replicate on theta via one warm-up pass so the pair
        # (theta, d) starts at the joint target before measuring invariance
        system = ParticleSystem(
            theta=theta,
            dists=simulate(theta, 1),
            log_weights=np.full(n, -math.log(n)),
            lam=lam,
            log_z=0.0,
        )
        rejuvenate(system, model, simulate, ExponentialKernel, rng, None, 20)
        warm = np.array([np.mean(system.theta[:, 0] == v) for v in model.theta_values])
        rejuvenate(system, model, simulate, ExponentialKernel, rng, None, 10)
        after = np.array([np.mean(system.theta[:, 0] == v) for v in model.theta_values])
        np.testing.assert_allclose(after, warm, atol=0.01)
        np.testing.assert_allclose(after, target, atol=0.01)

    def test_gaussian_screen_keeps_the_exact_pseudo_posterior(self):
        # the uniform-kernel pseudo-posterior of the Gaussian location model
        # under the mean statistic has a closed form: theta ~ N(0, v) weighted
        # by P(|ybar_sim - ybar| <= eps | theta), ybar_sim ~ N(theta, 1/n).
        # Chains started from it, screened on the population's Gaussian fit,
        # must keep its mean and sd
        model = GaussianLocationModel(prior_var=4.0, noise_sd=1.0)
        n_obs, eps, n = 50, 0.1, 20_000
        obs = np.random.default_rng(3).normal(0.5, 1.0, size=n_obs)
        ybar = float(obs.mean())
        rng = np.random.default_rng(8)
        # the joint (theta, d) target by rejection from the prior and the mean's own law
        theta = rng.normal(0.0, 2.0, size=40 * n)
        dists = np.abs(theta + rng.normal(size=theta.size) / math.sqrt(n_obs) - ybar)
        inside = np.flatnonzero(dists <= eps)[:n]
        assert inside.size == n
        grid = np.linspace(ybar - 1.5, ybar + 1.5, 60_001)
        cdf = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)))
        dens = np.exp(-grid**2 / 8.0) * (
            cdf(math.sqrt(n_obs) * (ybar + eps - grid)) - cdf(math.sqrt(n_obs) * (ybar - eps - grid))
        )
        dens /= dens.sum()
        exact_mean = float((grid * dens).sum())
        exact_sd = math.sqrt(float(((grid - exact_mean) ** 2 * dens).sum()))

        simulate = simulator(model, SummarySpec(kind="mean"), DistanceSpec(kind="lp", p=2), obs, rng)
        system = ParticleSystem(
            theta=theta[inside, None].copy(),
            dists=dists[inside, None].copy(),
            log_weights=np.full(n, -math.log(n)),
            lam=eps,
            log_z=0.0,
        )
        start = system.theta.copy()
        rate, _ = rejuvenate(system, model, simulate, UniformKernel, rng, calibrate(system.theta), 10)
        assert 0.2 < rate < 1.0
        assert np.mean(system.theta != start) > 0.5  # most chains have moved
        mean, sd = float(system.theta.mean()), float(system.theta.std())
        # five standard errors of n independent draws
        assert abs(mean - exact_mean) < 5 * exact_sd / math.sqrt(n)
        assert abs(sd - exact_sd) < 5 * exact_sd / math.sqrt(2 * n)

    def test_continuous_model_moves_and_counts_sims(self, rng):
        model = GaussianLocationModel()
        summary = SummarySpec(kind="mean")
        dist_spec = DistanceSpec(kind="lp", p=2)
        obs = rng.normal(0.5, 1.0, size=30)

        n, m, k = 400, 2, 3
        theta = model.prior_sample(rng, n)
        simulate = simulator(model, summary, dist_spec, obs, rng)
        system = ParticleSystem(
            theta=theta.copy(),
            dists=simulate(theta, m),
            log_weights=np.full(n, -math.log(n)),
            lam=3.0,
            log_z=0.0,
        )
        chol = calibrate(theta)
        rows = []

        def spy(theta, m):
            rows.append(theta.shape[0])
            return simulate(theta, m)

        rate, sims = rejuvenate(system, model, spy, ExponentialKernel, rng, chol, k)
        # one call per sweep, on the proposals that pass the screen: some, not all
        assert len(rows) == k and 0 < sum(rows) < n * k
        assert sims == sum(rows) * m
        assert 0.0 < rate < 1.0
        assert not np.array_equal(system.theta, theta)
        # never accepts a prior-impossible state; all thetas remain finite
        assert np.all(np.isfinite(system.theta))


def copyto_rejuvenate(system, model, simulate, kernel, rng, chol, k_steps):
    """``rejuvenate`` with boolean masks, a masked ``np.copyto`` per array and each density found from its value.

    The reference for its index arithmetic (screened rows, then accepted
    ones among them), for its atom proposals' prior, read off the drawn index,
    and for its Gaussian screen, carried in whitened coordinates: here the
    screen is recomputed from the parameter itself at every sweep.
    """
    n, m = system.dists.shape
    atoms = model.theta_atoms
    if atoms is None:
        mu = system.theta.mean(axis=0)
        scale = 2.38**2 / (2.0 * SCREEN_INFLATION * system.theta.shape[1])

        def log_screen(theta):
            w = np.linalg.solve(chol, (theta - mu).T).T
            return -scale * (w * w).sum(axis=1)

    else:
        log_screen = model.prior_logpdf_batch
    log_rest = model.prior_logpdf_batch(system.theta) - log_screen(system.theta) + kernel.log_sum(
        system.dists, system.lam
    )
    accepts = simulated = 0
    for _ in range(k_steps):
        if atoms is not None:
            prop = atoms[rng.integers(0, len(atoms), size=n)]
        else:
            prop = system.theta + rng.standard_normal(system.theta.shape) @ chol.T
        log_u = np.log(rng.random(n))
        log_alpha = stage_log_accept(log_screen(system.theta), log_screen(prop))
        screened = log_u < log_alpha
        d_prop = np.full((n, m), np.nan)
        lr_prop = np.full(n, np.nan)
        d_prop[screened] = simulate(prop[screened], m)
        lr_prop[screened] = (
            model.prior_logpdf_batch(prop[screened])
            - log_screen(prop[screened])
            + kernel.log_sum(d_prop[screened], system.lam)
        )
        acc = screened.copy()
        acc[screened] = log_u[screened] < log_alpha[screened] + stage_log_accept(
            log_rest[screened], lr_prop[screened]
        )
        np.copyto(system.theta, prop, where=acc[:, None])
        np.copyto(system.dists, d_prop, where=acc[:, None])
        np.copyto(log_rest, lr_prop, where=acc)
        accepts += int(acc.sum())
        simulated += int(screened.sum())
    return (accepts / simulated if simulated else 1.0), simulated * m


def sweep_case(case, rng):
    """(model, simulate, system, chol) of one ``rejuvenate`` case, built from ``rng``."""
    n = 500
    if case.startswith("gaussian"):
        model = GaussianLocationModel()
        summary, dist_spec = SummarySpec(kind="mean"), DistanceSpec(kind="lp", p=2)
        m = 3 if case == "gaussian-m3" else 1
    else:
        model = small_discrete_model()
        summary, dist_spec = SummarySpec(kind="identity"), DistanceSpec(kind="lp", p=1)
        m = 1
    obs = np.array([0.0, 1.0]) if model.theta_atoms is not None else rng.normal(0.5, 1.0, size=30)
    simulate = simulator(model, summary, dist_spec, obs, rng)
    if case == "all-rejected":  # no proposal has kernel mass
        simulate = lambda theta, m: np.full((theta.shape[0], m), math.inf)  # noqa: E731
    if case == "all-accepted":  # each sweep's proposals lie 100 closer than the states they would replace
        calls = itertools.count()
        simulate = lambda theta, m: np.full((theta.shape[0], m), 1e3 - 100.0 * next(calls))  # noqa: E731
    theta = model.prior_sample(rng, n)
    dists = simulate(theta, m)
    system = ParticleSystem(
        theta=theta, dists=dists, log_weights=np.full(n, -math.log(n)), lam=1.5, log_z=0.0
    )
    chol = None if model.theta_atoms is not None else calibrate(theta)
    return model, simulate, system, chol


class TestIndexedCopy:
    @pytest.mark.parametrize(
        "case", ["gaussian-m1", "gaussian-m3", "discrete", "all-rejected", "all-accepted"]
    )
    def test_matches_the_masked_copy_sweep(self, case):
        ends = []
        for sweep in (rejuvenate, copyto_rejuvenate):
            rng = np.random.default_rng(2024)
            model, simulate, system, chol = sweep_case(case, rng)
            result = sweep(system, model, simulate, ExponentialKernel, rng, chol, 4)
            ends.append((system.theta, system.dists, result, rng.bit_generator.state))
        (theta, dists, result, state), (ref_theta, ref_dists, ref_result, ref_state) = ends
        assert_same_bits(theta, ref_theta)
        assert_same_bits(dists, ref_dists)
        assert result == ref_result
        assert state == ref_state
        if case == "all-rejected":
            assert result[0] == 0.0
        elif case == "all-accepted":
            assert result[0] == 1.0
        else:
            assert 0.0 < result[0] < 1.0
