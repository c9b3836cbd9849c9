import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc import config as cfgmod
from abcsmc import smc
from abcsmc.exceptions import (
    DegenerateSystemError,
    InvalidConfigError,
    InvalidInputError,
    InvalidParameterError,
    LadderStallError,
)
from abcsmc.models import DiscreteToyModel, GaussianLocationModel, MixtureModel
from abcsmc.smc import (
    ExponentialKernel,
    LadderTrace,
    ParticleSystem,
    SMCConfig,
    UniformKernel,
    _thin_snapshots,
    ess,
    find_next_lambda,
    load_trace_csv,
    logsumexp,
    posterior_at_lambda,
    reweight,
    run_smc,
    simulate_distances,
    systematic_resample,
)
from abcsmc.statistics import DistanceSpec, SummarySpec, distance_batch, summarize_batch

from test_models import small_discrete_model
from test_statistics import REALS, assert_same_bits, reference_logsumexp


def make_system(dists, lam=0.0, log_weights=None):
    dists = np.asarray(dists, dtype=float)
    n = dists.shape[0]
    if log_weights is None:
        log_weights = np.full(n, -math.log(n))
    return ParticleSystem(
        theta=np.zeros((n, 1)),
        dists=dists,
        log_weights=np.asarray(log_weights, dtype=float),
        lam=lam,
        log_z=0.0,
    )


class TestLogsumexpEss:
    def test_logsumexp_matches_naive(self, rng):
        a = rng.normal(size=(5, 7))
        np.testing.assert_allclose(
            logsumexp(a, axis=1), np.log(np.exp(a).sum(axis=1)), rtol=1e-12
        )

    def test_logsumexp_all_neginf_row(self):
        a = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        out = logsumexp(a, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(math.log(2.0))

    def test_ess_uniform_is_n(self):
        assert ess(np.full(50, -math.log(50))) == pytest.approx(50.0)

    def test_ess_single_atom_is_one(self):
        lw = np.full(10, -np.inf)
        lw[3] = 0.0
        assert ess(lw) == pytest.approx(1.0)

    def test_ess_scale_invariant(self, rng):
        lw = rng.normal(size=20)
        assert ess(lw) == pytest.approx(ess(lw + 7.3), rel=1e-12)

    def test_ess_all_zero_raises(self):
        with pytest.raises(DegenerateSystemError):
            ess(np.full(4, -np.inf))

    @given(st.lists(REALS, min_size=1, max_size=40).map(np.array))
    @settings(max_examples=400, deadline=None)
    def test_ess_bits_equal_the_two_logsumexp_formula(self, lw):
        if not np.any(np.isfinite(lw)):
            with pytest.raises(DegenerateSystemError):
                ess(lw)
            return
        # an infinite or NaN weight makes both sides inf - inf (NaN) and may overflow exp
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.exp(2.0 * reference_logsumexp(lw, axis=0) - reference_logsumexp(2.0 * lw, axis=0))
            assert_same_bits(ess(lw), want)


def weight_increment(dists, lam_new, lam_old):
    """The log weight increment of one particle (a row of replicate distances) under ``reweight``."""
    log_weights, _ = reweight(np.zeros(1), 0.0, np.atleast_2d(dists), ExponentialKernel, lam_old, lam_new)
    return log_weights[0]


class TestIncrementalWeights:
    def test_single_replicate_closed_form(self):
        # with M = 1 the increment is exactly -(new - old) * d
        assert weight_increment([2.0], 3.0, 1.0) == pytest.approx(-4.0, rel=1e-12)

    def test_matches_naive_average(self, rng):
        d = rng.exponential(size=8)
        lam_new, lam_old = 2.5, 1.0
        naive = math.log(np.exp(-lam_new * d).sum()) - math.log(np.exp(-lam_old * d).sum())
        assert weight_increment(d, lam_new, lam_old) == pytest.approx(naive, rel=1e-12)


class TestInfiniteDistanceAtLambdaZero:
    def test_first_rung_weights_and_log_z_stay_finite(self):
        # an overflowed distance has kernel value 1 at lambda = 0 and 0 beyond it
        dists = np.array([[math.inf], [1.0], [2.0]])
        lw, log_z = reweight(np.full(3, -math.log(3)), 0.0, dists, ExponentialKernel, 0.0, 1.0)
        assert lw[0] == -math.inf
        assert_same_bits(lw[1:], -math.log(3) - np.array([1.0, 2.0]))
        assert math.isfinite(log_z)
        lam = find_next_lambda(make_system(dists), 0.5, 10.0, kernel=ExponentialKernel)
        assert 0.0 < lam < 10.0


class TestNonFiniteDistances:
    def test_overflowing_particle_has_infinite_distances_and_zero_weight(self):
        # sigma_1 = e^800 overflows; the unclamped moments of its replicates are NaN
        model = MixtureModel(logsigma_prior_sd=60.0)
        theta = model.prior_sample(np.random.default_rng(3), 10) / [1.0, 60.0, 1.0, 60.0]
        theta[0, 1] = 800.0
        summary = SummarySpec(kind="moments_and_tails")
        obs_stats = summarize_batch(summary, np.linspace(-1.0, 4.0, 90))
        with np.errstate(over="ignore", invalid="ignore"):
            dists = simulate_distances(
                model, theta, 90, 4, np.random.default_rng(0), summary, DistanceSpec(), obs_stats
            )
        assert np.all(dists[0] == math.inf)
        assert np.all(np.isfinite(dists[1:]))
        lam = find_next_lambda(make_system(dists), 0.5, 1e3, kernel=ExponentialKernel)
        assert 0.0 < lam < 1e3
        lw, log_z = reweight(np.full(10, -math.log(10)), 0.0, dists, ExponentialKernel, 0.0, lam)
        assert lw[0] == -math.inf and np.all(np.isfinite(lw[1:]))
        assert math.isfinite(log_z)

    def test_eps_ladder_starts_at_the_largest_finite_distance(self):
        # one +inf replicate must not pin the first eps at +inf
        dists = np.array([[math.inf]] + [[float(k)] for k in range(1, 10)])
        eps = find_next_lambda(make_system(dists, lam=math.inf), 0.5, 0.0, kernel=UniformKernel)
        assert 5.0 <= eps < 6.0  # five equally weighted particles inside: ESS 5 = tau * N

    def test_eps_ladder_without_finite_distances_stalls(self):
        system = make_system(np.full((4, 2), math.inf), lam=math.inf)
        with pytest.raises(LadderStallError):
            find_next_lambda(system, 0.5, 0.0, kernel=UniformKernel)


class TestSystematicResample:
    def test_copy_counts_floor_ceil(self, rng):
        # each index j must receive floor(N w_j) or ceil(N w_j) copies
        for _ in range(50):
            w = rng.dirichlet(np.ones(10))
            u = float(rng.random())
            idx = systematic_resample(w, u)
            counts = np.bincount(idx, minlength=10)
            target = 10 * w
            assert np.all(counts >= np.floor(target) - 1e-9)
            assert np.all(counts <= np.ceil(target) + 1e-9)

    def test_u_grid_average_unbiased(self):
        w = np.array([0.5, 0.3, 0.2])
        grid = (np.arange(2000) + 0.5) / 2000
        counts = np.zeros(3)
        for u in grid:
            counts += np.bincount(systematic_resample(w, float(u)), minlength=3)
        np.testing.assert_allclose(counts / 2000, 3 * w, atol=1e-3)

    def test_u_validation(self):
        with pytest.raises(InvalidConfigError):
            systematic_resample(np.array([1.0]), 1.0)

    def test_degenerate_weight_resamples_single_index(self):
        w = np.array([0.0, 1.0, 0.0])
        assert np.all(systematic_resample(w, 0.7) == 1)


def naive_ess(system, kernel, new):
    """ESS after moving the system's weights to ``new``, from plain kernel sums."""
    d, old = system.dists, system.lam
    if kernel is ExponentialKernel:
        ratio = np.exp(-new * d).sum(axis=1) / np.exp(-old * d).sum(axis=1)
    else:
        ratio = (d <= new).sum(axis=1) / (d <= old).sum(axis=1)
    w = np.exp(system.log_weights) * ratio
    return w.sum() ** 2 / (w**2).sum()


# (kernel, start of its ladder, a reachable cap for distances of 1.0)
KERNEL_CASES = [(ExponentialKernel, 0.0, 7.5), (UniformKernel, math.inf, 1.0)]


class TestFindNextLambda:
    # every test but the closed form runs on both ladders: lambda up, eps down

    def test_two_particle_closed_form(self):
        # two particles at distances 0 and 1: ESS(lambda) = tau*2 at
        # e^(-lambda) = 1/3, i.e. lambda = log 3 for tau = 0.8
        system = make_system([[0.0], [1.0]])
        lam = find_next_lambda(system, tau=0.8, cap=10.0, tol=1e-9)
        assert lam == pytest.approx(math.log(3.0), abs=1e-6)

    def test_contract_on_random_systems(self, rng):
        for kernel, start, _ in KERNEL_CASES:
            hits_cap = 0
            for _ in range(100):
                exponential = kernel is ExponentialKernel
                n = int(rng.integers(5, 60))
                m = int(rng.integers(1, 4))
                dists = rng.exponential(size=(n, m))
                system = make_system(dists, lam=float(rng.random()) if exponential else start)
                tau = float(rng.uniform(0.3, 0.95))
                cap = system.lam + float(rng.uniform(0.5, 20.0)) if exponential else float(rng.uniform(0.0, 0.5))
                new = find_next_lambda(system, tau, cap, 1e-4, kernel)
                assert kernel.direction * (new - system.lam) > 0, kernel.name
                if new == cap:
                    hits_cap += 1
                    continue
                got = naive_ess(system, kernel, new)
                if exponential:
                    assert abs(got - tau * n) <= 1e-4 * n
                else:
                    # the ESS is a step function of eps: the contract is one-sided
                    assert got >= tau * n - 1e-4 * n
            assert hits_cap < 100, kernel.name  # at least some interior solutions exercised

    def test_stall_raises(self):
        lw = np.log(np.array([0.999, 0.001]))
        for kernel, start, cap in KERNEL_CASES:
            system = make_system([[0.0], [1.0]], lam=start, log_weights=lw)
            with pytest.raises(LadderStallError):
                find_next_lambda(system, 0.9, cap, kernel=kernel)

    def test_uniform_stall_check_skips_the_ess_at_equal_weights_only(self):
        # equal finite weights have ESS N, which meets any target: the eps search
        # does not compute it.  Weights that are not all equal are still checked:
        # one zero weight among nine equal ones (ESS 9), and one weight set apart
        equal = np.full(10, -math.log(10))
        one_zero = equal.copy()
        one_zero[0] = -math.inf
        apart = equal.copy()
        apart[0] = 5.0
        for m in (1, 3):
            dists = np.tile(np.arange(1.0, 11.0)[:, None], (1, m))

            def next_eps(log_w, tau):
                return find_next_lambda(make_system(dists, math.inf, log_w), tau, 0.0, kernel=UniformKernel)

            with mock.patch.object(smc, "ess", wraps=smc.ess) as ess_calls:
                assert next_eps(equal, 0.95) == 10.0
            assert ess_calls.call_count == 0
            for log_w in (one_zero, apart):
                with pytest.raises(LadderStallError):
                    next_eps(log_w, 0.95)
            with pytest.raises(DegenerateSystemError):
                next_eps(np.full(10, -math.inf), 0.5)

    def test_identical_distances_hit_cap(self):
        for kernel, start, cap in KERNEL_CASES:
            system = make_system([[1.0], [1.0], [1.0]], lam=start)
            assert find_next_lambda(system, 0.9, cap, kernel=kernel) == cap

    def test_infinite_distances_meet_the_contract(self, rng):
        # an infinite replicate distance has kernel value 1 at lambda = 0 and 0
        # past it: no RuntimeWarning (inf * 0) and the usual ESS contract
        for lam in (0.0, 0.7):
            for m in (1, 3):
                for _ in range(20):
                    n = int(rng.integers(10, 60))
                    dists = rng.exponential(size=(n, m))
                    dists[rng.random((n, m)) < 0.2] = math.inf
                    if lam > 0.0:
                        dists[:, 0] = np.minimum(dists[:, 0], 3.0)  # every particle keeps kernel mass
                    system = make_system(dists, lam=lam)
                    new = find_next_lambda(system, 0.5, lam + 20.0, 1e-4)
                    assert lam < new < lam + 20.0
                    # plain kernel sums, with every kernel value 1 at lambda = 0
                    old_sums = m if lam == 0.0 else np.exp(-lam * dists).sum(axis=1)
                    w = np.exp(-new * dists).sum(axis=1) / old_sums
                    assert abs(w.sum() ** 2 / (w**2).sum() - 0.5 * n) <= 1e-4 * n
        with pytest.raises(DegenerateSystemError):  # no lambda > 0 leaves a particle any weight
            find_next_lambda(make_system(np.full((4, 2), math.inf)), 0.5, 10.0)


class TestEpsFromSortedDistances:
    """The eps rung is read off the live distances: finite replicate distances
    within the current eps of particles with weight."""

    def test_tied_distances_step_to_the_next_distance_below(self):
        # every eps in [0.5, 1) keeps one particle, so no eps below 1.0 meets
        # tau*N = 9: the ladder steps to 0.5 anyway, with ESS 1
        system = make_system([[1.0]] * 9 + [[0.5]], lam=1.0)
        assert find_next_lambda(system, 0.9, 0.0, kernel=UniformKernel) == 0.5

    def test_no_distance_below_the_current_eps_stalls(self):
        system = make_system(np.ones((4, 2)), lam=1.0)
        with pytest.raises(LadderStallError):
            find_next_lambda(system, 0.5, 0.0, kernel=UniformKernel)

    def test_oracle_on_random_systems(self, rng):
        outcomes = {"cap": 0, "interior": 0, "no_move": 0}
        for _ in range(300):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(1, 5))
            dists = rng.integers(0, 8, size=(n, m)).astype(float)  # integer distances: ties
            dists[rng.random((n, m)) < 0.1] = math.inf
            eps_cur = math.inf if rng.random() < 0.3 else float(rng.integers(2, 8))
            lacking = ~np.any(dists <= eps_cur, axis=1)  # every row keeps kernel mass at eps_cur
            dists[lacking, 0] = rng.integers(0, int(min(eps_cur, 7.0)) + 1, size=int(lacking.sum()))
            if rng.random() < 0.3:
                log_w = np.full(n, -math.log(n))  # equal weights, as after resampling
            else:
                log_w = np.log(rng.dirichlet(np.ones(n)))
                log_w[rng.random(n) < 0.2] = -math.inf
                if not np.any(np.isfinite(log_w)):
                    continue
            system = make_system(dists, lam=eps_cur, log_weights=log_w)
            tau = float(rng.uniform(0.3, 1.0)) * ess(log_w) / n  # the current ESS meets the target
            cap = float(rng.integers(0, 3)) if rng.random() < 0.5 else float(rng.uniform(0.0, 2.0))
            target = tau * n

            def meets(eps):
                return naive_ess(system, UniformKernel, eps) >= target * (1.0 - 1e-12)

            alive = np.isfinite(log_w)[:, None]
            live = np.unique(dists[alive & (dists <= eps_cur) & np.isfinite(dists)])
            below = live[live < eps_cur]
            cap_meets = np.any(live <= cap) and meets(cap)
            try:
                new = find_next_lambda(system, tau, cap, kernel=UniformKernel)
            except LadderStallError:
                assert not cap_meets and below.size == 0
                continue
            if cap_meets:
                assert new == cap
                outcomes["cap"] += 1
                continue
            assert new == cap or new in below
            # scanning down from eps_cur: the rungs meet the target down to new
            above = below[below > new]
            assert all(meets(v) for v in above)
            if meets(new):
                lower = below[below < new]
                assert lower.size == 0 or not meets(lower[-1])
                assert new > cap
                outcomes["interior"] += 1
            else:
                # no eps below eps_cur meets the target: the next distance below is taken
                assert above.size == 0
                assert new == max(below[-1], cap)
                outcomes["no_move"] += 1
        assert min(outcomes.values()) > 0, outcomes


class TestLambdaSearchCost:
    @pytest.mark.parametrize(
        "preset, overrides",
        [
            ("exp1", ["smc.n_particles=300", "smc.lambda_target=4", "smc.m_max=16"]),
            ("toy-discrete", []),
        ],
    )
    def test_at_most_five_ess_evaluations_per_rung(self, monkeypatch, preset, overrides):
        counts = {"searches": 0, "ess": 0}
        searching = [False]
        ess_fn, search_fn = smc.ess, smc.find_next_lambda

        def counted_ess(log_weights):
            counts["ess"] += searching[0]
            return ess_fn(log_weights)

        def counted_search(*args, **kwargs):
            counts["searches"] += 1
            searching[0] = True
            try:
                return search_fn(*args, **kwargs)
            finally:
                searching[0] = False

        monkeypatch.setattr(smc, "ess", counted_ess)
        monkeypatch.setattr(smc, "find_next_lambda", counted_search)
        cfg = cfgmod.apply_overrides(cfgmod.preset(preset), overrides)
        _, trace = run_smc(
            cfgmod.build_smc_config(cfg, 0),
            cfgmod.build_model(cfg),
            cfgmod.build_summary(cfg),
            cfgmod.build_distance(cfg),
            cfgmod.build_observations(cfg, 0),
        )
        assert trace.status == "ok" and counts["searches"] == len(trace) > 1
        assert counts["ess"] / counts["searches"] <= 5.0


class TestUpdateLogZ:
    def test_matches_naive_recomputation(self, rng):
        d = rng.exponential(size=(30, 2))
        lw = rng.normal(size=30)
        lw -= logsumexp(lw, axis=0)
        lam_new = 1.7
        w = np.exp(lw)
        naive = -1.25 + math.log(
            np.sum(w * (np.exp(-lam_new * d).sum(axis=1) / np.exp(-0.5 * d).sum(axis=1)))
        )
        _, log_z = reweight(lw, -1.25, d, ExponentialKernel, 0.5, lam_new)
        assert log_z == pytest.approx(naive, rel=1e-12)


class TestSimulateDistances:
    def test_shape_and_chunking(self, rng, monkeypatch):
        model = GaussianLocationModel()
        summary = SummarySpec(kind="mean")
        dist = DistanceSpec()
        theta = model.prior_sample(rng, 13)
        # the mean is drawn as one value per replicate: 100 // 13 gives chunks of 7 and 2
        monkeypatch.setattr(smc, "MAX_SIM_ELEMENTS", 100)
        with mock.patch.object(GaussianLocationModel, "simulate_batch", autospec=True,
                               side_effect=GaussianLocationModel.simulate_batch) as batch:
            d = simulate_distances(model, theta, 20, 9, rng, summary, dist, np.zeros(1))
        assert [c.args[3] for c in batch.call_args_list] == [7, 2]
        assert d.shape == (13, 9)
        assert np.all(np.isfinite(d)) and np.all(d >= 0)

    @pytest.mark.parametrize("model", [GaussianLocationModel(), small_discrete_model()], ids=["gaussian", "discrete"])
    def test_one_chunk_gives_the_chunked_bits(self, monkeypatch, model):
        # the one-chunk path returns simulate_batch's result itself; with one
        # particle the replicates follow one another in the stream however the
        # chunks cut them, so both paths must give the same bits, NaN made +inf
        def with_nan(spec, stats, observed):
            d = distance_batch(spec, stats, observed)
            d[d > 1.0] = np.nan
            return d

        monkeypatch.setattr(smc, "distance_batch", with_nan)
        summary = SummarySpec(kind="mean") if model.theta_atoms is None else SummarySpec(kind="identity")
        theta = model.prior_sample(np.random.default_rng(0), 1)
        obs_stats = np.array([0.3]) if model.theta_atoms is None else np.array([0.0, 2.0])
        n_obs = 1 if model.theta_atoms is None else 2
        ends = []
        for limit in (smc.MAX_SIM_ELEMENTS, 2 * n_obs):  # one chunk of 9, then chunks of 2
            monkeypatch.setattr(smc, "MAX_SIM_ELEMENTS", limit)
            with mock.patch.object(type(model), "simulate_batch", autospec=True,
                                   side_effect=type(model).simulate_batch) as batch:
                d = simulate_distances(model, theta, n_obs, 9, np.random.default_rng(4), summary, DistanceSpec(), obs_stats)
            ends.append((d, [c.args[3] for c in batch.call_args_list]))
        (one, one_calls), (chunked, chunked_calls) = ends
        assert one_calls == [9] and chunked_calls == [2, 2, 2, 2, 1]
        assert_same_bits(one, chunked)
        assert one.shape == (1, 9) and np.any(np.isinf(one)) and not np.any(np.isnan(one))

    def test_unclamped_mean_draws_the_sample_mean_exactly(self):
        # the Gaussian sample mean is drawn as theta + (sd / sqrt(n)) z, one
        # standard normal per replicate
        model = GaussianLocationModel(noise_sd=1.3)
        theta = model.prior_sample(np.random.default_rng(1), 40)
        ybar = np.array([0.4])
        d = simulate_distances(
            model, theta, 50, 6, np.random.default_rng(2), SummarySpec(kind="mean"),
            DistanceSpec(kind="lp", p=1), ybar,
        )
        z = np.random.default_rng(2).normal(size=(40, 6, 1))
        expected = np.abs(theta[:, 0, None, None] + (1.3 / np.sqrt(50)) * z - ybar)[..., 0]
        assert np.array_equal(d, expected)

    def test_clamped_mean_simulates_full_datasets(self):
        model = GaussianLocationModel(noise_sd=1.3)
        summary, dist = SummarySpec(kind="mean", clamp=(-0.5, 0.5)), DistanceSpec()
        theta = model.prior_sample(np.random.default_rng(1), 40)
        obs_stats = np.array([0.1])
        d = simulate_distances(model, theta, 50, 6, np.random.default_rng(2), summary, dist, obs_stats)
        sims = model.simulate_batch(theta, 50, 6, np.random.default_rng(2))
        assert np.array_equal(d, distance_batch(dist, summarize_batch(summary, sims), obs_stats))

    def test_non_finite_theta_raises(self):
        theta = np.array([[0.0], [np.nan]])
        with pytest.raises(InvalidParameterError):
            simulate_distances(
                GaussianLocationModel(), theta, 50, 2, np.random.default_rng(0),
                SummarySpec(kind="mean"), DistanceSpec(), np.zeros(1),
            )


def _toy_problem():
    model = small_discrete_model()
    return model, SummarySpec(kind="identity"), DistanceSpec(kind="lp", p=1), np.array([0.0, 2.0])


class TestRunSMC:
    def test_ladder_strictly_increasing_and_ends_at_target(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=400, lambda_target=4.0, adapt_m=False, seed=2)
        system, trace = run_smc(cfg, model, summary, dist, obs)
        lams = trace.lambdas
        assert np.all(np.diff(lams) > 0)
        assert lams[-1] == 4.0
        assert system.lam == 4.0
        assert trace.status == "ok"
        assert logsumexp(system.log_weights, axis=0) == pytest.approx(0.0, abs=1e-10)

    def test_lambda_zero_returns_prior_sample(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=3000, lambda_target=0.0, seed=0)
        system, trace = run_smc(cfg, model, summary, dist, obs)
        assert len(trace) == 0
        assert system.log_z == 0.0
        frac0 = np.mean(system.theta[:, 0] == 0.0)
        assert frac0 == pytest.approx(0.6, abs=0.03)

    def test_deterministic_given_seed(self, tmp_path):
        model, summary, dist, obs = _toy_problem()
        outs = []
        for run in range(2):
            cfg = SMCConfig(n_particles=300, lambda_target=3.0, seed=11)
            _, trace = run_smc(cfg, model, summary, dist, obs)
            path = tmp_path / f"trace{run}.csv"
            trace.to_csv(path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self):
        model, summary, dist, obs = _toy_problem()
        traces = []
        for seed in (1, 2):
            cfg = SMCConfig(n_particles=300, lambda_target=3.0, seed=seed)
            _, trace = run_smc(cfg, model, summary, dist, obs)
            traces.append(trace.log_zs)
        assert not np.array_equal(traces[0], traces[1])

    def test_uniform_kernel_eps_ladder_decreasing(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(
            n_particles=500,
            kernel="uniform",
            eps_target=0.0,
            lambda_target=None,
            sim_budget=40_000,
            adapt_m=False,
            seed=4,
        )
        system, trace = run_smc(cfg, model, summary, dist, obs)
        eps = trace.lambdas
        assert len(eps) >= 1 and np.isfinite(eps[0])
        assert np.all(np.diff(eps) <= 0)
        assert trace.kernel == "uniform"
        # surviving particles all match within the final window
        kern = UniformKernel.log_sum(system.dists, system.lam)
        alive = np.isfinite(system.log_weights)
        assert np.all(np.isfinite(kern[alive]))

    def test_eps_ladder_moves_on_tied_distances(self):
        # the sup distance of indicator means takes multiples of 1/n only; the
        # ladder steps down through them and stops with a stall at the last one
        cfg = cfgmod.preset("exp3")
        smc_cfg = dataclasses.replace(
            cfgmod.build_smc_config(cfg, 0),
            n_particles=300,
            kernel="uniform",
            eps_target=0.0,
            lambda_target=None,
            max_steps=300,
            on_stall="stop",
        ).validate()
        _, trace = run_smc(
            smc_cfg,
            cfgmod.build_model(cfg),
            cfgmod.build_summary(cfg),
            cfgmod.build_distance(cfg),
            cfgmod.build_observations(cfg, 0),
        )
        assert trace.status == "ladder_stall"
        assert len(trace) < 150
        assert np.all(np.diff(trace.lambdas) < 0)
        assert trace.lambdas[-1] < 5.0 / 90

    def test_advance_pushes_lambda_by_half_and_keeps_the_weights(self, monkeypatch):
        search = smc.find_next_lambda
        seen = []

        def stalls_on_the_third_rung(system, *args, **kwargs):
            seen.append(system.log_weights.copy())
            if len(seen) == 3:
                raise LadderStallError("forced")
            return search(system, *args, **kwargs)

        monkeypatch.setattr(smc, "find_next_lambda", stalls_on_the_third_rung)
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=300, lambda_target=50.0, mcmc_steps=0, on_stall="advance", seed=0)
        _, trace = run_smc(cfg, model, summary, dist, obs)
        lams = trace.lambdas
        assert trace.status == "ok" and lams[-1] == 50.0
        assert lams[2] == 1.5 * lams[1] and np.all(np.diff(lams) > 0)
        assert np.ptp(seen[3]) > 0.0  # the stalled step reweighted without resampling

    def test_sim_budget_stops_run(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=300, lambda_target=50.0, sim_budget=1500, seed=0)
        system, trace = run_smc(cfg, model, summary, dist, obs)
        assert trace.status == "budget_exhausted"
        assert system.lam < 50.0

    def test_run_ends_at_the_target_max_steps_or_before_any_step(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=300, lambda_target=5.0, seed=0)
        _, full = run_smc(cfg, model, summary, dist, obs)
        steps = len(full)
        assert full.status == "ok" and steps >= 2
        # the last rung lands exactly on step max_steps
        _, trace = run_smc(dataclasses.replace(cfg, max_steps=steps), model, summary, dist, obs)
        assert trace.status == "ok" and len(trace) == steps and trace.lambdas[-1] == 5.0
        # one step fewer stops below the target
        _, trace = run_smc(dataclasses.replace(cfg, max_steps=steps - 1), model, summary, dist, obs)
        assert trace.status == "max_steps" and len(trace) == steps - 1 and trace.lambdas[-1] < 5.0
        # the prior is already the target: no step, and only the first draw's simulations
        system, trace = run_smc(dataclasses.replace(cfg, lambda_target=0.0), model, summary, dist, obs)
        assert trace.status == "ok" and len(trace) == 0 and system.sim_calls == 300

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            SMCConfig(n_particles=1).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(tau=1.5).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(kernel="uniform").validate()  # needs eps_target
        with pytest.raises(InvalidConfigError):
            SMCConfig(lambda_target=None).validate()  # the exponential kernel needs a target
        # a target the ladder cannot reach would run to max_steps
        for target in (math.inf, math.nan):
            with pytest.raises(InvalidConfigError, match="finite lambda_target"):
                SMCConfig(lambda_target=target).validate()
            with pytest.raises(InvalidConfigError, match="finite eps_target"):
                SMCConfig(kernel="uniform", eps_target=target, lambda_target=None).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(m_change="bogus").validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(on_stall="bogus").validate()
        for mode in ("raise", "stop", "advance"):
            SMCConfig(on_stall=mode).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(m_max=0).validate()
        for schedule in ({2: 0}, {2: -1}, {0: 2}):
            with pytest.raises(InvalidConfigError, match="m_schedule"):
                SMCConfig(m_schedule=schedule).validate()
        SMCConfig(m_schedule={2: 256}).validate()  # a scheduled M may exceed m_max
        # a run that would end before its first rung
        for steps in (0, -1):
            with pytest.raises(InvalidConfigError, match="max_steps must be >= 1"):
                SMCConfig(max_steps=steps).validate()
        for budget in (0, 299, 300):  # the first draw alone spends n_particles calls
            with pytest.raises(InvalidConfigError, match="sim_budget must exceed n_particles"):
                SMCConfig(n_particles=300, sim_budget=budget).validate()
        SMCConfig(n_particles=300, sim_budget=301, max_steps=1).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observations_rejected(self, bad):
        obs = np.random.default_rng(0).normal(0.5, 1.0, size=50)
        obs[7] = bad
        cfg = SMCConfig(n_particles=200, lambda_target=3.0, adapt_m=False, seed=0)
        with pytest.raises(InvalidInputError):
            run_smc(cfg, GaussianLocationModel(), SummarySpec(kind="mean"), DistanceSpec(), obs)

    @pytest.mark.parametrize("change,schedule", [("gibbs", {1: 2, 2: 1}), ("is", {1: 2, 2: 3})])
    def test_uniform_kernel_m_change_respects_the_window(self, change, schedule):
        # M goes to 2 at step 1 and changes again at step 2 under the uniform
        # kernel: the Gibbs refresh keeps a replicate inside eps, and the IS
        # correction zeroes exactly the particles whose fresh replicates all
        # fall outside it.  The zeroed
        # particles stay at weight zero on the later rungs, so the run reaches
        # eps_target with a finite log Z
        obs = np.random.default_rng(1).normal(0.5, 1.0, size=20)
        cfg = SMCConfig(
            n_particles=400,
            kernel="uniform",
            eps_target=0.01,
            lambda_target=None,
            tau=0.5,
            m_schedule=schedule,
            m_change=change,
            store_snapshots=True,
            seed=3,
        )
        _, trace = run_smc(cfg, GaussianLocationModel(), SummarySpec(kind="mean"), DistanceSpec(), obs)
        assert trace.status == "ok" and trace.records[-1].lam == 0.01
        assert len(trace.records) > 2
        assert all(np.isfinite(r.log_z) and np.isfinite(r.ess) for r in trace.records)
        rec = trace.records[1]
        _, dists, log_w = rec.snapshot
        in_window = np.isfinite(UniformKernel.log_sum(dists, rec.lam))
        if change == "gibbs":
            assert np.all(dists[:, 0] <= rec.lam)
        else:
            assert 0 < np.sum(~in_window) < len(in_window)
            np.testing.assert_array_equal(np.isfinite(log_w), in_window)
            _, w = posterior_at_lambda(trace, rec.lam)
            assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0)
            np.testing.assert_array_equal(w > 0, in_window)

    def test_uniform_kernel_log_z_matches_window_probability(self):
        # toy-quadrature on the eps ladder: Z_eps = P(|W - ybar| <= eps) for
        # the simulated sample mean W ~ N(0, prior_var + sd^2/n), written with
        # erf at s = sqrt(2 var(W))
        cfg = cfgmod.preset("toy-quadrature")
        eps = 0.05
        errors = []
        for seed in range(5):
            obs = cfgmod.build_observations(cfg, seed)
            smc_cfg = cfgmod.build_smc_config(cfg, seed=seed)
            smc_cfg.n_particles, smc_cfg.kernel, smc_cfg.eps_target = 5000, "uniform", eps
            smc_cfg.lambda_target = None
            system, trace = run_smc(
                smc_cfg, cfgmod.build_model(cfg), cfgmod.build_summary(cfg), cfgmod.build_distance(cfg), obs
            )
            assert trace.status == "ok" and system.lam == eps
            s = math.sqrt(2.0 * (4.0 + 1.0 / len(obs)))
            ybar = float(obs.mean())
            exact = math.log(0.5 * (math.erf((ybar + eps) / s) - math.erf((ybar - eps) / s)))
            errors.append(abs(system.log_z - exact))
        assert np.mean(errors) < 0.05

    def test_m_schedule_forced(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(
            n_particles=200, lambda_target=3.0, m_schedule={1: 2, 2: 4}, seed=5
        )
        _, trace = run_smc(cfg, model, summary, dist, obs)
        ms = [r.m for r in trace.records]
        assert ms[0] == 2 and ms[1] == 4 and all(m == 4 for m in ms[2:])

    @pytest.mark.parametrize("m_change", ["gibbs", "is"])
    def test_every_simulation_goes_through_one_binding(self, m_change):
        # the initial draw, the MCMC sweeps and the M refresh all call
        # smc.simulate_distances, and together they make the run's sim_calls
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=200, lambda_target=3.0, mcmc_steps=2, m_schedule={1: 2, 2: 4},
                        m_change=m_change, on_stall="stop", seed=5)
        refresh = f"{m_change}_refresh_system"
        with mock.patch.object(smc, "simulate_distances", wraps=smc.simulate_distances) as sim, \
                mock.patch.object(smc.mcmc, "rejuvenate", wraps=smc.mcmc.rejuvenate) as mh, \
                mock.patch.object(smc.madapt, refresh, wraps=getattr(smc.madapt, refresh)) as ref:
            system, trace = run_smc(cfg, model, summary, dist, obs)
        ms = [1] + [r.m for r in trace.records]
        assert mh.call_count == len(trace) and ref.call_count == sum(a != b for a, b in zip(ms, ms[1:])) >= 1
        assert sum(c.args[1].shape[0] * c.args[3] for c in sim.call_args_list) == system.sim_calls

    def test_proposals_outside_the_prior_are_never_simulated(self, monkeypatch):
        # the middle atom has prior weight 0: the prior stage rejects every
        # proposal there before anything is simulated for it
        model = DiscreteToyModel.from_obs_probs(
            theta_values=[0.0, 1.0, 2.0],
            prior_weights=[0.5, 0.0, 0.5],
            obs_values=[0.0, 1.0, 2.0],
            obs_probs=[[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.1, 0.2, 0.7]],
            n=2,
        )
        summary, dist, obs = SummarySpec(kind="identity"), DistanceSpec(kind="lp", p=1), np.array([0.0, 2.0])
        seen = []
        rejuvenate = smc.mcmc.rejuvenate

        def spying(system, model, simulate, *args):
            def spy(theta, m):
                seen.append((theta.copy(), m))
                return simulate(theta, m)

            return rejuvenate(system, model, spy, *args)

        monkeypatch.setattr(smc.mcmc, "rejuvenate", spying)
        n, k = 300, 3
        cfg = SMCConfig(n_particles=n, lambda_target=3.0, mcmc_steps=k, adapt_m=False, seed=1)
        system, trace = run_smc(cfg, model, summary, dist, obs)
        assert trace.status == "ok" and len(seen) == k * len(trace)
        rows = sum(theta.shape[0] for theta, _ in seen)
        assert 0 < rows < n * k * len(trace)  # about a third of the proposals land on the middle atom
        assert not any(np.any(theta == 1.0) for theta, _ in seen)
        assert system.sim_calls == n + sum(theta.shape[0] * m for theta, m in seen)


class TestTraceAndSnapshots:
    def test_csv_round_trip(self, tmp_path):
        model, summary, dist, obs = _toy_problem()
        # the second run changes M through the IS refresh, whose weights make
        # ess_post_refresh differ from both ess and N
        for extra in ({}, {"m_schedule": {2: 4}, "m_change": "is", "on_stall": "stop"}):
            cfg = SMCConfig(n_particles=200, lambda_target=3.0, seed=7, **extra)
            _, trace = run_smc(cfg, model, summary, dist, obs)
            path = tmp_path / "trace.csv"
            trace.to_csv(path)
            loaded = load_trace_csv(path)
            np.testing.assert_allclose(loaded.lambdas, trace.lambdas, rtol=0)
            np.testing.assert_allclose(loaded.log_zs, trace.log_zs, rtol=0)
            assert [r.m for r in loaded.records] == [r.m for r in trace.records]
            for field in ("ess", "ess_post_refresh", "accept_rate"):
                got = [getattr(r, field) for r in loaded.records]
                assert got == [getattr(r, field) for r in trace.records]
        assert any(r.ess_post_refresh != r.ess for r in trace.records)

    def test_csv_without_ess_post_refresh_loads_nan(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,lambda,ess,accept_rate,M,log_z,theta_mean_1,theta_sd_1\n1,0.5,180,0.4,1,-0.1,0.2,0.9\n")
        (rec,) = load_trace_csv(path).records
        assert rec.ess == 180.0 and math.isnan(rec.ess_post_refresh)

    def test_snapshot_reweighting_exact(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=500, lambda_target=3.0, store_snapshots=True, seed=9)
        _, trace = run_smc(cfg, model, summary, dist, obs)
        rec = trace.records[len(trace.records) // 2]
        lam_q = rec.lam  # querying exactly at a ladder knot returns its weights
        theta, w = posterior_at_lambda(trace, lam_q)
        snap_theta, snap_d, snap_lw = rec.snapshot
        np.testing.assert_allclose(w, np.exp(snap_lw - logsumexp(snap_lw, axis=0)), rtol=1e-12)
        # off-knot query: manual incremental reweighting oracle
        lam_q = rec.lam + 1e-3
        theta, w = posterior_at_lambda(trace, lam_q)
        lw = snap_lw + ExponentialKernel.log_sum(snap_d, lam_q) - ExponentialKernel.log_sum(
            snap_d, rec.lam
        )
        lw -= logsumexp(lw, axis=0)
        np.testing.assert_allclose(w, np.exp(lw), rtol=1e-12)

    def test_snapshot_thinning_keeps_final(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=100, lambda_target=6.0, store_snapshots=True, seed=3)
        _, trace = run_smc(cfg, model, summary, dist, obs)
        assert sum(r.snapshot is not None for r in trace.records) == len(trace.records) > 3
        _thin_snapshots(trace, 3)
        with_snap = [r for r in trace.records if r.snapshot is not None]
        assert 1 <= len(with_snap) <= 3
        assert trace.records[-1].snapshot is not None

    def test_posterior_at_lambda_requires_snapshots(self):
        with pytest.raises(InvalidConfigError):
            posterior_at_lambda(LadderTrace(), 1.0)


class TestSamplerInvariants:
    """After every step of a run: log weights finite where alive, without NaN, and
    normalised; log Z never rises; no kernel weight increment is positive; each
    non-final exponential rung meets the ESS target within the search
    tolerance; and every eps rung lies strictly below the one before it."""

    @settings(max_examples=12, deadline=None)
    @given(
        preset=st.sampled_from(["toy-discrete", "toy-quadrature"]),
        kernel=st.sampled_from(["exponential", "uniform"]),
        refresh=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_invariants_hold_after_every_step(self, preset, kernel, refresh, seed):
        cfg = cfgmod.preset(preset)
        smc_cfg = dataclasses.replace(
            cfgmod.build_smc_config(cfg, seed),
            n_particles=200,
            lambda_target=4.0 if kernel == "exponential" else None,
            kernel=kernel,
            eps_target=1.0 if preset == "toy-discrete" else 0.05,
            max_steps=40,  # keeps each example short, and below SNAPSHOT_MAX, so no snapshot is thinned
            m_schedule={1: 2, 3: 4} if refresh else None,
            m_change="gibbs",
            store_snapshots=True,  # each step's log weights, as the step left them
        ).validate()
        increments = []

        def recording_reweight(log_weights, *args):
            out = reweight(log_weights, *args)
            alive = np.isfinite(log_weights)
            increments.append(out[0][alive] - log_weights[alive])
            return out

        with mock.patch.object(smc, "reweight", recording_reweight):
            _, trace = run_smc(
                smc_cfg,
                cfgmod.build_model(cfg),
                cfgmod.build_summary(cfg),
                cfgmod.build_distance(cfg),
                cfgmod.build_observations(cfg, seed),
            )
        records = trace.records
        assert records
        for r in records:
            lw = r.snapshot[2]
            assert not np.any(np.isnan(lw))
            assert abs(logsumexp(lw, axis=0)) <= 1e-9
        assert len(increments) == len(records)
        assert all(np.all(inc <= 0.0) for inc in increments)
        log_z = [0.0] + [r.log_z for r in records]
        assert np.all(np.diff(log_z) <= 0.0)
        if kernel == "exponential":
            for r in records[:-1]:
                assert abs(r.ess - smc_cfg.tau * 200) <= 1e-4 * 200
        else:
            assert np.all(np.diff([r.lam for r in records]) < 0.0)
