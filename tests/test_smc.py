import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc import config as cfgmod
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
    ess,
    find_next_lambda,
    load_trace_csv,
    logsumexp,
    posterior_at_lambda,
    predict_next_lambda,
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
        observed_stats=np.zeros(1),
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

    def test_identical_distances_hit_cap(self):
        for kernel, start, cap in KERNEL_CASES:
            system = make_system([[1.0], [1.0], [1.0]], lam=start)
            assert find_next_lambda(system, 0.9, cap, kernel=kernel) == cap


class TestPredictNextLambda:
    def test_geometric_history_extrapolates(self):
        history = [(t, 0.5 * 2.0**t) for t in range(1, 6)]
        pred = predict_next_lambda(history)
        assert pred == pytest.approx(0.5 * 2.0**6, rel=1e-9)

    def test_single_point_doubles(self):
        assert predict_next_lambda([(1, 3.0)]) == pytest.approx(6.0)

    def test_empty_history(self):
        assert predict_next_lambda([]) == 1.0


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
    def test_shape_and_chunking(self, rng):
        model = GaussianLocationModel()
        summary = SummarySpec(kind="mean")
        dist = DistanceSpec()
        theta = model.prior_sample(rng, 13)
        d = simulate_distances(
            model, theta, 20, 9, rng, summary, dist, np.zeros(1), max_elements=100
        )
        assert d.shape == (13, 9)
        assert np.all(np.isfinite(d)) and np.all(d >= 0)

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

    def test_sim_budget_stops_run(self):
        model, summary, dist, obs = _toy_problem()
        cfg = SMCConfig(n_particles=300, lambda_target=50.0, sim_budget=1500, seed=0)
        system, trace = run_smc(cfg, model, summary, dist, obs)
        assert trace.status == "budget_exhausted"
        assert system.lam < 50.0

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            SMCConfig(n_particles=1).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(tau=1.5).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(kernel="uniform").validate()  # needs eps_target
        with pytest.raises(InvalidConfigError):
            SMCConfig(lambda_target=None, lambda_max=None).validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(m_change="bogus").validate()
        with pytest.raises(InvalidConfigError):
            SMCConfig(on_stall="bogus").validate()
        for mode in ("raise", "stop", "advance"):
            SMCConfig(on_stall=mode).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observations_rejected(self, bad):
        obs = np.random.default_rng(0).normal(0.5, 1.0, size=50)
        obs[7] = bad
        cfg = SMCConfig(n_particles=200, lambda_target=3.0, adapt_m=False, seed=0)
        with pytest.raises(InvalidInputError):
            run_smc(cfg, GaussianLocationModel(), SummarySpec(kind="mean"), DistanceSpec(), obs)

    @pytest.mark.parametrize("change,schedule", [("gibbs", {2: 1}), ("is", {2: 3})])
    def test_uniform_kernel_m_change_respects_the_window(self, change, schedule):
        # M changes at step 2 under the uniform kernel: the Gibbs refresh keeps
        # a replicate inside eps, and the IS correction zeroes exactly the
        # particles whose fresh replicates all fall outside it.  The zeroed
        # particles stay at weight zero on the later rungs, so the run reaches
        # eps_target with a finite log Z
        obs = np.random.default_rng(1).normal(0.5, 1.0, size=20)
        cfg = SMCConfig(
            n_particles=400,
            kernel="uniform",
            eps_target=0.01,
            lambda_target=None,
            tau=0.5,
            initial_m=2,
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
        cfg = SMCConfig(
            n_particles=100, lambda_target=6.0, store_snapshots=True, snapshot_max=3, seed=3
        )
        _, trace = run_smc(cfg, model, summary, dist, obs)
        with_snap = [r for r in trace.records if r.snapshot is not None]
        assert 1 <= len(with_snap) <= 3
        assert trace.records[-1].snapshot is not None

    def test_posterior_at_lambda_requires_snapshots(self):
        with pytest.raises(InvalidConfigError):
            posterior_at_lambda(LadderTrace(), 1.0)


class TestSamplerInvariants:
    """After every step of a run: log weights finite where alive, without NaN, and
    normalised; log Z never rises; and each non-final exponential rung meets the ESS
    target within the bisection tolerance."""

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
            max_steps=40,  # the eps ladder can freeze on the discrete toy's tied distances
            m_schedule={1: 2, 3: 4} if refresh else None,
            m_change="gibbs",
        ).validate()
        records = []

        def check(record, system):
            lw = system.log_weights
            assert not np.any(np.isnan(lw))
            assert abs(logsumexp(lw, axis=0)) <= 1e-9
            records.append(record)

        run_smc(
            smc_cfg,
            cfgmod.build_model(cfg),
            cfgmod.build_summary(cfg),
            cfgmod.build_distance(cfg),
            cfgmod.build_observations(cfg, seed),
            hooks=[check],
        )
        assert records
        log_z = [0.0] + [r.log_z for r in records]
        assert np.all(np.diff(log_z) <= 0.0)
        if kernel == "exponential":
            for r in records[:-1]:
                assert abs(r.ess - smc_cfg.tau * 200) <= smc_cfg.bisect_tol * 200
