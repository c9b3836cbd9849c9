import math

import numpy as np
import pytest

from abcsmc.bounds import (
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
from abcsmc.exceptions import InvalidConfigError, InvalidInputError, OutOfRangeError
from abcsmc.smc import LadderTrace, StepRecord


def _const(**kw):
    base = dict(n=90, m=6, p=2, K=625.0, d=4, theta_var=100.0, eps=0.05)
    base.update(kw)
    return BoundConstants(**base)


def _random_constants(rng):
    return BoundConstants(
        n=int(rng.integers(2, 1000)),
        m=int(rng.integers(1, 20)),
        p=float(rng.uniform(1.0, 6.0)),
        K=float(rng.uniform(0.1, 1000.0)),
        d=int(rng.integers(1, 8)),
        theta_var=float(rng.uniform(0.1, 200.0)),
        lipschitz=float(rng.uniform(0.1, 10.0)),
        var_proxy=float(rng.uniform(0.1, 10.0)),
        eps=float(rng.uniform(0.01, 0.5)),
        alpha=float(rng.uniform(1e-5, 1e-2)),
    )


class TestConstantsAndReport:
    def test_positivity_validation(self):
        with pytest.raises(InvalidConfigError):
            _const(n=0)
        with pytest.raises(InvalidConfigError):
            _const(K=-1.0)
        with pytest.raises(InvalidConfigError):
            _const(eps=1.0)

    def test_report_component_sum_invariant(self):
        with pytest.raises(InvalidInputError):
            BoundReport(lam_or_beta=1.0, value=3.0, components={"a": 1.0, "b": 1.0})
        rep = BoundReport(lam_or_beta=1.0, value=2.0, components={"a": 1.0, "b": 1.0})
        assert rep.value == 2.0


class TestEffectiveStatisticCount:
    def test_small_m_returns_m(self):
        # at m = 6, p = 2: min(6, 2e log 6 = 9.74.., p - 1 = 1) = 1
        assert effective_statistic_count(2.0, 6) == pytest.approx(1.0)

    def test_log_branch(self):
        # large p, moderate m: 2e log m is smallest
        m = 50
        assert effective_statistic_count(100.0, m) == pytest.approx(2 * math.e * math.log(m))

    def test_m_branch(self):
        assert effective_statistic_count(100.0, 1) == 1.0

    def test_never_exceeds_m(self, rng):
        for _ in range(100):
            p = float(rng.uniform(1.0, 200.0))
            m = int(rng.integers(1, 1000))
            assert effective_statistic_count(p, m) <= m + 1e-12


class TestMcDiarmidF:
    def test_lp_closed_form(self):
        # 60^2 * 625^2 * 6^(2/2) / 90 = 9.375e7
        c = _const()
        assert mcdiarmid_f(c, 60.0, "lp") == pytest.approx(
            60.0**2 * 625.0**2 * 6.0 / 90.0, rel=1e-12
        )
        assert mcdiarmid_f(c, 60.0, "lp") == pytest.approx(9.375e7, rel=1e-12)

    def test_scaled_l2_closed_form(self):
        c = _const(n=50, K=1.0, m=1)
        assert mcdiarmid_f(c, 20.0, "scaled_empirical_l2") == pytest.approx(
            20.0**2 / (2 * 50), rel=1e-12
        )

    def test_quadratic_in_lambda(self):
        c = _const()
        assert mcdiarmid_f(c, 2.0) == pytest.approx(4.0 * mcdiarmid_f(c, 1.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            mcdiarmid_f(_const(), -1.0)
        with pytest.raises(InvalidConfigError):
            mcdiarmid_f(_const(), 1.0, "bogus")


class TestEmpiricalBound:
    def test_three_term_example(self):
        # -log Z / lam = 2, f / lam = 0.5, log(1/eps) / lam = 1
        c = _const(n=10, m=1, p=2, K=math.sqrt(2.5), eps=math.exp(-2.0))
        rep = empirical_bound(log_z_hat=-4.0, lam=2.0, constants=c)
        assert rep.components["neg_log_z"] == pytest.approx(2.0, rel=1e-12)
        assert rep.components["concentration"] == pytest.approx(0.5, rel=1e-12)
        assert rep.components["confidence"] == pytest.approx(1.0, rel=1e-12)
        assert rep.value == pytest.approx(3.5, rel=1e-12)

    def test_naive_recomputation_random(self, rng):
        for _ in range(100):
            c = _random_constants(rng)
            lam = float(rng.uniform(0.1, 100.0))
            log_z = float(rng.normal(scale=10.0))
            kind = ["lp", "sup", "scaled_empirical_l2"][int(rng.integers(3))]
            rep = empirical_bound(log_z, lam, c, kind)
            if kind == "scaled_empirical_l2":
                f = lam**2 * c.K / (2 * c.n)
            else:
                f = lam**2 * c.K**2 * c.m ** (2 / c.p) / c.n
            naive = -log_z / lam + f / lam + math.log(1 / c.eps) / lam
            assert rep.value == pytest.approx(naive, rel=1e-10)

    def test_lambda_validation(self):
        with pytest.raises(OutOfRangeError):
            empirical_bound(0.0, 0.0, _const())


class TestExponentialFamilyKL:
    def test_closed_form_example(self):
        # KL(Exp(2a), Exp(a)) = log 2 + (a - 2a)/(2a) = log 2 - 1/2
        assert exponential_family_kl(2.0, 1.0) == pytest.approx(math.log(2) - 0.5, rel=1e-12)

    def test_zero_at_equal_rates(self):
        assert exponential_family_kl(3.7, 3.7) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0.01, 10.0, size=2)
            assert exponential_family_kl(b, a) >= -1e-15

    def test_quadrature_oracle(self):
        # direct numerical integral of the KL density ratio
        from scipy.integrate import quad

        beta, alpha = 1.7, 0.4
        # integrand written with the log ratio expanded to avoid underflow
        val, _ = quad(
            lambda x: beta
            * math.exp(-beta * x)
            * (math.log(beta / alpha) + (alpha - beta) * x),
            0,
            np.inf,
        )
        assert exponential_family_kl(beta, alpha) == pytest.approx(val, rel=1e-9)


def _synthetic_trace(lams, logzs):
    recs = [
        StepRecord(
            step=i + 1,
            lam=float(l),
            ess=900.0,
            accept_rate=0.2,
            m=1,
            log_z=float(z),
            theta_mean=np.zeros(1),
            theta_sd=np.ones(1),
            ess_post_refresh=900.0,
        )
        for i, (l, z) in enumerate(zip(lams, logzs))
    ]
    return LadderTrace(records=recs)


class TestAdaptiveSelection:
    def test_objective_closed_form(self):
        c = _const(n=10, m=1, p=2, K=1.0, eps=0.05, alpha=1e-3)
        log_z_at = lambda lam: -0.5 * lam  # noqa: E731
        beta = 2.0
        expected = beta * (
            0.25
            + (2.0 / beta**2) * (1.0 / 10.0)
            + exponential_family_kl(beta, 1e-3)
            + math.log(20.0)
        )
        got = adaptive_objective(beta, log_z_at, c, "lp")
        assert got == pytest.approx(expected, rel=1e-12)

    def test_beta_must_exceed_alpha(self):
        with pytest.raises(InvalidConfigError):
            adaptive_objective(1e-4, lambda l: 0.0, _const(), "lp")

    def test_grid_minimum_matches_brute_force(self):
        lams = np.linspace(0.5, 40.0, 30)
        logzs = -0.8 * lams + 0.002 * lams**2
        trace = _synthetic_trace(lams, logzs)
        c = _const(n=200, m=2, p=2, K=1.0)
        lam_hat, rep = adaptive_select_lambda(trace, c, distance_kind="lp")
        log_z_at = lambda lam: float(np.interp(lam, lams, logzs))  # noqa: E731
        grid = np.geomspace(1 / 40.0, 1 / 0.5, 64)
        vals = [adaptive_objective(float(b), log_z_at, c, "lp") for b in grid]
        b_star = float(grid[int(np.argmin(vals))])
        assert lam_hat == pytest.approx(1.0 / b_star, rel=1e-12)
        assert rep.value == pytest.approx(min(vals), rel=1e-12)

    def test_interior_vs_boundary_flag(self):
        lams = np.linspace(0.5, 40.0, 30)
        # steeply improving log Z pushes the optimum to the largest lambda
        trace = _synthetic_trace(lams, -0.01 * lams)
        c = _const(n=1000, m=1, p=2, K=0.1)
        _, rep = adaptive_select_lambda(trace, c, distance_kind="lp")
        assert rep.boundary

    def test_out_of_range_interpolation(self):
        lams = np.linspace(1.0, 10.0, 5)
        trace = _synthetic_trace(lams, -lams)
        c = _const()
        with pytest.raises(InvalidConfigError):
            adaptive_select_lambda(trace, c, beta_grid=[1e-6], distance_kind="lp")

    def test_empty_trace(self):
        with pytest.raises(InvalidConfigError):
            adaptive_select_lambda(_synthetic_trace([], []), _const())


class TestSmallBall:
    def test_plug_in_example(self):
        d, v, delta = 2, 1.0, 0.5
        expected = d * (
            math.log(delta / (2 * math.sqrt(2 * math.pi * v * d)))
            - 1.0 / v
            - delta**2 / (v * d)
        )
        assert small_ball_log_prior_mass(d, v, delta) == pytest.approx(expected, rel=1e-12)

    def test_is_a_valid_lower_bound_vs_monte_carlo(self, rng):
        # actual Gaussian mass of the ball around a unit-norm center must
        # exceed the bound (it is a lower bound by construction)
        d, v, delta = 3, 2.0, 0.4
        center = np.zeros(d)
        center[0] = 1.0
        draws = rng.normal(scale=math.sqrt(v), size=(400_000, d))
        mass = np.mean(np.linalg.norm(draws - center, axis=1) <= delta)
        assert math.log(mass) >= small_ball_log_prior_mass(d, v, delta)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            small_ball_log_prior_mass(0, 1.0, 0.1)


class TestCorollary1:
    def test_term_by_term_recomputation_random(self, rng):
        for _ in range(100):
            c = _random_constants(rng)
            rep = corollary1_terms(c)
            mp = c.m ** (1.0 / c.p)
            rd = math.sqrt(c.d / c.n)
            naive = {
                "statistic_clt": 2 * c.var_proxy * c.m ** (1 / c.p + 1) / math.sqrt(c.n),
                "lipschitz": c.lipschitz * math.sqrt(c.theta_var / c.n),
                "concentration": 2 * c.K * rd * mp,
                "prior_mass": 2
                * c.K
                * rd
                * mp
                * (0.5 * math.log(8 * math.pi * c.n * c.d) + 1 / c.theta_var + 1 / (c.n * c.d)),
                "confidence": 2 * c.K * mp / math.sqrt(c.d * c.n) * math.log(2 / c.eps),
            }
            for key, val in naive.items():
                assert rep.components[key] == pytest.approx(val, rel=1e-10), key
            assert rep.value == pytest.approx(math.fsum(naive.values()), rel=1e-10)
            assert rep.lam_or_beta == pytest.approx(
                math.sqrt(c.d * c.n / (c.K**2 * c.m ** (2 / c.p))), rel=1e-12
            )

    def test_budget_shrinks_with_n(self):
        vals = [corollary1_terms(_const(n=n)).value for n in (90, 900, 9000)]
        assert vals[0] > vals[1] > vals[2]


class TestNonparametricRate:
    def test_closed_form(self):
        n, b = 1000, 2.0
        r = nonparametric_rate(n, b)
        denom = 2 * b + 1
        assert r.rate == pytest.approx(n ** (-b / denom) * math.log(n) ** (b / denom), rel=1e-12)
        assert r.lambda_n == pytest.approx(
            n ** ((b + 1) / denom) * math.log(n) ** (b / denom), rel=1e-12
        )
        assert r.c_n == pytest.approx((math.log(n) ** 2 / n) ** (1 / denom), rel=1e-12)
        assert r.order_only

    def test_rate_decreases_in_n(self):
        rates = [nonparametric_rate(n, 1.5).rate for n in (100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_smoother_functions_converge_faster_asymptotically(self):
        n = 10**8
        assert nonparametric_rate(n, 3.0).rate < nonparametric_rate(n, 1.0).rate

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            nonparametric_rate(1, 1.0)
        with pytest.raises(InvalidConfigError):
            nonparametric_rate(100, 0.0)
