"""Computable PAC-Bayes machinery for the exponential-kernel pseudo-posterior.

Provides the empirical high-probability bound driven by the SMC estimate of
log Z_lambda, the adaptive bandwidth selection that minimizes that bound over
an exponential family of distributions on lambda, and plug-in calculators for
the theoretical oracle-inequality budget and the nonparametric rate sequences.
All functions here are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidConfigError, InvalidInputError, OutOfRangeError


@dataclass(frozen=True)
class BoundConstants:
    """Problem constants entering the bounds.

    n: observed sample size; m: summary-statistic dimension; p: norm order;
    K: certified bound on each statistic coordinate; d: parameter dimension;
    theta_var: prior variance (isotropic Gaussian prior); lipschitz: local
    Lipschitz constant of theta -> pi_theta(S); var_proxy: variance-proxy
    constant of the statistic CLT term; eps: failure probability;
    alpha: rate of the exponential reference distribution on lambda.
    """

    n: int
    m: int
    p: float
    K: float
    d: int = 1
    theta_var: float = 1.0
    lipschitz: float = 1.0
    var_proxy: float = 1.0
    eps: float = 0.05
    alpha: float = 1e-3

    def __post_init__(self):
        for name in ("n", "m", "p", "K", "d", "theta_var", "lipschitz", "var_proxy", "alpha"):
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be strictly positive")
        if not 0.0 < self.eps < 1.0:
            raise InvalidConfigError("eps must lie in (0, 1)")


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its itemized addends and their provenance."""

    lam_or_beta: float
    value: float
    components: dict[str, float]
    provenance: dict[str, str] = field(default_factory=dict)
    boundary: bool = False

    def __post_init__(self):
        total = math.fsum(self.components.values())
        if np.isfinite(self.value) and abs(total - self.value) > 1e-12 * max(1.0, abs(self.value)):
            raise InvalidInputError("components do not sum to the reported bound")


def effective_statistic_count(p: float, m: int) -> float:
    """K(p, m) = min(m, 2e log m, p - 1); the norm-dependent statistic count."""
    candidates = [float(m)]
    if m > 1:
        candidates.append(2.0 * math.e * math.log(m))
    if p > 1:
        candidates.append(p - 1.0)
    return min(candidates)


def mcdiarmid_f(constants: BoundConstants, lam: float, distance_kind: str = "lp") -> float:
    """Concentration exponent f(n, lambda) of the moment-generating bound.

    lp distances on bounded statistics give lambda^2 K^2 m^(2/p) / n; the
    scaled empirical L2 distance gives lambda^2 K / (2n).
    """
    if lam < 0:
        raise OutOfRangeError("lambda must be >= 0")
    if distance_kind in ("lp", "sup"):
        return lam**2 * constants.K**2 * constants.m ** (2.0 / constants.p) / constants.n
    if distance_kind == "scaled_empirical_l2":
        return lam**2 * constants.K / (2.0 * constants.n)
    raise InvalidConfigError(f"unknown distance_kind {distance_kind!r}")


def empirical_bound(
    log_z_hat: float,
    lam: float,
    constants: BoundConstants,
    distance_kind: str = "lp",
) -> BoundReport:
    """High-probability bound -log Z/lambda + f(n,lambda)/lambda + log(1/eps)/lambda.

    With probability at least 1 - eps over the observed data, the expected
    kernel distance under the pseudo-posterior is below this value.
    """
    if lam <= 0:
        raise OutOfRangeError("lambda must be > 0")
    components = {
        "neg_log_z": -log_z_hat / lam,
        "concentration": mcdiarmid_f(constants, lam, distance_kind) / lam,
        "confidence": math.log(1.0 / constants.eps) / lam,
    }
    return BoundReport(
        lam_or_beta=lam,
        value=math.fsum(components.values()),
        components=components,
        provenance={
            "neg_log_z": "smc log-normalizer estimate",
            "concentration": f"f(n, lambda) / lambda ({distance_kind})",
            "confidence": "log(1/eps) / lambda",
        },
    )


def exponential_family_kl(beta: float, alpha: float) -> float:
    """KL between Exp(beta) and Exp(alpha) distributions: log(beta/alpha) + (alpha - beta)/beta."""
    if beta <= 0 or alpha <= 0:
        raise InvalidConfigError("rates must be positive")
    return math.log(beta / alpha) + (alpha - beta) / beta


def _log_z_interpolator(trace):
    """Linear-in-lambda interpolation of the ladder's (lambda, log Z) knots."""
    lams = np.asarray(trace.lambdas, dtype=float)
    logzs = np.asarray(trace.log_zs, dtype=float)
    if lams.size == 0:
        raise InvalidConfigError("trace has no ladder steps")
    lo, hi = float(lams[0]), float(lams[-1])

    def log_z_at(lam: float) -> float:
        if lam < lo - 1e-12 or lam > hi + 1e-12:
            raise OutOfRangeError(f"lambda {lam:g} outside ladder range [{lo:g}, {hi:g}]")
        return float(np.interp(lam, lams, logzs))

    return log_z_at, lo, hi


def adaptive_objective(beta: float, log_z_at, constants: BoundConstants, distance_kind: str = "lp") -> float:
    """Bound averaged over lambda ~ Exp(beta), in closed form.

    With mean(lambda) = 1/beta and mean(lambda^2) = 2/beta^2 the averaged
    bound reads beta * [-log Z_(1/beta) + 2 f(n, 1) / beta^2
    + KL(Exp(beta), Exp(alpha)) + log(1/eps)], f being quadratic in lambda;
    log Z is evaluated at the mean bandwidth 1/beta by interpolation of the
    computed ladder.
    """
    return _averaged_bound(beta, log_z_at, constants, distance_kind)[0]


def _averaged_bound(beta: float, log_z_at, constants: BoundConstants, distance_kind: str):
    """``adaptive_objective`` at beta and its four addends, each the bracketed term times beta."""
    if beta <= constants.alpha:
        raise InvalidConfigError("beta must exceed alpha for the KL term to exist")
    neg_log_z = -log_z_at(1.0 / beta)
    f_coef = mcdiarmid_f(constants, 1.0, distance_kind)
    kl = exponential_family_kl(beta, constants.alpha)
    confidence = math.log(1.0 / constants.eps)
    value = beta * (neg_log_z + (2.0 / beta**2) * f_coef + kl + confidence)
    components = {
        "neg_log_z": beta * neg_log_z,
        "concentration": beta * (2.0 / beta**2) * f_coef,
        "kl": beta * kl,
        "confidence": beta * confidence,
    }
    return value, components


def adaptive_objectives(trace, constants: BoundConstants, beta_grid=None, distance_kind: str = "lp"):
    """The feasible betas of the grid, the averaged bound at each, and the report at the minimizing beta.

    A beta is feasible when it exceeds alpha and 1/beta lies on the ladder,
    to 1e-12: a ladder end whose 1/(1/lambda) does not round-trip stays in.
    The default grid is 64 log-spaced betas spanning the ladder's range.
    The report's value is the exact sum of its components; it is flagged
    ``boundary`` when the minimizing beta is the first or last feasible one.
    """
    log_z_at, lam_lo, lam_hi = _log_z_interpolator(trace)
    if beta_grid is None:
        beta_grid = np.geomspace(1.0 / lam_hi, 1.0 / lam_lo, 64)
    feasible = [
        float(b)
        for b in np.asarray(beta_grid, dtype=float)
        if b > constants.alpha and lam_lo - 1e-12 <= 1.0 / b <= lam_hi + 1e-12
    ]
    if not feasible:
        raise InvalidConfigError("no beta in the grid is feasible (beta > alpha, 1/beta on the ladder)")
    bounds = [_averaged_bound(b, log_z_at, constants, distance_kind) for b in feasible]
    values = [value for value, _ in bounds]
    i_star = int(np.argmin(values))
    components = bounds[i_star][1]
    report = BoundReport(
        lam_or_beta=feasible[i_star],
        value=math.fsum(components.values()),
        components=components,
        provenance={"all": "exponential-family averaged bound at the minimizing beta"},
        boundary=i_star in (0, len(feasible) - 1),
    )
    return feasible, values, report


def adaptive_select_lambda(
    trace,
    constants: BoundConstants,
    beta_grid=None,
    distance_kind: str = "lp",
) -> tuple[float, BoundReport]:
    """Bandwidth selection: minimize the averaged bound over a beta grid.

    Returns (lambda_hat, report) with lambda_hat = 1 / argmin(beta) over
    ``adaptive_objectives``; final inference should reweight the stored
    population snapshot nearest lambda_hat.
    """
    _, _, report = adaptive_objectives(trace, constants, beta_grid, distance_kind)
    return 1.0 / report.lam_or_beta, report


def small_ball_log_prior_mass(d: int, theta_var: float, delta: float) -> float:
    """Lower bound on log prior mass of a delta-ball around a unit-norm center.

    For the isotropic Gaussian prior N(0, theta_var I_d):
    d * log[ delta / (2 sqrt(2 pi theta_var d)) * exp(-1/theta_var - delta^2/(theta_var d)) ].
    """
    if d <= 0 or theta_var <= 0 or delta <= 0:
        raise InvalidConfigError("d, theta_var, delta must be positive")
    return d * (
        math.log(delta / (2.0 * math.sqrt(2.0 * math.pi * theta_var * d)))
        - 1.0 / theta_var
        - delta**2 / (theta_var * d)
    )


def corollary1_terms(constants: BoundConstants) -> BoundReport:
    """Excess-risk budget of the Gaussian-prior oracle inequality.

    Every addend beyond the oracle (best-in-family) term, evaluated at the
    prescribed bandwidth lambda* = sqrt(d n / (K^2 m^(2/p))) and ball radius
    delta* = sqrt(theta_var / n).
    """
    c = constants
    mp = c.m ** (1.0 / c.p)
    lam_star = math.sqrt(c.d * c.n / (c.K**2 * c.m ** (2.0 / c.p)))
    delta_star = math.sqrt(c.theta_var / c.n)
    root_dn = math.sqrt(c.d / c.n)
    components = {
        "statistic_clt": 2.0 * c.var_proxy * c.m ** (1.0 / c.p + 1.0) / math.sqrt(c.n),
        "lipschitz": c.lipschitz * delta_star,
        "concentration": 2.0 * c.K * root_dn * mp,
        "prior_mass": 2.0
        * c.K
        * root_dn
        * mp
        * (0.5 * math.log(8.0 * math.pi * c.n * c.d) + 1.0 / c.theta_var + 1.0 / (c.n * c.d)),
        "confidence": 2.0 * c.K * mp / math.sqrt(c.d * c.n) * math.log(2.0 / c.eps),
    }
    report = BoundReport(
        lam_or_beta=lam_star,
        value=math.fsum(components.values()),
        components=components,
        provenance={
            "lambda_star": f"{lam_star!r}",
            "delta_star": f"{delta_star!r}",
            "effective_statistic_count": f"{effective_statistic_count(c.p, c.m)!r}",
        },
    )
    return report


@dataclass(frozen=True)
class NonparametricRate:
    """Order-only rate sequences for beta-smooth regression functions.

    Constants are set to one and are not sharp; only the n-dependence is
    meaningful (order_only flags this).
    """

    rate: float
    lambda_n: float
    c_n: float
    order_only: bool = True


def nonparametric_rate(n: int, beta_smooth: float) -> NonparametricRate:
    """rate = n^(-b/(2b+1)) (log n)^(b/(2b+1)); lambda_n and c_n to match.

    lambda_n = n^((b+1)/(2b+1)) (log n)^(b/(2b+1)); c_n = (log^2 n / n)^(1/(2b+1)).
    """
    if n < 2:
        raise InvalidConfigError("n must be >= 2")
    if beta_smooth <= 0:
        raise InvalidConfigError("beta_smooth must be > 0")
    b = beta_smooth
    ln = math.log(n)
    denom = 2.0 * b + 1.0
    return NonparametricRate(
        rate=n ** (-b / denom) * ln ** (b / denom),
        lambda_n=n ** ((b + 1.0) / denom) * ln ** (b / denom),
        c_n=(ln**2 / n) ** (1.0 / denom),
    )
