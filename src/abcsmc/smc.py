"""Adaptive SMC driver for the exponential-kernel ABC pseudo-posterior.

The sampler tracks a weighted population of (theta, replicate distances)
along a ladder: inverse temperatures lambda rising from 0 for the exponential
kernel, or tolerances eps falling from +inf for the uniform (accept/reject)
kernel.  One ESS-targeted bisection, ``find_next_lambda``, picks the next
rung of either ladder from the kernel's start and direction.  Every step
reweights (``reweight``, which also tracks log Z), resamples systematically,
rejuvenates by MCMC and adapts the replicate count M.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import madapt, mcmc
from .exceptions import (
    DegenerateSystemError,
    InvalidConfigError,
    InvalidInputError,
    LadderStallError,
)
from .models import GenerativeModel
from .statistics import (
    KERNELS,
    DistanceSpec,
    ExponentialKernel,
    SummarySpec,
    UniformKernel,
    distance_batch,
    logsumexp,
    summarize,
    summarize_batch,
)


def simulate_distances(
    model,
    theta: np.ndarray,
    n_obs: int,
    m: int,
    rng,
    summary: SummarySpec,
    dist_spec: DistanceSpec,
    observed_stats: np.ndarray,
    max_elements: int = 20_000_000,
) -> np.ndarray:
    """Distances of m fresh replicate datasets per particle to the observed stats.

    The datasets are drawn from ``model.reduced(summary, n_obs)``, which
    gives the same statistic law at a size of at most n_obs (the Gaussian
    sample mean is drawn as one observation).  Replicates are simulated in
    chunks so the raw (N, chunk, n) array stays bounded in memory regardless
    of how large M grows.  A NaN distance (a simulator whose output
    overflowed, say) becomes +inf: kernel value 0 at every rung past the
    first, rather than a NaN weight and log Z.
    """
    model, n_obs = model.reduced(summary, n_obs)
    n_particles = theta.shape[0]
    chunk = max(1, min(m, max_elements // max(1, n_particles * n_obs)))
    out = np.empty((n_particles, m))
    for j0 in range(0, m, chunk):
        j1 = min(m, j0 + chunk)
        sims = model.simulate_batch(theta, n_obs, j1 - j0, rng)
        out[:, j0:j1] = distance_batch(dist_spec, summarize_batch(summary, sims), observed_stats)
    out[np.isnan(out)] = math.inf
    return out


def ess(log_weights: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2, computed in log space."""
    log_weights = np.asarray(log_weights, dtype=float)
    if not np.any(np.isfinite(log_weights)):
        raise DegenerateSystemError("all particle weights are zero")
    return float(np.exp(2.0 * logsumexp(log_weights, axis=0) - logsumexp(2.0 * log_weights, axis=0)))


def reweight(log_weights, log_z, dists, kernel, old, new):
    """Move the weights and the log Z estimate one ladder step, from old to new.

    Each particle's weight is multiplied by K_new(d)/K_old(d), the ratio of
    its kernel sums over its replicate distances (a row of ``dists``), and
    log Z gains the log of the weighted mean ratio (``log_weights``
    normalized).  Returns the unnormalized log weights and the new log Z.
    """
    log_weights = log_weights + (kernel.log_sum(dists, new) - _rung_log_sums(kernel, dists, old, log_weights))
    return log_weights, log_z + logsumexp(log_weights, axis=0)


def _rung_log_sums(kernel, dists: np.ndarray, param: float, log_weights: np.ndarray) -> np.ndarray:
    """Log kernel sums at the current rung, the denominator of a weight increment.

    A zero-weight particle gets 0 in place of its sum.  Under the uniform
    kernel an IS refresh zeroes a particle whose fresh replicates all fall
    outside eps; its sums are -inf from then on, and -inf - (-inf) would be
    NaN.  With 0 its log weight stays -inf.
    """
    sums = kernel.log_sum(dists, param)
    sums[np.isneginf(log_weights)] = 0.0
    return sums


def systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    """Ancestor indices from the single-uniform stratified rule.

    Positions (u + k)/N for k = 0..N-1 are matched against the cumulative
    weights, so index j receives floor(N*W_j) or ceil(N*W_j) copies.
    """
    weights = np.asarray(weights, dtype=float)
    if not 0.0 <= u < 1.0:
        raise InvalidConfigError("u must lie in [0, 1)")
    n = weights.size
    positions = (u + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard roundoff at the top stratum
    return np.minimum(np.searchsorted(cum, positions, side="right"), n - 1)


def predict_next_lambda(history) -> float:
    """One-step extrapolation of the ladder by least squares on log lambda.

    Used only to seed the bisection bracket when replicate sums make ESS
    evaluations costlier; falls back to doubling when the fit is degenerate.
    """
    pts = [(t, lam) for t, lam in history if lam > 0]
    if not pts:
        return 1.0
    if len(pts) < 2:
        return 2.0 * pts[-1][1]
    t = np.array([p[0] for p in pts], dtype=float)
    y = np.log([p[1] for p in pts])
    a = np.vstack([np.ones_like(t), t]).T
    try:
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    except np.linalg.LinAlgError:
        return 2.0 * pts[-1][1]
    pred = coef[0] + coef[1] * (t[-1] + 1.0)
    if not np.isfinite(pred):
        return 2.0 * pts[-1][1]
    return float(np.exp(min(pred, 700.0)))


@dataclass
class ParticleSystem:
    """Weighted population targeting pi_lambda^M, with log-Z tracking."""

    theta: np.ndarray  # (N, d)
    dists: np.ndarray  # (N, M)
    log_weights: np.ndarray  # (N,), normalized so logsumexp == 0
    lam: float
    log_z: float
    observed_stats: np.ndarray
    sim_calls: int = 0

    @property
    def n_particles(self) -> int:
        return self.theta.shape[0]

    @property
    def m_replicates(self) -> int:
        return self.dists.shape[1]

    def normalize(self):
        self.log_weights = self.log_weights - logsumexp(self.log_weights, axis=0)

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def ess(self) -> float:
        return ess(self.log_weights)

    def weighted_mean(self) -> np.ndarray:
        return self.weights() @ self.theta

    def weighted_sd(self) -> np.ndarray:
        mu = self.weighted_mean()
        var = self.weights() @ (self.theta - mu) ** 2
        return np.sqrt(np.maximum(var, 0.0))


def find_next_lambda(
    system: ParticleSystem,
    tau: float,
    cap: float,
    tol: float = 1e-4,
    kernel=ExponentialKernel,
    predict: float | None = None,
    max_iter: int = 100,
) -> float:
    """Next rung of the kernel's ladder: where the ESS falls to tau*N.

    The ladder moves from ``system.lam`` towards ``cap`` in the kernel's
    direction (lambda up, eps down).  Returns ``cap`` when the ESS there
    still meets the target, and raises LadderStallError when the current ESS
    is already below it.  Otherwise bisects between the near end (ESS above
    the target) and the far end (below) until the ESS is within tol*N of
    tau*N.  The uniform kernel's ESS is a step function of eps that may
    never come that close; after ``max_iter`` halvings the near end is
    returned, whose ESS meets the target.  ``predict``, a forecast of the
    next lambda on a rising ladder, narrows the first bracket.
    """
    n = system.n_particles
    target = tau * n
    base = _rung_log_sums(kernel, system.dists, system.lam, system.log_weights)

    def ess_at(param: float) -> float:
        try:
            return ess(system.log_weights + kernel.log_sum(system.dists, param) - base)
        except DegenerateSystemError:
            return 0.0

    current = system.ess()
    if current < target - tol * n:
        raise LadderStallError(
            f"ESS {current:.2f} already below target {target:.2f} at {kernel.name} ladder value {system.lam:g}"
        )
    if ess_at(cap) >= target:
        return cap
    near, far = system.lam, cap
    if not math.isfinite(near):
        # the eps ladder starts at +inf; its first bracket starts at the largest finite distance
        near = float(np.max(system.dists, where=np.isfinite(system.dists), initial=-math.inf))
        if near == -math.inf:
            raise LadderStallError("no finite replicate distance to start the eps ladder from")
    if predict is not None and predict > near:
        far = min(cap, 4.0 * predict)
        while ess_at(far) > target and far < cap:
            near = far
            far = min(2.0 * far, cap)
    for _ in range(max_iter):
        mid = 0.5 * (near + far)
        e = ess_at(mid)
        if abs(e - target) <= tol * n:
            return mid
        if e >= target:
            near = mid
        else:
            far = mid
    return near


_find_next_eps = find_next_lambda  # perfbench/spans.py wraps the search under this name too


@dataclass
class StepRecord:
    step: int
    lam: float
    ess: float
    accept_rate: float
    m: int
    log_z: float
    theta_mean: np.ndarray
    theta_sd: np.ndarray
    ess_post_refresh: float
    snapshot: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (theta, dists, log_weights)


@dataclass
class LadderTrace:
    """Per-step diagnostics of a run, exportable to CSV."""

    records: list[StepRecord] = field(default_factory=list)
    kernel: str = "exponential"
    status: str = "ok"

    def __len__(self):
        return len(self.records)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.records])

    @property
    def log_zs(self) -> np.ndarray:
        return np.array([r.log_z for r in self.records])

    def to_csv(self, path):
        d = len(self.records[0].theta_mean) if self.records else 0
        header = ["step", "lambda", "ess", "accept_rate", "M", "log_z"]
        header += [f"theta_mean_{i + 1}" for i in range(d)]
        header += [f"theta_sd_{i + 1}" for i in range(d)]
        header += ["ess_post_refresh"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in self.records:
                row = [r.step, _fmt(r.lam), _fmt(r.ess), _fmt(r.accept_rate), r.m, _fmt(r.log_z)]
                row += [_fmt(x) for x in r.theta_mean]
                row += [_fmt(x) for x in r.theta_sd]
                row += [_fmt(r.ess_post_refresh)]
                w.writerow(row)

    def snapshots_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            first = next((r for r in self.records if r.snapshot is not None), None)
            d = first.snapshot[0].shape[1] if first is not None else 0
            w.writerow(["step", "particle", "weight", *[f"theta_{i + 1}" for i in range(d)]])
            for r in self.records:
                if r.snapshot is None:
                    continue
                theta, _, log_w = r.snapshot
                wts = np.exp(log_w)
                for i in range(theta.shape[0]):
                    w.writerow([r.step, i, _fmt(wts[i]), *[_fmt(x) for x in theta[i]]])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_trace_csv(path) -> LadderTrace:
    """Rebuild a LadderTrace (without snapshots) from its CSV export.

    A CSV written before ``ess_post_refresh`` was exported loads it as nan.
    """
    trace = LadderTrace()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "lambda" not in reader.fieldnames:
            raise InvalidConfigError(f"{path} is not a ladder trace CSV")
        d = sum(1 for name in reader.fieldnames if name.startswith("theta_mean_"))
        for row in reader:
            trace.records.append(
                StepRecord(
                    step=int(row["step"]),
                    lam=float(row["lambda"]),
                    ess=float(row["ess"]),
                    accept_rate=float(row["accept_rate"]),
                    m=int(row["M"]),
                    log_z=float(row["log_z"]),
                    theta_mean=np.array([float(row[f"theta_mean_{i + 1}"]) for i in range(d)]),
                    theta_sd=np.array([float(row[f"theta_sd_{i + 1}"]) for i in range(d)]),
                    ess_post_refresh=float(row.get("ess_post_refresh") or "nan"),
                )
            )
    return trace


@dataclass
class SMCConfig:
    """Inputs of the SMC driver; validated on construction via ``validate``."""

    n_particles: int = 1000
    lambda_target: float | None = 60.0  # None => adaptive mode, run to lambda_max
    lambda_max: float | None = None  # default 10 * lambda_target in fixed mode
    tau: float = 0.9
    mcmc_steps: int = 3
    proposal_scale: float | None = None  # default 2.38^2 / d
    accept_target: float = 0.1
    adapt_m: bool = True
    m_max: int = 128
    m_change: str = "gibbs"  # or "is"
    initial_m: int = 1
    bisect_tol: float = 1e-4
    kernel: str = "exponential"  # or "uniform"
    eps_target: float | None = None  # uniform kernel stopping window
    sim_budget: int | None = None
    max_steps: int = 10_000
    store_snapshots: bool = False
    snapshot_max: int = 200
    seed: int = 0
    on_stall: str = "raise"  # or "stop" / "advance" (instrumented: push on, keep weights)
    m_schedule: dict[int, int] | None = None  # forced M per step, overrides adaptation

    def validate(self):
        if self.n_particles < 2:
            raise InvalidConfigError("n_particles must be >= 2")
        if not 0.0 < self.tau < 1.0:
            raise InvalidConfigError("tau must lie in (0, 1)")
        if self.kernel not in KERNELS:
            raise InvalidConfigError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "uniform":
            if self.eps_target is None or self.eps_target < 0:
                raise InvalidConfigError("uniform kernel requires eps_target >= 0")
        elif self.lambda_target is None:
            if self.lambda_max is None or self.lambda_max <= 0:
                raise InvalidConfigError("adaptive mode requires lambda_max > 0")
        elif self.lambda_target < 0:
            raise InvalidConfigError("lambda_target must be >= 0")
        if self.m_change not in ("gibbs", "is"):
            raise InvalidConfigError(f"unknown m_change {self.m_change!r}")
        if self.on_stall not in ("raise", "stop", "advance"):
            raise InvalidConfigError(f"unknown on_stall {self.on_stall!r}")
        if self.initial_m < 1 or self.m_max < self.initial_m:
            raise InvalidConfigError("need 1 <= initial_m <= m_max")
        if self.mcmc_steps < 0:
            raise InvalidConfigError("mcmc_steps must be >= 0")
        return self


def _init_system(config, model, summary, dist_spec, observations, rng) -> ParticleSystem:
    if not np.all(np.isfinite(observations)):
        raise InvalidInputError("observations must be finite")
    obs_stats = summarize(summary, observations)
    if not np.all(np.isfinite(obs_stats)):
        raise InvalidInputError("observed statistics are not finite")
    n_obs = len(observations)
    theta = model.prior_sample(rng, config.n_particles)
    dists = simulate_distances(model, theta, n_obs, config.initial_m, rng, summary, dist_spec, obs_stats)
    log_w = np.full(config.n_particles, -math.log(config.n_particles))
    return ParticleSystem(
        theta=theta,
        dists=dists,
        log_weights=log_w,
        lam=KERNELS[config.kernel].start_param,
        log_z=0.0,
        observed_stats=obs_stats,
        sim_calls=config.n_particles * config.initial_m,
    )


def run_smc(
    config: SMCConfig,
    model: GenerativeModel,
    summary: SummarySpec,
    dist_spec: DistanceSpec,
    observations,
    hooks=None,
) -> tuple[ParticleSystem, LadderTrace]:
    """Full adaptive SMC loop from the prior to the target inverse temperature (or tolerance).

    Each ladder step: choose the next rung by ESS bisection, reweight and
    update log Z, resample systematically, rejuvenate with K MCMC sweeps, then
    adapt the replicate count M.  Identical config and seed reproduce the
    trace bit for bit.
    """
    config.validate()
    observations = np.asarray(observations, dtype=float)
    rng = np.random.default_rng(config.seed)
    kernel = KERNELS[config.kernel]
    uniform = kernel is UniformKernel
    n_obs = len(observations)

    system = _init_system(config, model, summary, dist_spec, observations, rng)
    trace = LadderTrace(kernel=kernel.name)
    if not uniform and config.lambda_target == 0.0:
        return system, trace

    # the search runs towards cap; the ladder ends on the first rung at or past stop
    if uniform:
        cap = config.eps_target
    elif config.lambda_max is not None:
        cap = config.lambda_max
    else:
        cap = 10.0 * config.lambda_target
    stop = cap if uniform or config.lambda_target is None else min(config.lambda_target, cap)

    n = config.n_particles
    m = config.initial_m
    history: list[tuple[int, float]] = []

    for step in range(1, config.max_steps + 1):
        if config.sim_budget is not None and system.sim_calls >= config.sim_budget:
            trace.status = "budget_exhausted"
            break
        stalled = False
        predict = predict_next_lambda(history) if (not uniform and m > 1 and history) else None
        try:
            lam_new = find_next_lambda(system, config.tau, cap, config.bisect_tol, kernel, predict)
        except LadderStallError as err:
            if config.on_stall != "advance" or uniform:
                trace.status = "ladder_stall"
                if config.on_stall == "raise":
                    err.trace = trace
                    raise
                break
            # The current weights are already below the ESS target -- the
            # importance-sampling M refresh can do this -- so no admissible
            # temperature exists.  Push the ladder along the predicted
            # geometric schedule anyway and keep the damaged weights:
            # resampling would launder the diagnostic, and the whole point
            # of this instrumented mode is to record how the weight ESS
            # collapses once the ESS contract is broken.
            predicted = predict_next_lambda(history) if history else None
            lam_new = predicted if (predicted is not None and predicted > system.lam) else 1.5 * system.lam
            stalled = True
        final = kernel.direction * (lam_new - stop) >= 0
        if final:
            lam_new = stop

        system.log_weights, system.log_z = reweight(
            system.log_weights, system.log_z, system.dists, kernel, system.lam, lam_new
        )
        system.normalize()
        ess_sel = system.ess()
        system.lam = lam_new

        if not stalled:
            idx = systematic_resample(system.weights(), float(rng.random()))
            system.theta = system.theta[idx]
            system.dists = system.dists[idx]
            system.log_weights = np.full(n, -math.log(n))

        if config.mcmc_steps > 0:
            if model.theta_atoms is None:
                calib = mcmc.calibrate(system.theta, None, scale=config.proposal_scale)
            else:
                calib = None
            accept_rate, sim_count = mcmc.rejuvenate(
                system, model, summary, dist_spec, n_obs, calib, config.mcmc_steps, rng, kernel
            )
            system.sim_calls += sim_count
        else:
            accept_rate = 1.0

        if config.m_schedule is not None:
            m_new = config.m_schedule.get(step, m)
        elif config.adapt_m and not uniform:
            m_new, _ = madapt.adapt_m(accept_rate, m, config.accept_target, config.m_max)
        else:
            m_new = m
        if m_new != m:
            if config.m_change == "gibbs":
                sc = madapt.gibbs_refresh_system(system, m_new, model, summary, dist_spec, n_obs, rng, kernel)
            else:
                sc = madapt.is_refresh_system(system, m_new, model, summary, dist_spec, n_obs, rng, kernel)
                system.normalize()
            system.sim_calls += sc
            m = m_new
        ess_post = system.ess()

        history.append((step, lam_new))
        snapshot = None
        if config.store_snapshots:
            snapshot = (system.theta.copy(), system.dists.copy(), system.log_weights.copy())
        trace.records.append(
            StepRecord(
                step=step,
                lam=lam_new,
                ess=ess_sel,
                accept_rate=accept_rate,
                m=m,
                log_z=system.log_z,
                theta_mean=system.weighted_mean(),
                theta_sd=system.weighted_sd(),
                ess_post_refresh=ess_post,
                snapshot=snapshot,
            )
        )
        if hooks:
            for hook in hooks:
                hook(trace.records[-1], system)
        if ess_post <= 1.0 + 1e-9:
            trace.status = "degenerate"
            if config.on_stall == "raise":
                raise DegenerateSystemError("particle system collapsed to a single particle", trace)
            break
        if final:
            break
    else:
        trace.status = "max_steps"

    if config.store_snapshots:
        _thin_snapshots(trace, config.snapshot_max)
    return system, trace


def _thin_snapshots(trace: LadderTrace, max_keep: int):
    with_snap = [r for r in trace.records if r.snapshot is not None]
    while len(with_snap) > max_keep:
        # drop every other snapshot, always keeping the final one
        for r in with_snap[:-1][::2]:
            r.snapshot = None
        with_snap = [r for r in trace.records if r.snapshot is not None]


def posterior_at_lambda(trace: LadderTrace, lam: float):
    """Particle approximation at an off-ladder lambda (or eps, on a uniform-kernel trace).

    Takes the stored snapshot at the ladder step nearest lam and reweights it
    exactly with the trace's kernel.  The increment is added in the order
    (log w + log K_lam) - log K_rung, not through ``reweight``, which
    rounds differently and would shift the experiment outputs in their last
    digits.
    """
    candidates = [r for r in trace.records if r.snapshot is not None]
    if not candidates:
        raise InvalidConfigError("trace carries no snapshots; rerun with store_snapshots=True")
    rec = min(candidates, key=lambda r: abs(r.lam - lam))
    theta, dists, log_w = rec.snapshot
    kernel = KERNELS[trace.kernel]
    log_w = log_w + kernel.log_sum(dists, lam) - _rung_log_sums(kernel, dists, rec.lam, log_w)
    log_w = log_w - logsumexp(log_w, axis=0)
    return theta, np.exp(log_w)
