"""Adaptive SMC driver for the exponential-kernel ABC pseudo-posterior.

The sampler tracks a weighted population of (theta, replicate distances)
along a ladder: inverse temperatures lambda rising from 0 for the exponential
kernel, or tolerances eps falling from +inf for the uniform (accept/reject)
kernel.  One ESS-targeted search, ``find_next_lambda``, picks the next rung
of either ladder from the kernel's start and direction: the lambda rung is a
bracketed Newton root of log ESS, whose derivative in lambda is a weighted
mean replicate distance, and the eps rung is read off the sorted live
replicate distances, where the uniform kernel's ESS jumps.  ``run_smc``
runs every step as four phases on one ``ParticleSystem``: ``_select`` (the
rung, and the stall policy), ``_reweight_resample`` (``reweight``, which also
tracks log Z and leaves the weights normalized, then systematic resampling),
``_move`` (MCMC rejuvenation) and ``_change_m`` (the replicate count M and
its refresh).
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


# Raw simulated values per replicate chunk of simulate_distances (160 MB of float64).  The chunks
# fix the random stream for large M; the mixture streams each one through the statistic in blocks
# of at most ``statistics.BLOCK_ELEMENTS`` values, the other simulators build it whole.
MAX_SIM_ELEMENTS = 20_000_000
# Most snapshots a run with store_snapshots keeps (``_thin_snapshots``)
SNAPSHOT_MAX = 200


def simulate_distances(
    model,
    theta: np.ndarray,
    n_obs: int,
    m: int,
    rng,
    summary: SummarySpec,
    dist_spec: DistanceSpec,
    observed_stats: np.ndarray,
) -> np.ndarray:
    """Distances of m fresh replicate datasets per particle to the observed stats.

    The datasets are drawn from ``model.reduced(summary, n_obs)``, which
    gives the same statistic law at a size of at most n_obs (the Gaussian
    sample mean is drawn as one observation).  Replicates are simulated in
    chunks of at most ``MAX_SIM_ELEMENTS`` raw values, one ``simulate_batch``
    call each.  That call gets a ``reduce`` that summarizes datasets and
    measures their distances (``summarize_batch`` and ``distance_batch``,
    looked up on this module at call time), so the simulator hands back
    distances and, for the mixture, never holds the (N, chunk, n) datasets
    at once.  A NaN distance (a simulator whose output overflowed, say)
    becomes +inf: kernel value 0 at every rung past the first, rather than
    a NaN weight and log Z.
    """
    model, n_obs = model.reduced(summary, n_obs)
    n_particles = theta.shape[0]
    chunk = max(1, min(m, MAX_SIM_ELEMENTS // max(1, n_particles * n_obs)))

    def reduce(sims):
        return distance_batch(dist_spec, summarize_batch(summary, sims), observed_stats)

    if chunk >= m:  # one chunk: its distances are the result, without a copy
        out = model.simulate_batch(theta, n_obs, m, rng, reduce)
    else:
        out = np.empty((n_particles, m))
        for j0 in range(0, m, chunk):
            j1 = min(m, j0 + chunk)
            out[:, j0:j1] = model.simulate_batch(theta, n_obs, j1 - j0, rng, reduce)
    out[np.isnan(out)] = math.inf
    return out


def simulator(model, summary: SummarySpec, dist_spec: DistanceSpec, observations, rng):
    """A run's ``simulate(theta, m)``: the (N, m) distances of fresh replicates to the observations.

    Checks the observations and summarizes them once.  Every call goes
    through this module's ``simulate_distances``, looked up at call time, so
    the initial draw, the MCMC moves and the M refresh all simulate through
    one binding.
    """
    observations = np.asarray(observations, dtype=float)
    if not np.all(np.isfinite(observations)):
        raise InvalidInputError("observations must be finite")
    obs_stats = summarize(summary, observations)
    if not np.all(np.isfinite(obs_stats)):
        raise InvalidInputError("observed statistics are not finite")
    n_obs = len(observations)

    def simulate(theta: np.ndarray, m: int) -> np.ndarray:
        return simulate_distances(model, theta, n_obs, m, rng, summary, dist_spec, obs_stats)

    return simulate


def ess(log_weights: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2, computed in log space."""
    log_weights = np.asarray(log_weights, dtype=float)
    if not np.any(np.isfinite(log_weights)):
        raise DegenerateSystemError("all particle weights are zero")
    return float(np.exp(2.0 * logsumexp(log_weights, axis=0) - logsumexp(2.0 * log_weights, axis=0)))


def reweight(log_weights, log_z, dists, kernel, old, new):
    """Move the weights and the log Z estimate one ladder step, from old to new.

    Each particle's weight is multiplied by K_new(d)/K_old(d), the ratio of
    its kernel sums over its replicate distances (a row of ``dists``).  With
    ``log_weights`` normalized, the log-sum-exp s of the new weights is the
    log of their weighted mean ratio, the increment of log Z.  Returns the
    new log weights less s, normalized again, and log_z + s.
    """
    log_weights = log_weights + (kernel.log_sum(dists, new) - _rung_log_sums(kernel, dists, old, log_weights))
    s = logsumexp(log_weights, axis=0)
    return log_weights - s, log_z + s


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


@dataclass
class ParticleSystem:
    """Weighted population targeting pi_lambda^M, with log-Z tracking."""

    theta: np.ndarray  # (N, d)
    dists: np.ndarray  # (N, M)
    log_weights: np.ndarray  # (N,), normalized so logsumexp == 0
    lam: float
    log_z: float
    sim_calls: int = 0

    @property
    def n_particles(self) -> int:
        return self.theta.shape[0]

    @property
    def m_replicates(self) -> int:
        return self.dists.shape[1]

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def ess(self) -> float:
        return ess(self.log_weights)


def weighted_moments(theta: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and sd of particles ``theta`` (N, d) under normalized ``weights`` (N,)."""
    mean = weights @ theta
    return mean, np.sqrt(np.maximum(weights @ (theta - mean) ** 2, 0.0))


def find_next_lambda(
    system: ParticleSystem,
    tau: float,
    cap: float,
    tol: float = 1e-4,
    kernel=ExponentialKernel,
) -> float:
    """Next rung of the kernel's ladder: where the ESS falls to tau*N.

    The ladder moves from ``system.lam`` towards ``cap`` in the kernel's
    direction (lambda up, eps down).  Returns ``cap`` when the ESS there
    still meets the target, and raises LadderStallError when the current ESS
    is already below it (by more than tol*N).  The eps rung is read off the
    sorted live distances (``_next_eps``); the lambda rung is a Newton root
    of log ESS - log(tau*N) whose ESS is within tol*N of tau*N (``_next_lambda``).
    At equal finite weights, as after every resampling, the ESS is N and
    cannot be below the target, so the eps search does not compute it (the
    lambda search still does: its Newton start reads it).
    """
    n = system.n_particles
    target = tau * n
    uniform = kernel is UniformKernel
    equal = uniform and np.min(system.log_weights) == np.max(system.log_weights) > -math.inf
    if not equal:
        current = system.ess()
        if current < target - tol * n:
            raise LadderStallError(
                f"ESS {current:.2f} already below target {target:.2f} at {kernel.name} ladder value {system.lam:g}"
            )
    if uniform:
        return _next_eps(system, target, cap, equal)
    return _next_lambda(system, target, cap, tol * n, current)


def _next_lambda(system: ParticleSystem, target: float, cap: float, tol: float, current: float) -> float:
    """The lambda rung by Newton's method on g(lam) = log ESS(lam) - log target.

    With dbar_i particle i's mean replicate distance under the weights
    e^(-lam d), and q1, q2 the new weights and their squares, normalized,
    g'(lam) = 2 (q2 . dbar - q1 . dbar).  At equal weights g' = 0 and
    g'' = -2 Var_w(dbar), so the search starts at
    lam_cur + sqrt(log(ESS_cur / target) / Var_w(dbar)).  Every iterate stays
    inside (near, far), whose ends have ESS above and below the target: a
    step that would leave it, or a start without a finite positive variance
    (an infinite distance at lambda = 0), goes to the midpoint.  Until an
    iterate falls below the target far is +inf, and an iterate past ``cap``
    is ``cap``.  Returns the first iterate whose ESS is within ``tol`` of the
    target, or ``cap`` if its ESS meets it, else ``near`` after 100 steps.
    """
    dists, log_w, near, far = system.dists, system.log_weights, system.lam, math.inf
    base = _rung_log_sums(ExponentialKernel, dists, near, log_w)
    finite = np.where(dists < math.inf, dists, 0.0)  # past lambda = 0 an infinite distance has kernel value 0

    def weighted_mean(w, v):
        return float(w @ v / w.sum())

    def mean_dists(lam, log_sums):
        # lam > 0; a row without kernel mass has mean 0 (and weight 0)
        if dists.shape[1] == 1:
            return finite[:, 0]
        tilt = np.exp(-lam * dists - np.where(log_sums > -math.inf, log_sums, 0.0)[:, None])
        return np.einsum("ij,ij->i", tilt, finite)

    lam = far  # the midpoint of (near, +inf): cap
    dbar = dists.mean(axis=1) if near == 0.0 else mean_dists(near, base)
    if np.all(np.isfinite(dbar)):
        w = np.exp(log_w - np.max(log_w))
        var = weighted_mean(w, np.square(dbar - weighted_mean(w, dbar)))
        start = near + math.sqrt(max(math.log(current / target), 0.0) / var) if var > 0.0 else math.nan
        lam = start if start > near else lam
    for _ in range(100):
        lam = min(lam, cap)
        log_sums = ExponentialKernel.log_sum(dists, lam)
        log_weights = log_w + log_sums - base
        value = ess(log_weights)
        if abs(value - target) <= tol or (lam == cap and value >= target):
            return lam
        near, far = (lam, far) if value >= target else (near, lam)
        e = np.exp(log_weights - np.max(log_weights))
        dbar = mean_dists(lam, log_sums)
        slope = 2.0 * (weighted_mean(e * e, dbar) - weighted_mean(e, dbar))
        newton = lam - math.log(value / target) / slope if slope < 0.0 else math.nan
        lam = newton if near < newton < far else 0.5 * (near + far)
    return near


# perfbench/spans.py wraps the search under this name too; src/ does not call it
_find_next_eps = find_next_lambda


def _next_eps(system: ParticleSystem, target: float, cap: float, equal_weights: bool) -> float:
    """The eps rung from one sorted pass over the live replicate distances.

    Moving from eps_cur to eps gives particle i the weight a_i c_i(eps), where
    c_i counts its replicates within eps and a_i = w_i / c_i(eps_cur).  The
    ESS, (sum a_i c_i)^2 / sum a_i^2 c_i^2, changes only at a live distance:
    a finite replicate distance within eps_cur of a particle with weight.  At
    a particle's j-th smallest replicate, sum a_i c_i gains a_i and
    sum a_i^2 c_i^2 gains a_i^2 (2j - 1), so two cumulative sums over the
    sorted live distances give the ESS at each distinct one.

    Returns ``cap`` if the ESS there meets ``target``.  Otherwise, scanning
    down from eps_cur, returns the smallest live distance whose ESS still
    meets it.  When that is eps_cur itself, the ladder steps anyway, to the
    next distinct live distance below eps_cur (its ESS is below the target;
    this is what keeps the ladder moving on tied distances), and raises
    LadderStallError when there is none.  ``equal_weights`` says whether
    every log weight is the same finite value (``find_next_lambda`` tests it).
    """
    eps_cur = system.lam
    log_w = system.log_weights
    rows = system.dists if system.m_replicates == 1 else np.sort(system.dists, axis=1)
    within = rows <= eps_cur
    live = within & (rows < math.inf)
    # equal weights and one replicate, as after every resampling at M=1: both
    # cumulative sums at the k-th smallest live distance are k, and so is the ESS
    equal = equal_weights and system.m_replicates == 1
    if equal:
        d = np.sort(rows[live])
    else:
        w = np.exp(log_w - np.max(log_w))
        live &= (w > 0.0)[:, None]
        a = w / np.maximum(within.sum(axis=1), 1)  # a row without replicates within eps_cur has no live one
        d = rows[live]
        order = np.argsort(d)
        d = d[order]
        s1 = np.cumsum(np.broadcast_to(a[:, None], rows.shape)[live][order])
        s2 = np.cumsum((np.square(a)[:, None] * (2.0 * np.arange(rows.shape[1]) + 1.0))[live][order])
    ends = np.flatnonzero(np.diff(d, append=math.inf))  # the last entry of each distinct distance
    values = d[ends]
    ess_vals = ends + 1.0 if equal else np.square(s1[ends]) / s2[ends]
    at_cap = np.searchsorted(values, cap, side="right") - 1
    if at_cap >= 0 and ess_vals[at_cap] >= target:
        return cap
    below_cur = int(np.searchsorted(values, eps_cur, side="left"))
    if below_cur == 0:
        raise LadderStallError(f"no live replicate distance below eps {eps_cur:g}")
    short = np.flatnonzero(ess_vals[:below_cur] < target)  # scanning down, the rung stops above the last of these
    k = min(int(short[-1]) + 1 if short.size else 0, below_cur - 1)
    return max(float(values[k]), cap)


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
                row = [r.step, fmt(r.lam), fmt(r.ess), fmt(r.accept_rate), r.m, fmt(r.log_z)]
                row += [fmt(x) for x in r.theta_mean]
                row += [fmt(x) for x in r.theta_sd]
                row += [fmt(r.ess_post_refresh)]
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
                    w.writerow([r.step, i, fmt(wts[i]), *[fmt(x) for x in theta[i]]])


def fmt(x: float) -> str:
    """A float as CSV text: 17 significant digits, which read back to the same float."""
    return format(float(x), ".17g")


def load_trace_csv(path) -> LadderTrace:
    """Rebuild a LadderTrace (without snapshots) from its CSV export.

    A CSV written before ``ess_post_refresh`` was exported loads it as nan.
    InvalidInputError names the file and its missing column or bad line.
    """
    trace = LadderTrace()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "lambda" not in reader.fieldnames:
            raise InvalidConfigError(f"{path} is not a ladder trace CSV")
        d = sum(1 for name in reader.fieldnames if name.startswith("theta_mean_"))
        for row in reader:
            try:
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
            except KeyError as err:
                raise InvalidInputError(f"{path} has no {err.args[0]!r} column") from None
            except (TypeError, ValueError):  # a short row reads None, a bad cell raises ValueError
                raise InvalidInputError(f"{path}:{reader.line_num}: a cell is missing or not a number") from None
    return trace


@dataclass
class SMCConfig:
    """Inputs of the SMC driver, checked by ``validate`` (``run_smc`` calls it).

    Fixed, not set: M = 1 at the first draw, the 2.38^2/d proposal scale
    (``mcmc.calibrate``), the MH screen's covariance inflation (``mcmc.SCREEN_INFLATION``),
    the lambda search's 1e-4 * N ESS tolerance and ``SNAPSHOT_MAX``.
    """

    n_particles: int = 1000
    lambda_target: float | None = 60.0  # exponential kernel: required, the last rung; uniform: ignored
    tau: float = 0.9
    mcmc_steps: int = 3
    accept_target: float = 0.1
    adapt_m: bool = True  # double M while MCMC acceptance < accept_target (exponential kernel)
    m_max: int = 128
    m_change: str = "gibbs"  # or "is"
    kernel: str = "exponential"  # or "uniform"
    eps_target: float | None = None  # uniform kernel: required, the last rung of its eps ladder
    sim_budget: int | None = None  # simulator calls; checked at the start of each step
    max_steps: int = 10_000
    store_snapshots: bool = False
    seed: int = 0
    on_stall: str = "raise"  # or "stop" / "advance" (instrumented: lambda * 1.5, keep weights)
    m_schedule: dict[int, int] | None = None  # forced M per step, overrides adaptation

    def validate(self):
        if self.n_particles < 2:
            raise InvalidConfigError("n_particles must be >= 2")
        if not 0.0 < self.tau < 1.0:
            raise InvalidConfigError("tau must lie in (0, 1)")
        if self.kernel not in KERNELS:
            raise InvalidConfigError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "uniform":
            if self.eps_target is None or not 0 <= self.eps_target < math.inf:
                raise InvalidConfigError("uniform kernel requires a finite eps_target >= 0")
        elif self.lambda_target is None or not 0 <= self.lambda_target < math.inf:
            raise InvalidConfigError("exponential kernel requires a finite lambda_target >= 0")
        if self.m_change not in ("gibbs", "is"):
            raise InvalidConfigError(f"unknown m_change {self.m_change!r}")
        if self.on_stall not in ("raise", "stop", "advance"):
            raise InvalidConfigError(f"unknown on_stall {self.on_stall!r}")
        if not 0.0 <= self.accept_target <= 1.0:  # outside, M would double at every step, or never
            raise InvalidConfigError(f"accept_target must lie in [0, 1], not {self.accept_target}")
        if self.m_max < 1:
            raise InvalidConfigError("m_max must be >= 1")
        if self.m_schedule and min(min(self.m_schedule), min(self.m_schedule.values())) < 1:
            raise InvalidConfigError("m_schedule steps and counts must be >= 1")
        if self.mcmc_steps < 0:
            raise InvalidConfigError("mcmc_steps must be >= 0")
        # either would end the run before its first rung
        if self.max_steps < 1:
            raise InvalidConfigError("max_steps must be >= 1")
        if self.sim_budget is not None and self.sim_budget <= self.n_particles:
            raise InvalidConfigError("sim_budget must exceed n_particles, which the first draw spends")
        if self.seed < 0:  # numpy seeds no generator from a negative integer
            raise InvalidConfigError(f"seed must be >= 0, not {self.seed}")
        return self


def _select(system: ParticleSystem, config: SMCConfig, kernel, stop: float, trace: LadderTrace):
    """The next rung, clamped to ``stop``, and whether to resample there; (None, False) ends the run.

    A ladder stall ends the run with status ``ladder_stall`` (raising under
    ``on_stall="raise"``), except under ``"advance"`` on the lambda ladder.
    """
    try:
        lam_new, resample = find_next_lambda(system, config.tau, stop, kernel=kernel), True
    except LadderStallError as err:
        if config.on_stall != "advance" or kernel is UniformKernel:
            trace.status = "ladder_stall"
            if config.on_stall == "raise":
                err.trace = trace
                raise
            return None, False
        # The current weights are already below the ESS target -- the
        # importance-sampling M refresh can do this -- so no admissible
        # temperature exists.  Push lambda by half anyway and keep the
        # damaged weights: resampling would launder the diagnostic, and
        # this instrumented mode records how the weight ESS collapses once
        # the ESS contract is broken.
        lam_new, resample = 1.5 * system.lam, False
    return (stop if kernel.direction * (lam_new - stop) >= 0 else lam_new), resample


def _reweight_resample(system: ParticleSystem, lam_new: float, kernel, rng, resample: bool) -> float:
    """Reweight to ``lam_new``, updating log Z, then resample systematically; returns the ESS before resampling."""
    log_w, system.log_z = reweight(system.log_weights, system.log_z, system.dists, kernel, system.lam, lam_new)
    system.log_weights = log_w
    ess_sel = system.ess()
    system.lam = lam_new
    if resample:
        idx = systematic_resample(system.weights(), float(rng.random()))
        system.theta = system.theta[idx]
        system.dists = system.dists[idx]
        system.log_weights = np.full(idx.size, -math.log(idx.size))
    return ess_sel


def _move(system: ParticleSystem, model, simulate, kernel, rng, k_steps: int) -> float:
    """K MCMC sweeps, the proposal calibrated on the particles.

    ``mcmc.calibrate`` gives a continuous model's random-walk factor, which
    ``mcmc.rejuvenate`` also reads for its screen: a Gaussian fit to the
    population this call starts from.  Returns the acceptance among the
    simulated proposals, those that passed the screen (1 without sweeps),
    which the M rule reads and the trace records.
    """
    if k_steps == 0:
        return 1.0
    chol = mcmc.calibrate(system.theta) if model.theta_atoms is None else None
    accept_rate, sims = mcmc.rejuvenate(system, model, simulate, kernel, rng, chol, k_steps)
    system.sim_calls += sims
    return accept_rate


def _change_m(system: ParticleSystem, config: SMCConfig, step: int, accept_rate: float, simulate, rng, kernel):
    """Set M from the schedule, else from the acceptance (lambda ladder only), refreshing the replicates."""
    m = system.m_replicates
    if config.m_schedule is not None:
        m_new = config.m_schedule.get(step, m)
    elif config.adapt_m and kernel is not UniformKernel:
        m_new = madapt.adapt_m(accept_rate, m, config.accept_target, config.m_max)
    else:
        return
    if m_new == m:
        return
    if config.m_change == "gibbs":
        system.sim_calls += madapt.gibbs_refresh_system(system, m_new, simulate, rng, kernel)
    else:
        system.sim_calls += madapt.is_refresh_system(system, m_new, simulate, kernel)


def run_smc(
    config: SMCConfig, model: GenerativeModel, summary: SummarySpec, dist_spec: DistanceSpec, observations
) -> tuple[ParticleSystem, LadderTrace]:
    """Full adaptive SMC loop from the prior to the target inverse temperature (or tolerance).

    N equally weighted prior draws with one replicate each start the ladder.
    Each step runs four phases: ``_select`` chooses the next rung by ESS
    (``find_next_lambda``), ``_reweight_resample`` reweights, updates log Z and
    resamples systematically, ``_move`` rejuvenates with K MCMC sweeps and
    ``_change_m`` adapts the replicate count M.  The run ends at the target
    rung, at ``max_steps``, on the simulation budget, on a stall or on
    degeneracy.  Identical config and seed reproduce the trace bit for bit.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    kernel = KERNELS[config.kernel]
    simulate = simulator(model, summary, dist_spec, observations, rng)
    n = config.n_particles
    theta = model.prior_sample(rng, n)
    system = ParticleSystem(theta, simulate(theta, 1), np.full(n, -math.log(n)), kernel.start_param, 0.0, n)
    stop = config.eps_target if kernel is UniformKernel else config.lambda_target
    trace = LadderTrace(kernel=kernel.name)
    step = 0
    while system.lam != stop:
        if step >= config.max_steps:
            trace.status = "max_steps"
            break
        if config.sim_budget is not None and system.sim_calls >= config.sim_budget:
            trace.status = "budget_exhausted"
            break
        step += 1
        lam_new, resample = _select(system, config, kernel, stop, trace)
        if lam_new is None:
            break
        ess_sel = _reweight_resample(system, lam_new, kernel, rng, resample)
        accept_rate = _move(system, model, simulate, kernel, rng, config.mcmc_steps)
        _change_m(system, config, step, accept_rate, simulate, rng, kernel)
        ess_post = system.ess()
        snapshot = None
        if config.store_snapshots:
            snapshot = (system.theta.copy(), system.dists.copy(), system.log_weights.copy())
        mean, sd = weighted_moments(system.theta, system.weights())
        trace.records.append(StepRecord(
            step, lam_new, ess_sel, accept_rate, system.m_replicates, system.log_z, mean, sd, ess_post, snapshot
        ))
        if ess_post <= 1.0 + 1e-9:
            trace.status = "degenerate"
            if config.on_stall == "raise":
                raise DegenerateSystemError("particle system collapsed to a single particle", trace)
            break
    if config.store_snapshots:
        _thin_snapshots(trace, SNAPSHOT_MAX)
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
    exactly with the trace's kernel (``reweight``).
    """
    candidates = [r for r in trace.records if r.snapshot is not None]
    if not candidates:
        raise InvalidConfigError("trace carries no snapshots; rerun with store_snapshots=True")
    rec = min(candidates, key=lambda r: abs(r.lam - lam))
    theta, dists, log_w = rec.snapshot
    log_w, _ = reweight(log_w, 0.0, dists, KERNELS[trace.kernel], rec.lam, lam)
    return theta, np.exp(log_w)
