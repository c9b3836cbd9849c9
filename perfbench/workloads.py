"""The benchmark's workloads and the oracles that check every run's output.

Each workload is an ``abcsmc`` run configuration: a preset plus overrides.
The benchmark seed picks the inputs: the ``i``-th run under seed ``s`` gets
``input_seed(s, i)`` as its ``abcsmc run --seed``, which seeds the sampler and
the draw of the observed data from the config's truth generator.  Each run of
an invocation thus has a fresh input, and the median wall time averages over
the inputs' ladder lengths.

The oracles read only the files a run leaves behind (``trace.csv``,
``summary.json`` and ``particles.npz``) and are written from scratch with
numpy and the standard library, independent of the library under test.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np



def input_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


# Both oracle tolerances are several standard errors of the Monte Carlo
# estimate at these particle counts, and far below the error of a run that
# stops at the wrong rung or mis-weights its particles.
DISCRETE_TV_TOL = 0.02
GAUSSIAN_LOG_Z_TOL = 0.1

_MIXTURE = {
    "model": {"name": "mixture", "p": 0.8, "mu_prior_sd": 10.0, "logsigma_prior_sd": 1.0},
    "truth": {"kind": "two_component", "n": 90},
    "summary": {"kind": "moments_and_tails", "clamp": [-5.0, 5.0]},
    "distance": {"kind": "lp", "p": 2},
    "smc": {
        "n_particles": 500,
        "lambda_target": 20.0,
        "tau": 0.9,
        "mcmc_steps": 3,
        # M follows a fixed schedule through the Gibbs refresh instead of the
        # acceptance rule, whose doubling rung is a coin flip between inputs:
        # 1 -> 8 over the first rungs, one rung at 256, then back to 8.  The
        # M=256 rung holds a 500 x 256 x 90 simulation array, so peak RSS
        # follows the simulate-to-distance path rather than the imports.
        "m_schedule": {1: 2, 2: 4, 3: 8, 10: 256, 11: 8},
        "m_change": "gibbs",
    },
    "bound": {"n": 90, "m": 6, "p": 2, "K": 625.0, "d": 4, "theta_var": 100.0, "eps": 0.05},
}

_DISCRETE = {
    "model": {
        "name": "discrete_toy",
        "theta_values": [0.0, 1.0, 2.0, 3.0, 4.0],
        "prior_weights": [0.3, 0.25, 0.2, 0.15, 0.1],
        "obs_values": [0.0, 1.0, 2.0],
        "obs_probs": [
            [0.70, 0.20, 0.10],
            [0.45, 0.35, 0.20],
            [0.25, 0.50, 0.25],
            [0.15, 0.35, 0.50],
            [0.05, 0.25, 0.70],
        ],
        "n": 3,
    },
    "observations": [0.0, 2.0, 1.0],
    "summary": {"kind": "identity"},
    "distance": {"kind": "lp", "p": 1},
    "smc": {"n_particles": 100_000, "lambda_target": 5.0, "adapt_m": False, "mcmc_steps": 3},
    # not in the preset: added so every workload runs the CLI's bound report
    # (statistics in {0, 1, 2}; prior variance of the atoms 1.75)
    "bound": {"n": 3, "m": 3, "p": 1, "K": 2.0, "d": 1, "theta_var": 1.75, "eps": 0.05},
}

_GAUSSIAN = {
    "model": {"name": "gaussian_location", "prior_var": 4.0, "noise_sd": 1.0},
    "truth": {
        "kind": "two_component",
        "weights": [1.0, 0.0],
        "means": [0.5, 0.0],
        "sds": [1.0, 1.0],
        "truncation": None,
        "n": 50,
    },
    "summary": {"kind": "mean"},
    "distance": {"kind": "scaled_empirical_l2"},
    "smc": {
        "n_particles": 20_000,
        "kernel": "uniform",
        "eps_target": 0.05,
        "lambda_target": None,
        "adapt_m": False,
        "mcmc_steps": 3,
    },
    "bound": {"n": 50, "m": 1, "p": 2, "K": 1.0, "d": 1, "theta_var": 4.0, "eps": 0.05},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # abcsmc run configuration
    check: Callable[[dict, Path], list]  # (configuration, run directory) -> problems found


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _read_trace(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["lambda"]) for r in rows], [float(r["log_z"]) for r in rows]


def common_checks(cfg: dict, run_dir: Path) -> list:
    """Status ``ok``, the ladder ends on its target, weights are finite and
    sum to 1, and log Z is non-increasing along the ladder from log Z_0 = 0."""
    problems = []
    with open(run_dir / "summary.json") as fh:
        summary = json.load(fh)
    if summary["status"] != "ok":
        problems.append(f"status {summary['status']!r}")
    smc = cfg["smc"]
    target = smc["eps_target"] if smc.get("kernel") == "uniform" else smc["lambda_target"]
    ladder, log_z = _read_trace(run_dir / "trace.csv")
    if not ladder or ladder[-1] != target or summary["lambda_final"] != target:
        problems.append(f"ladder ends at {ladder[-1] if ladder else None}, target {target}")
    weights = np.exp(np.load(run_dir / "particles.npz")["log_weights"])
    if not np.all(np.isfinite(weights)) or abs(weights.sum() - 1.0) > 1e-9:
        problems.append(f"weights not finite and normalised (sum {weights.sum()!r})")
    steps = np.diff([0.0] + log_z)
    if np.any(steps > 1e-12):
        problems.append(f"log Z increases along the ladder (max step {steps.max():.3g})")
    return problems


def enumerated_posterior(model: dict, observations, lam: float) -> np.ndarray:
    """p(atom | y) ∝ prior(atom) Σ_x p(x | atom) exp(-lam ||x - y||_1), over every dataset x."""
    values = model["obs_values"]
    mass = []
    for prior, probs in zip(model["prior_weights"], model["obs_probs"]):
        total = 0.0
        for idx in itertools.product(range(len(values)), repeat=model["n"]):
            lik = math.prod(probs[j] for j in idx)
            dist = sum(abs(values[j] - y) for j, y in zip(idx, observations))
            total += lik * math.exp(-lam * dist)
        mass.append(prior * total)
    mass = np.array(mass)
    return mass / mass.sum()


def check_discrete(cfg: dict, run_dir: Path) -> list:
    problems = common_checks(cfg, run_dir)
    particles = np.load(run_dir / "particles.npz")
    theta, weights = particles["theta"][:, 0], np.exp(particles["log_weights"])
    model = cfg["model"]
    got = np.array([weights[theta == v].sum() for v in model["theta_values"]])
    exact = enumerated_posterior(model, cfg["observations"], cfg["smc"]["lambda_target"])
    tv = 0.5 * float(np.abs(got - exact).sum())
    if not tv < DISCRETE_TV_TOL:
        problems.append(f"TV to enumeration {tv:.4f} >= {DISCRETE_TV_TOL}")
    return problems


def gaussian_log_z(ybar: float, eps: float, prior_var: float, noise_sd: float, n: int) -> float:
    """log P(|W - ybar| <= eps) for the simulated sample mean W ~ N(0, prior_var + noise_sd^2 / n)."""
    s = math.sqrt(prior_var + noise_sd**2 / n)

    def cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    return math.log(cdf((ybar + eps) / s) - cdf((ybar - eps) / s))


def check_gaussian(cfg: dict, run_dir: Path) -> list:
    problems = common_checks(cfg, run_dir)
    obs = np.load(run_dir / "particles.npz")["observations"]
    with open(run_dir / "summary.json") as fh:
        log_z = json.load(fh)["log_z"]
    model = cfg["model"]
    exact = gaussian_log_z(
        float(obs.mean()), cfg["smc"]["eps_target"], model["prior_var"], model["noise_sd"], obs.size
    )
    if not abs(log_z - exact) < GAUSSIAN_LOG_Z_TOL:
        problems.append(f"|log Z - exact| = {abs(log_z - exact):.4f} >= {GAUSSIAN_LOG_Z_TOL}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixture-adaptive-m",
            "simulation-bound: mixture simulator and moment summaries at n=90 carry the run; "
            "the only workload that changes M (Gibbs refresh, one rung at M=256) and sets peak RSS",
            _MIXTURE,
            common_checks,
        ),
        Workload(
            "discrete-wide",
            "table-lookup simulator and identity statistic on 100k particles, so the sampler's "
            "own layers (MCMC, ladder search, distance, resampling) carry the run",
            _DISCRETE,
            check_discrete,
        ),
        Workload(
            "gaussian-uniform",
            "the only workload on the epsilon ladder and on the Gaussian simulator; "
            "M=1 small batches where the mixture runs large ones",
            _GAUSSIAN,
            check_gaussian,
        ),
    )
}
