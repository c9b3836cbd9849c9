"""Replicate-count (M) adaptation for the replicate-augmented target.

Doubling M when MCMC acceptance drops below a floor trades simulation cost
for a lower-variance kernel estimate.  Two refresh rules change M in flight,
each applied to the whole particle system at once:

- Gibbs refresh (``gibbs_refresh_system``): each particle retains one
  existing replicate with probability proportional to its kernel value
  K(d_k) -- exp(-lambda * d_k), or 1{d_k <= eps} on the uniform kernel --
  then simulates the remaining M'-1 afresh.  This is an exact conditional
  draw from the augmented target, so particle weights are untouched.
- Importance-sampling refresh (``is_refresh_system``): replace all
  replicates by fresh draws and correct the weights by the ratio of kernel
  averages (``is_log_correction``).  The correction has heavy tails at large
  lambda and is included as the unstable baseline.

Both draw their fresh replicates through ``simulate(theta, m)``, the run's
``smc.simulator``: the (N, m) distances of m new datasets per particle.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidConfigError, InvalidInputError


def adapt_m(acceptance_rate: float, m: int, target: float, m_max: int) -> int:
    """The new M: doubled when acceptance is below target and 2M fits under m_max."""
    if not 0.0 <= acceptance_rate <= 1.0:
        raise InvalidInputError("acceptance_rate must lie in [0, 1]")
    if m < 1 or m_max < m:
        raise InvalidConfigError("need 1 <= m <= m_max")
    if acceptance_rate < target and 2 * m <= m_max:
        return 2 * m
    return m


def gibbs_refresh_system(system, m_new, simulate, rng, kernel) -> int:
    """Vectorized Gibbs refresh of the whole population; returns simulator calls."""
    n, m_old = system.dists.shape
    lw = kernel.log_k(system.dists, system.lam)  # unnormalized log retention weights
    top = lw.max(axis=1, keepdims=True)
    # a particle with no kernel mass has zero target density: keep any replicate, uniformly
    empty = np.isneginf(top[:, 0])
    lw[empty] = top[empty] = 0.0
    p = np.exp(lw - top)
    cum = np.cumsum(p, axis=1)
    cum /= cum[:, -1:]
    u = rng.random(n)
    k = np.minimum(np.sum(cum < u[:, None], axis=1), m_old - 1)
    kept_d = system.dists[np.arange(n), k]
    if m_new > 1:
        system.dists = np.concatenate([kept_d[:, None], simulate(system.theta, m_new - 1)], axis=1)
    else:
        system.dists = kept_d[:, None]
    return n * (m_new - 1)


def is_log_correction(dists_old: np.ndarray, dists_new: np.ndarray, lam: float, kernel) -> np.ndarray:
    """Per-particle log importance correction for replacing M old replicates by M' fresh ones.

    log w = log [M sum_i K(d~_i)] - log [M' sum_i K(d_i)], with the old
    distances d and the fresh ones d~ in the rows of the two arrays and K
    the kernel at lam.
    """
    return (
        np.log(dists_old.shape[-1])
        - np.log(dists_new.shape[-1])
        + kernel.log_sum(dists_new, lam)
        - kernel.log_sum(dists_old, lam)
    )


def is_refresh_system(system, m_new, simulate, kernel) -> int:
    """Replace all replicates by fresh ones and apply the importance correction."""
    d_new = simulate(system.theta, m_new)
    system.log_weights = system.log_weights + is_log_correction(system.dists, d_new, system.lam, kernel)
    system.dists = d_new
    return system.n_particles * m_new
