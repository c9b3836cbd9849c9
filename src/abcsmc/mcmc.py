"""Pseudo-marginal random-walk Metropolis-Hastings rejuvenation.

Each proposal regenerates all M replicate datasets, so the replicate-averaged
kernel value acts as a nonnegative unbiased likelihood estimate and the chain
targets the joint replicate-augmented distribution exactly.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError


def calibrate(theta: np.ndarray) -> np.ndarray:
    """Random-walk proposal from the current (equally weighted) population.

    Returns the lower Cholesky factor L of (2.38^2/d) * (cov + ridge * I),
    the classic scale; the ridge starts at 1e-10 and is multiplied by ten
    until the factorization succeeds, so a degenerate population still
    yields a usable (if tiny) proposal.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] < 2:
        raise InvalidInputError("theta must be (N, d) with N >= 2")
    d = theta.shape[1]
    cov = np.atleast_2d(np.cov(theta, rowvar=False))
    ridge = 1e-10
    while True:
        try:
            return np.linalg.cholesky(2.38**2 / d * (cov + ridge * np.eye(d)))
        except np.linalg.LinAlgError:
            ridge *= 10.0
            if ridge > 1e12:
                raise InvalidInputError("covariance could not be regularized") from None


def mh_log_ratio(log_k_cur, log_k_prop, log_prior_cur, log_prior_prop):
    """Per-particle log of [sum_i K(d'_i) pi(theta')] / [sum_i K(d_i) pi(theta)].

    Takes each state's log kernel sum over its replicates.  The symmetric
    random-walk proposal density cancels, and so do the 1/M factors, since
    both states carry M replicates.  An undefined ratio (-inf - -inf, as when
    both states lie outside the prior's support) is -inf: the move is rejected.
    """
    with np.errstate(invalid="ignore"):
        log_ratio = log_k_prop - log_k_cur + log_prior_prop - log_prior_cur
    return np.where(np.isnan(log_ratio), -np.inf, log_ratio)


def rejuvenate(system, model, simulate, kernel, rng, chol, k_steps):
    """k_steps in-place MH sweeps over all particles; returns (accept_rate, sim_calls).

    Continuous models use a Gaussian random walk with step chol @ z, chol
    from ``calibrate``; discrete models (theta_atoms set) use a symmetric uniform
    proposal over the atoms.  ``simulate(theta, m)`` gives each proposal its
    m fresh replicate distances (the run's ``smc.simulator``).  The atoms'
    log prior is computed once per call, and each atom proposal reads its
    own by the drawn index.  Acceptance uses the standard rule
    log U < ``mh_log_ratio``.  Each sweep finds the accepted rows once
    (``np.flatnonzero``) and copies only those rows of the proposal, its
    distances, prior log density and log kernel sum into the current state.
    """
    n, m = system.dists.shape
    atoms = model.theta_atoms
    atoms_log_prior = None if atoms is None else model.prior_logpdf_batch(atoms)
    log_prior = model.prior_logpdf_batch(system.theta)
    log_kern = kernel.log_sum(system.dists, system.lam)
    accepts = 0
    for _ in range(k_steps):
        if atoms is not None:
            k = rng.integers(0, len(atoms), size=n)
            prop, lp_prop = atoms.take(k, axis=0), atoms_log_prior.take(k)
            del k  # not alive through the simulation, the sweep's peak
        else:
            prop = system.theta + rng.standard_normal(system.theta.shape) @ chol.T
            lp_prop = model.prior_logpdf_batch(prop)
        d_prop = simulate(prop, m)
        lk_prop = kernel.log_sum(d_prop, system.lam)
        idx = np.flatnonzero(np.log(rng.random(n)) < mh_log_ratio(log_kern, lk_prop, log_prior, lp_prop))
        system.theta[idx] = prop.take(idx, axis=0)
        system.dists[idx] = d_prop.take(idx, axis=0)
        log_prior[idx] = lp_prop.take(idx)
        log_kern[idx] = lk_prop.take(idx)
        accepts += idx.size
    return accepts / (n * k_steps), n * k_steps * m
