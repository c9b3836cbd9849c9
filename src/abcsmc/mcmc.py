"""Pseudo-marginal random-walk Metropolis-Hastings rejuvenation.

Each proposal regenerates all M replicate datasets, so the replicate-averaged
kernel value acts as a nonnegative unbiased likelihood estimate and the chain
targets the joint replicate-augmented distribution exactly.  The MH test runs
in two stages (``stage_log_accept``): a proposal is first screened on its
prior ratio, which costs no simulation, and only the survivors are simulated.
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


def stage_log_accept(log_cur, log_prop):
    """Log acceptance of one stage of the MH test: min(0, log_prop - log_cur), per particle.

    ``rejuvenate`` applies it twice, first to the log prior densities and
    then to the log kernel sums over each state's replicates; a move is
    accepted iff log U < stage(prior) + stage(kernel sums).  Each factor
    min(1, r) meets its own reverse symmetry, so the two-stage kernel is
    reversible for the same target as the one-stage rule.  The symmetric
    random-walk proposal density cancels, and so do the 1/M factors, since
    both states carry M replicates.  An undefined difference (-inf - -inf, as
    when both states lie outside the prior's support) is NaN, and log U < NaN
    is false: the move is rejected.
    """
    with np.errstate(invalid="ignore"):
        diff = log_prop - log_cur
    return np.minimum(diff, 0.0, out=diff)


def rejuvenate(system, model, simulate, kernel, rng, chol, k_steps):
    """k_steps in-place MH sweeps over all particles, screened on the prior ratio first.

    Continuous models use a Gaussian random walk with step chol @ z, chol
    from ``calibrate``; discrete models (theta_atoms set) use a symmetric uniform
    proposal over the atoms.  The atoms' log prior is computed once per call,
    and each atom proposal reads its own by the drawn index.  Each sweep
    draws its proposals, then one uniform U per particle, and rejects every
    proposal with log U >= ``stage_log_accept`` of the prior densities
    (delayed acceptance: Christen & Fox 2005).  Only the survivors get their
    m fresh replicate distances from ``simulate(theta, m)`` (the run's
    ``smc.simulator``); a survivor is accepted iff log U is also below that
    stage plus the stage of the log kernel sums.  The accepted rows are found
    once (``np.flatnonzero``) and only they are copied into the current state.

    Returns (acceptance, sim_calls): the accepted share of the simulated
    proposals (1.0 when no proposal was simulated), which the M rule reads,
    and the simulator calls made, simulated rows times m.
    """
    n, m = system.dists.shape
    atoms = model.theta_atoms
    atoms_log_prior = None if atoms is None else model.prior_logpdf_batch(atoms)
    log_prior = model.prior_logpdf_batch(system.theta)
    log_kern = kernel.log_sum(system.dists, system.lam)
    accepts = simulated = 0
    for _ in range(k_steps):
        if atoms is not None:
            k = rng.integers(0, len(atoms), size=n)
            prop, lp_prop = atoms.take(k, axis=0), atoms_log_prior.take(k)
            del k  # not alive through the simulation, the sweep's peak
        else:
            prop = system.theta + rng.standard_normal(system.theta.shape) @ chol.T
            lp_prop = model.prior_logpdf_batch(prop)
        log_u = np.log(rng.random(n))
        log_alpha = stage_log_accept(log_prior, lp_prop)
        keep = np.flatnonzero(log_u < log_alpha)
        prop, lp_prop = prop.take(keep, axis=0), lp_prop.take(keep)
        log_u, log_alpha = log_u.take(keep), log_alpha.take(keep)
        d_prop = simulate(prop, m)
        lk_prop = kernel.log_sum(d_prop, system.lam)
        log_alpha += stage_log_accept(log_kern.take(keep), lk_prop)
        ok = np.flatnonzero(log_u < log_alpha)
        idx = keep.take(ok)
        system.theta[idx] = prop.take(ok, axis=0)
        system.dists[idx] = d_prop.take(ok, axis=0)
        log_prior[idx] = lp_prop.take(ok)
        log_kern[idx] = lk_prop.take(ok)
        accepts += ok.size
        simulated += keep.size
    return (accepts / simulated if simulated else 1.0), simulated * m
