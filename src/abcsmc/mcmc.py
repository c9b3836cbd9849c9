"""Pseudo-marginal random-walk Metropolis-Hastings rejuvenation.

Each proposal regenerates all M replicate datasets, so the replicate-averaged
kernel value acts as a nonnegative unbiased likelihood estimate and the chain
targets the joint replicate-augmented distribution exactly.  The MH test runs
in two stages (``stage_log_accept``): a proposal is first screened on a
density that costs no simulation, and only the survivors are simulated.  A
continuous model screens on a Gaussian fit to the population, fixed for the
call's sweeps; a discrete model screens on its prior.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError

# The screen's covariance over the population covariance that ``calibrate`` factors (c in ``rejuvenate``)
SCREEN_INFLATION = 1.5


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

    ``rejuvenate`` applies it twice: first to the log densities of a screen
    that depends on theta alone and stays fixed for the call, then to the
    rest of the target, log prior + log kernel sum - log screen.  A move is
    accepted iff log U is below the sum of the two stages.  Each factor
    min(1, r) meets its own reverse symmetry, so the two-stage kernel is
    reversible for the same target as the one-stage rule, whatever the
    screen.  The symmetric random-walk proposal density cancels, and so do
    the 1/M factors, since both states carry M replicates.  An undefined
    difference (-inf - -inf, as when both states lie outside the prior's
    support) is NaN, and log U < NaN is false: the move is rejected.
    """
    with np.errstate(invalid="ignore"):
        diff = log_prop - log_cur
    return np.minimum(diff, 0.0, out=diff)


def rejuvenate(system, model, simulate, kernel, rng, chol, k_steps):
    """k_steps in-place MH sweeps over all particles, each proposal screened before it is simulated.

    Continuous models use a Gaussian random walk with step chol @ z, chol
    from ``calibrate``, and screen on a Gaussian phi fitted to the population
    the call starts from: its mean mu, and SCREEN_INFLATION times the
    covariance behind chol.  phi is read in whitened coordinates
    w = chol^-1 (theta - mu), where log phi = -(2.38^2 / (2 c d)) |w|^2 up to
    a constant and a proposal theta + chol @ z sits at w + z; so the d x d
    inverse of chol, taken once per call, gives every state's w, and no sweep
    solves a system.
    Discrete models (theta_atoms set) use a symmetric uniform proposal over
    the atoms and screen on the prior, whose values over the atoms are
    computed once per call and read by the drawn index.

    Each sweep draws its proposals, then one uniform U per particle, and
    rejects every proposal with log U >= ``stage_log_accept`` of the screen
    (delayed acceptance: Christen & Fox 2005; a population surrogate as in
    Everitt & Rowinska 2021).  Only the survivors get their m fresh replicate
    distances from ``simulate(theta, m)`` (the run's ``smc.simulator``) and
    their log prior; a survivor is accepted iff log U is also below that
    stage plus the stage of log prior + log kernel sum - log screen.  Each
    particle carries its log screen and that rest (and w), updated for the
    accepted rows only, found once (``np.flatnonzero``).

    Returns (acceptance, sim_calls): the accepted share of the simulated
    proposals (1.0 when no proposal was simulated), which the M rule reads,
    and the simulator calls made, simulated rows times m.
    """
    n, m = system.dists.shape
    atoms = model.theta_atoms
    log_kern = kernel.log_sum(system.dists, system.lam)
    if atoms is None:
        scale = 2.38**2 / (2.0 * SCREEN_INFLATION * system.theta.shape[1])
        white = (system.theta - system.theta.mean(axis=0)) @ np.linalg.inv(chol).T
        log_screen = -scale * np.einsum("ij,ij->i", white, white)
        log_rest = model.prior_logpdf_batch(system.theta) - log_screen + log_kern
    else:
        atoms_log_prior = model.prior_logpdf_batch(atoms)
        log_screen, log_rest = model.prior_logpdf_batch(system.theta), log_kern
    accepts = simulated = 0
    for _ in range(k_steps):
        if atoms is not None:
            k = rng.integers(0, len(atoms), size=n)
            prop, ls_prop = atoms.take(k, axis=0), atoms_log_prior.take(k)
            del k  # not alive through the simulation, the sweep's peak
        else:
            z = rng.standard_normal(system.theta.shape)
            prop = system.theta + z @ chol.T
            w_prop = white + z
            ls_prop = -scale * np.einsum("ij,ij->i", w_prop, w_prop)
        log_u = np.log(rng.random(n))
        log_alpha = stage_log_accept(log_screen, ls_prop)
        keep = np.flatnonzero(log_u < log_alpha)
        prop, ls_prop = prop.take(keep, axis=0), ls_prop.take(keep)
        log_u, log_alpha = log_u.take(keep), log_alpha.take(keep)
        d_prop = simulate(prop, m)
        lr_prop = kernel.log_sum(d_prop, system.lam)
        if atoms is None:
            lr_prop += model.prior_logpdf_batch(prop) - ls_prop
        log_alpha += stage_log_accept(log_rest.take(keep), lr_prop)
        ok = np.flatnonzero(log_u < log_alpha)
        idx = keep.take(ok)
        system.theta[idx] = prop.take(ok, axis=0)
        system.dists[idx] = d_prop.take(ok, axis=0)
        log_screen[idx] = ls_prop.take(ok)
        log_rest[idx] = lr_prop.take(ok)
        if atoms is None:
            white[idx] = w_prop.take(idx, axis=0)
        accepts += ok.size
        simulated += keep.size
    return (accepts / simulated if simulated else 1.0), simulated * m
