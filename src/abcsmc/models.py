"""Generative models (prior + simulator) and the data generators for experiments.

The model interface is a prior over an unconstrained parameter vector
(``prior_sample`` and ``prior_logpdf_batch``) plus one simulator,
``simulate_batch``, which draws m datasets of n reals for every parameter
row at once.  ``reduced(summary, n)`` names a cheaper simulator with the same
statistic law: a model and a dataset size n' <= n whose ``summary``
statistics are distributed as this model's at size n.  The sampler simulates
through it; code that needs the data itself (truth draws, posterior
predictive checks) calls ``simulate_batch`` at the full size.  All randomness
flows through caller-supplied ``numpy.random.Generator`` streams, so a fixed
seed reproduces datasets bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError, InvalidParameterError
from .statistics import beside, distance_batch, row_blocks, summarize, summarize_batch, wait

_LOG_2PI = math.log(2.0 * math.pi)


class GenerativeModel:
    """Interface: prior sampler/log-density over Theta plus a batch simulator.

    ``theta_atoms`` is None for continuous parameter spaces; discrete models
    set it to the finite list of admissible parameter values, which switches
    the MCMC rejuvenation kernel to a uniform atom proposal.
    """

    param_dim: int = 0
    theta_atoms: np.ndarray | None = None

    def prior_sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def prior_logpdf_batch(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def simulate_batch(self, thetas: np.ndarray, n: int, m: int, rng: np.random.Generator) -> np.ndarray:
        """Simulate m datasets of size n for each row of thetas; shape (B, m, n)."""
        raise NotImplementedError

    def reduced(self, summary, n: int) -> tuple[GenerativeModel, int]:
        """A model and size n' <= n whose ``summary`` statistics have this model's law at size n."""
        return self, n


class MixtureModel(GenerativeModel):
    """Two-component Gaussian mixture with known mixing weight p.

    theta = (mu1, log sigma1, mu2, log sigma2), stored on the unconstrained
    scale.  The prior is independent N(0, mu_prior_sd^2) on the means and
    N(0, logsigma_prior_sd^2) on the log standard deviations.
    """

    param_dim = 4

    def __init__(self, p: float = 0.8, mu_prior_sd: float = 10.0, logsigma_prior_sd: float = 1.0):
        if not 0.0 < p < 1.0:
            raise InvalidConfigError("mixing weight p must lie in (0, 1)")
        self.p = float(p)
        self._prior_sd = np.array([mu_prior_sd, logsigma_prior_sd, mu_prior_sd, logsigma_prior_sd])

    def prior_sample(self, rng, size=None):
        shape = (4,) if size is None else (size, 4)
        return rng.normal(size=shape) * self._prior_sd

    def prior_logpdf_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        z = thetas / self._prior_sd
        return -0.5 * (z * z).sum(axis=1) - 2.0 * _LOG_2PI - np.log(self._prior_sd).sum()

    def simulate_batch(self, thetas, n, m, rng):
        """Simulate m datasets of size n for each row of thetas; shape (B, m, n).

        Stream contract: all B*m*n uniforms (the component labels) are drawn
        first, then all B*m*n standard normals, each in C order of the
        output.  Draws are made on consecutive row blocks of the output, so
        the generator is consumed exactly as by one-shot draws of the full
        shape and the block size never changes a value.  Each observation is
        mu + s*z with (mu, s) of the label's component, applied in place.
        That affine map draws no random numbers: the map of each block but
        the last may run on the helper thread (``statistics.helper``) while
        this thread draws the next block, with the same bits either way.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(thetas)):
            raise InvalidParameterError("parameter has non-finite entries")
        mu1, s1 = thetas[:, 0, None, None], np.exp(thetas[:, 1, None, None])
        mu2, s2 = thetas[:, 2, None, None], np.exp(thetas[:, 3, None, None])
        out = np.empty((thetas.shape[0], m, n))
        pick1 = np.empty(out.shape, dtype=bool)

        def affine(b0, b1):
            z, pick = out[b0:b1], pick1[b0:b1]
            z *= np.where(pick, s1[b0:b1], s2[b0:b1])
            z += np.where(pick, mu1[b0:b1], mu2[b0:b1])

        blocks = list(row_blocks(thetas.shape[0], m * n))
        for b0, b1 in blocks:
            np.less(rng.random(out=out[b0:b1]), self.p, out=pick1[b0:b1])
        pending = []
        try:
            for i, (b0, b1) in enumerate(blocks):
                rng.standard_normal(out=out[b0:b1])
                if i + 1 < len(blocks):
                    pending.append(beside(affine, b0, b1))
                else:
                    affine(b0, b1)
        finally:
            wait(pending)
        return out


class GaussianLocationModel(GenerativeModel):
    """1-d location model: theta ~ N(0, prior_var), X_i ~ N(theta, noise_sd^2).

    With the sample-mean statistic this model admits an exact normalizing
    constant by low-dimensional quadrature, which makes it the reference toy
    for checking log-Z tracking and the empirical bound.
    """

    param_dim = 1

    def __init__(self, prior_var: float = 1.0, noise_sd: float = 1.0):
        if prior_var <= 0 or noise_sd <= 0:
            raise InvalidConfigError("prior_var and noise_sd must be positive")
        self.prior_var = float(prior_var)
        self.noise_sd = float(noise_sd)

    def prior_sample(self, rng, size=None):
        shape = (1,) if size is None else (size, 1)
        return rng.normal(size=shape) * math.sqrt(self.prior_var)

    def prior_logpdf_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return -0.5 * thetas[:, 0] ** 2 / self.prior_var - 0.5 * (_LOG_2PI + math.log(self.prior_var))

    def simulate_batch(self, thetas, n, m, rng):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(thetas)):
            raise InvalidParameterError("parameter has non-finite entries")
        z = rng.normal(size=(thetas.shape[0], m, n))
        z *= self.noise_sd
        z += thetas[:, 0, None, None]
        return z

    def reduced(self, summary, n):
        """The unclamped sample mean of n draws is exactly N(theta, noise_sd^2 / n): one draw at that sd.

        A clamped mean is not Gaussian, and other statistics need every
        observation, so they keep the full dataset.
        """
        if summary.kind == "mean" and summary.clamp is None and n > 1:
            return GaussianLocationModel(self.prior_var, self.noise_sd / math.sqrt(n)), 1
        return self, n


class DiscreteToyModel(GenerativeModel):
    """Finite parameter atoms and a finite outcome alphabet; fully enumerable.

    ``likelihood`` has one row per theta atom and one column per dataset in
    the lexicographic enumeration of obs_values^n; each row sums to 1 within
    1e-12.  This model exists as a brute-force oracle substrate: every
    pseudo-posterior quantity can be computed exactly by enumeration.
    """

    param_dim = 1

    def __init__(self, theta_values, prior_weights, obs_values, n, likelihood):
        self.theta_values = np.asarray(theta_values, dtype=float)
        self.prior_weights = np.asarray(prior_weights, dtype=float)
        self.obs_values = np.asarray(obs_values, dtype=float)
        self.n = int(n)
        self.likelihood = np.asarray(likelihood, dtype=float)
        a, v = self.theta_values.size, self.obs_values.size
        if self.likelihood.shape != (a, v**self.n):
            raise InvalidConfigError("likelihood table has wrong shape")
        if abs(self.prior_weights.sum() - 1.0) > 1e-12:
            raise InvalidConfigError("prior weights must sum to 1 within 1e-12")
        rows = self.likelihood.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise InvalidConfigError("each likelihood row must sum to 1 within 1e-12")
        self.theta_atoms = self.theta_values[:, None]
        self._datasets = np.array(list(itertools.product(self.obs_values, repeat=self.n)), dtype=float)
        self._cum = np.cumsum(self.likelihood, axis=1)
        self._sort_order = np.argsort(self.theta_values)
        self._sorted_vals = self.theta_values[self._sort_order]

    @classmethod
    def from_obs_probs(cls, theta_values, prior_weights, obs_values, obs_probs, n):
        """Build the dataset-level table from i.i.d. per-observation distributions."""
        obs_probs = np.asarray(obs_probs, dtype=float)
        v = len(obs_values)
        idx = np.array(list(itertools.product(range(v), repeat=n)))
        likelihood = np.prod(obs_probs[:, idx], axis=2)
        return cls(theta_values, prior_weights, obs_values, n, likelihood)

    def enumerate_datasets(self) -> np.ndarray:
        return self._datasets

    def atom_index_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        pos = np.searchsorted(self._sorted_vals, values)
        pos_clipped = np.minimum(pos, self._sorted_vals.size - 1)
        if not np.all(self._sorted_vals[pos_clipped] == values):
            bad = values[self._sorted_vals[pos_clipped] != values]
            raise InvalidParameterError(f"{bad[0]!r} is not a parameter atom")
        return self._sort_order[pos_clipped]

    def prior_sample(self, rng, size=None):
        k = rng.choice(self.theta_values.size, size=size, p=self.prior_weights)
        return self.theta_values[np.atleast_1d(k)][:, None] if size is not None else self.theta_values[[k]]

    def prior_logpdf_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        vals = thetas[:, 0]
        pos = np.minimum(np.searchsorted(self._sorted_vals, vals), self._sorted_vals.size - 1)
        out = np.full(vals.shape, -math.inf)
        match = self._sorted_vals[pos] == vals
        out[match] = np.log(self.prior_weights[self._sort_order[pos[match]]])
        return out

    def simulate_batch(self, thetas, n, m, rng):
        """One uniform per replicate, mapped through its atom's dataset CDF; shape (B, m, n).

        Each atom present writes its rows' dataset indices into one (B, m)
        array, and the datasets are gathered from the table once.
        """
        if n != self.n:
            raise InvalidConfigError(f"model is defined for datasets of size {self.n}")
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        atoms = self.atom_index_batch(thetas[:, 0])
        u = rng.random((thetas.shape[0], m))
        ds = np.empty(u.shape, dtype=np.intp)
        for a in np.flatnonzero(np.bincount(atoms)):
            rows = np.flatnonzero(atoms == a)
            ds[rows] = np.searchsorted(self._cum[a], u[rows], side="right")
        np.minimum(ds, self._datasets.shape[0] - 1, out=ds)
        return self._datasets.take(ds, axis=0)


@dataclass(frozen=True)
class TruthGenerator:
    """Data-generating process for the experiments (possibly misspecified).

    ``two_component`` matches the fitted mixture family; ``three_component``
    is the misspecified truth.  When ``truncation`` is set, emitted
    observations are clamped into the interval.
    """

    kind: str = "two_component"
    weights: tuple[float, ...] = (0.8, 0.2)
    means: tuple[float, ...] = (0.0, 3.0)
    sds: tuple[float, ...] = (1.0, 0.5)
    n: int = 90
    truncation: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("two_component", "three_component"):
            raise InvalidConfigError(f"unknown truth kind {self.kind!r}")
        k = 2 if self.kind == "two_component" else 3
        if not (len(self.weights) == len(self.means) == len(self.sds) == k):
            raise InvalidConfigError(f"{self.kind} needs {k} weights/means/sds")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise InvalidConfigError("component weights must sum to 1")
        if any(s <= 0 for s in self.sds):
            raise InvalidConfigError("component sds must be positive")
        if self.n < 1:
            raise InvalidConfigError("n must be >= 1")

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n = self.n if size is None else int(size)
        comp = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        x = rng.normal(size=n) * np.asarray(self.sds)[comp] + np.asarray(self.means)[comp]
        if self.truncation is not None:
            x = np.clip(x, self.truncation[0], self.truncation[1])
        return x


# Three well-separated, equally weighted components: the fitted two-component
# family (fixed 0.8/0.2 mixing) cannot reproduce these tail frequencies, so
# the statistic bias dominates the sampling noise at the studied sample sizes.
_DEFAULT_THREE_COMPONENT = dict(
    kind="three_component", weights=(1 / 3, 1 / 3, 1 / 3), means=(-3.5, 0.0, 3.5), sds=(0.3, 0.6, 0.3)
)


def three_component_truth(n: int = 90, truncation=(-5.0, 5.0)) -> TruthGenerator:
    """Default misspecified truth: 3-component mixture, observations in [-5, 5]."""
    return TruthGenerator(n=n, truncation=truncation, **_DEFAULT_THREE_COMPONENT)


def enumerated_posterior(model: DiscreteToyModel, summary_spec, dist_spec, observations, lam: float):
    """Exact pseudo-posterior over the parameter atoms by full enumeration.

    Sums e^(-lam * d(S(x), S(y))) * likelihood(x | atom) * prior(atom) over
    every possible dataset x.  Returns (atom probabilities, log Z).
    """
    obs_stats = summarize(summary_spec, np.asarray(observations, dtype=float))
    stats = summarize_batch(summary_spec, model.enumerate_datasets())
    dists = distance_batch(dist_spec, stats, obs_stats)
    kernel = np.exp(-lam * dists)
    per_atom = model.prior_weights * (model.likelihood @ kernel)
    z = per_atom.sum()
    return per_atom / z, float(np.log(z))
