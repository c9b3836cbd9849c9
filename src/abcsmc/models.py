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

``simulate_batch(..., reduce=f)`` returns ``f`` of the datasets instead of
the datasets: ``f`` maps (..., n) datasets to (...) values (the sampler
passes summary, then distance).  The mixture hands them to ``f`` in blocks of
at most ``statistics.rows_per_block(n)`` datasets, on a helper thread that
lives for the call, so a large M never builds the (B, m, n) array; the other
simulators apply ``f`` once to all of them.  The blocks change no value.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError, InvalidParameterError
from .statistics import distance_batch, row_blocks, rows_per_block, summarize, summarize_batch

_LOG_2PI = math.log(2.0 * math.pi)
_BLOCK_BUFFERS = 3  # the mixture's reused block buffers: the block drawn here and two its tasks still read


class GenerativeModel:
    """Interface: prior sampler/log-density over Theta plus a batch simulator.

    Parameters are the rows of ``prior_sample``'s (size, d) draw; d is not declared apart.
    ``theta_atoms`` is None for continuous parameter spaces; discrete models
    set it to the finite list of admissible parameter values, which switches
    the MCMC rejuvenation kernel to a uniform atom proposal.
    """

    theta_atoms: np.ndarray | None = None

    def prior_sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def prior_logpdf_batch(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def simulate_batch(self, thetas: np.ndarray, n: int, m: int, rng: np.random.Generator, reduce=None) -> np.ndarray:
        """Simulate m datasets of size n for each row of thetas; shape (B, m, n), or ``reduce``'s (B, m) of them.

        ``reduce`` maps (..., n) datasets to (...) values; it may be handed
        the datasets in blocks, on another thread.
        """
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

    def simulate_batch(self, thetas, n, m, rng, reduce=None):
        """Simulate m datasets of size n for each row of thetas; shape (B, m, n), or ``reduce``'s (B, m).

        Stream contract: all B*m*n uniforms (the component labels) are drawn
        first, then all B*m*n standard normals, each in C order of the
        datasets, so every value and ``rng``'s final state are the bits of
        one-shot draws of the full shape, whatever the block size.  The
        labels come from a copy of ``rng``'s state, while ``rng`` skips past
        them: with ``advance`` where that is exact (``_labels_can_jump``),
        else by drawing them.  Each observation is mu + s*z with (mu, s) of
        the label's component, applied in place.

        The datasets are made in blocks of at most ``rows_per_block(n)``
        (a particle's m datasets may span several blocks), which rotate
        through ``_BLOCK_BUFFERS`` reused buffers.  This thread draws each
        block's normals; one task per block, run in order on a helper thread
        that lives for the call, in this thread's ``contextvars`` context
        (so its ``np.errstate`` applies), draws the block's labels, applies
        the affine map and writes the k datasets, or ``reduce``'s k values,
        into the result.  Once a task fails, the later tasks do nothing, and
        the error is raised here, after the helper thread has ended.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(thetas)):
            raise InvalidParameterError("parameter has non-finite entries")
        b, sets = thetas.shape[0], thetas.shape[0] * m
        if sets * n == 0:  # nothing to draw: one-shot draws of size 0 consume nothing either
            empty = np.empty((b, m, n))
            return empty if reduce is None else reduce(empty)
        from concurrent.futures import ThreadPoolExecutor  # not imported with the package

        # row r's (s, mu) of component 2 sits at 2r, that of component 1 at 2r + 1
        sd, mean = np.exp(thetas[:, [3, 1]]).ravel(), thetas[:, [2, 0]].ravel()
        shape = (min(sets, rows_per_block(n)), n)
        u = np.empty(shape)  # a block's label uniforms; the tasks run one at a time
        pick = np.empty(shape, dtype=bool)  # a block's labels: True for component 1
        at = np.empty(shape, dtype=np.intp)  # a block's table index 2 r + label
        bufs = [np.empty(shape) for _ in range(_BLOCK_BUFFERS)]
        out = np.empty((sets, n) if reduce is None else sets)
        labels_rng = np.random.Generator(type(rng.bit_generator)())
        labels_rng.bit_generator.state = rng.bit_generator.state
        if _labels_can_jump(rng.bit_generator):
            rng.bit_generator.advance(sets * n)
        else:
            for d0, d1 in row_blocks(sets, n):
                rng.random(out=u[: d1 - d0])
        failed = []

        def finish(z, d0):
            if failed:
                return
            try:
                k = len(z)
                np.less(labels_rng.random(out=u[:k]), self.p, out=pick[:k])
                np.add(pick[:k], 2 * (np.arange(d0, d0 + k) // m)[:, None], out=at[:k])
                z *= sd.take(at[:k])
                z += mean.take(at[:k])
                out[d0 : d0 + k] = z if reduce is None else reduce(z)
            except BaseException:
                failed.append(True)
                raise

        pending = deque()
        with ThreadPoolExecutor(1, thread_name_prefix="abcsmc-helper") as pool:
            for i, (d0, d1) in enumerate(row_blocks(sets, n)):
                if len(pending) == _BLOCK_BUFFERS:
                    pending.popleft().result()  # the task of the block that last used this buffer
                z = bufs[i % _BLOCK_BUFFERS][: d1 - d0]
                rng.standard_normal(out=z)
                pending.append(pool.submit(contextvars.copy_context().run, finish, z, d0))
        for fut in pending:
            fut.result()
        return out.reshape(b, m, n) if reduce is None else out.reshape(b, m)


def _labels_can_jump(bit_generator) -> bool:
    """True when ``advance(k)`` skips exactly the k 64-bit outputs that k uniform doubles use.

    That holds for PCG64 and PCG64DXSM (Philox's ``advance`` counts 4-word
    blocks; MT19937 and SFC64 have none) when no 32-bit half is buffered,
    since ``advance`` drops it.
    """
    return type(bit_generator) in (np.random.PCG64, np.random.PCG64DXSM) and not bit_generator.state["has_uint32"]


class GaussianLocationModel(GenerativeModel):
    """1-d location model: theta ~ N(0, prior_var), X_i ~ N(theta, noise_sd^2).

    With the sample-mean statistic this model admits an exact normalizing
    constant by low-dimensional quadrature, which makes it the reference toy
    for checking log-Z tracking and the empirical bound.
    """

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

    def simulate_batch(self, thetas, n, m, rng, reduce=None):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if not np.all(np.isfinite(thetas)):
            raise InvalidParameterError("parameter has non-finite entries")
        z = rng.normal(size=(thetas.shape[0], m, n))
        z *= self.noise_sd
        z += thetas[:, 0, None, None]
        return z if reduce is None else reduce(z)

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
    the lexicographic enumeration of obs_values^n; its entries and the prior
    weights are nonnegative, and each sums to 1 within 1e-12.  This model
    exists as a brute-force oracle substrate: every pseudo-posterior quantity
    can be computed exactly by enumeration.

    Two lookup tables, built once, replace a binary search per particle and
    give ``np.searchsorted``'s indices bit for bit:

    - Atoms: a value's position among the A sorted atoms (side "left",
      clipped to the last atom) is the number of the first A - 1 sorted
      atoms below it, counted in A - 1 compare-and-add passes.  The log
      prior of each sorted atom is computed once (-inf at weight 0).
    - Datasets: each atom's dataset CDF (D entries, nondecreasing since the
      entries are nonnegative) has a guide table (Chen & Asau 1974; Devroye
      1986, ch. III) of G buckets, G the power of two at or above 8 D, so
      that a uniform's bucket floor(u G) is exact.  Bucket k stores the
      number of CDF entries <= k / G and the entry after them; one compare
      adds that entry if it is <= u.  A bucket that holds two entries or
      more (at most D / 2 of the G, so at most one uniform in 16 on
      average) sends its uniforms to ``np.searchsorted`` on its atom's CDF,
      so no lookup costs more than O(log D) however the mass is spread.
    """

    def __init__(self, theta_values, prior_weights, obs_values, n, likelihood):
        self.theta_values = np.asarray(theta_values, dtype=float)
        self.prior_weights = np.asarray(prior_weights, dtype=float)
        self.obs_values = np.asarray(obs_values, dtype=float)
        self.n = int(n)
        self.likelihood = np.asarray(likelihood, dtype=float)
        a, v = self.theta_values.size, self.obs_values.size
        if self.likelihood.shape != (a, v**self.n):
            raise InvalidConfigError("likelihood table has wrong shape")
        if not np.all(self.prior_weights >= 0):
            raise InvalidConfigError("prior weights must be nonnegative")
        if not np.all(self.likelihood >= 0):
            raise InvalidConfigError("likelihood entries must be nonnegative")
        if abs(self.prior_weights.sum() - 1.0) > 1e-12:
            raise InvalidConfigError("prior weights must sum to 1 within 1e-12")
        rows = self.likelihood.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise InvalidConfigError("each likelihood row must sum to 1 within 1e-12")
        self.theta_atoms = self.theta_values[:, None]
        self._datasets = np.array(list(itertools.product(self.obs_values, repeat=self.n)), dtype=float)
        # the atom tables follow the atoms' sorted order, the dataset tables the atoms' own order
        self._sort_order = np.argsort(self.theta_values)
        self._sorted_vals = self.theta_values[self._sort_order]
        with np.errstate(divide="ignore"):
            self._log_prior = np.log(self.prior_weights[self._sort_order])
        self._cum = np.cumsum(self.likelihood, axis=1)
        g = 1 << (8 * self._cum.shape[1] - 1).bit_length()
        at_edges = np.array([np.searchsorted(row, np.arange(g + 1) / g, side="right") for row in self._cum])
        self._guide = at_edges[:, :-1]  # the entries at or below each bucket's left edge
        self._next = np.take_along_axis(np.hstack([self._cum, np.full((a, 1), np.inf)]), self._guide, axis=1)
        self._crowded = np.diff(at_edges, axis=1) > 1  # buckets that hold two entries or more

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

    def _positions(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each value's sorted-atom position (``np.searchsorted`` side "left", clipped) and whether it is that atom."""
        pos = np.zeros(values.shape, dtype=np.intp)
        for atom in self._sorted_vals[:-1]:
            pos += atom < values
        return pos, self._sorted_vals.take(pos) == values

    def atom_index_batch(self, values: np.ndarray) -> np.ndarray:
        """Each value's atom index; InvalidParameterError names the first value that is no atom."""
        values = np.asarray(values, dtype=float)
        pos, hit = self._positions(values)
        if not hit.all():
            raise InvalidParameterError(f"{values[~hit][0]!r} is not a parameter atom")
        return self._sort_order.take(pos)

    def prior_sample(self, rng, size=None):
        k = rng.choice(self.theta_values.size, size=size, p=self.prior_weights)
        return self.theta_values[np.atleast_1d(k)][:, None] if size is not None else self.theta_values[[k]]

    def prior_logpdf_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        pos, hit = self._positions(thetas[:, 0])
        out = self._log_prior.take(pos)
        out[~hit] = -math.inf
        return out

    def simulate_batch(self, thetas, n, m, rng, reduce=None):
        """One uniform per replicate, mapped through its atom's dataset CDF; shape (B, m, n), or ``reduce``'s (B, m).

        ``atom_index_batch`` finds the rows' atoms, and raises
        ``InvalidParameterError`` before any draw if a row is no atom.  The
        B x m uniforms are drawn in one call, each is mapped to its dataset
        index through its atom's guide table (``_dataset_index``), and the
        datasets are gathered from the table once.
        """
        if n != self.n:
            raise InvalidConfigError(f"model is defined for datasets of size {self.n}")
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        atoms = self.atom_index_batch(thetas[:, 0])
        u = rng.random((thetas.shape[0], m))
        data = self._datasets.take(self._dataset_index(atoms, u), axis=0)
        del atoms, u  # only the datasets stay alive through reduce
        return data if reduce is None else reduce(data)

    def _dataset_index(self, atoms: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, u, side="right")`` clamped to the last dataset, cdf that of each row's atom.

        ``atoms`` holds each row's atom index and ``u`` its (B, m) uniforms.
        The bucket floor(u G) of the atom's guide table gives the entries at
        or below the bucket's left edge, one compare adds the next entry if
        it is <= u, and the uniforms in a crowded bucket are searched.
        """
        g = self._guide.shape[1]
        bucket = (u * g).astype(np.intp)  # floor(u G), exact since G is a power of two
        bucket += (atoms * g)[:, None]
        ds = self._guide.take(bucket)
        ds += u >= self._next.take(bucket)
        crowded = np.flatnonzero(self._crowded.take(bucket))
        row_atom = atoms[crowded // u.shape[1]]
        for a in np.flatnonzero(np.bincount(row_atom)):
            at = crowded[row_atom == a]
            ds.flat[at] = np.searchsorted(self._cum[a], u.flat[at], side="right")
        return np.minimum(ds, self._cum.shape[1] - 1, out=ds)


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


def enumerated_posterior(model: DiscreteToyModel, summary_spec, dist_spec, observations, lam: float, kernel):
    """Exact pseudo-posterior over the parameter atoms by full enumeration.

    Sums K(d(S(x), S(y))) * likelihood(x | atom) * prior(atom) over every
    possible dataset x, where K is the kernel at ``lam`` (e^(-lam d) for the
    exponential kernel, 1{d <= lam} for the uniform one, lam being eps).
    Returns (atom probabilities, log Z).
    """
    obs_stats = summarize(summary_spec, np.asarray(observations, dtype=float))
    stats = summarize_batch(summary_spec, model.enumerate_datasets())
    dists = distance_batch(dist_spec, stats, obs_stats)
    per_atom = model.prior_weights * (model.likelihood @ np.exp(kernel.log_k(dists, lam)))
    z = per_atom.sum()
    return per_atom / z, float(np.log(z))
