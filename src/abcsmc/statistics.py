"""Summary statistics, distances between statistic vectors, and distance kernels.

A summary statistic maps a dataset of n reals to a fixed-length vector of
empirical means of per-observation feature maps.  Distances compare two such
vectors; all shipped distances derive from norms, so they are jointly convex
in both arguments.  A kernel defines one thing, the log kernel value of each
replicate distance (``log_k``).  A particle's log kernel sum over its M
replicates (``log_sum``), the quantity every weight, acceptance ratio and
refresh correction of the sampler is built from, is derived from it as
``logsumexp(log_k(d, param), axis=-1)``; for the uniform kernel that is the
log of the in-window count exactly, since every term is e^0 = 1 or e^-inf = 0.

The summaries and distances hold no state and start no thread, so they give
the same bits on any thread, also the mixture simulator's helper thread,
which runs them as its ``reduce`` (``models.MixtureModel.simulate_batch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError, InvalidInputError

SUMMARY_KINDS = ("moments_and_tails", "indicator_grid", "identity", "mean")
DISTANCE_KINDS = ("lp", "sup", "scaled_empirical_l2")
BLOCK_ELEMENTS = 1 << 16  # elements per row block of the simulate and summarise loops (512 KiB of float64)


@dataclass(frozen=True)
class SummarySpec:
    """Declarative description of a summary-statistic vector.

    kinds:
      * ``moments_and_tails`` -- the fixed 6-vector
        (x, x^2, x^3, x^4, 1{x<-1}, 1{x>2}), averaged over the dataset.
      * ``indicator_grid`` -- (1{x<t_1}, ..., 1{x<t_m}) for increasing
        thresholds, averaged over the dataset.
      * ``identity`` -- the dataset itself (dimension = dataset length).
      * ``mean`` -- the sample mean (1-vector).

    ``clamp`` optionally clips every observation into [a, b] before the
    feature maps are applied; this is how truncated-observation setups are
    expressed, applied identically to observed and simulated data.

    ``normalize`` (clamped moments_and_tails only) divides each feature map
    by its sup bound (c, c^2, c^3, c^4, 1, 1) with c = max(|a|, |b|) so that
    every feature lies in [-1, 1] and ``feature_bound()`` is exactly 1.  The
    concentration machinery is sharpest at K = 1, so bound-driven bandwidth
    selection should run on the normalized statistic.
    """

    kind: str = "moments_and_tails"
    thresholds: tuple[float, ...] | None = None
    clamp: tuple[float, float] | None = None
    normalize: bool = False

    def __post_init__(self):
        if self.kind not in SUMMARY_KINDS:
            raise InvalidConfigError(f"unknown summary kind {self.kind!r}")
        if self.normalize:
            if self.kind != "moments_and_tails" or self.clamp is None:
                raise InvalidConfigError(
                    "normalize requires the clamped moments_and_tails statistic"
                )
        if self.kind == "indicator_grid":
            if not self.thresholds:
                raise InvalidConfigError("indicator_grid requires thresholds")
            t = np.asarray(self.thresholds, dtype=float)
            if not np.all(np.diff(t) > 0):
                raise InvalidConfigError("thresholds must be strictly increasing")
            object.__setattr__(self, "thresholds", tuple(float(x) for x in t))
        if self.clamp is not None:
            a, b = self.clamp
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise InvalidConfigError("clamp interval must be finite with a < b")
            object.__setattr__(self, "clamp", (float(a), float(b)))

    def dim(self, n_obs: int | None = None) -> int:
        """Output dimension m; identity needs the dataset length."""
        if self.kind == "moments_and_tails":
            return 6
        if self.kind == "indicator_grid":
            return len(self.thresholds)
        if self.kind == "mean":
            return 1
        if n_obs is None:
            raise InvalidConfigError("identity statistic dimension requires n_obs")
        return int(n_obs)

    def feature_bound(self) -> float:
        """Certified sup-norm bound K on the per-observation feature maps.

        Infinite when the statistic is unbounded (no clamp on a moment or
        identity statistic).  This is the constant the PAC-Bayes machinery
        consumes; it is never estimated from data.
        """
        if self.kind == "indicator_grid":
            return 1.0
        if self.normalize:
            return 1.0
        if self.clamp is None:
            return math.inf
        c = max(abs(self.clamp[0]), abs(self.clamp[1]))
        if self.kind == "moments_and_tails":
            return max(1.0, c, c**2, c**3, c**4)
        return c


def summarize(spec: SummarySpec, data) -> np.ndarray:
    """Statistic vector of a single dataset (length m)."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise InvalidInputError("summarize expects a non-empty 1-d dataset")
    return summarize_batch(spec, data[None, :])[0]


def summarize_batch(spec: SummarySpec, data: np.ndarray) -> np.ndarray:
    """Statistics of a batch of datasets; maps shape (..., n) to (..., m)."""
    data = np.asarray(data, dtype=float)
    if data.shape[-1] == 0:
        raise InvalidInputError("summarize expects non-empty datasets")
    if spec.kind in ("moments_and_tails", "indicator_grid"):
        return _feature_means(spec, data)
    if spec.clamp is not None:
        data = np.clip(data, spec.clamp[0], spec.clamp[1])
    if spec.kind == "mean":
        return data.mean(axis=-1, keepdims=True)
    return data  # identity


def rows_per_block(row_len: int, elements: int | None = None) -> int:
    """Rows of row_len elements that fill a block of ``elements``, BLOCK_ELEMENTS by default (at least one row)."""
    return max(1, (elements or BLOCK_ELEMENTS) // max(1, row_len))


def row_blocks(rows: int, row_len: int, elements: int | None = None):
    """Consecutive (start, stop) row ranges of ``rows_per_block(row_len, elements)`` rows each."""
    step = rows_per_block(row_len, elements)
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _feature_means(spec: SummarySpec, data: np.ndarray) -> np.ndarray:
    """Dataset means of the moment or indicator features, one row block at a time.

    The clipped data and its powers live in block-sized buffers that are
    reused for every block, so no full-size temporary is built and the
    caller's array is never written.  Each feature is ``np.add.reduce(v) / n``
    of the same values as the one-shot formula's ``v.mean()``, which is that
    sum divided by n, and each indicator mean is its exact count over n, so
    the result is the same bits.
    """
    n = data.shape[-1]
    rows = data.reshape(-1, n)
    feats = np.empty((rows.shape[0], spec.dim()))
    buf_rows = min(rows.shape[0], rows_per_block(n))
    x_buf, x2_buf, xk_buf = np.empty((3, buf_rows, n))
    flag_buf = np.empty((buf_rows, n), dtype=bool)
    for r0, r1 in row_blocks(rows.shape[0], n):
        k = r1 - r0
        x, flag, out = rows[r0:r1], flag_buf[:k], feats[r0:r1]
        if spec.clamp is not None:
            x = np.clip(x, *spec.clamp, out=x_buf[:k])
        if spec.kind == "indicator_grid":
            for j, t in enumerate(spec.thresholds):
                out[:, j] = np.count_nonzero(np.less(x, t, out=flag), axis=-1) / n
        else:
            x2 = np.multiply(x, x, out=x2_buf[:k])
            out[:, 0] = np.add.reduce(x, axis=-1) / n
            out[:, 1] = np.add.reduce(x2, axis=-1) / n
            out[:, 2] = np.add.reduce(np.multiply(x2, x, out=xk_buf[:k]), axis=-1) / n
            out[:, 3] = np.add.reduce(np.multiply(x2, x2, out=xk_buf[:k]), axis=-1) / n
            out[:, 4] = np.count_nonzero(np.less(x, -1.0, out=flag), axis=-1) / n
            out[:, 5] = np.count_nonzero(np.greater(x, 2.0, out=flag), axis=-1) / n
    if spec.normalize:
        c = max(abs(spec.clamp[0]), abs(spec.clamp[1]))
        feats /= np.array([c, c**2, c**3, c**4, 1.0, 1.0])
    return feats.reshape(data.shape[:-1] + (feats.shape[1],))


@dataclass(frozen=True)
class DistanceSpec:
    """Metric on statistic space.

    ``lp`` is the p-norm of the difference (p >= 1), ``sup`` the max-norm,
    and ``scaled_empirical_l2`` the Euclidean norm divided by the vector
    length (the per-sample-scaled empirical L2 distance used with the
    identity statistic).
    """

    kind: str = "lp"
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in DISTANCE_KINDS:
            raise InvalidConfigError(f"unknown distance kind {self.kind!r}")
        if self.kind == "lp" and not self.p >= 1.0:
            raise InvalidConfigError("lp distance requires p >= 1")


def distance(spec: DistanceSpec, s1, s2) -> float:
    """Distance between two statistic vectors of equal length."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.shape != s2.shape or s1.ndim != 1:
        raise InvalidInputError("distance expects two 1-d vectors of equal length")
    return float(distance_batch(spec, s1[None, :], s2)[0])


def distance_batch(spec: DistanceSpec, stats: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Distances of a batch of statistic vectors (..., m) to one observed vector.

    On a statistic axis shorter than 8 the distance is built one entry at a
    time (``_column_total``): each |stats[..., j] - observed[j]|, squared or
    raised to p in place, is added into (or, for ``sup``, maxed with) one
    array of the batch's shape, which then takes the root and the scaling in
    place, so no (..., m)-shaped temporary is made.  It has the same bits as
    the one-shot ``np.abs(stats - observed)`` reduced over that axis: numpy
    sums an axis of fewer than 8 entries left to right, the order of the
    column adds, and a maximum does not depend on the order.  From 8 entries
    on numpy sums pairwise, so longer axes keep the one-shot formula, and so
    does a single vector: its one-shot result is a numpy scalar, whose power
    (``p`` not 1 or 2) rounds differently from an array's.
    """
    k = stats.shape[-1]
    if k >= 8 or stats.ndim == 1:
        delta = np.abs(stats - observed)
        if spec.kind == "sup":
            return delta.max(axis=-1)
        if spec.kind == "scaled_empirical_l2":
            return np.sqrt((delta * delta).sum(axis=-1)) / k
        if spec.p == 2.0:
            return np.sqrt((delta * delta).sum(axis=-1))
        if spec.p == 1.0:
            return delta.sum(axis=-1)
        return (delta**spec.p).sum(axis=-1) ** (1.0 / spec.p)
    sup = spec.kind == "sup"
    p = 2.0 if spec.kind == "scaled_empirical_l2" else spec.p
    total = _column_total(stats, observed, p, sup)
    if sup or p == 1.0:
        return total
    if p == 2.0:
        np.sqrt(total, out=total)
    else:
        np.power(total, 1.0 / p, out=total)
    if spec.kind == "scaled_empirical_l2":
        np.divide(total, k, out=total)
    return total


def _column_total(stats: np.ndarray, observed: np.ndarray, p: float, sup: bool) -> np.ndarray:
    """The max (``sup``) or the sum of |stats[..., j] - observed[j]|^p over j, added up left to right."""
    total = np.empty(stats.shape[:-1])
    col = np.empty_like(total) if stats.shape[-1] > 1 else None
    for j in range(stats.shape[-1]):
        term = total if j == 0 else col
        np.abs(np.subtract(stats[..., j], observed[j], out=term), out=term)
        if p == 2.0 and not sup:
            np.multiply(term, term, out=term)
        elif p != 1.0 and not sup:
            np.power(term, p, out=term)
        if j:
            (np.maximum if sup else np.add)(total, term, out=total)
    return total


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """Stable log-sum-exp; rows of all -inf map to -inf without warnings.

    Over a length-1 axis the result is the entry itself plus 0.0 (so -0.0
    becomes +0.0), which is what the general formula gives for every input,
    infinities and NaN included, without its passes.
    """
    a = np.asarray(a, dtype=float)
    if axis is not None and a.shape[axis] == 1:
        return np.squeeze(a, axis=axis) + 0.0
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    t = a - m
    np.exp(t, out=t)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(t, axis=axis)) + np.squeeze(m, axis=axis)
    return out if axis is not None else float(out)


class _Kernel:
    """A kernel is its ``log_k``; ``log_sum`` is the log of its sum over a particle's replicates."""

    @classmethod
    def log_sum(cls, dists: np.ndarray, param: float) -> np.ndarray:
        return logsumexp(cls.log_k(dists, param), axis=-1)


class ExponentialKernel(_Kernel):
    """log sum_i exp(-lambda * d_i); the lambda ladder starts at 0 and increases.

    At lambda = 0 every replicate has kernel value e^0 = 1, an infinite
    distance included (where -0 * inf would be NaN).
    """

    name = "exponential"
    start_param = 0.0
    direction = 1.0

    @staticmethod
    def log_k(dists: np.ndarray, lam: float) -> np.ndarray:
        if lam == 0.0:
            return np.zeros(np.shape(dists))
        return -lam * dists


class UniformKernel(_Kernel):
    """log #{i : d_i <= eps}; the eps ladder starts at +inf and decreases.

    The accept/reject baseline: weight increments are 0 or -inf, and the
    ESS is a step function of eps that jumps only at replicate distances.
    """

    name = "uniform"
    start_param = math.inf
    direction = -1.0

    @staticmethod
    def log_k(dists: np.ndarray, eps: float) -> np.ndarray:
        return np.where(dists <= eps, 0.0, -math.inf)


KERNELS = {k.name: k for k in (ExponentialKernel, UniformKernel)}
