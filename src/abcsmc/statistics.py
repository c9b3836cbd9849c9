"""Summary statistics, distances between statistic vectors, and distance kernels.

A summary statistic maps a dataset of n reals to a fixed-length vector of
empirical means of per-observation feature maps.  Distances compare two such
vectors; all shipped distances derive from norms, so they are jointly convex
in both arguments.  A kernel turns a particle's M replicate distances into
its log kernel sum, the quantity every weight, acceptance ratio and refresh
correction of the sampler is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError, InvalidInputError

SUMMARY_KINDS = ("moments_and_tails", "indicator_grid", "identity", "mean")
DISTANCE_KINDS = ("lp", "sup", "scaled_empirical_l2")


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
        if self.kind == "mean":
            return c
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
    if spec.clamp is not None:
        data = np.clip(data, spec.clamp[0], spec.clamp[1])
    if spec.kind == "moments_and_tails":
        x2 = data * data
        feats = np.stack(
            [
                data.mean(axis=-1),
                x2.mean(axis=-1),
                (x2 * data).mean(axis=-1),
                (x2 * x2).mean(axis=-1),
                (data < -1.0).mean(axis=-1),
                (data > 2.0).mean(axis=-1),
            ],
            axis=-1,
        )
        if spec.normalize:
            c = max(abs(spec.clamp[0]), abs(spec.clamp[1]))
            feats /= np.array([c, c**2, c**3, c**4, 1.0, 1.0])
        return feats
    if spec.kind == "indicator_grid":
        t = np.asarray(spec.thresholds)
        return (data[..., :, None] < t).mean(axis=-2)
    if spec.kind == "mean":
        return data.mean(axis=-1, keepdims=True)
    return data  # identity


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
    """Distances of a batch of statistic vectors (..., m) to one observed vector."""
    delta = np.abs(stats - observed)
    if spec.kind == "sup":
        return delta.max(axis=-1)
    if spec.kind == "scaled_empirical_l2":
        return np.sqrt((delta * delta).sum(axis=-1)) / delta.shape[-1]
    if spec.p == 2.0:
        return np.sqrt((delta * delta).sum(axis=-1))
    if spec.p == 1.0:
        return delta.sum(axis=-1)
    return (delta**spec.p).sum(axis=-1) ** (1.0 / spec.p)


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """Stable log-sum-exp; rows of all -inf map to -inf without warnings."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out if axis is not None else float(out)


class ExponentialKernel:
    """log sum_i exp(-lambda * d_i); the lambda ladder starts at 0 and increases."""

    name = "exponential"
    start_param = 0.0
    direction = 1.0

    @staticmethod
    def log_sum(dists: np.ndarray, lam: float) -> np.ndarray:
        return logsumexp(-lam * dists, axis=-1)


class UniformKernel:
    """log #{i : d_i <= eps}; the eps ladder starts at +inf and decreases.

    The accept/reject baseline: weight increments are 0 or -inf, and the
    same ESS search that drives lambda drives eps.
    """

    name = "uniform"
    start_param = math.inf
    direction = -1.0

    @staticmethod
    def log_sum(dists: np.ndarray, eps: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.sum(dists <= eps, axis=-1).astype(float))


KERNELS = {k.name: k for k in (ExponentialKernel, UniformKernel)}
