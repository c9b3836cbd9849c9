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

The moment and indicator summaries, and the mixture simulator's affine map,
can run part of their work on one helper thread (``beside``) while the
calling thread works on the rest; see ``helper``.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidConfigError, InvalidInputError

SUMMARY_KINDS = ("moments_and_tails", "indicator_grid", "identity", "mean")
DISTANCE_KINDS = ("lp", "sup", "scaled_empirical_l2")
BLOCK_ELEMENTS = 1 << 16  # elements per row block of the simulate and summarise loops (512 KiB of float64)

_use_helper: bool | None = None  # None until the first call of ``helper`` decides from the CPU count
_helper_pool = None
_helper_lock = threading.Lock()


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _forget_helper():
    global _helper_pool, _helper_lock
    _helper_pool, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)  # the parent's thread does not exist in a child


def helper():
    """The process's one helper thread, a single-worker pool; None when there is no second CPU.

    It is used only when this process may run on at least 2 CPUs, and it is
    started on first use (``concurrent.futures`` is imported then, not with
    the package).  A forked child starts its own.  Work given to it uses no
    random numbers, so every result is the same bits with or without it.
    """
    global _use_helper, _helper_pool
    if _use_helper is None:
        _use_helper = _cpus() >= 2
    if not _use_helper:
        return None
    with _helper_lock:
        if _helper_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="abcsmc-helper")
        return _helper_pool


def beside(fn, *args):
    """Start ``fn(*args)`` on the helper thread and return its future; without a helper, run it now and return None.

    The task runs in a copy of the caller's ``contextvars`` context, so the
    caller's ``np.errstate`` applies to it.
    """
    pool = helper()
    if pool is None:
        fn(*args)
        return None
    return pool.submit(contextvars.copy_context().run, fn, *args)


def wait(futures):
    """Wait until every task of ``futures`` (from ``beside``) has ended, then re-raise the first task error."""
    errors = [fut.exception() for fut in futures if fut is not None]
    for err in errors:
        if err is not None:
            raise err


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
    if spec.kind in ("moments_and_tails", "indicator_grid"):
        return _feature_means(spec, data)
    if spec.clamp is not None:
        data = np.clip(data, spec.clamp[0], spec.clamp[1])
    if spec.kind == "mean":
        return data.mean(axis=-1, keepdims=True)
    return data  # identity


def rows_per_block(row_len: int) -> int:
    """Rows of row_len elements that fill one block of BLOCK_ELEMENTS (at least one)."""
    return max(1, BLOCK_ELEMENTS // row_len)


def row_blocks(rows: int, row_len: int):
    """Consecutive (start, stop) row ranges of ``rows_per_block(row_len)`` rows each."""
    step = rows_per_block(row_len)
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _feature_means(spec: SummarySpec, data: np.ndarray) -> np.ndarray:
    """Dataset means of the moment or indicator features, one row block at a time.

    The clipped data and its powers live in block-sized buffers that are
    reused for every block, so no full-size temporary is built and the
    caller's array is never written.  Each feature is the ``.mean`` of the
    same values as the one-shot formula, so the result is the same bits.
    When the rows fill more than one block, the helper thread takes the
    first half of them and the calling thread the rest, each with its own
    buffers; a row's features do not depend on the rows beside it.
    """
    n = data.shape[-1]
    rows = data.reshape(-1, n)
    feats = np.empty((rows.shape[0], spec.dim()))
    mid = rows.shape[0] // 2 if rows.shape[0] > rows_per_block(n) and helper() is not None else 0
    pending = [beside(_fill_features, spec, rows[:mid], feats[:mid])] if mid else []
    try:
        _fill_features(spec, rows[mid:], feats[mid:])
    finally:
        wait(pending)
    if spec.normalize:
        c = max(abs(spec.clamp[0]), abs(spec.clamp[1]))
        feats /= np.array([c, c**2, c**3, c**4, 1.0, 1.0])
    return feats.reshape(data.shape[:-1] + (feats.shape[1],))


def _fill_features(spec: SummarySpec, rows: np.ndarray, feats: np.ndarray):
    """Write the feature means of each row of ``rows`` into that row of ``feats``, one row block at a time."""
    n = rows.shape[1]
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
                out[:, j] = np.less(x, t, out=flag).mean(axis=-1)
        else:
            x2 = np.multiply(x, x, out=x2_buf[:k])
            out[:, 0] = x.mean(axis=-1)
            out[:, 1] = x2.mean(axis=-1)
            out[:, 2] = np.multiply(x2, x, out=xk_buf[:k]).mean(axis=-1)
            out[:, 3] = np.multiply(x2, x2, out=xk_buf[:k]).mean(axis=-1)
            out[:, 4] = np.less(x, -1.0, out=flag).mean(axis=-1)
            out[:, 5] = np.greater(x, 2.0, out=flag).mean(axis=-1)


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
    same ESS search that drives lambda drives eps.
    """

    name = "uniform"
    start_param = math.inf
    direction = -1.0

    @staticmethod
    def log_k(dists: np.ndarray, eps: float) -> np.ndarray:
        return np.where(dists <= eps, 0.0, -math.inf)


KERNELS = {k.name: k for k in (ExponentialKernel, UniformKernel)}
