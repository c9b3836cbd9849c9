import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc.exceptions import InvalidConfigError, InvalidInputError
from abcsmc.statistics import (
    BLOCK_ELEMENTS,
    DistanceSpec,
    ExponentialKernel,
    SummarySpec,
    UniformKernel,
    distance,
    distance_batch,
    logsumexp,
    rows_per_block,
    summarize,
    summarize_batch,
)


class TestSummarySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigError):
            SummarySpec(kind="nope")

    def test_indicator_needs_increasing_thresholds(self):
        with pytest.raises(InvalidConfigError):
            SummarySpec(kind="indicator_grid", thresholds=(1.0, 0.0))
        with pytest.raises(InvalidConfigError):
            SummarySpec(kind="indicator_grid")

    def test_clamp_validation(self):
        with pytest.raises(InvalidConfigError):
            SummarySpec(clamp=(2.0, 1.0))
        with pytest.raises(InvalidConfigError):
            SummarySpec(clamp=(-math.inf, 1.0))

    def test_dims(self):
        assert SummarySpec(kind="moments_and_tails").dim() == 6
        assert SummarySpec(kind="indicator_grid", thresholds=(0.0, 1.0)).dim() == 2
        assert SummarySpec(kind="mean").dim() == 1
        assert SummarySpec(kind="identity").dim(n_obs=7) == 7
        with pytest.raises(InvalidConfigError):
            SummarySpec(kind="identity").dim()

    def test_normalize_requires_clamped_moments(self):
        with pytest.raises(InvalidConfigError):
            SummarySpec(kind="mean", clamp=(-1.0, 1.0), normalize=True)
        with pytest.raises(InvalidConfigError):
            SummarySpec(kind="moments_and_tails", normalize=True)

    def test_normalize_unit_bound_and_scaling(self):
        spec = SummarySpec(clamp=(-5.0, 5.0), normalize=True)
        assert spec.feature_bound() == 1.0
        data = np.array([-2.0, 0.0, 3.0, 7.0])
        raw = summarize(SummarySpec(clamp=(-5.0, 5.0)), data)
        scaled = summarize(spec, data)
        np.testing.assert_allclose(
            scaled, raw / np.array([5.0, 25.0, 125.0, 625.0, 1.0, 1.0]), rtol=1e-15
        )

    def test_certified_feature_bound(self):
        assert SummarySpec(kind="indicator_grid", thresholds=(0.0,)).feature_bound() == 1.0
        # clamp to [-5, 5]: the fourth moment dominates -> 5^4
        assert SummarySpec(clamp=(-5.0, 5.0)).feature_bound() == 625.0
        assert SummarySpec().feature_bound() == math.inf
        assert SummarySpec(kind="mean", clamp=(-2.0, 3.0)).feature_bound() == 3.0


class TestSummarize:
    def test_moments_and_tails_manual(self):
        data = np.array([-2.0, 0.0, 3.0])
        s = summarize(SummarySpec(), data)
        x = data
        expected = [
            x.mean(),
            (x**2).mean(),
            (x**3).mean(),
            (x**4).mean(),
            np.mean(x < -1),
            np.mean(x > 2),
        ]
        np.testing.assert_allclose(s, expected, rtol=1e-15)

    def test_clamp_applied_before_features(self):
        s = summarize(SummarySpec(clamp=(-1.0, 1.0)), np.array([-10.0, 10.0]))
        np.testing.assert_allclose(s, [0.0, 1.0, 0.0, 1.0, 0.0, 0.0])

    def test_indicator_grid(self):
        spec = SummarySpec(kind="indicator_grid", thresholds=(-1.0, 0.5, 2.0))
        s = summarize(spec, np.array([-2.0, 0.0, 1.0, 3.0]))
        np.testing.assert_allclose(s, [0.25, 0.5, 0.75])

    def test_mean_and_identity(self):
        assert summarize(SummarySpec(kind="mean"), [1.0, 3.0]) == pytest.approx([2.0])
        np.testing.assert_allclose(summarize(SummarySpec(kind="identity"), [1.0, 3.0]), [1.0, 3.0])

    def test_batch_shape(self, rng):
        data = rng.normal(size=(4, 5, 30))
        out = summarize_batch(SummarySpec(), data)
        assert out.shape == (4, 5, 6)
        np.testing.assert_allclose(out[2, 3], summarize(SummarySpec(), data[2, 3]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize(SummarySpec(), [])


def one_shot_summaries(spec, data):
    """The full-size-temporary formula: clip copy, x^2, x^3, x^4 and one array per feature."""
    if spec.clamp is not None:
        data = np.clip(data, spec.clamp[0], spec.clamp[1])
    if spec.kind == "indicator_grid":
        return (data[..., :, None] < np.asarray(spec.thresholds)).mean(axis=-2)
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


class TestBlockedSummaries:
    SPECS = [
        SummarySpec(),
        SummarySpec(clamp=(-5.0, 5.0)),
        SummarySpec(clamp=(-2.0, 4.0), normalize=True),
        SummarySpec(kind="indicator_grid", thresholds=(-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)),
        SummarySpec(kind="indicator_grid", thresholds=(-0.5, 0.5), clamp=(-1.0, 1.0)),
    ]
    SHAPES = [
        (40, 25, 90),  # (B, m) leading shape, more rows than one block
        (90,),  # a single dataset
        (4, 100, 200),  # n > 128, past numpy's pairwise-sum block, several blocks
        (2, 3, BLOCK_ELEMENTS + 7),  # one dataset longer than a block
    ]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_one_shot_formula(self, rng, spec, shape):
        data = 2.0 * rng.standard_normal(shape) + 0.3
        before = data.copy()
        out = summarize_batch(spec, data)
        expected = one_shot_summaries(spec, before)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)
        assert np.array_equal(data, before)  # the caller's array is not written

    @pytest.mark.parametrize("spec", SPECS)
    def test_non_finite_rows_equal_one_shot_formula(self, rng, spec):
        """NaN, +-inf and -0.0 entries: the sums, counts and their signs match ``.mean`` bit for bit."""
        data = 2.0 * rng.standard_normal((40, 25, 90))
        data[0, :, 3] = np.nan
        data[1, :, 5] = np.inf
        data[2, :, 7] = -np.inf
        data[3, :, 1], data[3, :, 2] = np.inf, -np.inf  # inf - inf: a NaN sum
        data[4] = -0.0  # the sums keep their sign
        data[5, ::2, ::3] = -0.0
        data[6, 1::2, 10:20] = np.nan
        before = data.copy()
        with np.errstate(invalid="ignore"):  # inf - inf
            out = summarize_batch(spec, data)
            expected = one_shot_summaries(spec, before)
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert np.array_equal(data, before, equal_nan=True)

    def test_rows_per_block_boundary(self, rng):
        rows = rows_per_block(90)
        for n_rows in (rows - 1, rows, rows + 1, 2 * rows + 1):
            data = rng.standard_normal((n_rows, 90))
            assert np.array_equal(summarize_batch(SummarySpec(), data), one_shot_summaries(SummarySpec(), data))


class TestDistance:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            DistanceSpec(kind="nope")
        with pytest.raises(InvalidConfigError):
            DistanceSpec(kind="lp", p=0.5)
        with pytest.raises(InvalidInputError):
            distance(DistanceSpec(), [1.0], [1.0, 2.0])

    def test_known_values(self):
        a, b = np.array([1.0, 2.0]), np.array([4.0, 6.0])
        assert distance(DistanceSpec(kind="lp", p=2), a, b) == pytest.approx(5.0)
        assert distance(DistanceSpec(kind="lp", p=1), a, b) == pytest.approx(7.0)
        assert distance(DistanceSpec(kind="sup"), a, b) == pytest.approx(4.0)
        assert distance(DistanceSpec(kind="scaled_empirical_l2"), a, b) == pytest.approx(2.5)

    def test_batch_matches_single(self, rng):
        stats = rng.normal(size=(8, 3, 4))
        obs = rng.normal(size=4)
        for spec in (DistanceSpec(), DistanceSpec(kind="sup"), DistanceSpec(kind="lp", p=3)):
            out = distance_batch(spec, stats, obs)
            assert out.shape == (8, 3)
            assert out[5, 1] == pytest.approx(distance(spec, stats[5, 1], obs))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.sampled_from(["lp", "sup", "scaled_empirical_l2"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, xs, ys, zs, kind):
        m = min(len(xs), len(ys), len(zs))
        x, y, z = (np.array(v[:m]) for v in (xs, ys, zs))
        spec = DistanceSpec(kind=kind)
        dxy = distance(spec, x, y)
        assert dxy >= 0.0
        assert distance(spec, x, x) == 0.0
        assert dxy == pytest.approx(distance(spec, y, x))
        assert distance(spec, x, z) <= dxy + distance(spec, y, z) + 1e-7 * (1 + dxy)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_bits_equal_the_one_shot_formula(self, k, rng):
        # axes below 8 entries take the column adds, 8 and 9 the one-shot code
        specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e-310, 1e200, -1e200, 1e160]
        specs = [DistanceSpec(kind="lp", p=p) for p in (1.0, 1.5, 2.0, 3.0)]
        specs += [DistanceSpec(kind="sup"), DistanceSpec(kind="scaled_empirical_l2")]
        for shape in [(k,), (40, k), (12, 3, k)]:
            for _ in range(5):
                stats = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
                picked = rng.random(shape) < 0.3
                stats[picked] = rng.choice(specials, size=int(picked.sum()))
                obs = rng.standard_normal(k)
                obs[rng.random(k) < 0.5] = rng.choice(specials)
                for spec in specs:
                    with np.errstate(all="ignore"):  # inf - inf, and squares of 1e200
                        got = distance_batch(spec, stats, obs)
                        want = one_shot_distances(spec, stats, obs)
                    assert np.array_equal(got, want, equal_nan=True), (spec, shape)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (spec, shape)


def one_shot_distances(spec, stats, observed):
    """The distance formula on the whole (..., m) difference at once, reduced over its last axis."""
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


def assert_same_bits(got, want):
    """Equal bit patterns, except that any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def reference_logsumexp(a, axis=None):
    """The one-formula log-sum-exp: max shift, exp, sum and log on every axis length."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out if axis is not None else float(out)


# every IEEE special the sampler's arrays can hold, and finite values whose doubles do not overflow
SPECIAL = st.sampled_from([-math.inf, math.inf, math.nan, -0.0, 0.0])
REALS = st.one_of(st.floats(-1e300, 1e300), SPECIAL)


def float_matrix(columns, elements=REALS):
    return st.lists(
        st.lists(elements, min_size=columns, max_size=columns), min_size=1, max_size=6
    ).map(lambda rows: np.array(rows, dtype=float))


class TestLogsumexpBits:
    # next to +inf or NaN the shift is 0, so exp of a large finite entry overflows on both sides
    @given(st.one_of(float_matrix(1), float_matrix(5)))
    @settings(max_examples=300, deadline=None)
    def test_last_axis(self, a):
        with np.errstate(over="ignore"):
            assert_same_bits(logsumexp(a, axis=-1), reference_logsumexp(a, axis=-1))

    @given(st.lists(REALS, min_size=1, max_size=8).map(np.array))
    @settings(max_examples=300, deadline=None)
    def test_whole_array(self, a):
        with np.errstate(over="ignore"):
            assert_same_bits(logsumexp(a), reference_logsumexp(a))

    def test_length_one_axis_returns_a_new_array(self):
        a = np.array([[-0.0], [2.5]])
        out = logsumexp(a, axis=-1)
        out[0] = 7.0
        assert a[0, 0] == 0.0 and np.signbit(a[0, 0])
        assert_same_bits(logsumexp(a, axis=-1), [0.0, 2.5])


# distances are nonnegative; ties with the window edge and overflowed or NaN distances included
DISTS = st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 0.25, 1.0, math.inf, math.nan]))


class TestKernelLogSumBits:
    """``log_sum`` against the closed forms each kernel had before it was derived from ``log_k``."""

    @given(
        st.sampled_from([1, 4]).flatmap(lambda m: float_matrix(m, DISTS)),
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    )
    @settings(max_examples=300, deadline=None)
    def test_exponential(self, d, lam):
        if lam == 0.0:
            d = np.where(np.isfinite(d), d, 1.0)  # -0 * inf was NaN here, see test_exponential_at_zero
        assert_same_bits(ExponentialKernel.log_sum(d, lam), reference_logsumexp(-lam * d, axis=-1))

    @given(
        st.sampled_from([1, 4]).flatmap(lambda m: float_matrix(m, DISTS)),
        st.one_of(st.sampled_from([0.0, 0.25, 1.0, math.inf]), st.floats(0.0, 1e6)),
    )
    @settings(max_examples=300, deadline=None)
    def test_uniform_is_the_log_count(self, d, eps):
        with np.errstate(divide="ignore"):
            count = np.log(np.sum(d <= eps, axis=-1).astype(float))
        assert_same_bits(UniformKernel.log_sum(d, eps), count)

    def test_exponential_at_zero_counts_every_replicate(self):
        # K = e^0 = 1 for every distance at lambda = 0, an infinite one included
        d = np.array([[math.inf, 1.0], [math.inf, math.inf], [math.inf, 0.0]])
        assert_same_bits(ExponentialKernel.log_k(d, 0.0), np.zeros(d.shape))
        assert_same_bits(ExponentialKernel.log_sum(d, 0.0), np.full(3, math.log(2.0)))
        assert_same_bits(ExponentialKernel.log_sum(d[:, :1], 0.0), np.zeros(3))
