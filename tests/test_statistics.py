import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc.exceptions import InvalidConfigError, InvalidInputError
from abcsmc.statistics import (
    BLOCK_ELEMENTS,
    DistanceSpec,
    SummarySpec,
    distance,
    distance_batch,
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
