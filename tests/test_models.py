import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from abcsmc.exceptions import InvalidConfigError, InvalidInputError, InvalidParameterError
from abcsmc.models import (
    DiscreteToyModel,
    GaussianLocationModel,
    MixtureModel,
    TruthGenerator,
    enumerated_posterior,
    three_component_truth,
)
from abcsmc.statistics import (
    BLOCK_ELEMENTS,
    DistanceSpec,
    ExponentialKernel,
    SummarySpec,
    UniformKernel,
    distance_batch,
    rows_per_block,
    summarize,
    summarize_batch,
)
from abcsmc.smc import simulate_distances


def small_discrete_model():
    return DiscreteToyModel.from_obs_probs(
        theta_values=[0.0, 1.0],
        prior_weights=[0.6, 0.4],
        obs_values=[0.0, 1.0, 2.0],
        obs_probs=[[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]],
        n=2,
    )


def searchsorted_atom_index(model, values):
    """Atom indices by binary search: ``np.searchsorted`` side "left" into the sorted atoms, clipped."""
    order = np.argsort(model.theta_values)
    sorted_vals = model.theta_values[order]
    pos = np.minimum(np.searchsorted(sorted_vals, values), sorted_vals.size - 1)
    if not np.all(sorted_vals[pos] == values):
        bad = values[sorted_vals[pos] != values]
        raise InvalidParameterError(f"{bad[0]!r} is not a parameter atom")
    return order[pos]


def searchsorted_prior_logpdf(model, thetas):
    """The log prior by binary search: log of the matched atom's weight, -inf off the atoms."""
    vals = thetas[:, 0]
    order = np.argsort(model.theta_values)
    sorted_vals = model.theta_values[order]
    pos = np.minimum(np.searchsorted(sorted_vals, vals), sorted_vals.size - 1)
    out = np.full(vals.shape, -math.inf)
    match = sorted_vals[pos] == vals
    with np.errstate(divide="ignore"):
        out[match] = np.log(model.prior_weights[order[pos[match]]])
    return out


def searchsorted_dataset_index(model, thetas, m, rng):
    """Dataset indices by a binary search per atom: ``np.searchsorted`` side "right" into its CDF, clamped."""
    atoms = searchsorted_atom_index(model, thetas[:, 0])
    u = rng.random((thetas.shape[0], m))
    cum = np.cumsum(model.likelihood, axis=1)
    ds = np.empty(u.shape, dtype=np.intp)
    for a in np.flatnonzero(np.bincount(atoms)):
        rows = np.flatnonzero(atoms == a)
        ds[rows] = np.searchsorted(cum[a], u[rows], side="right")
    return np.minimum(ds, cum.shape[1] - 1)


def dataset_indices(model, sims):
    """The enumeration index of every simulated dataset (the enumerated datasets are distinct)."""
    index = {tuple(d): i for i, d in enumerate(model.enumerate_datasets())}
    return np.array([index[tuple(d)] for d in sims.reshape(-1, model.n)]).reshape(sims.shape[:2])


class FixedUniforms:
    """A stand-in generator whose one ``random`` call returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert tuple(size) == self.u.shape
        return self.u.copy()


def assert_lookups_equal_binary_search(model, thetas, m, make_rng):
    """Atom indices, log prior, datasets and their indices, and the generator's end state match the references."""
    assert np.array_equal(model.atom_index_batch(thetas[:, 0]), searchsorted_atom_index(model, thetas[:, 0]))
    assert np.array_equal(model.prior_logpdf_batch(thetas), searchsorted_prior_logpdf(model, thetas))
    rng, ref = make_rng(), make_rng()
    got = model.simulate_batch(thetas, model.n, m, rng)
    want = searchsorted_dataset_index(model, thetas, m, ref)
    assert np.array_equal(dataset_indices(model, got), want)
    assert np.array_equal(got, model.enumerate_datasets().take(want, axis=0))
    if isinstance(rng, np.random.Generator):
        assert rng.bit_generator.state == ref.bit_generator.state


def edge_uniforms(model):
    """Uniforms on every CDF entry and every multiple of 2^-12, one ulp either side of each, 0 and the last below 1.

    The multiples of 2^-12 hold the bucket edges of any guide table of at most 4096 buckets.
    """
    points = np.concatenate([np.cumsum(model.likelihood, axis=1).ravel(), np.arange(4097) / 4096])
    u = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1), [0.0, np.nextafter(1.0, 0)]])
    return np.unique(u[(u >= 0) & (u < 1)])


def assert_edges_equal_binary_search(model, m):
    """Every atom against every edge uniform, ``m`` to a row."""
    u = edge_uniforms(model)
    per_atom = -(-u.size // m)
    thetas = np.repeat(model.theta_values, per_atom)[:, None]
    uniforms = np.resize(u, (thetas.shape[0], m))
    assert_lookups_equal_binary_search(model, thetas, m, lambda: FixedUniforms(uniforms))


def unsorted_model_with_ties():
    """Atoms out of sorted order; zero-probability outcomes give zero-probability datasets, so tied CDF entries."""
    return DiscreteToyModel.from_obs_probs(
        theta_values=[2.0, 0.0, 3.0, 1.0],
        prior_weights=[0.25, 0.25, 0.5, 0.0],
        obs_values=[0.0, 1.0, 2.0],
        obs_probs=[[0.5, 0.0, 0.5], [0.1, 0.2, 0.7], [0.0, 0.0, 1.0], [0.6, 0.4, 0.0]],
        n=2,
    )


def short_cdf_model():
    """Atom 0's CDF ends below the largest uniform, 1 - 2^-53, by rounding."""
    short = np.full(10, 0.1)
    short[-1] = 0.1 - 4e-16
    model = DiscreteToyModel([1.0, 0.0], [0.5, 0.5], np.arange(10.0), 1, [short, np.full(10, 0.1)])
    assert np.cumsum(short)[-1] < np.nextafter(1.0, 0)
    return model


class TestMixtureModel:
    def test_prior_logpdf_matches_scipy(self, rng):
        model = MixtureModel(p=0.8, mu_prior_sd=10.0, logsigma_prior_sd=1.0)
        theta = rng.normal(size=4)
        expected = (
            sps.norm.logpdf(theta[0], scale=10)
            + sps.norm.logpdf(theta[1], scale=1)
            + sps.norm.logpdf(theta[2], scale=10)
            + sps.norm.logpdf(theta[3], scale=1)
        )
        batch = model.prior_logpdf_batch(np.stack([theta, 2 * theta]))
        assert batch[0] == pytest.approx(expected, rel=1e-12)

    def test_simulator_moments(self, rng):
        model = MixtureModel(p=0.8)
        theta = np.array([0.0, 0.0, 3.0, math.log(0.5)])
        x = model.simulate_batch(theta, 200_000, 1, rng)[0, 0]
        assert x.mean() == pytest.approx(0.2 * 3.0, abs=0.02)
        second = 0.8 * 1.0 + 0.2 * (9.0 + 0.25)
        assert (x**2).mean() == pytest.approx(second, rel=0.02)

    @pytest.mark.parametrize(
        "b,m,n",
        [
            (1, 4, 90),  # a single parameter row
            (200, 8, 90),  # 91 rows per block: B is not a multiple of it
            (3, 2, BLOCK_ELEMENTS // 2 + 10),  # m*n exceeds one block: one row per block
            (50, 1, 90),  # m = 1
        ],
    )
    def test_blocked_draws_equal_one_shot_formula(self, rng, b, m, n):
        model = MixtureModel(p=0.7)
        thetas = model.prior_sample(rng, b)
        sim_rng, naive_rng = np.random.default_rng(42), np.random.default_rng(42)
        out = model.simulate_batch(thetas, n, m, sim_rng)
        assert np.array_equal(out, one_shot_mixture(model, thetas, n, m, naive_rng))
        assert sim_rng.bit_generator.state == naive_rng.bit_generator.state

    def test_bad_parameters(self, rng):
        model = MixtureModel()
        with pytest.raises(InvalidParameterError):
            model.simulate_batch(np.array([[np.nan, 0, 0, 0]]), 5, 1, rng)
        with pytest.raises(InvalidConfigError):
            MixtureModel(p=1.5)

    def test_prior_sample_shape(self, rng):
        assert MixtureModel().prior_sample(rng, 7).shape == (7, 4)

    def test_reduced_keeps_full_data(self):
        model = MixtureModel()
        for kind in ("mean", "moments_and_tails"):
            assert model.reduced(SummarySpec(kind=kind), 90) == (model, 90)


def one_shot_mixture(model, thetas, n, m, rng):
    """All B*m*n label uniforms, then all normals, in one draw each; (mu, s) of the label's component."""
    mu1, s1 = thetas[:, 0, None, None], np.exp(thetas[:, 1, None, None])
    mu2, s2 = thetas[:, 2, None, None], np.exp(thetas[:, 3, None, None])
    u = rng.random((len(thetas), m, n))
    z = rng.standard_normal((len(thetas), m, n))
    return np.where(u < model.p, mu1 + s1 * z, mu2 + s2 * z)


STREAM_SUMMARY = SummarySpec(kind="moments_and_tails", clamp=(-5.0, 5.0))
STREAM_OBS = summarize(STREAM_SUMMARY, np.linspace(-2.0, 3.0, 90))


def same_state(x, y) -> bool:
    """Two bit-generator states (nested dicts, MT19937's holding an array) are equal."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_state(x[k], y[k]) for k in x)
    return np.array_equal(x, y)


def stream_reduce(sims):
    return distance_batch(DistanceSpec(), summarize_batch(STREAM_SUMMARY, sims), STREAM_OBS)


class TestStreamedReduce:
    """``simulate_batch`` equals the one-shot datasets, or ``reduce`` of them, and leaves the generator alike."""

    @pytest.mark.parametrize("reduced", [False, True], ids=["datasets", "reduced"])
    @pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "MT19937", "Philox"])
    @pytest.mark.parametrize("m", [1, 3, 256, 1024])
    def test_blocks_equal_one_shot_datasets(self, m, bit_generator, reduced):
        """Four blocks or more, so every buffer is reused; at m=1024 a particle's datasets span two blocks or more."""
        n = 90
        b = max(3, int(3.3 * rows_per_block(n)) // m)  # three full blocks and a short one, or more
        model = MixtureModel(p=0.7)
        thetas = MixtureModel(mu_prior_sd=3.0).prior_sample(np.random.default_rng(m), b)
        rng, ref = (np.random.Generator(getattr(np.random, bit_generator)(5)) for _ in range(2))
        blocks = []

        def reduce(sims):
            blocks.append(len(sims))
            return stream_reduce(sims)

        got = model.simulate_batch(thetas, n, m, rng, reduce if reduced else None)
        expected = one_shot_mixture(model, thetas, n, m, ref)
        if reduced:
            assert len(blocks) >= 4 and max(blocks) <= rows_per_block(n) and sum(blocks) == b * m
            expected = stream_reduce(expected)
        assert np.array_equal(got, expected)
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    def test_simulate_distances_equals_one_shot_pipeline(self):
        """The sampler's path gives the distances of the whole datasets, summarized and measured at once."""
        model = MixtureModel()
        thetas = MixtureModel(mu_prior_sd=3.0).prior_sample(np.random.default_rng(0), 101)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = simulate_distances(model, thetas, 90, 256, rng, STREAM_SUMMARY, DistanceSpec(), STREAM_OBS)
        assert np.array_equal(got, stream_reduce(one_shot_mixture(model, thetas, 90, 256, ref)))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_no_draws_reduce_the_empty_datasets(self):
        thetas = MixtureModel().prior_sample(np.random.default_rng(0), 5)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert MixtureModel().simulate_batch(thetas, 90, 0, rng, stream_reduce).shape == (5, 0)
        with pytest.raises(InvalidInputError):  # as summarize_batch refuses empty datasets
            MixtureModel().simulate_batch(thetas, 0, 3, rng, stream_reduce)
        assert rng.bit_generator.state == state

    def test_other_models_reduce_their_whole_output(self, rng):
        gauss, discrete = GaussianLocationModel(), small_discrete_model()
        for model, thetas, n in ((gauss, np.array([[0.5], [-1.0]]), 4), (discrete, np.array([[0.0], [1.0]]), 2)):
            got = model.simulate_batch(thetas, n, 3, np.random.default_rng(1), lambda x: x.sum(axis=-1))
            assert np.array_equal(got, model.simulate_batch(thetas, n, 3, np.random.default_rng(1)).sum(axis=-1))

    @pytest.mark.parametrize("fail_at", [1, 2, 5])
    def test_a_failing_reduce_propagates_and_leaves_no_task_running(self, fail_at):
        """The blocks queued behind the failing one call ``reduce`` no more.

        The autouse ``no_helper_thread_left`` guard checks that the helper thread has ended.
        """
        calls = []

        def reduce(sims):
            calls.append(len(sims))
            if len(calls) == fail_at:
                raise ValueError("reduce failed")
            return stream_reduce(sims)

        thetas = MixtureModel().prior_sample(np.random.default_rng(0), 150)
        with pytest.raises(ValueError, match="reduce failed"):
            MixtureModel().simulate_batch(thetas, 90, 256, np.random.default_rng(1), reduce)
        assert len(calls) == fail_at

    def test_memory_holds_a_few_blocks(self):
        """N=500, M=256, n=90: the datasets alone would be 88 MiB; a block is 0.5 MiB, the (N, M) distances 1 MiB."""
        thetas = MixtureModel(mu_prior_sd=3.0).prior_sample(np.random.default_rng(0), 500)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            simulate_distances(MixtureModel(), thetas, 90, 256, rng, STREAM_SUMMARY, DistanceSpec(), STREAM_OBS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestGaussianLocationModel:
    def test_simulate_and_prior(self, rng):
        model = GaussianLocationModel(prior_var=4.0, noise_sd=0.5)
        assert model.prior_logpdf_batch(np.array([[1.0]]))[0] == pytest.approx(
            sps.norm.logpdf(1.0, scale=2.0), rel=1e-12
        )
        x = model.simulate_batch(np.array([[2.0]]), 100_000, 1, rng)[0, 0]
        assert x.mean() == pytest.approx(2.0, abs=0.02)
        assert x.std() == pytest.approx(0.5, rel=0.02)

    def test_in_place_affine_map_equals_one_shot_formula(self, rng):
        model = GaussianLocationModel(noise_sd=0.7)
        thetas = model.prior_sample(rng, 30)
        out = model.simulate_batch(thetas, 90, 5, np.random.default_rng(8))
        z = np.random.default_rng(8).normal(size=(30, 5, 90))
        assert np.array_equal(out, thetas[:, 0, None, None] + 0.7 * z)


    def test_reduced_mean_is_one_draw_at_the_mean_sd(self):
        model = GaussianLocationModel(prior_var=4.0, noise_sd=0.7)
        twin, n = model.reduced(SummarySpec(kind="mean"), 50)
        assert n == 1 and isinstance(twin, GaussianLocationModel)
        assert twin.prior_var == 4.0 and twin.noise_sd == 0.7 / math.sqrt(50)

    @pytest.mark.parametrize(
        "summary, n",
        [
            (SummarySpec(kind="mean", clamp=(-1.0, 1.0)), 50),
            (SummarySpec(kind="identity"), 50),
            (SummarySpec(kind="moments_and_tails"), 50),
            (SummarySpec(kind="mean"), 1),
        ],
    )
    def test_reduced_keeps_full_data_otherwise(self, summary, n):
        model = GaussianLocationModel()
        assert model.reduced(summary, n) == (model, n)

    def test_reduced_mean_matches_the_sample_mean_law(self):
        # S(X) of n draws at theta is N(theta, sd^2/n); the reduced twin's
        # statistic must have that law (KS test on 200,000 draws)
        theta, sd, n = 0.7, 1.3, 50
        summary = SummarySpec(kind="mean")
        twin, n_red = GaussianLocationModel(noise_sd=sd).reduced(summary, n)
        sims = twin.simulate_batch(np.array([[theta]]), n_red, 200_000, np.random.default_rng(3))
        stats = summarize_batch(summary, sims)[0, :, 0]
        assert sps.kstest(stats, "norm", args=(theta, sd / math.sqrt(n))).pvalue > 1e-3


class TestDiscreteToyModel:
    def test_likelihood_rows_sum_to_one(self):
        model = small_discrete_model()
        np.testing.assert_allclose(model.likelihood.sum(axis=1), 1.0, atol=1e-12)
        assert model.likelihood.shape == (2, 9)

    def test_dataset_probabilities_from_iid_product(self):
        model = small_discrete_model()
        # dataset (0, 2) under atom 0: 0.5 * 0.2
        ds = model.enumerate_datasets()
        j = next(i for i, d in enumerate(ds) if tuple(d) == (0.0, 2.0))
        assert model.likelihood[0, j] == pytest.approx(0.1, rel=1e-12)

    def test_simulator_matches_table(self, rng):
        model = small_discrete_model()
        sims = model.simulate_batch(np.array([[1.0]]), 2, 60_000, rng)[0]
        ds = model.enumerate_datasets()
        freq = np.array([np.mean(np.all(sims == d, axis=1)) for d in ds])
        np.testing.assert_allclose(freq, model.likelihood[1], atol=0.01)

    def test_atom_index_and_prior(self):
        model = small_discrete_model()
        assert model.atom_index_batch(np.array([1.0]))[0] == 1
        assert model.prior_logpdf_batch(np.array([[0.0], [0.5]])) == pytest.approx([math.log(0.6), -math.inf])
        with pytest.raises(InvalidParameterError):
            model.atom_index_batch(np.array([0.5]))

    def test_enumerated_posterior_is_bayes_at_lambda(self):
        # with the identity statistic, p=1 distance, and lambda -> large,
        # the pseudo-posterior concentrates on exact matches: it converges to
        # the exact Bayes posterior of the observed dataset.
        model = small_discrete_model()
        summary = SummarySpec(kind="identity")
        dist = DistanceSpec(kind="lp", p=1)
        obs = np.array([0.0, 2.0])
        post, log_z = enumerated_posterior(model, summary, dist, obs, 200.0, ExponentialKernel)
        ds = model.enumerate_datasets()
        j = next(i for i, d in enumerate(ds) if tuple(d) == tuple(obs))
        exact = model.prior_weights * model.likelihood[:, j]
        exact = exact / exact.sum()
        np.testing.assert_allclose(post, exact, atol=1e-8)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_enumerated_posterior_uniform_kernel_counts_datasets_within_eps(self):
        model = small_discrete_model()
        summary = SummarySpec(kind="identity")
        dist = DistanceSpec(kind="lp", p=1)
        obs = np.array([0.0, 2.0])
        ds = model.enumerate_datasets()
        for eps in (0.0, 1.0, 2.5):
            post, log_z = enumerated_posterior(model, summary, dist, obs, eps, UniformKernel)
            inside = np.abs(ds - obs).sum(axis=1) <= eps
            per_atom = model.prior_weights * model.likelihood[:, inside].sum(axis=1)
            np.testing.assert_allclose(post, per_atom / per_atom.sum(), rtol=1e-12)
            assert log_z == pytest.approx(math.log(per_atom.sum()), rel=1e-12)

    def test_enumerated_posterior_at_zero_is_prior(self):
        model = small_discrete_model()
        post, log_z = enumerated_posterior(
            model, SummarySpec(kind="identity"), DistanceSpec(kind="lp", p=1), [0.0, 2.0], 0.0, ExponentialKernel
        )
        np.testing.assert_allclose(post, model.prior_weights, atol=1e-12)
        assert log_z == pytest.approx(0.0, abs=1e-12)

    def test_reduced_keeps_full_data(self):
        model = small_discrete_model()
        for kind in ("mean", "identity"):
            assert model.reduced(SummarySpec(kind=kind), 2) == (model, 2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_simulator_is_the_per_row_inverse_cdf(self, m):
        # unsorted atoms, two of which no row uses
        model = DiscreteToyModel.from_obs_probs(
            theta_values=[2.0, 0.0, 3.0, 1.0],
            prior_weights=[0.25] * 4,
            obs_values=[0.0, 1.0, 2.0],
            obs_probs=[[0.5, 0.3, 0.2], [0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.6, 0.2, 0.2]],
            n=2,
        )
        thetas = np.random.default_rng(5).choice([3.0, 2.0], size=(200, 1))
        got = model.simulate_batch(thetas, 2, m, np.random.default_rng(11))
        u = np.random.default_rng(11).random((len(thetas), m))
        datasets = model.enumerate_datasets()
        want = np.empty((len(thetas), m, 2))
        for i, theta in enumerate(thetas[:, 0]):
            cum = np.cumsum(model.likelihood[list(model.theta_values).index(theta)])
            for j in range(m):
                want[i, j] = datasets[min(int(np.sum(cum <= u[i, j])), len(cum) - 1)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("make", [small_discrete_model, unsorted_model_with_ties, short_cdf_model])
    def test_lookups_at_cdf_entries_and_bucket_edges_equal_binary_search(self, make, m):
        assert_edges_equal_binary_search(make(), m)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("make", [small_discrete_model, unsorted_model_with_ties, short_cdf_model])
    def test_lookups_on_a_generator_equal_binary_search(self, make, m):
        model = make()
        thetas = np.random.default_rng(4).choice(model.theta_values, size=(5000, 1))
        assert_lookups_equal_binary_search(model, thetas, m, lambda: np.random.default_rng(9))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lookups_on_random_tables_equal_binary_search(self, data):
        a = data.draw(st.integers(1, 4), label="atoms")
        v, n = data.draw(st.integers(1, 3), label="outcomes"), data.draw(st.integers(1, 3), label="n")
        atoms = data.draw(st.lists(st.integers(-4, 4), min_size=a, max_size=a, unique=True), label="theta_values")
        counts = data.draw(st.lists(st.integers(0, 4), min_size=a * v**n, max_size=a * v**n), label="counts")
        counts = np.array(counts, dtype=float).reshape(a, v**n)
        counts[:, 0] += counts.sum(axis=1) == 0  # every row has some mass
        weights = data.draw(st.lists(st.integers(0, 3), min_size=a, max_size=a), label="prior counts")
        weights = np.array(weights, dtype=float) + (sum(weights) == 0)
        model = DiscreteToyModel(
            np.array(atoms, dtype=float), weights / weights.sum(), np.arange(v, dtype=float), n,
            counts / counts.sum(axis=1, keepdims=True),
        )
        m = data.draw(st.integers(1, 3), label="m")
        assert_edges_equal_binary_search(model, m)
        thetas = np.random.default_rng(a * 100 + m).choice(model.theta_values, size=(300, 1))
        assert_lookups_equal_binary_search(model, thetas, m, lambda: np.random.default_rng(1))

    @pytest.mark.parametrize("bad", [np.nan, 0.5, -1.0, 7.0], ids=["nan", "between", "below", "above"])
    def test_a_value_that_is_no_atom_raises_as_binary_search_does(self, bad):
        model = unsorted_model_with_ties()
        values = np.array([2.0, -0.0, bad, 1.0, bad])
        with pytest.raises(InvalidParameterError) as want:
            searchsorted_atom_index(model, values)
        message = re.escape(str(want.value))
        with pytest.raises(InvalidParameterError, match=message):
            model.atom_index_batch(values)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match=message):
            model.simulate_batch(values[:, None], model.n, 1, rng)
        assert rng.bit_generator.state == state  # the check comes before any draw
        thetas = values[:, None]
        assert np.array_equal(model.prior_logpdf_batch(thetas), searchsorted_prior_logpdf(model, thetas))

    def test_minus_zero_is_the_zero_atom(self):
        model = unsorted_model_with_ties()
        thetas = np.array([[-0.0], [0.0], [3.0]])
        assert model.atom_index_batch(thetas[:, 0]).tolist() == [1, 1, 2]
        assert_lookups_equal_binary_search(model, thetas, 2, lambda: np.random.default_rng(3))

    def test_zero_prior_weight_gives_minus_inf_without_a_warning(self):
        # RuntimeWarnings are errors in this suite, so a log(0) warning would fail here
        model = unsorted_model_with_ties()
        assert model.prior_logpdf_batch(np.array([[1.0], [3.0]])).tolist() == [-math.inf, math.log(0.5)]

    def test_negative_tables_are_refused(self):
        with pytest.raises(InvalidConfigError, match="likelihood entries must be nonnegative"):
            DiscreteToyModel.from_obs_probs([0.0], [1.0], [0.0, 1.0, 2.0], [[1.2, -0.2, 0.0]], 2)
        with pytest.raises(InvalidConfigError, match="prior weights must be nonnegative"):
            DiscreteToyModel.from_obs_probs([0.0, 1.0], [1.1, -0.1], [0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], 1)
        with pytest.raises(InvalidConfigError, match="prior weights must be nonnegative"):
            DiscreteToyModel.from_obs_probs([0.0, 1.0], [np.nan, 1.0], [0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], 1)


class TestTruthGenerator:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            TruthGenerator(weights=(0.5, 0.4))
        with pytest.raises(InvalidConfigError):
            TruthGenerator(kind="three_component")  # needs 3 components

    def test_truncation(self, rng):
        gen = three_component_truth(n=5000)
        x = gen.sample(rng)
        assert x.min() >= -5.0 and x.max() <= 5.0
        assert len(x) == 5000

    def test_two_component_moments(self, rng):
        gen = TruthGenerator(n=200_000)
        x = gen.sample(rng)
        assert x.mean() == pytest.approx(0.2 * 3.0, abs=0.02)

