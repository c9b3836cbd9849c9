"""The helper thread changes no bit: the mixture simulator runs its block tasks
(labels, affine map, reduce) on a helper thread of the call's own, and gives
the arrays and the final generator state of one-shot draws on any generator,
whether the generator jumps past the labels or draws them.  The moment and
indicator summaries, which those tasks run, give the same bits on another
thread.  Each call's helper thread ends before the call does."""

import contextlib
import os
import pickle
import select
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from abcsmc.models import MixtureModel
from abcsmc.smc import simulate_distances
from abcsmc.statistics import BLOCK_ELEMENTS, DistanceSpec, SummarySpec, row_blocks, rows_per_block, summarize_batch

from test_models import one_shot_mixture

N_OBS, M = 90, 8
ROWS = rows_per_block(M * N_OBS)  # particles per simulator block

# datasets (rows of N_OBS) giving 1 summary block, 2 blocks, and many blocks with a short last one
SUMMARY_SIZES = [rows_per_block(N_OBS) // 2, rows_per_block(N_OBS) + 5, 6 * rows_per_block(N_OBS) + 11]

SPECS = [
    SummarySpec(kind="moments_and_tails", clamp=(-5.0, 5.0)),
    SummarySpec(kind="moments_and_tails", clamp=(-5.0, 5.0), normalize=True),
    SummarySpec(kind="moments_and_tails"),
    SummarySpec(kind="indicator_grid", thresholds=(-2.0, -1.0, 0.0, 1.0, 2.0)),
]


def helper_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("abcsmc-helper")]


def particles(b: int) -> np.ndarray:
    return MixtureModel(mu_prior_sd=3.0).prior_sample(np.random.default_rng(b), b)


@pytest.mark.parametrize("reduced", [False, True], ids=["datasets", "reduced"])
@pytest.mark.parametrize("float32_first", [False, True], ids=["aligned", "half-buffered"])
@pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"])
def test_mixture_labels_on_any_generator_equal_one_shot_draws(bit_generator, float32_first, reduced):
    """Uniforms then normals from one generator, whether the generator jumps past the labels or draws them,
    and whether the blocks are copied out as datasets or handed to ``reduce``.

    A float32 draw first leaves a buffered 32-bit half, which ``advance``
    would drop, so the generator's next float32 and normals are checked too.
    """
    thetas = particles(2 * ROWS + 7)
    rng, ref = (np.random.Generator(getattr(np.random, bit_generator)(11)) for _ in range(2))
    if float32_first:
        rng.random(dtype=np.float32)
        ref.random(dtype=np.float32)
    reduce = (lambda sims: sims.sum(axis=-1)) if reduced else None
    model = MixtureModel(p=0.7)
    out = model.simulate_batch(thetas, N_OBS, M, rng, reduce)
    expected = one_shot_mixture(model, thetas, N_OBS, M, ref)
    if reduced:  # the sum of a block's rows equals that of the same rows of the whole array
        expected = expected.reshape(-1, N_OBS).sum(axis=-1).reshape(len(thetas), M)
    assert np.array_equal(out, expected)
    assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
    assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


@pytest.mark.parametrize("b,m,n", [(5, M, 0), (5, 0, N_OBS), (0, M, N_OBS)], ids=["n=0", "m=0", "B=0"])
def test_mixture_without_draws_is_empty_and_consumes_nothing(b, m, n):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    out = MixtureModel().simulate_batch(particles(b), n, m, rng)
    assert out.shape == (b, m, n)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-clamp{s.clamp is not None}-norm{s.normalize}")
@pytest.mark.parametrize("rows", SUMMARY_SIZES)
def test_summary_same_bits(spec, rows):
    """A summary computed on another thread, as the mixture's ``reduce`` is, equals one computed here."""
    data = np.random.default_rng(rows).standard_t(3, size=(rows, N_OBS)) * 2.0
    data = data.reshape(-1, 1, N_OBS) if rows % 2 else data  # a batch axis changes no value
    before = data.copy()
    here = summarize_batch(spec, data)
    there = in_thread(lambda: summarize_batch(spec, data), timeout=60.0)
    assert np.array_equal(there, here)
    assert np.array_equal(data, before)  # the input is never written


def test_summary_of_no_datasets():
    assert summarize_batch(SPECS[0], np.empty((0, N_OBS))).shape == (0, 6)


def test_callers_errstate_reaches_the_affine_map():
    """An overflow in the first of three blocks, which the helper maps, raises under over="raise"."""
    n = BLOCK_ELEMENTS // 2  # two rows per block
    theta = np.zeros((6, 4))
    theta[:2, [1, 3]] = 709.0  # sigma ~ 8e307: mu + sigma * z overflows for |z| > 2.2
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            MixtureModel().simulate_batch(theta, n, 1, np.random.default_rng(0))


def _distances():
    summary = SummarySpec(kind="moments_and_tails", clamp=(-5.0, 5.0))
    obs_stats = summarize_batch(summary, np.linspace(-2.0, 3.0, N_OBS))
    return simulate_distances(
        MixtureModel(), particles(3 * ROWS), N_OBS, M, np.random.default_rng(7), summary, DistanceSpec(), obs_stats
    )


def test_forked_child_gets_the_same_distances():
    """A child forked after a call that ran on a helper thread runs its own calls on helpers of its own."""
    expected = _distances()  # starts and joins a helper in this process
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                pickle.dump(_distances(), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    ready = []
    try:
        ready, _, _ = select.select([read_end], [], [], 120.0)
        assert ready, "forked child did not finish within 120 s"
        with os.fdopen(read_end, "rb") as fh:
            got = pickle.load(fh)
    finally:
        if not ready:
            os.kill(pid, 9)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.array_equal(got, expected)


def test_concurrent_callers_each_get_their_own_bits():
    """Four caller threads at once through ``simulate_distances``, each call on a helper thread of its own."""
    spec = SPECS[0]
    obs_stats = summarize_batch(spec, np.linspace(-2.0, 3.0, N_OBS))

    def work(seed):
        rng = np.random.default_rng(seed)
        return simulate_distances(MixtureModel(), particles(3 * ROWS), N_OBS, M, rng, spec, DistanceSpec(), obs_stats)

    expected = {seed: work(seed) for seed in range(4)}
    got = {}
    threads = [threading.Thread(target=lambda s=seed: got.__setitem__(s, work(s))) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in range(4):
        assert np.array_equal(got[seed], expected[seed])


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "reduce-fails"])
def test_no_helper_thread_outlives_the_call(fail):
    """The call's blocks ran on a helper thread, and it has ended when the call returns or raises."""
    alive = []

    def reduce(sims):
        alive.append(len(helper_threads()))
        if fail and len(alive) == 2:
            raise ValueError("reduce failed")
        return sims.sum(axis=-1)

    with pytest.raises(ValueError, match="reduce failed") if fail else contextlib.nullcontext():
        MixtureModel().simulate_batch(particles(3 * ROWS), N_OBS, M, np.random.default_rng(1), reduce)
    assert alive[0] == 1
    assert helper_threads() == []


def in_thread(fn, timeout=120.0):
    """``fn()`` on a fresh thread, joined with a timeout, so a deadlock fails the test instead of hanging it."""
    result = Future()

    def target():
        try:
            result.set_result(fn())
        except BaseException as err:  # handed to the test's thread
            result.set_exception(err)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no result within {timeout} s"
    return result.result(timeout=0)


def test_reduce_that_simulates_on_the_helper():
    """A ``reduce`` that calls the mixture simulator gets the one-shot bits; the inner call has a helper of its own."""
    model, b = MixtureModel(), 2 * ROWS + 1

    def reduce(sims):
        inner = model.simulate_batch(particles(2), N_OBS, M, np.random.default_rng(len(sims)))
        return sims.sum(axis=-1) + inner.sum()

    def run():
        return model.simulate_batch(particles(b), N_OBS, M, np.random.default_rng(5), reduce)

    def one_shot(k, seed):
        return one_shot_mixture(model, particles(k), N_OBS, M, np.random.default_rng(seed))

    data = one_shot(b, 5).reshape(b * M, N_OBS)
    expected = [data[d0:d1].sum(axis=-1) + one_shot(2, d1 - d0).sum() for d0, d1 in row_blocks(b * M, N_OBS)]
    assert np.array_equal(in_thread(run), np.concatenate(expected).reshape(b, M))
