"""The helper thread changes no bit: the mixture simulator gives the same
arrays, and leaves the generator in the same state, whether its block tasks
(labels, affine map, reduce) run on the helper thread or on the caller's, and
whether its labels come from a jumped copy of the generator or not.  The
moment and indicator summaries, which those tasks run, give the same bits on
either thread.  Each call's helper thread ends before the call does."""

import contextlib
import os
import pickle
import select
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from abcsmc import models
from abcsmc.models import MixtureModel
from abcsmc.smc import simulate_distances
from abcsmc.statistics import BLOCK_ELEMENTS, DistanceSpec, SummarySpec, rows_per_block, summarize_batch

N_OBS, M = 90, 8
ROWS = rows_per_block(M * N_OBS)  # particles per simulator block

# particle counts giving 1 block, 2 blocks, and many blocks with a short last one
SIM_SIZES = [ROWS // 2, ROWS + 3, 5 * ROWS + 7]
# datasets (rows of N_OBS) giving the same three cases for the summary
SUMMARY_SIZES = [rows_per_block(N_OBS) // 2, rows_per_block(N_OBS) + 5, 6 * rows_per_block(N_OBS) + 11]

SPECS = [
    SummarySpec(kind="moments_and_tails", clamp=(-5.0, 5.0)),
    SummarySpec(kind="moments_and_tails", clamp=(-5.0, 5.0), normalize=True),
    SummarySpec(kind="moments_and_tails"),
    SummarySpec(kind="indicator_grid", thresholds=(-2.0, -1.0, 0.0, 1.0, 2.0)),
]


def with_helper(monkeypatch, on: bool):
    monkeypatch.setattr(models, "_use_helper", on)
    with models.helper() as pool:
        assert (pool is not None) == on


def helper_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("abcsmc-helper")]


def particles(b: int) -> np.ndarray:
    return MixtureModel(mu_prior_sd=3.0).prior_sample(np.random.default_rng(b), b)


def simulate(monkeypatch, on: bool, b: int):
    with_helper(monkeypatch, on)
    rng = np.random.default_rng(2024)
    out = MixtureModel().simulate_batch(particles(b), N_OBS, M, rng)
    return out, rng.bit_generator.state


@pytest.mark.parametrize("b", SIM_SIZES)
def test_mixture_draws_same_bits_and_stream(monkeypatch, b):
    off, state_off = simulate(monkeypatch, False, b)
    on, state_on = simulate(monkeypatch, True, b)
    assert np.array_equal(on, off)
    assert state_on == state_off


@pytest.mark.parametrize("on", [False, True], ids=["helper-off", "helper-on"])
@pytest.mark.parametrize("float32_first", [False, True], ids=["aligned", "half-buffered"])
@pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"])
def test_mixture_labels_on_any_generator_equal_one_shot_draws(monkeypatch, bit_generator, float32_first, on):
    """Uniforms then normals from one generator, whether or not the labels take the jumped copy.

    A float32 draw first leaves a buffered 32-bit half, which ``advance``
    would drop, so the generator's next float32 and normals are checked too.
    """
    with_helper(monkeypatch, on)
    b = 2 * ROWS + 7
    thetas = particles(b)
    rng, ref = (np.random.Generator(getattr(np.random, bit_generator)(11)) for _ in range(2))
    if float32_first:
        rng.random(dtype=np.float32)
        ref.random(dtype=np.float32)
    out = MixtureModel(p=0.7).simulate_batch(thetas, N_OBS, M, rng)
    u = ref.random((b, M, N_OBS))
    z = ref.standard_normal((b, M, N_OBS))
    mu1, s1 = thetas[:, 0, None, None], np.exp(thetas[:, 1, None, None])
    mu2, s2 = thetas[:, 2, None, None], np.exp(thetas[:, 3, None, None])
    assert np.array_equal(out, np.where(u < 0.7, mu1 + s1 * z, mu2 + s2 * z))
    assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
    assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


@pytest.mark.parametrize("on", [False, True], ids=["helper-off", "helper-on"])
@pytest.mark.parametrize("m,n", [(M, 0), (0, N_OBS)], ids=["n=0", "m=0"])
def test_mixture_without_draws_is_empty_and_consumes_nothing(monkeypatch, on, m, n):
    with_helper(monkeypatch, on)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    out = MixtureModel().simulate_batch(particles(5), n, m, rng)
    assert out.shape == (5, m, n)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-clamp{s.clamp is not None}-norm{s.normalize}")
@pytest.mark.parametrize("rows", SUMMARY_SIZES)
def test_summary_same_bits(monkeypatch, spec, rows):
    """A summary computed on the helper thread, as the mixture's ``reduce`` is, equals one computed here."""
    data = np.random.default_rng(rows).standard_t(3, size=(rows, N_OBS)) * 2.0
    data = data.reshape(-1, 1, N_OBS) if rows % 2 else data  # a batch axis changes no value
    before = data.copy()
    with_helper(monkeypatch, True)
    here = summarize_batch(spec, data)
    with models.helper() as pool:
        there = pool.submit(summarize_batch, spec, data).result(timeout=60.0)
    assert np.array_equal(there, here)
    assert np.array_equal(data, before)  # the input is never written


def test_summary_of_no_datasets(monkeypatch):
    with_helper(monkeypatch, True)
    assert summarize_batch(SPECS[0], np.empty((0, N_OBS))).shape == (0, 6)


@pytest.mark.parametrize("on", [False, True])
def test_callers_errstate_reaches_the_affine_map(monkeypatch, on):
    """An overflow in the first of three blocks, which the helper maps, raises under over="raise"."""
    with_helper(monkeypatch, on)
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


def test_forked_child_gets_the_same_distances(monkeypatch):
    """A child forked after a call that ran on a helper thread runs its own calls on helpers of its own."""
    with_helper(monkeypatch, True)
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


def test_concurrent_callers_each_get_their_own_bits(monkeypatch):
    """Four caller threads at once through ``simulate_distances``, each call on a helper thread of its own."""
    with_helper(monkeypatch, True)
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
def test_no_helper_thread_outlives_the_call(monkeypatch, fail):
    """The call's blocks ran on a helper thread, and it has ended when the call returns or raises."""
    with_helper(monkeypatch, True)
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


def test_reduce_that_simulates_on_the_helper(monkeypatch):
    """A ``reduce`` that calls the mixture simulator gets the caller's bits: the inner call starts a helper of its own."""
    model = MixtureModel()

    def reduce(sims):
        inner = model.simulate_batch(particles(2), N_OBS, M, np.random.default_rng(len(sims)))
        return sims.sum(axis=-1) + inner.sum()

    def run():
        return model.simulate_batch(particles(2 * ROWS + 1), N_OBS, M, np.random.default_rng(5), reduce)

    with_helper(monkeypatch, False)
    expected = run()
    with_helper(monkeypatch, True)
    assert np.array_equal(in_thread(run), expected)
