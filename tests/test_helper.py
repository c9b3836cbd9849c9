"""The helper thread changes no bit: the mixture simulator and the moment and
indicator summaries give the same arrays, and leave the generator in the same
state, whether their work is split with the helper thread or not."""

import os
import pickle
import select
import sys
import threading

import numpy as np
import pytest

from abcsmc import statistics
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
    monkeypatch.setattr(statistics, "_use_helper", on)
    assert (statistics.helper() is not None) == on


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


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-clamp{s.clamp is not None}-norm{s.normalize}")
@pytest.mark.parametrize("rows", SUMMARY_SIZES)
def test_summary_same_bits(monkeypatch, spec, rows):
    data = np.random.default_rng(rows).standard_t(3, size=(rows, N_OBS)) * 2.0
    data = data.reshape(-1, 1, N_OBS) if rows % 2 else data  # a batch axis changes no value
    before = data.copy()
    with_helper(monkeypatch, False)
    off = summarize_batch(spec, data)
    with_helper(monkeypatch, True)
    on = summarize_batch(spec, data)
    assert np.array_equal(on, off)
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
    """A child forked after the helper started runs its own helper, not the parent's dead thread."""
    with_helper(monkeypatch, True)
    expected = _distances()  # starts the helper in this process
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


def test_concurrent_callers_share_the_helper(monkeypatch):
    """Four caller threads at once, on a helper started by the first of them, get their own bits."""
    monkeypatch.setattr(statistics, "_use_helper", True)
    monkeypatch.setattr(statistics, "_helper_pool", None)
    spec = SPECS[0]

    def work(seed):
        rng = np.random.default_rng(seed)
        return summarize_batch(spec, MixtureModel().simulate_batch(particles(3 * ROWS), N_OBS, M, rng))

    expected = {seed: work(seed) for seed in range(4)}
    monkeypatch.setattr(statistics, "_helper_pool", None)  # the threads race to start it
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
