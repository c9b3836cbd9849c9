import threading

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    """Fail a test that leaves a mixture helper thread alive: each ``simulate_batch`` call joins its own."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("abcsmc-helper")]
    if left:
        pytest.fail(f"helper threads still alive after the test: {left}")
