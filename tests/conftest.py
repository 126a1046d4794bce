import numpy as np
import pytest

from localgd import data
from localgd.data import FederatedDataset, RawSample, prepare


def random_dataset(rng, M=2, n=3, d=4):
    """Random folded dataset, norm-scaled by prepare (not necessarily separable)."""
    raw = []
    for m in range(M):
        for _ in range(n):
            x = rng.normal(size=d)
            y = int(rng.choice([-1, 1]))
            raw.append((RawSample(x, y), m))
    return prepare(raw)


def separable_dataset(rng, M=2, n=3, d=4, offset=2.0):
    """Random dataset whose folded points share a positive first coordinate."""
    raw = []
    for m in range(M):
        for _ in range(n):
            x = rng.normal(size=d)
            x[0] = abs(x[0]) + offset
            raw.append((RawSample(x, 1), m))
    return prepare(raw)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_solver(monkeypatch):
    """Fail the test if anything runs the margin solver."""
    def solver(*_args):
        raise AssertionError("the margin solver ran")

    monkeypatch.setattr(data, "_margin_solver", solver)


@pytest.fixture(autouse=True, scope="session")
def _kernel_cache(tmp_path_factory):
    """Build the C margin kernels into a per-session cache, not the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
