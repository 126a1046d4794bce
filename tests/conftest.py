import contextlib
import math

import numpy as np
import pytest

from localgd import _kernels, data, specialfn
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


@contextlib.contextmanager
def _c_switch(backend=None, steps=0):
    """Every margin-kernel call and log_phi solve on ``backend``, "c" (the test skips where
    the library cannot be built) or "python"; or, with no backend, as in a process that has
    run ``steps`` scalar steps in Python. The process's own switch is restored on exit."""
    with pytest.MonkeyPatch.context() as mp:
        if backend == "c" and _kernels._library() is None:
            pytest.skip("the C kernels cannot be built here")
        if backend is not None:
            mp.setattr(_kernels, "C_MIN_WORK", 0 if backend == "c" else math.inf)
        mp.setattr(_kernels, "_python_steps", steps)
        mp.setattr(specialfn, "_c_log_phi", None)
        yield


@pytest.fixture(scope="session")
def c_switch():
    """``with c_switch("c")``, ``c_switch("python")`` or ``c_switch(steps=n)``: where the margin
    kernels and log_phi run inside the block (see ``_c_switch``)."""
    return _c_switch
