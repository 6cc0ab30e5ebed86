"""Suite-wide guard: no test, and so no library call or CLI run it makes,
may leave the process environment or numpy's floating-point error state
changed (monkeypatch restores its own changes before this check runs)."""

import os

import numpy as np
import pytest


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTEST_CURRENT_TEST", None)  # pytest sets it around each test
    return env


@pytest.fixture(autouse=True)
def leaves_global_state_unchanged():
    env, errstate = _environment(), np.geterr()
    yield
    assert _environment() == env, "test changed os.environ"
    assert np.geterr() == errstate, "test changed numpy's error state"
