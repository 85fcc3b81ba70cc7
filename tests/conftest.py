import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# reproducible and bounded in time, and they leave no example database.
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    """Deterministic generator; a fresh stream per test."""
    return np.random.Generator(np.random.Philox(key=20260808))
