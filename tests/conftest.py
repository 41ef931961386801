import pytest

from collapsim.stats import PrngStream

GOLDEN_SEED = 20260815


@pytest.fixture
def rng():
    return PrngStream(GOLDEN_SEED)
