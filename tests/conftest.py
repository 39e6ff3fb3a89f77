import pytest
from hypothesis import settings

from phimin.sieve import build_sieve

# `pytest --hypothesis-profile=ci`: five times the examples for every test
# that leaves max_examples to the profile.
settings.register_profile(
    "ci", max_examples=5 * settings.get_profile("default").max_examples
)


@pytest.fixture(scope="session")
def tables():
    return build_sieve(3000)


@pytest.fixture(scope="session")
def tables10k():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def tables200k():
    return build_sieve(200_000)
