import pytest

from occufrac import hardcore, matching


@pytest.fixture(autouse=True)
def fresh_programs():
    """Drop the cached programs after each test, so a program built from
    monkeypatched ingredients never reaches the next test."""
    yield
    hardcore.build_primal.cache_clear()
    matching.build_primal.cache_clear()
