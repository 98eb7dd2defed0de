import signal

import pytest

from occufrac import hardcore, matching

# every test finishes well inside this many seconds; one that runs past it
# fails by name instead of hanging the suite
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def fresh_programs():
    """Drop the cached programs after each test, so a program built from
    monkeypatched ingredients never reaches the next test."""
    yield
    hardcore.build_primal.cache_clear()
    matching.build_primal.cache_clear()


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test from a SIGALRM handler once it has run TIME_LIMIT_S
    seconds of wall time; the timer is disarmed afterwards."""
    if not hasattr(signal, "setitimer"):  # no interval timers on this platform
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past the {TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
