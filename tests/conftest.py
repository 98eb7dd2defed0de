import signal
import traceback

import pytest

from occufrac import hardcore, matching

try:
    import resource
except ImportError:  # no resource limits on this platform
    resource = None

# every test finishes well inside this many seconds; one that runs past it
# fails by name instead of hanging the suite
TIME_LIMIT_S = 60

# the address space of a whole tier-1 run peaks near 330 MB (Python 3.11,
# x86-64 Linux); a test whose own code asks for more than this fails with
# MemoryError instead of taking the whole run down
MEMORY_LIMIT_BYTES = 1 << 30


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run the test body with its address space capped at
    MEMORY_LIMIT_BYTES, or at a lower limit already in force. The cap is
    lifted again before pytest reports, and the frames of a MemoryError
    drop their locals, so what the test held is freed: the failure is
    reported by name and the run goes on to its summary."""
    if resource is None or not hasattr(resource, "RLIMIT_AS"):  # no limits here
        yield
        return
    previous = resource.getrlimit(resource.RLIMIT_AS)
    limit = min(b for b in (MEMORY_LIMIT_BYTES, *previous) if b != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (limit, previous[1]))
    try:
        outcome = yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, previous)
    if outcome.excinfo is not None and issubclass(outcome.excinfo[0], MemoryError):
        traceback.clear_frames(outcome.excinfo[2])


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
