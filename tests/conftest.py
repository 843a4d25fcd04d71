import signal
from contextlib import contextmanager

import pytest


class DeadlineExceeded(Exception):
    """A block run under `deadline` did not finish within its bound."""


@contextmanager
def _deadline(seconds: float):
    """Raise DeadlineExceeded inside the block once `seconds` of wall time
    have gone by (SIGALRM; main thread only).  Guards the tests of inputs
    that once hung, so that a regression fails instead of stalling."""
    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """The `_deadline(seconds)` context manager."""
    return _deadline
