import contextlib
import os
import signal

import numpy as np
import pytest

from zetalab import liouville

# Lines recorded by the acceptance suite, echoed after the run so the
# per-criterion verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


@contextlib.contextmanager
def criterion(tag: str, description: str):
    """Record one acceptance verdict line, preserving the failure."""
    info: dict = {}
    try:
        yield info
    except BaseException as exc:
        note = info.get("note", "")
        detail = f" ({note})" if note else ""
        ACCEPTANCE_LINES.append(
            f"{tag} FAIL - {description}{detail}: {type(exc).__name__}: {exc}"
        )
        raise
    note = info.get("note", "")
    detail = f" ({note})" if note else ""
    ACCEPTANCE_LINES.append(f"{tag} PASS - {description}{detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def segment_length():
    """A setter for the sieve's segment length, liouville.DEFAULT_SEGMENT,
    restored after the test; a short length reaches segment boundaries
    at small limits."""
    with pytest.MonkeyPatch.context() as mp:
        yield lambda n: mp.setattr(liouville, "DEFAULT_SEGMENT", n)


@pytest.fixture
def within_a_minute():
    """Fail, rather than hang, a test whose pass or stream waits on a
    forked process (a sieve or a fold child) for more than 60 s."""

    def expire(signum, frame):
        raise TimeoutError("the stream waited 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_child_outlives_a_test(request):
    """Fail a test that leaves a child process behind, exited or not: a
    sieve stream kills and reaps its child on every exit."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"{request.node.nodeid} left a child process ({pid or 'still running'})")
