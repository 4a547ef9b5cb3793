import contextlib
import os

import pytest


def _open_pipes():
    """The pipes this process holds open, as (fd, target) pairs, or None
    where there is no /proc to read them from."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    pipes = set()
    for fd in fds:
        with contextlib.suppress(OSError):  # the listing's own fd, closed by now
            target = os.readlink(f"/proc/self/fd/{fd}")
            if target.startswith("pipe:"):
                pipes.add((int(fd), target))
    return pipes


@pytest.fixture
def open_pipes():
    """``_open_pipes``, for a test that checks its own pipes."""
    return _open_pipes


@pytest.fixture(autouse=True)
def nothing_left_behind():
    """Fail a test that leaves a child process of the test process, running
    or unreaped, or a pipe open: no command may leave either behind."""
    pipes = _open_pipes()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps a zombie it finds
    except ChildProcessError:  # no child at all
        pid = None
    if pid is not None:
        pytest.fail(f"the test left a child process ({'running' if pid == 0 else f'pid {pid}, unreaped'})")
    left = set() if pipes is None else _open_pipes() - pipes
    if left:
        pytest.fail(f"the test left pipes open: {sorted(left)}")
