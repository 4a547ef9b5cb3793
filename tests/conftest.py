import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test process, running
    or unreaped: no command may leave a process behind."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps a zombie it finds
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else f'pid {pid}, unreaped'})")
