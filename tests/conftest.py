import threading

import pytest

ACCEPTANCE_LINES = []


def record_criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}" + (f" -- {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true",
                     help="also run the paper-scale tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="paper-scale; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started still running: the
    input draw, the sweep and the test-set scoring each join their pool."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {left}")
