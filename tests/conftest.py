import sys
import tempfile

import pytest
from hypothesis import configuration

import epblowup.diagnostics as diagnostics


@pytest.fixture(scope="session", autouse=True)
def quantity_audit():
    # every QuantitySet computed anywhere in the session lands in the log;
    # the acceptance module sweeps it at the end
    diagnostics.QUANTITY_LOG_ENABLED = True
    yield
    diagnostics.QUANTITY_LOG_ENABLED = False


def pytest_configure(config):
    # hypothesis caches the literals of local modules on disk at collection,
    # even without an example database; keep that cache out of the tree
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


def pytest_collection_modifyitems(session, config, items):
    # acceptance runs last: its global-invariant sweep must see the
    # quantities produced by the rest of the suite
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
