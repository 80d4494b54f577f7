import sys
import tempfile

from hypothesis import configuration


def pytest_configure(config):
    # hypothesis caches the literals of local modules on disk at collection,
    # even without an example database; keep that cache out of the tree
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
