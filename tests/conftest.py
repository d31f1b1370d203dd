"""Shared pytest plumbing: collect acceptance-criterion result lines and
print them in the terminal summary, independent of output capture; keep
hypothesis's storage out of the working tree."""

import atexit
import os
import shutil
import tempfile

# hypothesis writes .hypothesis/constants/ under the working directory even
# with database=None; it reads this variable at its first write, so it is set
# here, before any test runs (a fixture runs too late)
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="pacslab-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _HYPOTHESIS_HOME
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
