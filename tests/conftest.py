import sys
from pathlib import Path

import pytest

# the shared fixture tables live next to the tests
sys.path.insert(0, str(Path(__file__).parent))
# the oracle's checks report their operands like the tests' own asserts
pytest.register_assert_rewrite("coordinate_oracle")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
