import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from dpcylinders import tigers

# the shared fixture tables live next to the tests
sys.path.insert(0, str(Path(__file__).parent))
# the oracle's checks report their operands like the tests' own asserts
pytest.register_assert_rewrite("coordinate_oracle")

ACCEPTANCE_LINES: list[str] = []


@contextmanager
def forced_discrepancy():
    """Inside the block no split finds its obstruction, as if the engine
    had a discrepancy.  ``enumerate_decompositions`` keeps each walked box
    for the life of the process, so the memo is emptied on entry, lest a
    box walked before the block be served inside it, and on exit, lest a
    box walked inside it be served after."""
    tigers.enumerate_decompositions.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tigers, "_obstruction_for", lambda row, residual, first: None)
            yield
    finally:
        tigers.enumerate_decompositions.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
