import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from dpcylinders import tigers

# the shared fixture tables live next to the tests
sys.path.insert(0, str(Path(__file__).parent))
# the oracle's checks report their operands like the tests' own asserts
pytest.register_assert_rewrite("coordinate_oracle")

# The release checklist.  Criterion n is the set of tests marked
# ``@pytest.mark.acceptance(n)``; the run ends with one line per criterion.
CRITERIA = {
    1: "Gram tables are negated Cartan matrices, negative definite",
    2: "anticanonical dimension law m(m+1)d/2 with fixture points",
    3: "residual-class fixture suite, formulas and pairing table",
    4: "explicit coordinates reproduce every symbolic pairing",
    5: "every cylinder spec certifies with its exact ratio",
    6: "split obstructions: exact cases, gaps, zero unobstructed",
    7: "classification fixtures and the three polar refusals",
    8: "CLI byte-identical round-trip and exit codes 0/10/20/30/2/3",
}


# criterion -> whether a test marked with it failed, for this session
FAILED = pytest.StashKey[dict]()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(n): the test is part of acceptance criterion n"
    )
    config.stash[FAILED] = {}


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    """A criterion fails when a marked test that ran failed in setup, call
    or teardown."""
    report = yield
    if call.when == "call" or report.failed:
        failed = item.config.stash[FAILED]
        for mark in item.iter_markers("acceptance"):
            for n in mark.args:
                failed[n] = failed.get(n, False) or report.failed
    return report


def pytest_terminal_summary(terminalreporter, config):
    failed = config.stash[FAILED]
    if failed:
        terminalreporter.section("acceptance criteria")
    for n in sorted(failed):
        terminalreporter.write_line(
            f"ACCEPTANCE {n}: {CRITERIA[n]}: {'FAIL' if failed[n] else 'PASS'}"
        )


@contextmanager
def forced_discrepancy():
    """Inside the block no split carries its obstruction, as if the engine
    had a discrepancy.  The splits are stripped as ``build_tiger`` reads
    them, so the memo of walked boxes keeps only true ones."""
    walk = tigers.enumerate_decompositions
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tigers, "enumerate_decompositions", lambda row, degree: tuple(
            split._replace(obstruction=None) for split in walk(row, degree)))
        yield
