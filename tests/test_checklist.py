"""The acceptance checklist that ``conftest`` prints from the marked tests."""

from pathlib import Path

import pytest

from conftest import CRITERIA


@pytest.mark.acceptance
def test_every_criterion_has_a_marked_test(request):
    """A dropped marker, or a module that fails to collect, would silently
    lose its criterion's line, so a session that runs every test module
    must hold a marked test for each criterion."""
    config = request.config
    asked = [
        (config.invocation_params.dir / arg.split("::")[0]).resolve() for arg in config.args
    ]
    modules = Path(__file__).resolve().parent.glob("test_*.py")
    if config.option.keyword or not all(
        any(module.is_relative_to(path) for path in asked) for module in modules
    ):
        pytest.skip("the session runs part of the suite")
    marked = {
        n for item in request.session.items
        for mark in item.iter_markers("acceptance") for n in mark.args
    }
    assert marked == set(CRITERIA)
