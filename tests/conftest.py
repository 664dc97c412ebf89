"""Hypothesis profiles, and the scripts under ``scripts/`` as fixtures.

``suite`` (the default) draws the same examples on every run and prints
the reproduction blob of any failure, so a Tier-1 result does not depend
on luck.  ``HYPOTHESIS_PROFILE=explore`` draws fresh random examples, ten
times as many for every property test, including those that set their own
``max_examples``, to look for failures the fixed draws miss.
"""

import importlib.util
import os
from pathlib import Path

import pytest
from hypothesis import settings

EXPLORE_FACTOR = 10

settings.register_profile(
    "suite", max_examples=50, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("explore", max_examples=50, deadline=None, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "suite")
settings.load_profile(PROFILE)


def _load_script(name):
    """A fresh import of ``scripts/<name>.py``, so a test may set its globals."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def record_fixtures():
    return _load_script("record_fixtures")


@pytest.fixture
def run_configs():
    return _load_script("run_configs")


def pytest_collection_modifyitems(items):
    if PROFILE != "explore":
        return
    seen = set()
    for item in items:
        # a property test reads its settings from this attribute when it
        # runs; parametrized items share one function, so scale it once
        test = getattr(item, "obj", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and id(test) not in seen:
            seen.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_FACTOR * own.max_examples
            )
