"""Hypothesis profiles.

``suite`` (the default) draws the same examples on every run and prints
the reproduction blob of any failure, so a Tier-1 result does not depend
on luck.  ``HYPOTHESIS_PROFILE=explore`` draws fresh random examples, ten
times as many for every property test, including those that set their own
``max_examples``, to look for failures the fixed draws miss.
"""

import os

from hypothesis import settings

EXPLORE_FACTOR = 10

settings.register_profile(
    "suite", max_examples=50, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("explore", max_examples=50, deadline=None, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "suite")
settings.load_profile(PROFILE)


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
