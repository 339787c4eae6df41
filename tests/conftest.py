"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` derandomizes the property
tests, so a run explores the same examples on every push; the example
counts stay those of each test's own settings. Local runs keep the default
randomized profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
