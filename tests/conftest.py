"""Hypothesis profiles: `default` for local runs, `ci` for the CI tier-1 step.

Select one with `pytest --hypothesis-profile=ci`. Property tests leave the
example count to the profile.
"""
from hypothesis import settings

settings.register_profile("default", max_examples=40, deadline=None)
settings.register_profile("ci", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("default")
