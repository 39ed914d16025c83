"""Shared test settings.

The property tests run under a bounded, derandomized hypothesis profile,
so they add seconds to the suite and draw the same examples on every run.
"""
from hypothesis import settings

settings.register_profile(
    "curetail", max_examples=25, deadline=None, derandomize=True, database=None
)
settings.load_profile("curetail")
