"""Shared test settings: one fixed-seed hypothesis profile for the suite.

Derandomized, so every run draws the same examples, and without an
example database, so runs leave no files behind.
"""

from hypothesis import settings

settings.register_profile(
    "twistlab", derandomize=True, database=None, deadline=None, max_examples=40,
)
settings.load_profile("twistlab")
