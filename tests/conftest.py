"""Hypothesis settings shared by the whole suite.

Examples are derived from each test's source rather than drawn at random, so
a property test explores the same cases on every run and stores nothing
between runs.  There is no per-example deadline, since timings on a shared or
throttled machine vary.
"""

from hypothesis import settings

settings.register_profile("bredonkit", derandomize=True, deadline=None, database=None)
settings.load_profile("bredonkit")
