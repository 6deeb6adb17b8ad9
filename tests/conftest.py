"""Hypothesis profile: every run draws the same cases.

The profile derandomizes every @given test (its cases follow from the test
itself) and keeps no example database, so a local run and CI check the same
cases, and no stored failure replays in one checkout only. For a one-off
exploratory run with random draws and the local database, pass
--hypothesis-profile=default to pytest.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
