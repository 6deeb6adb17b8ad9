"""Hypothesis profile: every run draws the same cases.

The profile derandomizes every @given test (its cases follow from the test
itself) and keeps no example database, so a local run and CI check the same
cases, and no stored failure replays in one checkout only. For a one-off
exploratory run with random draws and the local database, pass
--hypothesis-profile=default to pytest.

A failing @given test makes hypothesis import hypothesis.extra._patching,
which imports libcst where it is installed, and libcst's import raises a
DeprecationWarning from mypy_extensions. Under -W error that warning ended
pytest in an INTERNALERROR instead of the failure report, so the module is
imported here once, with DeprecationWarning ignored for that import only:
warnings that our code and tests raise stay errors.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports failures without it
        pass

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
