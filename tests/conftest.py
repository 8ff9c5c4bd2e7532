"""Hypothesis settings profiles for the test suite.

``tier1`` is loaded by default, so that every run of one commit draws the
same examples and gives one verdict: examples come from a seed fixed per
test (``derandomize``), no failure is replayed from a local example
database, and there is no deadline, as a timing gate fails on a slow host
and not on a fast one.  No test's ``max_examples`` changes.

``explore`` draws fresh random examples, with more of them for the tests
that do not fix their own ``max_examples``, and keeps failures in the local
database.  It is chosen with hypothesis's own option:

    python -m pytest --hypothesis-profile=explore

A failure it finds becomes an ``@example`` of the test, in the change that
fixes it.

Tests marked ``sweep`` are full-range output sweeps, too slow for tier-1:
``pyproject.toml`` deselects them with ``-m "not sweep"``, and a later
``-m`` overrides that, so

    python -m pytest -m sweep

runs them alone.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", max_examples=1000, deadline=None)

# hypothesis's --hypothesis-profile option, if given, is loaded after this
# file when this file is an initial conftest, and before it otherwise
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")
