"""Shared test settings.

The hypothesis profile draws the same examples on every run and sets no
per-example deadline, so a property test cannot fail by chance or because a
shared machine is slow.  No example database is written.
"""

from hypothesis import settings

settings.register_profile("cliffordqm", derandomize=True, deadline=None, database=None)
settings.load_profile("cliffordqm")
