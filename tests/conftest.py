"""Suite-wide settings: hypothesis draws the same examples on every run, so
the property tests are as reproducible as the rest of the suite."""

from hypothesis import settings

settings.register_profile("regulus", derandomize=True, deadline=None, database=None)
settings.load_profile("regulus")
