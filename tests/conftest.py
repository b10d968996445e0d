"""Shared test settings."""

from hypothesis import settings

# Property tests run the same examples on every run (reproducible failures),
# and without a per-example deadline, which a slow or busy host would trip.
settings.register_profile("repo", deadline=None, derandomize=True)
settings.load_profile("repo")
