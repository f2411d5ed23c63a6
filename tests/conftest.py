"""Test-suite settings: hypothesis runs derandomized, so that every run of
the suite draws the same examples and a failure reproduces as it is."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
