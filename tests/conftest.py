"""Test-suite settings: hypothesis draws the same examples on every run.

The explain phase is left out: it spends about half a minute on each failing
property test, so one broken kernel would stall the whole suite.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "deterministic", derandomize=True, database=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("deterministic")
