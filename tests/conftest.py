"""Tier-1 runs the same hypothesis examples every time.

The profile derives each property test's examples from a hash of the test
itself and keeps no example database, so a failure reproduces on every run
and machine until the test or the hypothesis version changes.

The ``random`` profile draws fresh examples from ``--hypothesis-seed``
instead; ``scripts/property_seeds.py`` runs the property tests under it
for many seeds, outside tier-1.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile("deterministic")
