"""Hypothesis profiles for the suite.

Tier-1 runs every hypothesis test under `derandomized`: each test draws its
examples from a seed fixed by the test itself and keeps no example database,
so two runs at one commit run the same examples and give the same outcome.
A test's own @settings (max_examples, deadline) still apply.

`explore` draws fresh examples from the run's seed and prints each failure
with a @reproduce_failure blob; tools/explore.py runs the hypothesis tests
under it with fresh seeds.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile("derandomized")
