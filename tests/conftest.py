"""Hypothesis profiles: ``ci`` (loaded by default) draws the same examples on every
run, so the tier-1 gate gives the same answer twice; ``fuzz`` draws new ones
(``pytest --hypothesis-profile=fuzz --hypothesis-seed=N`` replays a fuzz run)."""

from hypothesis import settings

settings.register_profile("ci", settings.get_profile("default"), derandomize=True, database=None)
settings.register_profile("fuzz", settings.get_profile("default"), print_blob=True)
settings.load_profile("ci")
