"""Shared test settings: a Hypothesis profile that replays the same examples.

Derandomized runs draw the same examples on every run, so a property either
passes or fails for good; no deadline, because a step loop at dim 32 on a
slow host can take longer than Hypothesis's default 200 ms per example.
"""

from hypothesis import settings

settings.register_profile("cavitychain", derandomize=True, deadline=None, database=None)
settings.load_profile("cavitychain")
