"""Suite-wide test settings.

Hypothesis draws its examples from a seed derived from each test, so two
runs of the suite test the same inputs; every test keeps its own
max_examples and deadline.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
