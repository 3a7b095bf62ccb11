import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# the same examples on every run, and no per-example time limit on a slow host
settings.register_profile("midbox", derandomize=True, deadline=None)
settings.load_profile("midbox")
