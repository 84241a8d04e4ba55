import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run, and no example
# fails for running long on a slow or shared host.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
