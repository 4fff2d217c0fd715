"""Hypothesis profiles for the test suite.

The default profile is Hypothesis's own.  `HYPOTHESIS_PROFILE=no-shrink`
selects a profile without the shrink phase: shrinking one failing example
with 80-bit parts in `test_kernels.py` takes minutes, which a mutation check
of the kernels, where failures are expected, does not need.
"""

import os

from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])

if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
