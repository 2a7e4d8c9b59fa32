"""Test-suite set-up shared by every test module."""
import collections
import os
import sys

import pytest
from hypothesis import settings

# CI runs derandomized, so a failure there repeats on a rerun and locally
# (run with CI=true); print_blob prints the @reproduce_failure line for it.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def callers(monkeypatch):
    """``callers(owner, name)``: a Counter of the functions calling ``owner.name``, by name.

    Each call is credited to the nearest caller outside ``framelab.hilbert``,
    so a primitive reached through ``spectral_bounds`` counts for the function
    that asked for the bounds. A function kept by ``hilbert.per_family``
    calls its primitives only when it computes, so these counts count
    computations, not calls of the memoized entry points.
    """
    def spy(owner, name):
        counts = collections.Counter()
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == "framelab.hilbert":
                frame = frame.f_back
            counts[frame.f_code.co_name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return counts

    return spy
