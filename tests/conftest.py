"""Test-suite set-up shared by every test module."""
import os

from hypothesis import settings

# CI runs derandomized, so a failure there repeats on a rerun and locally
# (run with CI=true); print_blob prints the @reproduce_failure line for it.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
