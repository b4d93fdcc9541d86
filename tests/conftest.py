"""Test-suite settings: one deterministic hypothesis profile, with no example
database, so every run draws the same examples.  Hypothesis also caches the
constants it reads from source files; that cache goes to a temporary
directory removed at exit, so a run leaves no `.hypothesis/` behind."""
import tempfile

from hypothesis import configuration, settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None,
                          max_examples=10)
settings.load_profile("tier1")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    configuration.set_hypothesis_home_dir(storage.name)
