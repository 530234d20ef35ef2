import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property draws the same examples on every run: no example database, and
# no deadline that a slow machine could fail.  Hypothesis seeds a derandomized
# property from its source, so editing one (its decorators too) changes its examples.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

import corpus  # noqa: E402


@pytest.fixture(scope="session")
def binary_corpus():
    return corpus.binary_fixtures()


@pytest.fixture(scope="session")
def tau_corpus():
    return corpus.tau_fixtures()


@pytest.fixture(scope="session")
def ternary_corpus():
    return corpus.ternary_fixtures()


@pytest.fixture(scope="session")
def rb_corpus():
    return corpus.rb_fixtures()
