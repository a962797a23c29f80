"""Fixtures shared across test modules."""

import pytest

from rslogic.toolkit import run_suite, standard_environment


@pytest.fixture(scope="session")
def corpus():
    """The standard environment after one replay of the whole corpus, and its report.

    Tests only read both; a test that changes a machine builds its own
    environment.
    """
    env = standard_environment()
    return env, run_suite(env)
