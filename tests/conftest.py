"""Fixtures shared by every test module."""

import pytest

from cbcontrol import problem_io


@pytest.fixture(autouse=True)
def _cold_plant_cache():
    """Each test parses its first plant cold: a plant an earlier test left in
    parse_problem's one-entry cache would carry that test's eigen-decomposition
    and PBH decision into this one (a test that makes eig fail would read none)."""
    problem_io._shared_system.cache_clear()
