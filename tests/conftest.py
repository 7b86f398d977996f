"""Checks shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    """A sweep joins every helper it starts, whether it returns or raises."""
    yield
    assert multiprocessing.active_children() == []
