from functools import lru_cache

import pytest

from otb.analysis import Analysis
from otb.arrangement import Arrangement, builtin
from otb.koszul import FullEngine

BUILTINS = ("braid-a3", "ex-2-4", "9_3_1", "9_3_2", "b3")


@lru_cache(maxsize=None)
def analysis(name):
    """The shared Analysis of a builtin arrangement."""
    return Analysis(builtin(name))


@lru_cache(maxsize=None)
def oracle(name):
    """The full Koszul engine of a builtin: the reference for the Artinian
    reduction that every command runs."""
    return FullEngine(analysis(name).pres)


@pytest.fixture
def braid():
    return analysis("braid-a3").arrangement


@pytest.fixture
def triangle():
    return Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)], name="triangle")
