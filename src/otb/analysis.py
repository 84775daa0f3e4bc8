"""One arrangement and the objects derived from it, each built on first use.

The command line builds one Analysis per invocation and hands it to every
subcommand (and to every section of `report --all`); the tests keep one per
builtin.  So the Orlik-Terao presentation, the degree-two Orlik-Solomon
algebra, the Betti engine and the multinet searches are built once.
"""

from __future__ import annotations

from functools import cached_property

from .arrangement import Arrangement
from .koszul import ReducedEngine
from .orlik_terao import OTPresentation
from .resonance import OS2, search_multinets


class Analysis:
    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self._multinets: dict = {}

    @cached_property
    def pres(self) -> OTPresentation:
        return OTPresentation(self.arrangement)

    @cached_property
    def os2(self) -> OS2:
        return OS2(self.arrangement)

    @cached_property
    def engine(self) -> ReducedEngine:
        """The Betti engine of C(A): the table read off Cohen-Macaulayness
        and the quadric support's own reduction where that support is a
        proper part of A, else the certified Artinian reduction of C(A)."""
        return ReducedEngine(self.pres)

    def multinets(self, k: int, max_weight: int) -> list:
        """`search_multinets(arr, k, max_weight)`, computed once per key."""
        key = (k, max_weight)
        if key not in self._multinets:
            self._multinets[key] = search_multinets(self.arrangement, k,
                                                    max_weight)
        return self._multinets[key]
