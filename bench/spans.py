"""Outside-in span recorder for the traced benchmark run.

`Recorder.install()` wraps the public functions and methods listed in
TARGETS.  A module-level function is rebound in every `otb.*` namespace that
holds it (`from .exact import modp_rank` makes `koszul.modp_rank` a second
binding of the same object); a method is replaced on its class.  Each call
appends one span (name, start, end, parent) to flat in-memory arrays; nothing
is aggregated until `summary()`.  The recorder assumes one thread, which the
benchmark guarantees by running otb with OTB_THREADS=1.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute or Class.method, span name, per-call amount or None).
# A span name is `<module>.<public function>`; constructors are named after
# their class, so their call count is the number of objects built.
TARGETS = (
    ("otb.cli", "run", "cli.run", None),
    ("otb.arrangement", "compute_flats", "arrangement.compute_flats", None),
    ("otb.circuits", "enumerate_circuits", "circuits.enumerate_circuits",
     None),
    ("otb.orlik_terao", "OTPresentation.__init__",
     "orlik_terao.OTPresentation", None),
    ("otb.orlik_terao", "OTPresentation.graded_piece",
     "orlik_terao.graded_piece", None),
    ("otb.orlik_terao", "OTPresentation.multiplication_maps",
     "orlik_terao.multiplication_maps", None),
    ("otb.orlik_terao", "substitution_quotient_dim",
     "orlik_terao.substitution_quotient_dim", None),
    ("otb.orlik_terao", "membership", "orlik_terao.membership", None),
    ("otb.exact", "modp_rank", "exact.modp_rank", lambda a, p: a.size),
    ("otb.exact", "SparseReducer.add", "exact.SparseReducer.add", None),
    ("otb.exact", "kernel_basis", "exact.kernel_basis", None),
    ("otb.exact", "rank", "exact.rank", None),
    ("otb.exact", "rref", "exact.rref", None),
    ("otb.koszul", "_Engine.rank_of_differential",
     "koszul.rank_of_differential", None),
    ("otb.koszul", "ReducedEngine.__init__", "koszul.ReducedEngine", None),
    ("otb.resonance", "OS2.__init__", "resonance.OS2", None),
    ("otb.resonance", "OS2.h1_dimension", "resonance.OS2.h1_dimension", None),
    ("otb.resonance", "search_multinets", "resonance.search_multinets", None),
    ("otb.resonance", "verify_multinet", "resonance.verify_multinet", None),
    ("otb.divisors", "h0_fatpoints", "divisors.h0_fatpoints", None),
    ("otb.scroll", "multiplication_matrix", "scroll.multiplication_matrix",
     None),
    ("otb.scroll", "minors_in_ideal", "scroll.minors_in_ideal", None),
)


class Recorder:
    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ok = array("b")        # 1 if the call returned, 0 if it raised
        self.amount = array("q")    # per-call work, e.g. matrix entries
        self._stack = []
        self._undo = []

    def _wrap(self, name_id: int, fn, amount):
        name, start, end, parent = self.name, self.start, self.end, self.parent
        ok, amounts, stack = self.ok, self.amount, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            ok.append(0)
            amounts.append(amount(*args, **kwargs) if amount else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
                ok[idx] = 1
                return out
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        for name_id, (modname, attr, _, amount) in enumerate(TARGETS):
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name_id, orig, amount))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name_id, orig, amount)
            for modname2, mod in list(sys.modules.items()):
                if modname2 != "otb" and not modname2.startswith("otb."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def self_times(self) -> list:
        """Duration of each span minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict:
        """{span name: {"self_s", "calls", "ok", "amount"}} over all spans."""
        out = {n: {"self_s": 0.0, "calls": 0, "ok": 0, "amount": 0}
               for n in self.names}
        for i, own in enumerate(self.self_times()):
            agg = out[self.names[self.name[i]]]
            agg["self_s"] += own
            agg["calls"] += 1
            agg["ok"] += self.ok[i]
            agg["amount"] += self.amount[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist()}, fh)
