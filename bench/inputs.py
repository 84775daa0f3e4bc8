"""Seeded arrangement inputs: a builtin plus extra lines in general position.

Each extra line has integer coefficients drawn from [-4, 4].  A draw is
rejected when `otb.arrangement.parse_arrangement` rejects the result, or when
the line passes through an intersection point of the lines already present;
so every seed gives the same intersection lattice (the builtin's plus only
double points), and seeds differ only in coefficients.
"""

from __future__ import annotations

import json
import random

COEFF_RANGE = 4
MAX_DRAWS = 1000


def extended_forms(base_forms, extra: int, rng: random.Random) -> list:
    """base_forms plus `extra` generic lines, each validated through the
    CLI's arrangement parser."""
    from otb.arrangement import parse_arrangement
    forms = [list(f) for f in base_forms]
    for _ in range(extra):
        for _ in range(MAX_DRAWS):
            cand = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(3)]
            try:
                arr = parse_arrangement(json.dumps({"forms": forms + [cand]}))
            except ValueError:
                continue
            if all(f.mu == 1 for f in arr.flats if len(forms) in f.lines):
                forms.append(cand)
                break
        else:
            raise RuntimeError("no generic line found in %d draws" % MAX_DRAWS)
    return forms


def arrangement_file(path, name: str, forms) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "forms": forms}, fh)
