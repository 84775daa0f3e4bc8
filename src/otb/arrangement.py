"""Central line arrangements in the projective plane.

An arrangement is an ordered list of defining linear forms in (x, y, z),
normalized to primitive integer vectors with positive leading entry.  From
the forms we compute the rank-two flats (intersection points with their
incidence sets and Mobius values).  The flats fix the rest of the lattice:
the Poincare polynomial of the complement of the central cone in C^3 is
read off d and the sum of the Mobius values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import primitive_vector, rank


class ArrangementError(ValueError):
    pass


BUILTIN_FORMS = {
    # A3 braid arrangement, projected from the SL(4) reflection planes.
    "braid-a3": [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (1, -1, 0), (1, 0, -1), (0, 1, -1)],
    # The two 9_3 configurations of Hilbert--Cohn-Vossen.
    "9_3_1": [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, -1, 0), (0, 1, -1), (1, -1, -1),
              (2, 1, 1), (2, 1, -1), (2, -5, 1)],
    "9_3_2": [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 0), (0, 1, 1), (1, 0, 3),
              (1, 2, 1), (1, 2, 3), (2, 3, 3)],
    # B3 reflection arrangement.
    "b3": [(1, 0, 0), (0, 1, 0), (0, 0, 1),
           (1, -1, 0), (1, 1, 0), (1, 0, -1),
           (1, 0, 1), (0, 1, -1), (0, 1, 1)],
    # Four planes with a single dependency.
    "ex-2-4": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
}


@dataclass(frozen=True)
class FlatPoint:
    """A rank-two flat: a point where at least two lines meet."""

    point: tuple          # primitive integer representative
    lines: tuple          # sorted 0-based indices of incident lines

    @property
    def mu(self) -> int:
        return len(self.lines) - 1


@dataclass(frozen=True)
class PoincarePoly:
    """P(M, t) of the central cone in C^3; degree three."""

    coefficients: tuple   # (1, d, sum mu, sum mu - d + 1)

    def projective_coefficients(self) -> tuple:
        """Coefficients of P(M,t)/(1+t), the projective complement.  The
        only constructor, `poincare_polynomial`, gives (1, d, s, s - d + 1),
        and (1 + t)(1 + (d-1) t + (s-d+1) t^2) is exactly that, so the
        quotient is (1, d - 1, s - d + 1) with no remainder."""
        _, d, _, top = self.coefficients
        return (1, d - 1, top)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%dt" % c if c != 1 else "t")
            else:
                parts.append("%dt^%d" % (c, k) if c != 1 else "t^%d" % k)
        return "+".join(parts) if parts else "0"


class Arrangement:
    """d >= 3 pairwise distinct lines whose forms span the dual space."""

    def __init__(self, forms, name=None):
        if any(all(c == 0 for c in f) for f in forms):
            raise ArrangementError("a form is zero")
        normalized = [primitive_vector(f) for f in forms]
        for i, f in enumerate(normalized):
            if max(abs(v) for v in f).bit_length() > MAX_FORM_BITS:
                raise ArrangementError(
                    "form %d: an integer coefficient has more than %d bits "
                    "after clearing denominators" % (i + 1, MAX_FORM_BITS))
        if len(normalized) < 3:
            raise ArrangementError("need at least 3 lines")
        seen = {}
        for i, f in enumerate(normalized):
            if f in seen:
                raise ArrangementError(
                    "duplicate line: forms %d and %d are proportional"
                    % (seen[f] + 1, i + 1))
            seen[f] = i
        if rank(normalized) < 3:
            raise ArrangementError("non-essential arrangement: forms do not "
                                   "span the dual space")
        self.forms = normalized
        self.name = name
        self.d = len(normalized)
        self._flats = None

    def __repr__(self):
        label = self.name or "?"
        return "Arrangement(%s, d=%d)" % (label, self.d)

    @property
    def flats(self):
        if self._flats is None:
            self._flats = compute_flats(self)
        return self._flats

    def sum_mu(self) -> int:
        return sum(f.mu for f in self.flats)


def builtin(name: str) -> Arrangement:
    if name not in BUILTIN_FORMS:
        raise ArrangementError("unknown builtin %r (have: %s)"
                               % (name, ", ".join(sorted(BUILTIN_FORMS))))
    return Arrangement(BUILTIN_FORMS[name], name=name)


def parse_arrangement(source: str) -> Arrangement:
    """Builtin name, or the JSON file format of the command line tool:
    {"name": str, "forms": [[q, q, q], ...]} with entries integers or
    "p/q" strings."""
    if source in BUILTIN_FORMS:
        return builtin(source)
    try:
        data = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ArrangementError("not a builtin name and not valid JSON: %s" % e)
    if not isinstance(data, dict) or "forms" not in data:
        raise ArrangementError('arrangement JSON needs a "forms" key')
    if not isinstance(data["forms"], list):
        raise ArrangementError('"forms" must be a list of forms')
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ArrangementError('"name" must be a string')
    forms = []
    for row in data["forms"]:
        if not isinstance(row, list) or len(row) != 3:
            raise ArrangementError("each form needs exactly 3 coefficients, "
                                   "got %r" % (row,))
        try:
            forms.append([_coefficient(str(v)) for v in row])
        except (ValueError, ZeroDivisionError) as e:
            raise ArrangementError("malformed rational %r: %s" % (row, e))
    return Arrangement(forms, name=name)


# Fraction("1e1000000") builds a million-digit integer from a few bytes of
# input; every later step would then stall on it.
MAX_EXPONENT = 1000

# Clearing the denominators of a form multiplies them.  Past this many bits
# in a normalized form, a 3 x 3 minor of the forms (a circuit coefficient)
# could exceed Python's 4300-digit limit for printing an integer.
MAX_FORM_BITS = 4096


def _coefficient(text: str) -> Fraction:
    """The rational written in `text`, with any decimal exponent checked
    against MAX_EXPONENT before the value is built."""
    _, e, exponent = text.lower().partition("e")
    try:
        too_big = bool(e) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        too_big = False       # no exponent; Fraction names what is wrong
    if too_big:
        raise ValueError("exponent beyond +-%d" % MAX_EXPONENT)
    return Fraction(text)


def cross(a, b):
    """The cross product a x b of two vectors of Q^3."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def compute_flats(arr: Arrangement) -> list:
    """All pairwise intersection points, deduplicated, with full incidence
    sets, sorted by canonical point representative.  The pairs alone give
    the incidence: a line through a flat p meets some other line there,
    and that pair adds it to `points[p]`."""
    points = {}
    for i in range(arr.d):
        for j in range(i + 1, arr.d):
            p = primitive_vector(cross(arr.forms[i], arr.forms[j]))
            points.setdefault(p, set()).update((i, j))
    return [FlatPoint(point=p, lines=tuple(sorted(points[p])))
            for p in sorted(points)]


def poincare_polynomial(arr: Arrangement) -> PoincarePoly:
    """P(M,t) = sum over the flats X of |mu(0, X)| t^rank(X).  The lattice
    has rank 3: mu is -1 on each line, mu(X) on each rank-two flat, and the
    values sum to zero below the center, so P(M,t) = 1 + d t + (sum mu) t^2
    + (sum mu - d + 1) t^3."""
    d, s = arr.d, arr.sum_mu()
    return PoincarePoly(coefficients=(1, d, s, s - d + 1))
