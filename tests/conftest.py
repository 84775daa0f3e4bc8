from functools import lru_cache

import numpy as np
import pytest

from otb.analysis import Analysis
from otb.arrangement import Arrangement, builtin
from otb.divisors import vanishing_condition_rows
from otb.exact import MPoly, modp_rank, monomials_of_degree
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


def hilbert_burch_psi(arr):
    """The d x (d-1) bidiagonal matrix with entry (i, i) = a_i and
    (i+1, i) = -a_{i+1}."""
    lins = [MPoly.linear_form(f) for f in arr.forms]
    psi = [[MPoly.zero(3)] * (arr.d - 1) for _ in range(arr.d)]
    for j in range(arr.d - 1):
        psi[j][j], psi[j + 1][j] = lins[j], -lins[j + 1]
    return psi


def substitution_rank(arr, j):
    """Rank mod p = 32003 of the images of the degree-j monomials under y_k -> l_k,
    where y^e goes to prod_i a_i^(j - e_i): a lower bound for dim C(A)_j
    that does not use the circuits.  An image is an array whose (a, b)
    entry is its coefficient of x^a y^b z^(deg - a - b)."""
    p = 32003
    rows = []
    for e in monomials_of_degree(arr.d, j):
        img = np.ones((1, 1), dtype=np.int64)
        for form, k in zip(arr.forms, e):
            for _ in range(j - k):
                n = len(img) + 1
                out = np.zeros((n, n), dtype=np.int64)
                out[1:, :-1] += form[0] % p * img
                out[:-1, 1:] += form[1] % p * img
                out[:-1, :-1] += form[2] % p * img
                img = out % p
        rows.append(img.ravel())
    return modp_rank(np.array(rows), p)


def vanishing_order(f, point):
    """ord_p(f) of a nonzero form in (x, y, z): the largest k at which every
    row of `vanishing_condition_rows(p, k, deg f)` annihilates f."""
    coeffs = [f.terms.get(m, 0) for m in monomials_of_degree(3, f.degree())]
    k = 0
    while all(sum(r * c for r, c in zip(row, coeffs)) == 0
              for row in vanishing_condition_rows(point, k + 1, f.degree())):
        k += 1
    return k


@pytest.fixture
def braid():
    return analysis("braid-a3").arrangement


@pytest.fixture
def triangle():
    return Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)], name="triangle")
