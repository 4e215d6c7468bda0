"""Oracles shared by the test files.

``gaussrat_route`` evaluates Scalars apart from :meth:`Scalar.at
<superkon.exactnum.Scalar.at>`, the library's integer substitution: a
GaussRat/Fraction loop over the terms, and the least common denominator of
the values it returns.
"""

from fractions import Fraction
from math import lcm

import pytest

from superkon.exactnum import GaussRat


def fraction_eval(s, assignment: dict) -> GaussRat:
    """The value of Scalar ``s`` at ``assignment``, in GaussRat arithmetic."""
    vals = {}
    for name, v in assignment.items():
        if isinstance(v, str):
            v = GaussRat.parse(v)
        elif isinstance(v, (int, Fraction)):
            v = GaussRat(v)
        vals[name] = v
    total = GaussRat(0)
    for e, (r, m) in s.terms.items():
        term = GaussRat(Fraction(r, s.den), Fraction(m, s.den))
        for name, k in zip(s.params, e):
            if k:
                term = term * vals[name] ** k
        total = total + term
    return total


def clear_denominators(gaussrats) -> tuple:
    """``(den, pairs)``: the least common denominator of the GaussRats and
    their integer pairs ``(re*den, im*den)``."""
    den = 1
    for g in gaussrats:
        den = lcm(den, g.re.denominator, g.im.denominator)
    return den, [(int(g.re * den), int(g.im * den)) for g in gaussrats]


@pytest.fixture
def gaussrat_route():
    return fraction_eval, clear_denominators
