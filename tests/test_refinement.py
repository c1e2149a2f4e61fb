"""The integer bisection kernel and the level search against loop references.

The references below are the one-step Fraction bisection loops the kernel
replaced: `NumberField.refine`, `refine_below`, `polynomials.refine_root`,
`FieldElement.enclosure` and `FieldElement._exact_sign`, each refining one
step and evaluating after every step.  The kernel and the level search
must leave the same intervals and return the same values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thinsections import polynomials as P
from thinsections.errors import AuditError
from thinsections.iis import system_field
from thinsections.linalg import char_poly, perron_root_interval
from thinsections.numberfield import (
    _REFINE_CAP,
    FieldElement,
    NumberField,
    field_new,
    rational_field,
)

QUARTIC = [-1, 5, -4, -1, 1]  # (x - 1)(x^3 - 4x + 1)
CUBIC = [1, -4, 0, 1]


def _copy(f):
    return NumberField(f.modulus, f.root_interval, _validated=True)


FIELDS = {
    "s1": lambda: _copy(system_field("s1")),
    "s2": lambda: _copy(system_field("s2")),
    # the 1/160-wide interval of tests/test_iis.py::test_chart_refines_a_coarse_field
    "coarse s1": lambda: field_new(system_field("s1").modulus, (Fraction(1, 5), Fraction(3, 10))),
    "quartic": lambda: field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10))),
    # x over (-1, 1): the first midpoint is the root
    "rational": rational_field,
}


# -- the parent's one-step loops ----------------------------------------------


def _reference_refine(f, lo, hi, steps=1):
    """NumberField.refine, one Fraction midpoint per step."""
    if lo == hi:
        return lo, hi
    flo = P.evaluate(f._monic, lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = P.evaluate(f._monic, mid)
        if fm == 0:
            lo = hi = mid
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def _reference_refine_below(f, lo, hi, width):
    while hi - lo >= width:
        lo, hi = _reference_refine(f, lo, hi)
    return lo, hi


def _reference_refine_root(p, lo, hi, width):
    if lo == hi:
        return lo, hi
    flo = P.evaluate(p, lo)
    fhi = P.evaluate(p, hi)
    assert flo != 0 and fhi != 0 and (flo > 0) != (fhi > 0)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        fm = P.evaluate(p, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi


def _reference_enclosure(x, width):
    """(value interval, field interval left) of FieldElement.enclosure."""
    lo, hi = x.field.root_interval
    for _ in range(_REFINE_CAP):
        vlo, vhi = P.evaluate_interval(x.coeffs, lo, hi)
        if vhi - vlo < width:
            return (vlo, vhi), (lo, hi)
        lo, hi = _reference_refine(x.field, lo, hi)
    raise AuditError("enclosure refinement did not converge")


def _reference_exact_sign(x):
    """(sign, field interval left) of FieldElement._exact_sign."""
    lo, hi = x.field.root_interval
    if x.is_zero():
        return 0, (lo, hi)
    for _ in range(_REFINE_CAP):
        vlo, vhi = P.evaluate_interval(x.coeffs, lo, hi)
        if vlo > 0:
            return 1, (lo, hi)
        if vhi < 0:
            return -1, (lo, hi)
        lo, hi = _reference_refine(x.field, lo, hi)
    raise AuditError("sign refinement did not converge")


# -- checks --------------------------------------------------------------------

widths = st.builds(lambda num, bits: Fraction(num, 2 ** bits),
                   st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=0, max_value=420))
coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=27), max_size=5)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 7, 40, 300])
def test_refine_matches_the_loop(name, steps):
    f = FIELDS[name]()
    want = _reference_refine(f, *f.root_interval, steps)
    f.refine(steps)
    assert f.root_interval == want
    assert all(type(v) is Fraction for v in f.root_interval)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), widths)
def test_refine_below_matches_the_loop(name, width):
    f = FIELDS[name]()
    want = _reference_refine_below(f, *f.root_interval, width)
    f.refine_below(width)
    assert f.root_interval == want


def test_rational_root_is_hit_at_the_first_midpoint():
    f = rational_field()
    f.refine_below(Fraction(1, 2 ** 64))
    assert f.root_interval == (0, 0)
    assert float(f.gen + 3) == 3.0


def _isolated():
    """(squarefree polynomial, isolating interval) of every real root of
    the cubic, the quartic and the characteristic polynomial of a
    nonnegative matrix."""
    m = ((0, 2, 1, 2), (0, 1, 0, 0), (2, 0, 4, 1), (1, 2, 4, 2))
    out = []
    for p in (P.poly(CUBIC), P.poly(QUARTIC), char_poly(m)):
        q = P.squarefree_part(p)
        out += [(q, iv) for iv in P.isolate_real_roots(p) if iv[0] != iv[1]]
    return out


ISOLATED = _isolated()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(ISOLATED))), widths)
def test_refine_root_matches_the_loop(k, width):
    q, (lo, hi) = ISOLATED[k]
    assert P.refine_root(q, lo, hi, width) == _reference_refine_root(q, lo, hi, width)


def test_perron_root_interval_matches_the_loop():
    m = ((0, 2, 1, 2), (0, 1, 0, 0), (2, 0, 4, 1), (1, 2, 4, 2))
    cp = char_poly(m)
    lo, hi = P.isolate_real_roots(cp)[-1]
    eps = Fraction(1, 10 ** 9)
    assert perron_root_interval(m, eps) == _reference_refine_root(P.squarefree_part(cp), lo, hi, eps)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), coeffs, widths, st.integers(min_value=0, max_value=3))
def test_enclosure_and_sign_match_the_loops(name, c, width, shift):
    # elements scaled by 2^(100 shift) need about 100 shift more levels
    f = FIELDS[name]()
    x = FieldElement(f, c) * 2 ** (100 * shift)
    saved = f.root_interval
    want, interval = _reference_enclosure(x, width)
    assert x.enclosure(width) == want
    assert f.root_interval == interval

    f._restore(saved)
    sign, interval = _reference_exact_sign(x)
    assert x._exact_sign() == sign
    assert f.root_interval == interval

    f._restore(saved)
    (vlo, vhi), interval = _reference_enclosure(x, Fraction(1, 2 ** 56))
    assert float(x) == float((vlo + vhi) / 2)
    assert f.root_interval == interval


def test_refinement_past_the_cap_raises_at_once(monkeypatch):
    # 10^7 steps would be needed; the count is taken from the width and
    # refused before a single bisection step is run
    f = FIELDS["coarse s1"]()
    before = f.root_interval

    def no_bisection(*args):
        raise AssertionError("bisected past the cap")

    monkeypatch.setattr(P, "bisect", no_bisection)
    with pytest.raises(AuditError):
        f.refine_below(Fraction(1, 2 ** 10 ** 7))
    assert f.root_interval == before
