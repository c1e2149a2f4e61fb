"""The integer representation of field elements and the fixed-point sign
filter: canonical residues built by every path, and filtered signs and
the bracket order of `compare` checked against interval refinement on a
separate copy of the field."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounded_fractions
from thinsections import polynomials as P
from thinsections.bands import Band, BandComplex, BandEnd, SupportArc
from thinsections.errors import DivisionByZero, InvalidSystem
from thinsections.iis import IIS, IntervalPair, system_field
from thinsections.numberfield import (
    FIXED_BITS,
    SIGN_FILTER,
    FieldElement,
    NumberField,
    field_new,
    minimal_field,
    rational_field,
)
from thinsections.serialize import (
    element_to_json,
    poly_to_json,
    value_from_json,
    value_to_json,
)

CUBIC = [1, -4, 0, 1]  # x^3 - 4x + 1, root near 0.2541 in (0, 1)
QUARTIC = [-1, 5, -4, -1, 1]  # (x - 1)(x^3 - 4x + 1)


def _copy(f):
    """A separate field over the same modulus and current interval."""
    return NumberField(f.modulus, f.root_interval, _validated=True)


def _coarse():
    """Isolating interval of width 1/16 only, as field_new leaves it."""
    return field_new(CUBIC, (Fraction(0), Fraction(1)))


FIELDS = {
    "s1": lambda: _copy(system_field("s1")),
    "s2": lambda: _copy(system_field("s2")),
    "coarse": _coarse,
    "quartic": lambda: field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10))),
    "non-monic": lambda: NumberField([-3, 0, 2], (Fraction(1), Fraction(2))),
    "rational modulus": lambda: NumberField(
        [Fraction(-1, 2), 0, 1], (Fraction(1, 2), Fraction(1))),
    "rational": rational_field,
    "degree 1": lambda: minimal_field(P.poly(QUARTIC), (Fraction(9, 10), Fraction(11, 10))),
    "degree 1 non-monic": lambda: NumberField([-1, 3], (Fraction(0), Fraction(1))),
}

coeff = bounded_fractions(9, 27)
coeff_lists = st.lists(coeff, max_size=7)


def _reference_sign(x):
    """Interval refinement alone, on a copy of x's field."""
    return FieldElement(_copy(x.field), x.coeffs)._exact_sign()


# -- representation --------------------------------------------------------------


def _residue(f, c):
    """The residue of P.poly(c) as the Fraction polynomials compute it."""
    c = P.poly(c)
    return P.pmod(c, P.monic(f.modulus)) if P.degree(c) >= f.degree else c


def _check(x, expected):
    """Canonical integers, and coeffs, hash and JSON as the Fraction tuple
    `expected` gives them: a non-constant hashes as (modulus, integer
    numerators, denominator), a constant as the rational it equals."""
    num, den = x._num, x._den
    assert all(type(v) is int for v in num) and type(den) is int
    assert den > 0 and math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    assert x.coeffs == expected
    assert all(type(q) is Fraction for q in x.coeffs)
    f = x.field
    if f.irreducible:
        nums, d = P.integer_form(expected)
        assert hash(x) == hash((f.modulus, tuple(nums), d) if len(expected) > 1 else sum(expected))
    obj = json.loads(json.dumps(element_to_json(x)))
    assert obj["poly"] == poly_to_json(expected)
    # Loading goes through field.element, which reduces.
    v = json.loads(json.dumps(value_to_json(x)))
    assert value_from_json(v, f).coeffs == _residue(f, expected)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fixed_elements_are_canonical(name):
    f = FIELDS[name]()
    _check(FieldElement(f, ()), ())
    _check(f.zero, ())
    _check(f.one, (Fraction(1),))
    _check(f.gen, P.poly([0, 1]) if f.degree > 1 else P.poly([-f.modulus[0] / f.modulus[1]]))
    _check(FieldElement(f, (0, 0, 0)), ())
    _check(f.rational(Fraction(-6, 4)), (Fraction(-3, 2),))


def test_constructor_reduces_a_multiple_of_the_modulus():
    f = NumberField([1, -4, 0, 1], (Fraction(0), Fraction(1, 2)))
    x = FieldElement(f, (1, -4, 0, 1))
    assert x.coeffs == ()
    assert x.is_zero() and x == f.zero
    assert x.sign() == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), coeff_lists, coeff_lists, st.integers(-3, 4))
def test_every_path_gives_the_fraction_residue(name, a, b, n):
    f = FIELDS[name]()
    monic = P.monic(f.modulus)
    # The constructor reduces input of degree >= the field's, as element() does.
    _check(FieldElement(f, a), _residue(f, a))
    x, y = f.element(a), f.element(b)
    ra, rb = _residue(f, a), _residue(f, b)
    _check(x, ra)
    _check(f.rational(b[0] if b else 0), P.poly([b[0] if b else 0]))
    _check(x + y, P.add(ra, rb))
    _check(x - y, P.sub(ra, rb))
    _check(-x, P.neg(ra))
    _check(x * y, P.pmod(P.mul(ra, rb), monic))
    _check(x * 3 + Fraction(1, 2), P.add(P.scale(ra, 3), P.poly([Fraction(1, 2)])))
    inv = None
    if not x.is_zero():
        try:
            inv = x.inverse()
        except DivisionByZero:
            assert not f.irreducible
    if inv is not None:
        assert P.degree(inv.coeffs) < f.degree
        assert P.pmod(P.mul(ra, inv.coeffs), monic) == P.ONE
        _check(inv, inv.coeffs)
    if n >= 0 or inv is not None:
        expected = P.ONE
        base = ra if n >= 0 else inv.coeffs
        for _ in range(abs(n)):
            expected = P.pmod(P.mul(expected, base), monic)
        _check(x ** n, expected)


# -- the sign filter ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["s1", "s2", "coarse"]), coeff_lists, coeff_lists,
       st.one_of(st.none(), st.integers(1, 300)))
def test_filtered_sign_is_the_exact_sign(name, a, b, k):
    f = FIELDS[name]()
    x, y = f.element(a), f.element(b)
    if k is not None:
        x = x - x.approximate(Fraction(1, 2 ** k))
    s = _reference_sign(x)
    assert x.sign() == s
    d = _reference_sign(x - y)
    assert (x < y) == (d < 0)
    assert (x <= y) == (d <= 0)
    assert (x > y) == (d > 0)
    assert (x >= y) == (d >= 0)


@pytest.mark.parametrize("name", ["s1", "s2", "coarse"])
def test_near_zeros_reach_the_exact_path(name):
    f = FIELDS[name]()
    lam = f.gen
    before = dict(SIGN_FILTER)
    for k in range(10, 301, 10):
        for x in (lam, lam * lam - 3 * lam + 1, 7 * lam * lam - Fraction(1, 3)):
            y = x - x.approximate(Fraction(1, 2 ** k))
            assert y.sign() == _reference_sign(y)
            assert (y < 0) == (_reference_sign(y) < 0)
    assert SIGN_FILTER["fallback"] > before["fallback"]
    assert SIGN_FILTER["decided"] > before["decided"]


def test_coarse_bounds_tighten_after_refine():
    f = _coarse()
    lam = f.gen
    scale = 1 << FIXED_BITS
    lin, slack = f.fixed_point((0, 1))
    f.refine(40)
    lin2, slack2 = f.fixed_point((0, 1))
    assert slack2 * 2 ** 30 < slack
    lo, hi = lam.enclosure(Fraction(1, 2 ** 200))
    for c, w in ((lin, slack), (lin2, slack2)):
        assert c - w <= lo * scale and hi * scale <= c + w


def test_coarse_fallback_refines_then_the_filter_decides():
    f = _coarse()
    x = f.gen - Fraction(1, 4)  # lam = 0.2541..., inside the 1/16 interval
    before = dict(SIGN_FILTER)
    assert x.sign() == 1
    assert SIGN_FILTER["fallback"] == before["fallback"] + 1
    assert x.sign() == 1
    assert SIGN_FILTER["fallback"] == before["fallback"] + 1
    assert SIGN_FILTER["decided"] == before["decided"] + 1


# -- the order ---------------------------------------------------------------------

ORDER_FIELDS = ["s1", "s2", "coarse", "quartic", "rational"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDER_FIELDS), coeff_lists, coeff_lists,
       st.one_of(st.none(), st.integers(1, 300)))
def test_compare_is_the_exact_order(name, a, b, k):
    f = FIELDS[name]()
    x, y = f.element(a), f.element(b)
    pairs = [(x, y), (y, x), (x, x), (x, y + x - y)]
    if k is not None:
        r = x.approximate(Fraction(1, 2 ** k))
        near = x - r
        pairs += [(near, f.zero), (f.zero, near), (x, f.rational(r)), (near, y - y),
                  (x, x + Fraction(1, 2 ** k))]
    for u, v in pairs:
        assert u.compare(v) == _reference_sign(u - v)


def test_a_bracket_cached_before_refine_still_orders():
    f = _coarse()
    lam = f.gen
    # lam = 0.2541... against values inside and outside the 1/16 interval
    xs = [lam, lam * lam, 1 - lam, f.rational(Fraction(1, 4)), f.rational(Fraction(1, 2)),
          lam - Fraction(1, 4), lam * lam - lam + Fraction(1, 5)]
    cached = [x._bracket() for x in xs]
    f.refine(40)
    before = dict(SIGN_FILTER)
    for u in xs:
        for v in xs:
            assert u.compare(v) == _reference_sign(u - v)
    # the stale brackets were kept, and some pairs were decided by them
    assert [x._bounds for x in xs] == cached
    assert any(a[1] < b[0] for a in cached for b in cached)
    assert SIGN_FILTER["decided"] > before["decided"]


@pytest.mark.parametrize("name", ORDER_FIELDS)
def test_compare_coerces_rationals(name):
    f = FIELDS[name]()
    x = f.gen * 3 - Fraction(1, 7)
    for q in (0, 1, -2, Fraction(5, 7), Fraction(-1, 3), x.approximate(Fraction(1, 2 ** 250))):
        assert x.compare(q) == x.compare(f.rational(q))
        assert (x < q) == (x.compare(f.rational(q)) < 0)
    with pytest.raises(TypeError):
        x.compare("1")
    with pytest.raises(TypeError):
        x < "1"


@pytest.mark.parametrize("name", ["s1", "coarse", "quartic", "rational"])
def test_equal_residues_compare_without_a_sign(name, monkeypatch):
    f = FIELDS[name]()
    c = (Fraction(1, 3), -2, Fraction(5, 2))
    x, y = f.element(c), f.element(c)

    def no_sign(self):
        raise AssertionError("sign called")

    monkeypatch.setattr(FieldElement, "sign", no_sign)
    assert x is not y
    assert x.compare(y) == 0 and x <= y and not x < y


def _tiny(f):
    """A positive element below 2^-200 whose bracket is not exact."""
    d = f.gen - f.gen.approximate(Fraction(1, 2 ** 200))
    return d if d > 0 else -d


def test_band_audit_catches_a_near_tie():
    # one band on the arc [0, 1]: its ends flush with the arc are accepted,
    # and overshooting either end by eps is not
    f = FIELDS["s1"]()
    eps, w = _tiny(f), f.gen / 4
    arc = SupportArc(f.zero, f.one)

    def band(lo, hi):
        return Band(BandEnd(0, lo, lo + w), BandEnd(0, hi - w, hi), 1)

    BandComplex(f, [arc], [band(f.zero, f.one)])
    for lo, hi in ((-eps, 1 - eps), (eps, 1 + eps)):
        b = band(lo, hi)
        before = dict(SIGN_FILTER)
        with pytest.raises(InvalidSystem):
            BandComplex(f, [arc], [b])
        assert SIGN_FILTER["fallback"] > before["fallback"]


def test_iis_audit_catches_a_near_tie():
    f = FIELDS["s1"]()
    eps, w = _tiny(f), f.gen / 4
    support = (f.zero, f.one)

    def pair(lo, hi):
        return IntervalPair((lo, lo + w), (hi - w, hi))

    IIS(f, support, [pair(f.zero, f.one)])
    for lo, hi in ((-eps, 1 - eps), (eps, 1 + eps)):
        p = pair(lo, hi)
        before = dict(SIGN_FILTER)
        with pytest.raises(InvalidSystem):
            IIS(f, support, [p])
        assert SIGN_FILTER["fallback"] > before["fallback"]
