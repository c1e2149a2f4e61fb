"""Field arithmetic in Q(lam) with certified signs and enclosures."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from thinsections import polynomials as P
from thinsections.errors import (
    DivisionByZero,
    FieldMismatch,
    NotIsolating,
    NotSquarefree,
)
from thinsections.iis import system_field, system_params
from thinsections.numberfield import (
    FieldElement,
    NumberField,
    common_denominator,
    dot_equals,
    field_new,
    minimal_field,
    rational_field,
)

QUARTIC = [-1, 5, -4, -1, 1]  # x^4 - x^3 - 4x^2 + 5x - 1 = (x-1)(x^3-4x+1)
CUBIC = [1, -4, 0, 1]
CUBIC2 = [-1, 12, 8, 1]  # x^3 + 8x^2 + 12x - 1

LAM1 = 0.2541016883650524
LAM2 = 0.0791188645294786


@pytest.fixture(scope="module")
def f1():
    return minimal_field(P.poly(QUARTIC), (Fraction(1, 5), Fraction(3, 10)))


@pytest.fixture(scope="module")
def f2():
    return minimal_field(P.poly(CUBIC2), (Fraction(0), Fraction(1, 2)))


def test_field_new_accepts_squarefree_reducible():
    f = field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10)))
    assert f.degree == 4
    assert not f.irreducible
    assert abs(float(f.gen) - LAM1) < 1e-12


def test_minimal_field_strips_rational_roots(f1):
    # the quartic is reducible; the working modulus is its cubic factor
    assert f1.modulus == P.poly(CUBIC)
    assert f1.degree == 3
    assert f1.irreducible
    assert abs(float(f1.gen) - LAM1) < 1e-12


def test_second_field_root(f2):
    assert f2.irreducible and f2.degree == 3
    assert abs(float(f2.gen) - LAM2) < 1e-12


def test_field_new_rejections():
    with pytest.raises(NotSquarefree):
        field_new([0, 0, 1], (Fraction(-1), Fraction(1)))  # x^2
    with pytest.raises(NotIsolating):
        field_new([-2, 0, 1], (Fraction(-2), Fraction(2)))  # two roots
    with pytest.raises(NotIsolating):
        field_new([-2, 0, 1], (Fraction(5), Fraction(6)))  # no root
    with pytest.raises(NotIsolating):
        field_new([-1, 1], (Fraction(0), Fraction(1)))  # endpoint is the root


def test_minimal_field_degenerates_to_rational():
    # hint isolates the rational root 1 -> degree-1 field
    f = minimal_field(P.poly(QUARTIC), (Fraction(9, 10), Fraction(11, 10)))
    assert f.degree == 1
    assert float(f.gen) == 1.0


def test_defining_relation(f1, f2):
    lam = f1.gen
    assert (lam ** 3 - 4 * lam + 1).is_zero()
    # the full quartic also vanishes at lam since the cubic divides it
    assert (lam ** 4 - lam ** 3 - 4 * lam ** 2 + 5 * lam - 1).is_zero()
    mu = f2.gen
    assert (mu ** 3 + 8 * mu ** 2 + 12 * mu - 1).is_zero()


def test_reduction_in_quartic_field():
    f = field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10)))
    lam = f.gen
    assert (lam * lam ** 3 - (lam ** 3 + 4 * lam ** 2 - 5 * lam + 1)).is_zero()


def test_zero_test_in_reducible_modulus():
    # residues that vanish at the tracked root but are not the zero
    # polynomial: detected through the gcd with the modulus
    f = field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10)))
    cubic_at_lam = f.element(P.poly(CUBIC))
    assert cubic_at_lam.is_zero()
    assert cubic_at_lam.sign() == 0
    other_factor = f.element(P.poly([-1, 1]))
    assert not other_factor.is_zero()
    assert other_factor.sign() == -1
    # a zero divisor has no inverse in the residue ring
    with pytest.raises(DivisionByZero):
        other_factor.inverse()


def test_sqrt2_field():
    f = field_new([-2, 0, 1], (Fraction(1), Fraction(2)))
    r = f.gen
    assert (r * r - 2).sign() == 0
    assert (r - Fraction(3, 2)).sign() < 0
    assert (r - Fraction(7, 5)).sign() > 0


def test_sign_examples(f1):
    lam = f1.gen
    a = 2 * lam - lam ** 2
    b = lam
    assert (a - b).sign() > 0
    assert f1.zero.sign() == 0
    assert (-a).sign() < 0


def test_approximate_certified(f1):
    lam = f1.gen
    r = lam.approximate(Fraction(1, 10 ** 6))
    assert abs(float(r) - 0.254) < 5e-4
    assert f1.zero.approximate(Fraction(1, 10)) == 0
    norm = 2 * lam - lam ** 2 + lam + (lam ** 2 - 3 * lam + 1)
    a_scaled = (2 * lam - lam ** 2) / norm
    assert abs(float(a_scaled.approximate(Fraction(1, 10 ** 6))) - 0.444) < 5e-4


def test_enclosure_bounds(f1):
    lam = f1.gen
    x = lam ** 2 - 3 * lam + 1  # = 0.3022626029...
    lo, hi = x.enclosure(Fraction(1, 10 ** 12))
    assert hi - lo < Fraction(1, 10 ** 12)
    lo2, hi2 = x.enclosure(Fraction(1, 10 ** 24))
    assert lo <= lo2 <= hi2 <= hi  # nested certified brackets
    assert abs(float((lo + hi) / 2) - 0.3022626029348131) < 1e-12


def test_comparisons_and_ordering(f1):
    lam = f1.gen
    assert lam < 1
    assert lam > Fraction(1, 4)
    assert lam <= lam
    assert not (lam < lam)
    assert lam == f1.gen
    assert lam != f1.zero


def test_field_mismatch(f1, f2):
    with pytest.raises(FieldMismatch):
        f1.gen + f2.gen


def test_field_equality_and_hash(f1):
    g = minimal_field(P.poly(QUARTIC), (Fraction(1, 5), Fraction(3, 10)))
    assert g == f1
    assert hash(f1.gen) == hash(g.gen + 0)
    # fields over the same modulus but different roots differ
    h1 = NumberField(P.poly(CUBIC), (Fraction(0), Fraction(1)))
    h2 = NumberField(P.poly(CUBIC), (Fraction(1), Fraction(2)))
    assert h1 != h2


def test_hash_requires_irreducible():
    f = field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10)))
    with pytest.raises(TypeError):
        hash(f.gen)
    # a reducible field's constants stay unhashable too
    with pytest.raises(TypeError):
        hash(f.one)


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_hash_agrees_with_equality(name):
    f = system_field(name)
    for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 12)):
        x = f.rational(q)
        assert x == q and hash(x) == hash(q)
        assert {x: "v"}.get(q) == "v"
        assert {q: "v"}.get(x) == "v"
    assert {f.one: "v"}.get(1) == "v"
    # equal elements built along different paths hash alike
    assert hash(f.gen * f.gen - f.gen * f.gen) == hash(f.zero) == hash(0)
    assert hash((f.gen + 1) - f.gen) == hash(1)
    q = rational_field()
    assert {q.rational(Fraction(3, 7)): "v"}.get(Fraction(3, 7)) == "v"


def test_constants_of_two_fields_meet_as_rationals():
    f1, f2 = system_field("s1"), system_field("s2")
    assert len({f1.one, f2.one}) == 1
    assert f1.one == f2.one == 1 and hash(f1.one) == hash(f2.one)
    half = Fraction(1, 2)
    assert {f1.rational(half): "v"}.get(f2.rational(half)) == "v"
    assert f1.rational(half) != f2.one
    # a constant meets a non-constant of another field from either side
    assert f1.gen != f2.one and f2.one != f1.gen
    assert f2.one.compare(f1.gen) == 1 == -f1.gen.compare(f2.one)
    assert f2.one > f1.gen and not f2.one < f1.gen
    assert (f2.one - f1.gen) == 1 - f1.gen and (f2.one - f1.gen).field is f1
    assert (f1.gen * f2.rational(half)).field is f1


def test_non_constants_of_two_fields_still_raise():
    f1, f2 = system_field("s1"), system_field("s2")
    for op in (
        lambda: f1.gen == f2.gen,
        lambda: f1.gen + 1 < f2.gen,
        lambda: f1.gen.compare(f2.gen * 2),
        lambda: f1.one - f2.gen + f1.gen,
    ):
        with pytest.raises(FieldMismatch):
            op()


def test_operands_off_the_same_field_object_keep_their_results(f1, f2):
    # only an element over the very same field object skips coercion; an
    # equal field's elements, another field's constants and ints or
    # Fractions give what the same values over f1 give
    twin = minimal_field(P.poly(QUARTIC), (Fraction(1, 5), Fraction(3, 10)))
    assert twin is not f1 and twin == f1
    x = f1.gen + Fraction(1, 3)
    y, y_twin = f1.gen * f1.gen - 2, twin.gen * twin.gen - 2
    c, c_other = f1.rational(Fraction(-5, 2)), f2.rational(Fraction(-5, 2))
    ops = (operator.add, operator.sub, operator.mul, operator.truediv,
           operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
    pairs = [((x, y_twin), (x, y)), ((y_twin, x), (y, x)),
             ((x, c_other), (x, c)), ((c_other, x), (c, x))]
    for q in (3, Fraction(-7, 4)):
        pairs += [((x, q), (x, f1.rational(q))), ((q, x), (f1.rational(q), x))]
    for op in ops:
        for got, want in pairs:
            assert op(*got) == op(*want)
    assert (x + c_other).field is f1 and (c_other * x).field is f1
    assert (x - y_twin).field is f1 and (y_twin - x).field is twin
    assert x.compare(y_twin) == x.compare(y) and x.compare(3) == x.compare(f1.rational(3))
    for op in ops:
        with pytest.raises(FieldMismatch):
            op(x, f2.gen)


def test_rational_field_embeds():
    q = rational_field()
    x = q.rational(Fraction(3, 7))
    y = q.rational(Fraction(2, 7))
    assert float(x + y) == pytest.approx(5 / 7)
    assert (x - y).sign() > 0
    assert (x / y - q.rational(Fraction(3, 2))).is_zero()


coeff = st.fractions(min_value=-9, max_value=9, max_denominator=27)
triple = st.tuples(
    st.lists(coeff, min_size=1, max_size=3),
    st.lists(coeff, min_size=1, max_size=3),
    st.lists(coeff, min_size=1, max_size=3),
)

_F = minimal_field(P.poly(QUARTIC), (Fraction(1, 5), Fraction(3, 10)))


@settings(max_examples=1000)
@given(triple)
def test_field_axioms_randomized(t):
    x, y, z = (_F.element(c) for c in t)
    assert ((x + y) + z - (x + (y + z))).is_zero()
    assert ((x * y) * z - (x * (y * z))).is_zero()
    assert (x * (y + z) - (x * y + x * z)).is_zero()
    assert (x + (-x)).is_zero()
    if not y.is_zero():
        assert ((x * y) / y - x).is_zero()
        assert (y * y.inverse() - _F.one).is_zero()


@settings(max_examples=300)
@given(triple)
def test_sign_compatible_with_arithmetic(t):
    x, y, _ = (_F.element(c) for c in t)
    assume(x.sign() > 0 and y.sign() > 0)
    assert (x * y).sign() > 0
    assert (x + y).sign() > 0


@settings(max_examples=200)
@given(st.lists(coeff, min_size=1, max_size=3))
def test_approximate_consistency(c):
    x = _F.element(c)
    eps = Fraction(1, 1000)
    r1 = x.approximate(eps)
    r2 = x.approximate(eps / 10)
    assert abs(r1 - r2) < eps + eps / 10


@settings(max_examples=200)
@given(st.lists(coeff, min_size=1, max_size=3))
def test_float_matches_enclosure(c):
    x = _F.element(c)
    lo, hi = x.enclosure(Fraction(1, 2 ** 40))
    assert float(lo) - 1e-9 <= float(x) <= float(hi) + 1e-9


def _reference_inverse(x):
    """Extended Euclid on Fraction polynomials."""
    if x.is_zero():
        raise DivisionByZero("zero element")
    m = x.field._monic
    r0, r1 = x.coeffs, m
    s0, s1 = P.ONE, P.ZERO
    while not P.is_zero(r1):
        q, r = P.divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, P.sub(s0, P.mul(q, s1))
    if P.degree(r0) > 0:
        raise DivisionByZero("element shares a factor with the modulus")
    inv = P.scale(s0, 1 / r0[0])
    return FieldElement(x.field, P.pmod(inv, m))


_INVERSE_FIELDS = {
    "s1": system_field("s1"),
    "s2": system_field("s2"),
    "x^3 - 4x + 1": _F,
    "rational": rational_field(),
    "reducible quartic": field_new(QUARTIC, (Fraction(1, 5), Fraction(3, 10))),
    # a modulus that is not monic: 3x^2 - 1
    "3x^2 - 1": field_new([-1, 0, 3], (Fraction(0), Fraction(1))),
}


@settings(max_examples=300)
@given(st.sampled_from(sorted(_INVERSE_FIELDS)), st.lists(coeff, min_size=0, max_size=5))
def test_inverse_matches_extended_euclid(name, c):
    x = _INVERSE_FIELDS[name].element(c)
    try:
        ref = _reference_inverse(x)
    except DivisionByZero as err:
        with pytest.raises(DivisionByZero) as got:
            x.inverse()
        assert str(got.value).split(";")[0] == str(err)
        return
    got = x.inverse()
    assert (got._num, got._den) == (ref._num, ref._den)
    assert (x * got - 1).is_zero()


@pytest.mark.parametrize("cofactor", [[1], [2, -1], [0, 3], [Fraction(1, 3), 0, 5]])
def test_inverse_of_a_factor_of_a_reducible_modulus_raises(cofactor):
    f = _INVERSE_FIELDS["reducible quartic"]
    # (x - 1) times a unit-free cofactor: nonzero at lam, shares x - 1
    x = f.element(P.mul(P.poly([-1, 1]), P.poly(cofactor)))
    assert not x.is_zero()
    with pytest.raises(DivisionByZero, match="shares a factor with the modulus"):
        x.inverse()
    with pytest.raises(DivisionByZero, match="zero element"):
        f.element(P.mul(P.poly(CUBIC), P.poly(cofactor))).inverse()


def test_float_takes_one_interval_evaluation_on_a_refined_field(monkeypatch):
    # float() and enclosure() evaluate through the module attribute
    # polynomials.evaluate_interval, once, on a field already refined
    # below 2^-128, and refine nothing
    calls = []
    evaluate_interval, refine = P.evaluate_interval, NumberField.refine

    def counted_evaluate(coeffs, lo, hi):
        calls.append("evaluate_interval")
        return evaluate_interval(coeffs, lo, hi)

    def counted_refine(self, steps=1):
        calls.append("refine")
        return refine(self, steps)

    monkeypatch.setattr(P, "evaluate_interval", counted_evaluate)
    monkeypatch.setattr(NumberField, "refine", counted_refine)
    for name in ("s1", "s2"):
        f = system_field(name)
        lo, hi = f.root_interval
        assert hi - lo < Fraction(1, 2 ** 128)
        for x in (f.gen, f.gen ** 2 - 3, *system_params(name)):
            calls.clear()
            float(x)
            assert calls == ["evaluate_interval"]
            calls.clear()
            x.enclosure(Fraction(1, 2 ** 56))
            assert calls == ["evaluate_interval"]


@pytest.mark.parametrize("name", ["s1", "s2", "rational", "3x^2 - 1"])
def test_float_of_a_rational_is_the_enclosure_midpoint(name, monkeypatch):
    # a constant converts by one int division, with no interval
    # evaluation, to the float the enclosure path gives
    f = _INVERSE_FIELDS[name]
    values = [Fraction(0), Fraction(1, 5), Fraction(-7, 3), Fraction(-1, 4), Fraction(10 ** 40 + 1),
              Fraction(-(3 ** 500), 2 ** 300 + 1), Fraction(1, 7 * 10 ** 300), Fraction(2 ** 1023)]
    xs = [f.rational(q) for q in values]
    mid = []
    for x in xs:
        lo, hi = x.enclosure(Fraction(1, 2 ** 56))
        mid.append((lo.numerator * hi.denominator + hi.numerator * lo.denominator)
                   / (2 * lo.denominator * hi.denominator))
    calls = []
    monkeypatch.setattr(P, "evaluate_interval", lambda *args: calls.append(args))
    got = [float(x) for x in xs]
    assert calls == []
    assert got == mid == [float(q) for q in values]
    assert all(type(v) is float for v in got)


# -- integer rows against exact values -----------------------------------------------


def test_dot_equals_over_a_reducible_modulus_decides_by_value():
    # over (t - 1)(t^2 - 2) with the root sqrt 2, the residue t^2 - 2 is not
    # the zero polynomial but its value is 0: the row is accepted
    f = field_new(P.mul(P.poly([-1, 1]), P.poly([-2, 0, 1])), (Fraction(13, 10), Fraction(3, 2)))
    assert not f.irreducible
    r = f.gen
    common = common_denominator([r * r, r, f.rational(Fraction(1, 3))])
    assert dot_equals([1, 0, 0], common, f.rational(2))
    assert dot_equals([1, 0, 3], common, f.rational(3))
    assert dot_equals([2, -1, 0], common, 4 - r)
    assert not dot_equals([1, 1, 0], common, f.rational(2))
    assert not dot_equals([1, 0, 0], common, f.rational(1))


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_dot_equals_reads_every_coefficient(name):
    # a target off by q lam^k, for each power k below the degree, is refused
    f = system_field(name)
    values = list(system_params(name))
    row = [3, -1, 0, 2, 5][: len(values)]
    exact = sum((c * v for c, v in zip(row, values)), f.zero)
    common = common_denominator(values)
    assert dot_equals(row, common, exact)
    for k in range(f.degree):
        for q in (1, Fraction(-1, 6)):
            assert not dot_equals(row, common, exact + q * f.gen ** k)
