"""Exact univariate polynomial layer: arithmetic, Sturm chains, root isolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thinsections import polynomials as P

# x^4 - x^3 - 4x^2 + 5x - 1 and its factors (x - 1)(x^3 - 4x + 1)
QUARTIC = P.poly([-1, 5, -4, -1, 1])
CUBIC = P.poly([1, -4, 0, 1])
LINEAR = P.poly([-1, 1])

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
polys = st.lists(small_fracs, min_size=0, max_size=6).map(P.poly)


def test_poly_normalizes_leading_zeros():
    assert P.poly([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert P.poly([0, 0]) == ()
    assert P.degree(()) == -1
    assert P.is_zero(P.poly([0]))


def test_mul_divmod_roundtrip_explicit():
    q, r = P.divmod_poly(QUARTIC, LINEAR)
    assert r == ()
    assert q == CUBIC
    assert P.mul(LINEAR, CUBIC) == QUARTIC


@given(polys, polys)
def test_divmod_identity(a, b):
    if P.is_zero(b):
        return
    q, r = P.divmod_poly(a, b)
    assert P.add(P.mul(q, b), r) == a
    assert P.degree(r) < P.degree(b)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert P.mul(a, P.add(b, c)) == P.add(P.mul(a, b), P.mul(a, c))
    assert P.mul(P.mul(a, b), c) == P.mul(a, P.mul(b, c))
    assert P.add(a, P.neg(a)) == ()


@given(polys, polys)
def test_gcd_divides_both(a, b):
    g = P.gcd(a, b)
    if P.is_zero(g):
        assert P.is_zero(a) and P.is_zero(b)
        return
    assert P.is_zero(P.divmod_poly(a, g)[1])
    assert P.is_zero(P.divmod_poly(b, g)[1])


def test_squarefree_detection():
    assert P.is_squarefree(QUARTIC)
    assert P.is_squarefree(CUBIC)
    x2 = P.poly([0, 0, 1])
    assert not P.is_squarefree(x2)
    # x^2 (x-1) -> squarefree part x(x-1), up to a constant
    p = P.mul(x2, LINEAR)
    sf = P.monic(P.squarefree_part(p))
    assert sf == P.monic(P.mul(P.poly([0, 1]), LINEAR))


def test_sturm_root_counts():
    chain = P.sturm_chain(QUARTIC)
    # roots: -2.1149, 0.2541, 1, 1.8608
    assert P.count_roots(chain, Fraction(-3), Fraction(3)) == 4
    assert P.count_roots(chain, Fraction(0), Fraction(1)) == 2
    assert P.count_roots(chain, Fraction(0), Fraction(1, 2)) == 1
    assert P.count_roots(chain, Fraction(5), Fraction(6)) == 0


def test_isolate_real_roots_quartic():
    boxes = P.isolate_real_roots(QUARTIC)
    assert len(boxes) == 4
    mids = [float((lo + hi) / 2) for lo, hi in boxes]
    assert mids == sorted(mids)
    chain = P.sturm_chain(QUARTIC)
    targets = [-2.114907541476756, 0.2541016883650524, 1.0, 1.8608058531117035]
    for (lo, hi), t in zip(boxes, targets):
        if lo == hi:
            assert P.evaluate(QUARTIC, lo) == 0
        else:
            assert P.count_roots(chain, lo, hi) == 1
            lo, hi = P.refine_root(QUARTIC, lo, hi, Fraction(1, 10 ** 9))
        assert abs(float((lo + hi) / 2) - t) < 1e-8


def test_refine_root_converges():
    boxes = P.isolate_real_roots(CUBIC)
    assert len(boxes) == 3
    lam = boxes[1]  # roots sorted: -2.1149, 0.2541, 1.8608
    lo, hi = P.refine_root(CUBIC, lam[0], lam[1], Fraction(1, 10 ** 30))
    assert hi - lo < Fraction(1, 10 ** 30)
    assert abs(float((lo + hi) / 2) - 0.2541016883650524) < 1e-15


def test_rational_roots_and_deflate():
    assert P.rational_roots(QUARTIC) == [Fraction(1)]
    assert P.rational_roots(CUBIC) == []
    assert P.deflate(QUARTIC, Fraction(1)) == CUBIC
    # 6x^2 - 5x + 1 = (2x-1)(3x-1)
    p = P.poly([1, -5, 6])
    assert sorted(P.rational_roots(p)) == [Fraction(1, 3), Fraction(1, 2)]


@pytest.mark.parametrize("p", [[1, 0, 2 ** 40], [-(3 ** 30), 1], [0, 0, 5 ** 20, 7]])
def test_rational_roots_refuse_huge_end_coefficients(p):
    # trial division over the divisors would take up to sqrt(|c|) steps
    with pytest.raises(ValueError, match="below 2\\^40"):
        P.rational_roots(P.poly(p))


def test_evaluate_interval_contains_image():
    p = P.poly([-2, 0, 1])  # x^2 - 2
    lo, hi = P.evaluate_interval(p, Fraction(1), Fraction(2))
    assert lo <= 0 <= hi
    lo, hi = P.evaluate_interval(p, Fraction(3, 2), Fraction(8, 5))
    assert lo > 0


@given(polys, small_fracs, small_fracs)
def test_evaluate_interval_sound(p, a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    box = P.evaluate_interval(p, lo, hi)
    for t in (lo, hi, (lo + hi) / 2):
        v = P.evaluate(p, t)
        assert box[0] <= v <= box[1]


def _reference_evaluate(p, x):
    """Horner on Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _reference_evaluate_interval(p, lo, hi):
    """Interval Horner on Fractions."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    vlo, vhi = Fraction(0), Fraction(0)
    for a in reversed(p):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + a, max(cands) + a
    return vlo, vhi


# non-dyadic, negative and integer points, and far ones with large
# denominators as the refined isolating intervals have
points = st.one_of(
    small_fracs,
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=3 ** 40),
)
wide_polys = st.lists(
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 6),
    min_size=0, max_size=8,
).map(P.poly)


@settings(max_examples=200)
@given(st.one_of(polys, wide_polys), points)
def test_evaluate_matches_fraction_horner(p, x):
    got = P.evaluate(p, x)
    assert type(got) is Fraction
    assert got == _reference_evaluate(p, x)


@settings(max_examples=200)
@given(st.one_of(polys, wide_polys), points, points, st.booleans())
def test_evaluate_interval_matches_fraction_interval_horner(p, a, b, degenerate):
    lo, hi = sorted((a, b))
    if degenerate:
        hi = lo
    got = P.evaluate_interval(p, lo, hi)
    assert all(type(v) is Fraction for v in got)
    assert got == _reference_evaluate_interval(p, lo, hi)


def test_evaluate_on_the_empty_polynomial():
    assert P.evaluate((), Fraction(2, 3)) == _reference_evaluate((), Fraction(2, 3)) == 0
    assert P.evaluate_interval((), Fraction(-1, 3), Fraction(5, 7)) == (0, 0)
    assert P.evaluate_interval((), Fraction(5, 7), Fraction(5, 7)) == (0, 0)


def test_root_bound_covers_roots():
    bound = P.root_bound(QUARTIC)
    assert bound >= Fraction(212, 100)


def test_degenerate_inputs():
    chain = P.sturm_chain(P.poly([0, 1]))
    assert P.count_roots(chain, Fraction(-1), Fraction(1)) == 1
    assert P.monic(()) == ()
    with pytest.raises(ValueError):
        P.rational_roots(())
    with pytest.raises(ValueError):
        P.deflate(CUBIC, Fraction(1))
