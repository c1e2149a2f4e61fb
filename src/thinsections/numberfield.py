"""Exact arithmetic in Q(lam) for a real algebraic lam.

A NumberField is a squarefree polynomial (the modulus) plus a rational
interval isolating one of its real roots, the generator lam.  A
FieldElement is a polynomial residue of degree < deg(modulus): integer
numerators, lowest degree first with no trailing zeros, over one
positive denominator coprime to them.  Ring operations and `inverse`
work on ints over the primitive integer modulus; `coeffs`, the same
residue as Fractions, is built on first use.

Signs go through a fixed-point filter (Bronnimann-Burnikel-Pion, shared
with `iis.OrbitChart`): the integer dot product of the numerators with
the field's cached bounds of lam^j 2^FIXED_BITS brackets the value, and
decides when the bracket excludes 0.  Otherwise interval evaluation
decides at the first bisection level of the isolating interval that
excludes zero; the zero test is algebraic, so every decision terminates.
Enclosures and floats always take the interval path, at the first level
narrow enough.  Interval Horner on nested intervals gives nested values,
so `_first_level` finds that level with O(log level) evaluations.

Order is one primitive, `compare` (and <, <=, >, >= through it).  Each
element caches its own bracket, integers lo <= value 2^FIXED_BITS <= hi,
on first use; two elements whose brackets are disjoint are ordered by
them without building their difference, and only overlapping brackets
fall back to the sign of the difference.  A cached bracket never goes
stale: refining the field only shrinks the isolating interval, and
putting back an earlier interval (as `sections` does after a far-level
reduction) restores one that also isolated the root, so the bounds
taken at any time enclose the value for good.

Equality is one primitive too, `==` (`dot_equals` for an integer row
against an element): canonical residues over an irreducible modulus,
`is_zero` of the difference over a reducible one.
The one exception is `Band.__init__`'s width audit, a difference's
`sign() != 0` kept because the benchmark self-test counts its zero signs
(`tests/test_ordering.py` checks).  A constant hashes as the rational it
equals and meets another field's elements as that rational, so hashes
agree with `==`; two non-constants of different fields raise FieldMismatch.
Binary operators pass an operand over the same field object straight to
the operation; only other operands go through coercion.
"""

import functools
import math
import operator
from fractions import Fraction
from itertools import zip_longest

from . import polynomials as P
from .errors import (
    AuditError,
    DivisionByZero,
    FieldMismatch,
    NotIsolating,
    NotSquarefree,
)
from .linalg import bareiss_solve

_REFINE_CAP = 10 ** 6

# The bundled fields are refined below 2^-128, so there the interval, not
# this scale, limits the filter.
FIXED_BITS = 192

# Signs the filter decided and signs it passed to the exact path.
SIGN_FILTER = {"decided": 0, "fallback": 0}


class NumberField:
    """Q(lam) with lam the unique root of `modulus` in `root_interval`."""

    def __init__(self, modulus, root_interval, _validated=False):
        modulus = P.poly(modulus)
        lo, hi = Fraction(root_interval[0]), Fraction(root_interval[1])
        if not _validated:
            if P.degree(modulus) < 1:
                raise NotIsolating("modulus has no roots")
            if not P.is_squarefree(modulus):
                raise NotSquarefree(P.to_string(modulus))
            chain = P.sturm_chain(P.monic(modulus))
            if P.evaluate(modulus, lo) == 0 or P.evaluate(modulus, hi) == 0:
                raise NotIsolating("interval endpoint is a root")
            n = P.count_roots(chain, lo, hi)
            if n != 1:
                raise NotIsolating(f"root interval [{lo}, {hi}] is reversed" if lo > hi
                                   else f"interval contains {n} roots, need exactly 1")
        self.modulus = modulus
        self.degree = P.degree(modulus)
        self._monic = P.monic(modulus)
        self._int_modulus = tuple(int(c) for c in P.content_primitive(modulus)[1])
        self._lo = lo
        self._hi = hi
        self._powers = None
        # Degree <= 3 with no rational roots is certified irreducible
        # (a reducible cubic or quadratic must have a linear factor).
        self.irreducible = self.degree == 1 or (
            self.degree <= 3 and not P.rational_roots(modulus)
        )
        self.zero = FieldElement(self, ())
        self.one = FieldElement(self, (Fraction(1),))
        self.gen = FieldElement(
            self, P.poly([0, 1]) if self.degree > 1 else P.poly([-modulus[0] / modulus[1]])
        )

    @property
    def root_interval(self):
        return (self._lo, self._hi)

    def refine(self, steps=1):
        """`steps` bisection steps on the cached isolating interval."""
        if steps > 0 and self._lo != self._hi:
            self._restore(P.bisect(self._int_modulus, self._lo, self._hi, steps))

    def _restore(self, interval):
        """Put in `interval`, an earlier or a refined isolating interval of
        lam, dropping the bounds taken from the one it replaces."""
        self._lo, self._hi = interval
        self._powers = None

    def refine_below(self, width):
        """Refine below `width` in one `refine` call of the step count."""
        steps = P.bisection_steps(self._lo, self._hi, Fraction(width))
        if steps > _REFINE_CAP:
            raise AuditError(f"refinement needs {steps} bisection steps")
        self.refine(steps)

    def _first_level(self, coeffs, test, what):
        """test(vlo, vhi) on the interval value of coeffs at lam, at the
        first bisection level where it is not None, left in place: the
        steps double from the last failing level, then halve back."""
        out = test(*P.evaluate_interval(coeffs, self._lo, self._hi))
        fail, passed, done, step = self.root_interval, None, 0, int(out is None)
        while step:
            if not passed and done >= _REFINE_CAP:
                raise AuditError(f"{what} refinement did not converge")
            trial = P.bisect(self._int_modulus, *fail, step)
            got = test(*P.evaluate_interval(coeffs, *trial))
            if got is None:
                fail, done = trial, done + step
                step = step // 2 if passed else 2 * step
            else:
                out, passed, step = got, trial, step // 2
        if passed:
            self._restore(passed)
        return out

    def fixed_point(self, num):
        """(lin, slack) with sum_j num[j] lam^j 2^FIXED_BITS in
        [lin - slack, lin + slack].  The centers and radii of the lam^j
        2^FIXED_BITS are kept until the isolating interval is refined."""
        if self._powers is None or len(num) > len(self._powers[0]):
            scale, centers, radii = 2 ** FIXED_BITS, [], []
            for j in range(max(self.degree, len(num))):
                plo, phi = P.evaluate_interval(P.poly([0] * j + [1]), self._lo, self._hi)
                f, c = math.floor(plo * scale), math.ceil(phi * scale)
                centers.append((f + c) // 2)
                radii.append(c - centers[-1])
            self._powers = centers, radii
        centers, radii = self._powers
        return (sum(map(operator.mul, num, centers)),
                sum(map(operator.mul, map(abs, num), radii)))

    def _reduced(self, num, den):
        """num / den (num a list of ints) modulo the primitive integer
        modulus m: the top term t x^k becomes t x^k - (t / lead) x^(k-d) m,
        after scaling num and den by lead when lead does not divide t."""
        m, d = self._int_modulus, self.degree
        while len(num) > d:
            top = num.pop()
            if top % m[-1]:
                num, den = [v * m[-1] for v in num], den * m[-1]
            else:
                top //= m[-1]
            for i, c in enumerate(m[:-1], len(num) - d):
                num[i] -= top * c
        return _element(self, num, den)

    def element(self, coeffs):
        return self._reduced(*P.integer_form(P.poly(coeffs)))

    def rational(self, q):
        q = q if isinstance(q, int) else Fraction(q)
        return _element(self, [q.numerator], q.denominator)

    def __eq__(self, other):
        """Same modulus and same root (intervals refined until decided)."""
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        for _ in range(_REFINE_CAP):
            if self._hi < other._lo or other._hi < self._lo:
                return False
            if (other._lo <= self._lo and self._hi <= other._hi) or (
                self._lo <= other._lo and other._hi <= self._hi
            ):
                return True
            self.refine()
            other.refine()
        raise AuditError("field comparison did not converge")

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        lo, hi = self.root_interval
        return f"NumberField({P.to_string(self.modulus)}, root in [{lo}, {hi}])"


def field_new(modulus, hint):
    """Field descriptor for the unique root of `modulus` in `hint`.

    The interval is refined so both endpoints strictly bracket the root.
    """
    f = NumberField(modulus, hint)
    f.refine(4)
    return f


def rational_field():
    """Degree-1 field whose generator is 0; elements are plain rationals."""
    return NumberField(P.poly([0, 1]), (Fraction(-1), Fraction(1)), _validated=True)


def minimal_field(p, hint):
    """Field for a root of p using the smallest certified modulus.

    Strips rational linear factors of the squarefree part.  If the root
    itself is rational the result is a degree-1 field.  The remaining
    factor is certified irreducible when its degree is at most 3.
    """
    q = P.squarefree_part(p)
    lo, hi = Fraction(hint[0]), Fraction(hint[1])
    for r in P.rational_roots(q):
        if lo < r < hi:
            return NumberField(P.poly([-r, 1]), (r - 1, r + 1), _validated=True)
        q = P.deflate(q, r)
    return field_new(q, (lo, hi))


def _element(field, num, den):
    """The canonical element num / den, num a list of ints, den > 0."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num) if den > 1 else 1
    if g > 1:
        num, den = [v // g for v in num], den // g
    x = object.__new__(FieldElement)
    x.field, x._num, x._den = field, tuple(num), den
    x._coeffs = x._hash = x._bounds = None
    return x


def _coerced(op):
    """The binary method op(self, o), with `other` (unless over self's field
    object) coerced into self's field first (or, when self is a constant of
    another field, self into other's); NotImplemented when neither can be."""
    @functools.wraps(op)
    def method(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            return op(self, other)
        o = self._coerce(other)
        if o is not NotImplemented:
            return op(self, o)
        if isinstance(other, FieldElement):
            return op(other._coerce(self), other)
        return NotImplemented
    return method


def _combine(x, y, sign):
    """(numerators, denominator) of x + sign * y, not yet canonical."""
    a, b, den = x._num, y._num, x._den
    if y._den != den:
        a, b, den = [v * y._den for v in a], [v * den for v in b], den * y._den
    return [p + sign * q for p, q in zip_longest(a, b, fillvalue=0)], den


class FieldElement:
    """A residue polynomial evaluated at the field generator."""

    __slots__ = ("field", "_num", "_den", "_coeffs", "_hash", "_bounds")

    def __init__(self, field, coeffs):
        c = P.poly(coeffs)
        num, den = P.integer_form(c)
        if len(num) > field.degree:
            # not a residue yet: reduce it as field.element does
            r = field._reduced(num, den)
            num, den, c = r._num, r._den, None
        self.field, self._num, self._den = field, tuple(num), den
        self._coeffs, self._hash, self._bounds = c, None, None

    @property
    def coeffs(self):
        """The residue as a tuple of Fractions, lowest degree first."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(v, self._den) for v in self._num)
        return self._coeffs

    # -- construction helpers -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            if len(other._num) < 2:  # a constant meets this field as a rational
                return _element(self.field, list(other._num), other._den)
            if len(self._num) < 2:
                return NotImplemented  # the caller moves self into other's field
            raise FieldMismatch("elements of different fields")
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    # -- ring operations -------------------------------------------------------

    @_coerced
    def __add__(self, o):
        return _element(self.field, *_combine(self, o, 1))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, [-v for v in self._num], self._den)

    @_coerced
    def __sub__(self, o):
        return _element(self.field, *_combine(self, o, -1))

    @_coerced
    def __rsub__(self, o):
        return o - self

    @_coerced
    def __mul__(self, o):
        out = [0] * (len(self._num) + len(o._num))
        for i, p in enumerate(self._num):
            for j, q in enumerate(o._num, i):
                out[j] += p * q
        return self.field._reduced(out, self._den * o._den)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self by one fraction-free solve M z = e_0 on ints: column j
        of M is lead^j (num lam^j mod m), m the primitive modulus with
        leading coefficient lead, and the inverse is sum den lead^j z_j lam^j.
        det M = 0 exactly when self shares a factor with the modulus."""
        if self.is_zero():
            raise DivisionByZero("zero element")
        m, d = self.field._int_modulus, self.field.degree
        cols = [[*self._num] + [0] * (d - len(self._num))]
        while len(cols) < d:
            cols.append([m[-1] * v - cols[-1][-1] * c for v, c in zip([0, *cols[-1]], m[:-1])])
        z, det = bareiss_solve(list(zip(*cols)), [1] + [0] * (d - 1))
        if not det:
            # Nonzero at lam but not invertible mod a reducible modulus.
            raise DivisionByZero(
                "element shares a factor with the modulus; rebuild the field "
                "with the minimal modulus (see minimal_field)"
            )
        s = 1 if det > 0 else -1
        return _element(self.field, [s * self._den * m[-1] ** j * v for j, v in enumerate(z)], s * det)

    @_coerced
    def __truediv__(self, o):
        return self * o.inverse()

    @_coerced
    def __rtruediv__(self, o):
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- decisions ---------------------------------------------------------------

    def is_zero(self):
        if not self._num:
            return True
        if self.field.irreducible:
            return False
        g = P.gcd(self.coeffs, self.field._monic)
        if P.degree(g) < 1:
            return False
        lo, hi = self.field.root_interval
        if lo == hi:
            return P.evaluate(g, lo) == 0
        chain = P.sturm_chain(P.squarefree_part(g))
        return P.count_roots(chain, lo, hi) > 0

    def sign(self):
        """Exact sign of the real number this element represents: the
        fixed-point filter's when its bracket excludes 0 (a zero slack,
        as for constants, means lin is exact), else interval refinement's."""
        lin, slack = self.field.fixed_point(self._num)
        if abs(lin) > slack or not slack:
            SIGN_FILTER["decided"] += 1
            return (lin > 0) - (lin < 0)
        SIGN_FILTER["fallback"] += 1
        return self._exact_sign()

    def _exact_sign(self):
        if self.is_zero():
            return 0
        return self.field._first_level(
            self.coeffs, lambda vlo, vhi: 1 if vlo > 0 else -1 if vhi < 0 else None, "sign")

    def enclosure(self, width):
        """Certified rational interval of width < `width` containing the
        value, from the first bisection level narrow enough."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        wn, wd = width.numerator, width.denominator

        def narrow(vlo, vhi):
            lo_d, hi_d = vlo.denominator, vhi.denominator
            if (vhi.numerator * lo_d - vlo.numerator * hi_d) * wd < wn * lo_d * hi_d:
                return vlo, vhi

        return self.field._first_level(self.coeffs, narrow, "enclosure")

    def approximate(self, eps):
        """A rational r with |r - value| < eps, certified."""
        vlo, vhi = self.enclosure(Fraction(eps) * 2)
        return (vlo + vhi) / 2

    def __float__(self):
        if len(self._num) < 2:  # a rational: one correctly rounded division
            return self._num[0] / self._den if self._num else 0.0
        vlo, vhi = self.enclosure(Fraction(1, 2 ** 56))
        # one correctly rounded division, as float((vlo + vhi) / 2) gives
        return ((vlo.numerator * vhi.denominator + vhi.numerator * vlo.denominator)
                / (2 * vlo.denominator * vhi.denominator))

    # -- comparisons ---------------------------------------------------------------

    @_coerced
    def __eq__(self, o):
        if self.field.irreducible:
            return self._num == o._num and self._den == o._den
        return (self - o).is_zero()

    def _bracket(self):
        """(lo, hi), integers with lo <= value 2^FIXED_BITS <= hi, taken
        once (a bracket never goes stale; see the module docstring)."""
        if self._bounds is None:
            lin, slack = self.field.fixed_point(self._num)
            self._bounds = ((lin - slack) // self._den, -((-lin - slack) // self._den))
        return self._bounds

    def _order(self, o):
        """-1, 0 or 1 as self <, = or > the element o of the same field."""
        if self._num == o._num and self._den == o._den:
            return 0
        alo, ahi = self._bounds or self._bracket()
        blo, bhi = o._bounds or o._bracket()
        if ahi < blo or bhi < alo:
            SIGN_FILTER["decided"] += 1
            return -1 if ahi < blo else 1
        return (self - o).sign()

    def compare(self, other):
        """-1, 0 or 1 as self <, = or > other (a field element, int or
        Fraction): disjoint cached brackets decide, else the sign of the
        difference."""
        o = self._coerce(other)
        if o is NotImplemented and isinstance(other, FieldElement):
            return other._coerce(self)._order(other)  # self: a constant of another field
        if o is NotImplemented:
            raise TypeError(f"cannot order a field element and {type(other).__name__}")
        return self._order(o)

    @_coerced
    def __lt__(self, o):
        return self._order(o) < 0

    @_coerced
    def __le__(self, o):
        return self._order(o) <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        if self._hash is None:
            if not self.field.irreducible:
                raise TypeError(
                    "elements over a reducible modulus have no canonical "
                    "residue and are unhashable"
                )
            n, d = self._num, self._den  # a constant hashes as the rational it equals
            self._hash = hash((self.field.modulus, n, d) if len(n) > 1 else Fraction(sum(n), d))
        return self._hash

    def __repr__(self):
        return f"<{P.to_string(self.coeffs, 'lam')}>"


def common_denominator(values):
    """(nums, den): the elements `values` as integer residues over one den."""
    den = math.lcm(1, *(v._den for v in values))
    return [[c * (den // v._den) for c in v._num] for v in values], den


def dot_equals(row, common, target):
    """Whether row . values == target, for a row of ints and the values as
    common_denominator(values): the integer residue of row . values - target
    is all 0 over an irreducible modulus; over a reducible one `is_zero` decides."""
    (nums, den), tden = common, target._den
    acc = [-den * c for c in target._num] + [0] * (target.field.degree - len(target._num))
    for coef, num in zip(row, nums):
        if coef:
            coef *= tden
            for k, c in enumerate(num):
                acc[k] += coef * c
    if target.field.irreducible:
        return not any(acc)
    return _element(target.field, acc, den * tden).is_zero()
