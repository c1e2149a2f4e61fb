"""Univariate polynomials over the rationals.

A polynomial is a tuple of Fraction coefficients, lowest degree first,
with no trailing zeros (the zero polynomial is the empty tuple).  All
arithmetic is exact.  Real roots are isolated with Sturm chains and
refined by `bisect`, one kernel for any number of steps on integer ends.
`evaluate` and `evaluate_interval` take and return Fractions but run
Horner on ints over common denominators and divide once at the end.
"""

import math
from fractions import Fraction
from itertools import zip_longest

ZERO = ()
ONE = (Fraction(1),)


def poly(coeffs):
    """Build a normalized polynomial from any iterable of numbers."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p):
    return len(p) - 1


def is_zero(p):
    return len(p) == 0


def leading(p):
    return p[-1]


def add(p, q):
    return poly(a + b for a, b in zip_longest(p, q, fillvalue=0))


def neg(p):
    return tuple(-a for a in p)


def sub(p, q):
    return add(p, neg(q))


def scale(p, s):
    s = Fraction(s)
    if s == 0:
        return ZERO
    return tuple(a * s for a in p)


def mul(p, q):
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def divmod_poly(f, g):
    """Return (q, r) with f = q*g + r and deg r < deg g."""
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    r = list(f)
    for k in reversed(range(len(f) - len(g) + 1)):
        coef = q[k] = r[k + degree(g)] / leading(g)
        for i, b in enumerate(g):
            r[i + k] -= coef * b
    return poly(q), poly(r[: degree(g)])


def pmod(f, g):
    return divmod_poly(f, g)[1]


def monic(p):
    if is_zero(p):
        return p
    return scale(p, 1 / leading(p))


def gcd(p, q):
    """Monic gcd via the Euclidean algorithm."""
    a, b = p, q
    while not is_zero(b):
        a, b = b, pmod(a, b)
    if is_zero(a):
        return ZERO
    return monic(a)


def derivative(p):
    return poly(i * a for i, a in enumerate(p) if i > 0)


def squarefree_part(p):
    """p divided by gcd(p, p'); same real roots, all simple."""
    if degree(p) <= 0:
        return p
    g = gcd(p, derivative(p))
    if degree(g) == 0:
        return monic(p)
    q, r = divmod_poly(p, g)
    assert is_zero(r)
    return monic(q)


def is_squarefree(p):
    return degree(gcd(p, derivative(p))) <= 0


def integer_form(values):
    """(numerators, den): the Fractions `values` as a list of ints over
    their least common denominator."""
    den = math.lcm(1, *(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


def _scaled(num, d):
    """num[k] d^(n-1-k), highest degree first, for n = len(num): Horner
    over it at an int a gives d^(n-1) num(a / d), of the sign of num(a / d)."""
    return [c * d ** k for k, c in enumerate(reversed(num))]


def _horner(top, a):
    acc = 0
    for c in top:
        acc = acc * a + c
    return acc


def _sign_at(num, x):
    """Sign of the integer polynomial num at the rational x."""
    x = Fraction(x)
    v = _horner(_scaled(num, x.denominator), x.numerator)
    return (v > 0) - (v < 0)


def evaluate(p, x):
    """p(x) at a rational x = a / d: with p = num / den, the integer Horner
    of `_sign_at` gives d^(n-1) num(x), n = len(num), divided once by
    den d^(n-1) (both times d, so that n = 0 gives 0)."""
    num, den = integer_form(p)
    x = Fraction(x)
    d = x.denominator
    return Fraction(_horner(_scaled(num, d), x.numerator) * d, den * d ** len(num))


def evaluate_interval(p, lo, hi):
    """Exact interval Horner: bounds for {p(x): lo <= x <= hi}.

    Bounds may be loose but always contain the true range.  With the ends
    a / d and b / d, each step's bounds are scaled by the positive den d^k,
    so min and max pick what interval Horner on Fractions picks.
    """
    num, den = integer_form(p)
    (a, b), d = integer_form([Fraction(lo), Fraction(hi)])
    vlo, vhi, dk = 0, 0, 1
    for c in reversed(num):
        cands = (vlo * a, vlo * b, vhi * a, vhi * b)
        vlo, vhi, dk = min(cands) + c * dk, max(cands) + c * dk, dk * d
    return Fraction(vlo * d, den * dk), Fraction(vhi * d, den * dk)


def content_primitive(p):
    """Return (content, primitive integer polynomial) for rational p."""
    if is_zero(p):
        return Fraction(0), ZERO
    ints, den = integer_form(p)
    g = math.gcd(*ints)
    if leading(p) < 0:
        g = -g
    return Fraction(g, den), tuple(Fraction(v // g) for v in ints)


def sturm_chain(p):
    """Sturm chain of a squarefree polynomial, each member as its integer
    form (a positive multiple: same signs, taken once per chain)."""
    chain = [p, derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        nxt = neg(pmod(chain[-2], chain[-1]))
        if is_zero(nxt):
            break
        chain.append(nxt)
    return [integer_form(c)[0] for c in chain if not is_zero(c)]


def _variations(chain, x):
    signs = [v for v in (_sign_at(num, x) for num in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, lo, hi):
    """Number of distinct real roots in (lo, hi], valid when neither
    endpoint is a root of the chain head (the usual Sturm setting)."""
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(p):
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(leading(p))
    m = max((abs(a) for a in p[:-1]), default=Fraction(0))
    return Fraction(1) + m / lc


def isolate_real_roots(p):
    """Disjoint rational intervals, one per distinct real root of p.

    Intervals are either open isolating intervals whose endpoints are
    not roots, or degenerate [r, r] for an exact rational root.  Sturm
    counts run on the chain's integer forms; `refine_root` narrows an
    interval with the `bisect` kernel.
    """
    if is_zero(p):
        raise ValueError("cannot isolate roots of the zero polynomial")
    q = squarefree_part(p)
    if degree(q) <= 0:
        return []
    chain = sturm_chain(q)
    bound = root_bound(q)
    lo, hi = -bound, bound
    # Nudge endpoints off roots (the Cauchy bound is strict, but keep it safe).
    while not _sign_at(chain[0], lo):
        lo -= 1
    while not _sign_at(chain[0], hi):
        hi += 1

    out = []

    def recurse(a, b, n):
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if not _sign_at(chain[0], mid):
            # Exact rational root at mid; isolate it away from the rest.
            delta = (b - a) / 4
            while count_roots(chain, mid - delta, mid + delta) != 1:
                delta /= 2
            out.append((mid, mid))
            recurse(a, mid - delta, count_roots(chain, a, mid - delta))
            recurse(mid + delta, b, count_roots(chain, mid + delta, b))
        else:
            recurse(a, mid, count_roots(chain, a, mid))
            recurse(mid, b, count_roots(chain, mid, b))

    recurse(lo, hi, count_roots(chain, lo, hi))
    out.sort(key=lambda iv: iv[0])
    return out


def bisect(num, lo, hi, steps):
    """`steps` bisection steps in one call on [lo, hi], an isolating
    interval of a root of the integer polynomial num; an exact root at a
    midpoint m gives (m, m).  The ends are put over the final denominator
    d up front, so each midpoint is an int over d and its sign is one
    Horner pass on ints over `_scaled(num, d)`, taken once."""
    if lo == hi or steps <= 0:
        return lo, hi
    (a, b), d = integer_form([Fraction(lo), Fraction(hi)])
    a, b, d = a << steps, b << steps, d << steps
    top = _scaled(num, d)
    positive = _horner(top, a) > 0
    for _ in range(steps):
        m = (a + b) >> 1
        v = _horner(top, m)
        if not v:
            a = b = m
            break
        a, b = (m, b) if (v > 0) == positive else (a, m)
    return Fraction(a, d), Fraction(b, d)


def bisection_steps(lo, hi, width):
    """The least k with (hi - lo) / 2^k < width, i.e. 2^k > floor((hi - lo) / width)."""
    if width <= 0:
        raise ValueError("width must be positive")
    return math.floor((hi - lo) / width).bit_length()


def refine_root(p, lo, hi, width):
    """Shrink an isolating interval of squarefree p below `width` with
    one `bisect` call of `bisection_steps` steps.  Requires a sign change
    on (lo, hi) or an exact rational root at an endpoint returned by
    isolate_real_roots."""
    if lo == hi:
        return lo, hi
    num = integer_form(p)[0]
    flo, fhi = _sign_at(num, lo), _sign_at(num, hi)
    if flo == 0 or fhi == 0:
        raise ValueError("endpoints of an isolating interval must not be roots")
    if flo == fhi:
        raise ValueError("no sign change: not an isolating interval of an odd-order root")
    return bisect(num, lo, hi, bisection_steps(lo, hi, Fraction(width)))


def rational_roots(p):
    """All rational roots, via the rational root theorem."""
    if is_zero(p):
        raise ValueError("zero polynomial")
    k = 0
    while p[k] == 0:
        k += 1
    zero = [Fraction(0)] if k else []
    num = [int(c) for c in content_primitive(p[k:])[1]]
    if max(abs(num[0]), abs(num[-1])) >> 40:  # bounds divisors() to 2^20 steps
        raise ValueError("rational roots need end coefficients below 2^40")

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return {e for d in small for e in (d, abs(n) // d)}

    cands = {Fraction(s * a, b) for a in divisors(num[0]) for b in divisors(num[-1]) for s in (1, -1)}
    return sorted(zero + [c for c in cands if not _sign_at(num, c)])


def deflate(p, r):
    """Divide p by (x - r) exactly; r must be a root."""
    q, rem = divmod_poly(p, (-Fraction(r), Fraction(1)))
    if not is_zero(rem):
        raise ValueError("not a root")
    return q


def to_string(p, var="x"):
    if is_zero(p):
        return "0"
    terms = []
    for i, a in enumerate(p):
        if a == 0:
            continue
        if i == 0:
            terms.append(str(a))
        elif i == 1:
            terms.append(f"{a}*{var}" if abs(a) != 1 else (f"-{var}" if a < 0 else var))
        else:
            terms.append(f"{a}*{var}^{i}" if abs(a) != 1 else (f"-{var}^{i}" if a < 0 else f"{var}^{i}"))
    return " + ".join(terms).replace("+ -", "- ")
