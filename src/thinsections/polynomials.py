"""Univariate polynomials over the rationals.

A polynomial is a tuple of Fraction coefficients, lowest degree first,
with no trailing zeros (the zero polynomial is the empty tuple).  All
arithmetic is exact.  Real roots are isolated with Sturm chains.
`evaluate` and `evaluate_interval` take and return Fractions but run
Horner on ints over common denominators and divide once at the end.
"""

import math
from fractions import Fraction

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
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return poly(out)


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
    dg = degree(g)
    lg = leading(g)
    while len(r) - 1 >= dg and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        k = len(r) - 1 - dg
        coef = r[-1] / lg
        q[k] = coef
        for i, b in enumerate(g):
            r[i + k] -= coef * b
        r.pop()
    return poly(q), poly(r)


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


def evaluate(p, x):
    """Horner evaluation at a rational point: with p = num / den and
    x = a / d, acc = sum num[k] a^k d^(n-k) on ints, p(x) = acc / (den d^n)."""
    num, den = integer_form(p)
    (a,), d = integer_form([Fraction(x)])
    acc, dk = 0, 1
    for c in reversed(num):
        acc, dk = acc * a + c * dk, dk * d
    return Fraction(acc * d, den * dk)


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
    """Sturm chain of a squarefree polynomial."""
    chain = [p, derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        nxt = neg(pmod(chain[-2], chain[-1]))
        if is_zero(nxt):
            break
        chain.append(nxt)
    return [c for c in chain if not is_zero(c)]


def _variations(chain, x):
    signs = []
    for c in chain:
        v = evaluate(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


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
    not roots, or degenerate [r, r] for an exact rational root.
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
    while evaluate(q, lo) == 0:
        lo -= 1
    while evaluate(q, hi) == 0:
        hi += 1

    out = []

    def recurse(a, b, n):
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if evaluate(q, mid) == 0:
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


def refine_root(p, lo, hi, width):
    """Shrink an isolating interval of squarefree p by bisection until
    hi - lo < width.  Requires a sign change on (lo, hi) or an exact
    rational root at an endpoint returned by isolate_real_roots."""
    if lo == hi:
        return lo, hi
    flo = evaluate(p, lo)
    fhi = evaluate(p, hi)
    if flo == 0 or fhi == 0:
        raise ValueError("endpoints of an isolating interval must not be roots")
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change: not an isolating interval of an odd-order root")
    while hi - lo >= width:
        mid = (lo + hi) / 2
        fm = evaluate(p, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi


def rational_roots(p):
    """All rational roots, via the rational root theorem."""
    if is_zero(p):
        raise ValueError("zero polynomial")
    k = 0
    while p[k] == 0:
        k += 1
    roots = [Fraction(0)] if k > 0 else []
    q = p[k:]
    _, zint = content_primitive(q)
    a0 = int(zint[0])
    an = int(zint[-1])

    def divisors(n):
        n = abs(n)
        ds = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                ds.add(d)
                ds.add(n // d)
            d += 1
        return ds

    for num in divisors(a0):
        for den in divisors(an):
            for s in (1, -1):
                cand = Fraction(s * num, den)
                if evaluate(q, cand) == 0 and cand not in roots:
                    roots.append(cand)
    roots.sort()
    return roots


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
