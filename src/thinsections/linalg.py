"""Exact dense linear algebra over the rationals and over number fields.

A matrix is a tuple of integer rows (rational entries work too).  The
matrices are small (nothing above 11x11 in the bundled cycles), so
everything is plain dense arithmetic: characteristic polynomials via
the Faddeev-LeVerrier recursion, kernels via Gaussian elimination with
exact pivot decisions, and Perron roots via real root isolation.
"""

import operator
import warnings
from fractions import Fraction

from . import polynomials as P
from .errors import NegativeEntries, NotAnEigenvalue, NotSquare


def _order(m, what):
    """n for an n x n matrix given as rows; NotSquare otherwise."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSquare(f"{what} of a non-square matrix")
    return n


def char_poly(m):
    """det(xI - M), exact, monic; Faddeev-LeVerrier recursion on the
    integer matrix B = D M (D the lcm of the denominators), where every
    division by k is exact, and c_k(M) = c_k(B) / D^k."""
    n = _order(m, "characteristic polynomial")
    num, den = P.integer_form([x for row in m for x in row])
    b = [num[i * n : (i + 1) * n] for i in range(n)]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk, ck = [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        # B (M_{k-1} + c I), with M_0 = 0 and c = 1 at first
        mk = [[sum(map(operator.mul, row, col)) + ck * v for col, v in zip(zip(*mk), row)]
              for row in b]
        ck = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = Fraction(ck, den ** k)
    return P.poly(coeffs)


def bareiss_solve(rows, rhs):
    """(z, det) with z / det the solution of the square integer system
    rows . z = rhs, by fraction-free elimination (Bareiss 1968): every
    entry stays an integer minor, so z is integral.  (None, 0) if singular."""
    n = len(rows)
    a = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None, 0
        a[k], a[p] = a[p], a[k]
        for row in a[k + 1 :]:
            row[k + 1 :] = [(v * a[k][k] - row[k] * w) // prev
                            for v, w in zip(row[k + 1 :], a[k][k + 1 :])]
        prev = a[k][k]
    z = [0] * n  # back-substitution; prev is +-det now
    for i in reversed(range(n)):
        z[i] = (prev * a[i][n] - sum(map(operator.mul, a[i][i + 1 : n], z[i + 1 :]))) // a[i][i]
    return z, prev


def kernel_basis(rows):
    """Kernel basis of a square matrix given as rows of FieldElements.

    Gaussian elimination with exact zero tests; returns a list of basis
    vectors (each a list of FieldElements).
    """
    if not rows:
        return []
    field = rows[0][0].field
    n = len(rows)
    cols = len(rows[0])
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if not a[i][c].is_zero()), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def eigen_kernel(m, mu):
    """A nonzero v with (M - mu*I)v = 0, exact over mu's field.

    Normalized so the first min(3, n) coordinates sum to 1, matching the
    bundled systems whose eigenvectors are pinned by a unit sum of the
    first three entries.  Raises NotAnEigenvalue when the kernel is
    trivial; if the kernel has dimension above 1 a warning is emitted and
    the first basis vector is returned.
    """
    n = _order(m, "eigen kernel")
    field = mu.field
    rows = [[field.rational(x) for x in row] for row in m]
    for i in range(n):
        rows[i][i] = rows[i][i] - mu
    basis = kernel_basis(rows)
    if not basis:
        raise NotAnEigenvalue("kernel is trivial")
    if len(basis) > 1:
        warnings.warn(f"kernel dimension {len(basis)} > 1; returning first basis vector")
    v = basis[0]
    s = sum(v[:3], field.zero)
    if s.is_zero():
        raise NotAnEigenvalue("first coordinates sum to zero; cannot normalize")
    inv = s.inverse()
    return [x * inv for x in v]


def perron_root_interval(m, eps):
    """Certified rational interval of width < eps around the largest real eigenvalue."""
    _order(m, "Perron root")
    if any(e < 0 for row in m for e in row):
        raise NegativeEntries("matrix must be entrywise nonnegative")
    eps = Fraction(eps)
    cp = char_poly(m)
    intervals = P.isolate_real_roots(cp)
    if not intervals:
        raise NotAnEigenvalue("no real eigenvalues")
    return P.refine_root(P.squarefree_part(cp), *intervals[-1], eps)
