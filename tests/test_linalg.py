"""Matrices as integer rows, characteristic polynomials, exact eigenvectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thinsections import polynomials as P
from thinsections.errors import NegativeEntries, NotAnEigenvalue, NotSquare
from thinsections.iis import SYSTEM_MATRIX, system_field
from thinsections.linalg import bareiss_solve, char_poly, eigen_kernel, perron_root_interval

N1 = SYSTEM_MATRIX["s1"]
N2 = SYSTEM_MATRIX["s2"]

# width/length transition matrices of the two band-complex cycles
L1 = ((0, 2, 1, 2), (0, 1, 0, 0), (2, 0, 4, 1), (1, 2, 4, 2))
L2 = ((5, 3, 0), (4, 3, 1), (4, 2, 1))


def perron_root(m, eps):
    """Midpoint of the certified interval around the Perron root."""
    lo, hi = perron_root_interval(m, eps)
    return (lo + hi) / 2


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_char_poly_frozen_values():
    assert char_poly(N1) == P.poly([-1, 5, -4, -1, 1])
    expect = P.mul(P.poly([-1, 0, 1]), P.poly([-1, 12, 8, 1]))
    assert char_poly(N2) == expect
    assert char_poly(((0,) * 3,) * 3) == P.poly([0, 0, 0, 1])
    with pytest.raises(NotSquare):
        char_poly(((0,) * 3,) * 2)


int_entries = st.integers(min_value=-4, max_value=4)


def _reference_char_poly(m):
    """Faddeev-LeVerrier on the rational matrix itself."""
    n = len(m)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = matmul(m, mk)
        c = coeffs[n - k] = -sum(mk[i][i] for i in range(n)) / k
        for i in range(n):
            mk[i][i] += c
    return P.poly(coeffs)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=5), st.data())
def test_char_poly_matches_rational_recursion(n, data):
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assert char_poly(m) == _reference_char_poly(m)


@settings(max_examples=120)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_cayley_hamilton(n, data):
    rows = data.draw(
        st.lists(
            st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    cp = char_poly(rows)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(cp):
        acc = matmul(acc, rows)
        for i in range(n):
            acc[i][i] += c
    assert acc == [[0] * n for _ in range(n)]


def test_eigen_kernel_s1():
    field = system_field("s1")
    lam = field.gen
    v = eigen_kernel(N1, lam)
    approx = [float(x) for x in v]
    # unit sum over the first three coordinates
    assert abs(sum(approx[:3]) - 1) < 1e-12
    expect = [0.443635709, 0.254101688, 0.302262603, 0.292504407]
    for got, want in zip(approx, expect):
        assert abs(got - want) < 1e-6
    # exact residue: (N1 - lam I) v = 0
    for i, row in enumerate(N1):
        mvi = sum((rj * vj for rj, vj in zip(row, v)), field.zero)
        assert (mvi - lam * v[i]).is_zero()


def test_eigen_kernel_s2():
    field = system_field("s2")
    lam = field.gen
    v = eigen_kernel(N2, lam)
    approx = [float(x) for x in v]
    expect = [0.449502637, 0.294275700, 0.256221664, 0.429230670, 0.089796349]
    for got, want in zip(approx, expect):
        assert abs(got - want) < 1e-6
    for i, row in enumerate(N2):
        mvi = sum((rj * vj for rj, vj in zip(row, v)), field.zero)
        assert (mvi - lam * v[i]).is_zero()
    for vi in v:
        assert vi.sign() > 0


def test_eigen_kernel_identity():
    field = system_field("s1")
    with pytest.warns(UserWarning):
        v = eigen_kernel(((1, 0), (0, 1)), field.one)
    assert (v[0] + v[1] - field.one).is_zero()


def test_eigen_kernel_rejects_non_eigenvalue():
    field = system_field("s1")
    with pytest.raises(NotAnEigenvalue):
        eigen_kernel(N1, field.rational(7))


def test_perron_roots_of_length_matrices():
    mu1 = perron_root(L1, Fraction(1, 10 ** 6))
    assert abs(float(mu1) - 6.1329) < 1e-3
    mu2 = perron_root(L2, Fraction(1, 10 ** 6))
    assert abs(float(mu2) - 7.95) < 1e-2
    assert abs(float(mu2) - 7.946621477603912) < 1e-6
    lo, hi = perron_root_interval(L1, Fraction(1, 10 ** 9))
    assert hi - lo < Fraction(1, 10 ** 9)
    assert abs((lo + hi) / 2 - mu1) < Fraction(2, 10 ** 6)


def test_perron_root_guards():
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert perron_root(eye, Fraction(1, 100)) == 1
    with pytest.raises(NegativeEntries):
        perron_root(((-1,),), Fraction(1, 10))
    with pytest.raises(NotSquare):
        perron_root(((0,) * 3,) * 2, Fraction(1, 10))


@pytest.mark.parametrize("rows", [((1, 2, 3), (4, 5, 6)), ((1, 2), (3,)), ((1,), (2, 3)), ((0, 1),)],
                         ids=["2x3", "ragged-short", "ragged-long", "1x2"])
def test_non_square_rows_raise_not_square(rows):
    field = system_field("s1")
    with pytest.raises(NotSquare):
        char_poly(rows)
    with pytest.raises(NotSquare):
        eigen_kernel(rows, field.one)
    with pytest.raises(NotSquare):
        perron_root_interval(rows, Fraction(1, 10))


def _reference_solve(mat, rhs):
    """Gauss-Jordan on Fractions; None if singular."""
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=5), st.data())
def test_bareiss_solve_matches_rational_elimination(n, data):
    # small entries make singular systems common
    entries = st.integers(min_value=-3, max_value=3)
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = data.draw(st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n))
    z, det = bareiss_solve(rows, rhs)
    ref = _reference_solve(rows, rhs)
    if ref is None:
        assert (z, det) == (None, 0)
    else:
        assert det and [Fraction(v, det) for v in z] == ref
