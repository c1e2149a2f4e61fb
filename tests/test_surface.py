"""Surface assembly, saddle data, central symmetry, closed-surface audit."""

from fractions import Fraction

import pytest

from thinsections.errors import AuditError, InvalidSystem
from thinsections.iis import system_field, system_params
from thinsections.surface import (
    PLSurface,
    Rect,
    build_surface,
    central_symmetry_point,
    check_central_symmetry,
    euler_characteristic,
    saddle_levels,
    x2_shift_coefficients,
    _assemble,
)


@pytest.fixture(scope="module")
def ex1():
    return build_surface(1)


@pytest.fixture(scope="module")
def ex2():
    return build_surface(2)


@pytest.fixture(scope="module")
def p1():
    return system_params("s1")


def q(field, num, den=1):
    return field.rational(Fraction(num, den))


# -- rectangles ------------------------------------------------------------


def test_rect_requires_positive_sides():
    f = system_field("s1")
    with pytest.raises(InvalidSystem):
        Rect((q(f, 1), q(f, 1)), (q(f, 0), q(f, 1)))
    with pytest.raises(InvalidSystem):
        Rect((q(f, 0), q(f, 1)), (q(f, 2), q(f, 1)))


def test_rect_reflection_is_involutive(ex1):
    t2 = ex1.plates[0].holes[0]
    c1, c2 = q(ex1.field, 1, 2), q(ex1.field, 1, 3)
    back = t2.reflected(c1, c2).reflected(c1, c2)
    assert back.same_as(t2)


# -- assembly --------------------------------------------------------------


def test_example_1_piece_inventory(ex1, p1):
    a, b, c, u = p1
    f = ex1.field
    assert len(ex1.plates) == 2
    assert len(ex1.walls) == 12
    assert (ex1.plates[0].level - q(f, 1, 4)).is_zero()
    assert (ex1.plates[1].level - q(f, 3, 4)).is_zero()
    t2, t3 = ex1.plates[0].holes
    t3b, t4 = ex1.plates[1].holes
    assert t3.same_as(t3b)
    assert (t2.x1[0] - q(f, 1, 5)).is_zero() and (t2.x1[1] - q(f, 2, 5)).is_zero()
    assert (t3.x1[0] - q(f, 3, 5)).is_zero() and (t3.x1[1] - q(f, 4, 5)).is_zero()
    assert (t2.x2[0] - u).is_zero() and (t2.x2[1] - (u + c)).is_zero()
    assert (t3.x2[0] - a).is_zero() and (t3.x2[1] - (a + c)).is_zero()
    assert (t4.x2[0] - (a + b - u)).is_zero()
    assert (t4.x2[1] - (a + b + c - u)).is_zero()
    assert (ex1.plate_period - (a + b + 2 * c)).is_zero()


def test_example_1_lattice(ex1, p1):
    a, b, c, u = p1
    e1, e2, e3 = ex1.lattice
    one = q(ex1.field, 1)
    assert (e1[0] - one).is_zero() and e1[2].is_zero()
    assert (e1[1] + b + c).is_zero()
    assert (e2[0] - one).is_zero() and e2[2].is_zero()
    assert (e2[1] - (a + c)).is_zero()
    assert e3[0].is_zero() and (e3[2] - one).is_zero()
    assert (e3[1] - (a + b - 2 * u)).is_zero()


def test_example_2_uses_third_pair(ex2):
    a, b, c, d, e = system_params("s2")
    t2, t3 = ex2.plates[0].holes
    _, t4 = ex2.plates[1].holes
    assert (t2.x2[0] - d).is_zero()
    assert (t3.x2[0] - a).is_zero()
    assert (t4.x2[0] - e).is_zero()
    assert (ex2.lattice[2][1] - (e - d)).is_zero()


def test_unknown_example_rejected():
    with pytest.raises(InvalidSystem):
        build_surface(3)


def test_tube_heights_cover_unit_interval(ex1):
    zs = sorted(
        {(float(w.x3[0]), float(w.x3[1])) for w in ex1.walls},
    )
    assert zs == [(0.0, 0.25), (0.25, 0.75), (0.75, 1.0)]


# -- saddle levels ----------------------------------------------------------


def test_saddle_values_example_1(ex1, p1):
    a, b, c, u = p1
    rep = saddle_levels(ex1)
    expected = (u, u + c, a, a + c, a + b - u, a + b + c - u)
    assert len(rep.values) == 6
    for got, want in zip(rep.values, expected):
        assert (got - want).is_zero()
    assert rep.distinct is True


def test_saddle_values_example_2(ex2):
    a, b, c, d, e = system_params("s2")
    rep = saddle_levels(ex2)
    expected = (d, d + c, a, a + c, e, e + c)
    for got, want in zip(rep.values, expected):
        assert (got - want).is_zero()
    assert rep.distinct is True


def test_saddle_classes_collapse_modulo_lattice(ex1, p1):
    a, b, c, u = p1
    rep = saddle_levels(ex1)
    assert rep.classes == ((0, 1, 4, 5), (2, 3))
    # the two collisions have exact lattice witnesses
    assert x2_shift_coefficients(ex1, rep.values[1] - rep.values[0]) == (1, 1, 1)
    assert x2_shift_coefficients(ex1, rep.values[4] - rep.values[0]) == (0, 0, 1)
    assert x2_shift_coefficients(ex1, rep.values[2] - rep.values[0]) is None
    # the (1,1,1) witness works because c = 2(a - u) in this field
    assert (c - 2 * (a - u)).is_zero()
    e1, e2, e3 = ex1.lattice
    assert (e1[1] + e2[1] + e3[1] - c).is_zero()


@pytest.mark.xfail(
    reason="six tangency levels fall into two classes modulo lattice"
    " x2-shifts, so pairwise distinctness modulo the lattice fails",
    strict=True,
)
def test_saddle_levels_distinct_modulo_lattice_literal(ex1):
    rep = saddle_levels(ex1)
    assert all(len(cls) == 1 for cls in rep.classes)


def test_degenerate_equal_tubes_not_distinct(p1):
    a, b, c, u = p1
    f = system_field("s1")
    S = _assemble(f, a, b, c, u, u, "degenerate")
    rep = saddle_levels(S)
    assert rep.distinct is False


def test_shift_coefficients_roundtrip(ex1):
    e1, e2, e3 = ex1.lattice
    target = 2 * e1[1] - 3 * e2[1] + e3[1]
    assert x2_shift_coefficients(ex1, target) == (2, -3, 1)
    assert x2_shift_coefficients(ex1, ex1.field.zero) == (0, 0, 0)
    half = ex1.field.rational(Fraction(1, 2))
    c_half = (ex1.plates[0].holes[0].x2[1] - ex1.plates[0].holes[0].x2[0]) * half
    assert x2_shift_coefficients(ex1, c_half) is None


# -- central symmetry --------------------------------------------------------


def test_symmetry_point_example_1(ex1, p1):
    a, b, c, u = p1
    f = ex1.field
    pt = central_symmetry_point(ex1)
    assert (pt[0] - q(f, 1, 2)).is_zero()
    assert (2 * pt[1] - (a + c + u)).is_zero()
    assert (pt[2] - q(f, 1, 4)).is_zero()
    assert check_central_symmetry(ex1, pt) is True


def test_symmetry_point_example_2(ex2):
    assert check_central_symmetry(ex2, central_symmetry_point(ex2)) is True


@pytest.mark.xfail(
    reason="the recorded symmetry point (3/10, (2a+c+b-u)/2, 1/4) does not"
    " map the piece set to itself; the working point is (1/2, (a+c+u)/2, 1/4)",
    strict=True,
)
def test_recorded_symmetry_point_literal(ex1, p1):
    a, b, c, u = p1
    f = ex1.field
    pt = (q(f, 3, 10), (2 * a + c + b - u) * q(f, 1, 2), q(f, 1, 4))
    assert check_central_symmetry(ex1, pt) is True


def test_wrong_point_fails(ex1, p1):
    a, b, c, u = p1
    f = ex1.field
    assert check_central_symmetry(ex1, (q(f, 1, 2), a, q(f, 1, 4))) is False


def test_rebuilt_template_stays_symmetric_for_any_offset(p1):
    # moving y2 and rebuilding moves T4 and e3 along with it, so the
    # template is symmetric about its own adjusted center for any offset
    a, b, c, u = p1
    f = system_field("s1")
    rebuilt = _assemble(f, a, b, c, u + q(f, 1, 100), a + b - u, "rebuilt")
    assert check_central_symmetry(rebuilt, central_symmetry_point(rebuilt)) is True


def test_shifted_tube_breaks_symmetry(ex1, p1):
    # shift only the physical pieces of the lower tube, leaving the rest:
    # no point can restore the reflection
    a, b, c, u = p1
    f = ex1.field
    from thinsections.surface import Plate, _tube_walls

    d = q(f, 1, 100)
    t2, t3 = ex1.plates[0].holes
    t2s = t2.translated(f.zero, d)
    plate_a = Plate(ex1.plates[0].outer, (t2s, t3), ex1.plates[0].level)
    walls = _tube_walls(t2s, (f.zero, q(f, 1, 4))) + ex1.walls[4:]
    broken = PLSurface(f, (plate_a, ex1.plates[1]), walls, ex1.lattice, "broken")
    assert check_central_symmetry(broken, central_symmetry_point(broken)) is False
    assert check_central_symmetry(broken, central_symmetry_point(ex1)) is False


# -- closed-surface audit ----------------------------------------------------


def test_euler_characteristic(ex1, ex2):
    for S in (ex1, ex2):
        chi = euler_characteristic(S)
        assert chi == -4
        assert (2 - chi) // 2 == 3


@pytest.mark.parametrize("example", (1, 2))
def test_lattice_basis_does_not_matter(example):
    # (e1, e2, e3 + 3(e2 - e1)) spans the same lattice; the gluing of the
    # tube ends then needs a vector with a coefficient of 3 in this basis
    S = build_surface(example)
    e1, e2, e3 = S.lattice
    e3b = tuple(e3[i] + 3 * (e2[i] - e1[i]) for i in range(3))
    T = PLSurface(S.field, S.plates, S.walls, (e1, e2, e3b), "rebased")
    assert euler_characteristic(T) == -4
    assert check_central_symmetry(T, central_symmetry_point(T)) is True


def test_euler_audit_rejects_missing_wall(ex1):
    broken = PLSurface(ex1.field, ex1.plates, ex1.walls[1:], ex1.lattice, "broken")
    with pytest.raises(AuditError):
        euler_characteristic(broken)


def test_euler_audit_rejects_unmatched_hole(ex1, p1):
    a, b, c, u = p1
    f = ex1.field
    # move only the plate hole, leaving tubes behind: gluing must fail
    from thinsections.surface import Plate

    t2, t3 = ex1.plates[0].holes
    moved = Plate(ex1.plates[0].outer,
                  (t2.translated(f.zero, q(f, 1, 50)), t3),
                  ex1.plates[0].level)
    broken = PLSurface(ex1.field, (moved, ex1.plates[1]), ex1.walls,
                       ex1.lattice, "broken")
    with pytest.raises(AuditError):
        euler_characteristic(broken)
