"""Surface assembly, saddle data, central symmetry, closed-surface audit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounded_fractions
from thinsections import surface as surface_module
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
    _atom_set,
    _dedup_sorted,
    _faces,
    _floor_towards,
    _group_by_plane,
    _into_cell,
    _own_planes,
    _same_union,
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


def translated(rect, d1, d2):
    return Rect((rect.x1[0] + d1, rect.x1[1] + d1), (rect.x2[0] + d2, rect.x2[1] + d2))


def reflected(rect, c1, c2):
    """Image under the point reflection x -> 2c - x of the plane."""
    return Rect((2 * c1 - rect.x1[1], 2 * c1 - rect.x1[0]),
                (2 * c2 - rect.x2[1], 2 * c2 - rect.x2[0]))


def test_rect_requires_positive_sides():
    f = system_field("s1")
    with pytest.raises(InvalidSystem):
        Rect((q(f, 1), q(f, 1)), (q(f, 0), q(f, 1)))
    with pytest.raises(InvalidSystem):
        Rect((q(f, 0), q(f, 1)), (q(f, 2), q(f, 1)))


def test_rect_reflection_is_involutive(ex1):
    t2 = ex1.plates[0].holes[0]
    c1, c2 = q(ex1.field, 1, 2), q(ex1.field, 1, 3)
    back = reflected(reflected(t2, c1, c2), c1, c2)
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
    t2s = translated(t2, f.zero, d)
    plate_a = Plate(ex1.plates[0].outer, (t2s, t3), ex1.plates[0].level)
    walls = _tube_walls(t2s, (f.zero, q(f, 1, 4))) + ex1.walls[4:]
    broken = PLSurface(f, (plate_a, ex1.plates[1]), walls, ex1.lattice, "broken")
    assert check_central_symmetry(broken, central_symmetry_point(broken)) is False
    assert check_central_symmetry(broken, central_symmetry_point(ex1)) is False


def _atom_set_by_grid_scan(rects, cuts_u, cuts_v):
    """Reference atom set: test every cell of the grid against every rectangle."""
    covered = set()
    for (u0, u1), (v0, v1) in rects:
        for i in range(len(cuts_u) - 1):
            if cuts_u[i] < u0 or u1 < cuts_u[i + 1]:
                continue
            for j in range(len(cuts_v) - 1):
                if v0 <= cuts_v[j] and cuts_v[j + 1] <= v1:
                    covered.add((i, j))
    return covered


def _symmetric_by_grid_scan(surface, point):
    """Reference check: the uncached reduction, compared by grid scans."""
    reflected = [(axis, tuple((2 * p - hi, 2 * p - lo) for p, (lo, hi) in zip(point, box)))
                 for axis, box in _faces(surface)]
    original = _own_planes.__wrapped__(surface)
    image = _group_by_plane(_into_cell(surface, reflected))
    if original.keys() != image.keys():
        return False
    for key, rects in original.items():
        both = rects + image[key]
        cuts = [_dedup_sorted([v for r in both for v in r[k]]) for k in (0, 1)]
        if _atom_set_by_grid_scan(rects, *cuts) != _atom_set_by_grid_scan(image[key], *cuts):
            return False
    return True


small_share = bounded_fractions(2, 6)


@st.composite
def rect_unions(draw):
    """Two unions of rectangles over the s1 field whose ends share a few values."""
    f = system_field("s1")
    pool = [f.element(draw(st.tuples(small_share, small_share))) for _ in range(4)]
    pool = _dedup_sorted(pool + [f.gen + draw(small_share)])

    def rect():
        u = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        v = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        return tuple(sorted(u)), tuple(sorted(v))

    return ([rect() for _ in range(draw(st.integers(1, 4)))],
            [rect() for _ in range(draw(st.integers(1, 4)))])


@settings(max_examples=60, deadline=None)
@given(rect_unions())
def test_atom_set_bisection_matches_grid_scan(unions):
    both = unions[0] + unions[1]
    cuts = [_dedup_sorted([v for r in both for v in r[k]]) for k in (0, 1)]
    for rects in unions:
        assert _atom_set(rects, *cuts) == _atom_set_by_grid_scan(rects, *cuts)


def _tabulated_point(surface):
    p = central_symmetry_point(surface)
    return (q(surface.field, 3, 10), p[1], p[2])


@pytest.mark.parametrize("point", [central_symmetry_point, _tabulated_point])
@pytest.mark.parametrize("example", [1, 2])
def test_symmetry_check_matches_reference_and_cache(ex1, ex2, example, point):
    surf = ex1 if example == 1 else ex2
    pt = point(surf)
    want = point is central_symmetry_point
    assert check_central_symmetry(surf, pt) is want
    assert check_central_symmetry(surf, pt) is want  # the cached reduction
    assert _symmetric_by_grid_scan(surf, pt) is want
    assert _own_planes(surf) is _own_planes(surf)
    assert _own_planes(surf) == _own_planes.__wrapped__(surf)


@settings(max_examples=12, deadline=None)
@given(example=st.sampled_from([1, 2]),
       half_shift=st.tuples(*[st.integers(-1, 1)] * 3),
       offset=st.tuples(*[st.sampled_from([0, 0, Fraction(1, 10), Fraction(-1, 3)])] * 3))
def test_symmetry_check_at_drawn_points(ex1, ex2, example, half_shift, offset):
    # the centre moved by half a lattice vector is a centre too
    surf = ex1 if example == 1 else ex2
    half = Fraction(1, 2)
    pt = tuple(c + sum((k * half * e[i] for k, e in zip(half_shift, surf.lattice)), d * surf.field.one)
               for i, (c, d) in enumerate(zip(central_symmetry_point(surf), offset)))
    got = check_central_symmetry(surf, pt)
    assert check_central_symmetry(surf, pt) is got
    assert got is _symmetric_by_grid_scan(surf, pt)
    if not any(offset):
        assert got is True


def _reference_check_central_symmetry(surface, point):
    """The check without its plane test: every reflected face is reduced
    into the cell before any plane is compared."""
    twice = [2 * p for p in point]
    reflected = [(axis, tuple((t - hi, t - lo) for t, (lo, hi) in zip(twice, box)))
                 for axis, box in _faces(surface)]
    original = _own_planes(surface)
    image = _group_by_plane(_into_cell(surface, reflected))
    return original.keys() == image.keys() and all(
        _same_union(rects, image[key]) for key, rects in original.items())


def _symmetry_points(surf):
    """The centre, the tabulated 3/10 point, the centre moved by 1/10 in
    x2, and the grid x1, x3 in {0, 1/4, 1/2, 3/4}, x2 in {p2, p2 + 1/10}."""
    f = surf.field
    c = central_symmetry_point(surf)
    x2s = (c[1], c[1] + q(f, 1, 10))
    return [c, _tabulated_point(surf), (c[0], x2s[1], c[2])] + [
        (q(f, i, 4), y, q(f, k, 4)) for i in range(4) for y in x2s for k in range(4)]


def _counting_into_cell(monkeypatch):
    calls = []
    reduce = surface_module._into_cell
    monkeypatch.setattr(surface_module, "_into_cell",
                        lambda surf, boxes: calls.append(len(boxes)) or reduce(surf, boxes))
    return calls


@pytest.mark.parametrize("example", [1, 2])
def test_symmetry_plane_test_agrees_with_full_reduction(ex1, ex2, example, monkeypatch):
    surf = ex1 if example == 1 else ex2
    points = _symmetry_points(surf)
    want = [_reference_check_central_symmetry(surf, pt) for pt in points]
    assert want[:3] == [True, False, False]
    calls = _counting_into_cell(monkeypatch)
    reached = []
    for pt, expected in zip(points, want):
        before = len(calls)
        assert check_central_symmetry(surf, pt) is expected
        reached.append(len(calls) > before)
    # the x1 and x3 planes reject 17 of the 35 points; the x2 shift of
    # 1/10 keeps them, so the full comparison decides that point
    assert reached[:3] == [True, False, True]
    assert sum(reached) == 18


@pytest.mark.parametrize("example", [1, 2])
def test_failing_planes_reject_without_reducing_a_face(ex1, ex2, example, monkeypatch):
    surf = ex1 if example == 1 else ex2
    c = central_symmetry_point(surf)
    # the tabulated point fails on its x1 planes, the centre moved by 1/10
    # in x3 on its x3 planes alone
    points = [_tabulated_point(surf), (c[0], c[1], c[2] + q(surf.field, 1, 10))]
    assert [_reference_check_central_symmetry(surf, pt) for pt in points] == [False, False]
    _own_planes(surf)  # the surface's own reduction, cached
    calls = _counting_into_cell(monkeypatch)
    for pt in points:
        assert check_central_symmetry(surf, pt) is False
    assert calls == []


def _into_cell_flooring_every_range(surface, boxes):
    """Reference reduction: one exact floor for every range of every box."""
    e1y, e3y = surface.lattice[0][1], surface.lattice[2][1]
    for axis, unit, drag in ((0, 1, e1y), (2, 1, e3y), (1, surface.plate_period, None)):
        out = []
        for tag, box in boxes:
            lo, hi = box[axis]
            n = _floor_towards(lo, unit)
            cut = (n + 1) * unit
            for k, a, b in ([(n, lo, hi)] if hi <= cut else [(n, lo, cut), (n + 1, cut, hi)]):
                moved = list(box)
                moved[axis] = (a - k * unit, b - k * unit)
                if k and drag is not None:
                    moved[1] = (moved[1][0] - k * drag, moved[1][1] - k * drag)
                out.append((tag, tuple(moved)))
        boxes = out
    return boxes


cell_coord = st.tuples(*[bounded_fractions(3, 12)] * 3)
cell_share = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(example=st.sampled_from([1, 2]), data=st.data())
def test_into_cell_matches_flooring_every_range(ex1, ex2, example, data):
    surf = ex1 if example == 1 else ex2
    f, draw = surf.field, data.draw
    units = (1, surf.plate_period, 1)
    # few distinct starts, so boxes share coordinates; widths up to one
    # unit cross cell walls, width 0 gives degenerate ranges
    pool = [f.element(c) for c in draw(st.lists(cell_coord, min_size=1, max_size=4))]
    pool += [f.rational(draw(cell_share) * 4 - 2)]
    boxes = []
    for tag in range(draw(st.integers(min_value=1, max_value=8))):
        box = []
        for unit in units:
            lo = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                lo = (lo + 1) - 1  # an equal start, another object
            box.append((lo, lo + draw(cell_share) * unit))
        boxes.append((tag, tuple(box)))
    got = _into_cell(surf, boxes)
    assert got == _into_cell_flooring_every_range(surf, boxes)
    for _, box in got:
        for (lo, hi), unit in zip(box, units):
            assert 0 <= lo < unit and lo <= hi <= unit


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
                  (translated(t2, f.zero, q(f, 1, 50)), t3),
                  ex1.plates[0].level)
    broken = PLSurface(ex1.field, (moved, ex1.plates[1]), ex1.walls,
                       ex1.lattice, "broken")
    with pytest.raises(AuditError):
        euler_characteristic(broken)
