"""Triply periodic piecewise-linear surfaces built from identification data.

The surface lives in R^3 and is invariant under a rank-3 lattice.  A
fundamental portion consists of two horizontal plates (rectangles with
two rectangular holes each, at heights 1/4 and 3/4) and three vertical
tubes (boundaries of the hole rectangles swept over an x3-interval).
All coordinates are exact number-field elements; floats only enter
when a caller asks for them.
"""

import functools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import AuditError, InvalidSystem
from .iis import system_field, system_params
from .linalg import bareiss_solve
from .polynomials import integer_form

__all__ = [
    "Rect",
    "Plate",
    "Wall",
    "PLSurface",
    "SaddleReport",
    "build_surface",
    "saddle_levels",
    "central_symmetry_point",
    "check_central_symmetry",
    "euler_characteristic",
]


class Rect:
    """Axis-parallel rectangle [x1_lo, x1_hi] x [x2_lo, x2_hi], exact ends."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        lo1, hi1 = x1
        lo2, hi2 = x2
        if hi1 <= lo1 or hi2 <= lo2:
            raise InvalidSystem("rectangle sides must have positive length")
        self.x1 = (lo1, hi1)
        self.x2 = (lo2, hi2)

    def sides(self):
        return (self.x1[1] - self.x1[0], self.x2[1] - self.x2[0])

    def same_as(self, other):
        return self.x1 + self.x2 == other.x1 + other.x2

    def strictly_inside(self, other):
        return (
            other.x1[0] < self.x1[0]
            and self.x1[1] < other.x1[1]
            and other.x2[0] < self.x2[0]
            and self.x2[1] < other.x2[1]
        )

    def __repr__(self):
        f = lambda v: round(float(v), 6)
        return "Rect([%s, %s] x [%s, %s])" % (
            f(self.x1[0]), f(self.x1[1]), f(self.x2[0]), f(self.x2[1]))


@dataclass(frozen=True)
class Plate:
    """Horizontal piece: outer rectangle minus holes, at height ``level``."""

    outer: Rect
    holes: tuple
    level: object


@dataclass(frozen=True)
class Wall:
    """One flat face of a vertical tube.

    ``orient`` is "v" for a face in a plane x1 = const (the section-visible
    kind) or "h" for a face in a plane x2 = const (a tangency face of the
    height function x2).  ``fixed`` is the constant coordinate, ``span`` the
    extent in the other horizontal coordinate, ``x3`` the height interval.
    """

    orient: str
    fixed: object
    span: tuple
    x3: tuple


@dataclass(frozen=True)
class PLSurface:
    field: object
    plates: tuple
    walls: tuple
    lattice: tuple
    label: str

    @property
    def plate_period(self):
        """Height of the plate rectangle; equals the x2-shift of e2 - e1."""
        return self.plates[0].outer.x2[1] - self.plates[0].outer.x2[0]


def _tube_walls(rect, z):
    z0, z1 = z
    (l, r), (b, t) = rect.x1, rect.x2
    return (
        Wall("v", l, (b, t), (z0, z1)),
        Wall("v", r, (b, t), (z0, z1)),
        Wall("h", b, (l, r), (z0, z1)),
        Wall("h", t, (l, r), (z0, z1)),
    )


def _assemble(field, a, b, c, y2, y4, label):
    q = lambda p: field.rational(Fraction(*p))
    one, zero = q((1, 1)), q((0, 1))
    height = a + b + 2 * c
    outer = Rect((zero, one), (zero, height))
    t2 = Rect((q((1, 5)), q((2, 5))), (y2, y2 + c))
    t3 = Rect((q((3, 5)), q((4, 5))), (a, a + c))
    t4 = Rect((q((1, 5)), q((2, 5))), (y4, y4 + c))
    # t3's x1-range is apart from t2's and t4's, so a plate's holes never overlap
    if not all(hole.strictly_inside(outer) for hole in (t2, t3, t4)):
        raise InvalidSystem("tube rectangle leaves the plate")
    plates = (
        Plate(outer, (t2, t3), q((1, 4))),
        Plate(outer, (t3, t4), q((3, 4))),
    )
    walls = (
        _tube_walls(t2, (zero, q((1, 4))))
        + _tube_walls(t3, (q((1, 4)), q((3, 4))))
        + _tube_walls(t4, (q((3, 4)), one))
    )
    lattice = (
        (one, -(b + c), zero),
        (one, a + c, zero),
        (zero, y4 - y2, one),
    )
    return PLSurface(field, plates, walls, lattice, label)


def build_surface(example):
    """Assemble one of the two bundled surfaces from exact system data.

    Example 1 places the tube rectangles at x2-ranges [y2, y2+c] with
    y2 = u and y4 = a+b-u, the two intervals of the third pair.  Example 2
    reuses the template with the second system's third pair [d, d+c] and
    [e, e+c]; its original source records only the identification data, so
    the rectangle placement here is a reconstruction, not a transcription.
    """
    if example == 1:
        field = system_field("s1")
        a, b, c, u = system_params("s1")
        return _assemble(field, a, b, c, u, a + b - u, "example-1")
    if example == 2:
        field = system_field("s2")
        a, b, c, d, e = system_params("s2")
        return _assemble(field, a, b, c, d, e, "example-2")
    raise InvalidSystem("unknown surface example %r" % (example,))


# -- saddle data ----------------------------------------------------------


@dataclass(frozen=True)
class SaddleReport:
    """Tangency levels of the height function x2.

    ``distinct`` compares the listed values pairwise as real numbers.
    ``classes`` partitions the indices by congruence modulo the group of
    x2-components of lattice vectors; two tangency faces in one class lie
    on a common leaf of the plane foliation in the quotient 3-torus even
    though their fundamental-domain levels differ.
    """

    values: tuple
    distinct: bool
    classes: tuple


def _rational_coeffs(x, dim):
    cs = list(x.coeffs) + [Fraction(0)] * dim
    return [Fraction(c) for c in cs[:dim]]


def x2_shift_coefficients(surface, value):
    """Integer (k1, k2, k3) with value = sum k_i * x2(e_i), or None.

    The bundled lattices have x2-components whose coefficient vectors over
    the field basis form a unimodular matrix, so membership in the shift
    group reduces to an exact linear solve.
    """
    if value.is_zero():
        return (0, 0, 0)
    if surface.field.degree != 3:
        raise AuditError("shift-group test expects a cubic field")
    cols = [_rational_coeffs(e[1], 3) for e in surface.lattice]
    rows = [integer_form([*(c[i] for c in cols), b])[0]
            for i, b in enumerate(_rational_coeffs(value, 3))]
    z, det = bareiss_solve([r[:3] for r in rows], [r[3] for r in rows])
    if not det or any(v % det for v in z):
        return None
    ks = tuple(v // det for v in z)
    check = sum((surface.lattice[i][1] * ks[i] for i in range(3)), surface.field.zero)
    if check != value:
        raise AuditError("shift certificate failed to reproduce the value")
    return ks


def saddle_levels(surface):
    values = tuple(w.fixed for w in surface.walls if w.orient == "h")
    distinct = len(set(values)) == len(values)
    classes = []
    for i, v in enumerate(values):
        for cls in classes:
            if x2_shift_coefficients(surface, v - values[cls[0]]) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    return SaddleReport(values, distinct, tuple(tuple(c) for c in classes))


# -- central symmetry ------------------------------------------------------


def central_symmetry_point(surface):
    """The fixed point (1/2, (y2 + a + c)/2, 1/4) of the surface's point
    reflection, read off from the plate holes: y2 + a + c is the sum of the
    lower tube's bottom edge and the middle tube's top edge."""
    field = surface.field
    half = field.rational(Fraction(1, 2))
    lower, middle = surface.plates[0].holes
    p2 = (lower.x2[0] + middle.x2[1]) * half
    return (half, p2, field.rational(Fraction(1, 4)))


def _plate_rects(plate):
    """Decompose outer-minus-holes into exact rectangles (vertical strips)."""
    cuts = _dedup_sorted([*plate.outer.x1] + [v for h in plate.holes for v in h.x1])
    rects = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid_blocks = sorted(
            (h.x2 for h in plate.holes
             if h.x1[0] <= lo and hi <= h.x1[1]),
            key=lambda yy: yy[0],
        )
        y = plate.outer.x2[0]
        for b0, b1 in mid_blocks:
            if y < b0:
                rects.append(((lo, hi), (y, b0)))
            y = b1
        if y < plate.outer.x2[1]:
            rects.append(((lo, hi), (y, plate.outer.x2[1])))
    return rects


def _faces(surface):
    """Flatten the surface into faces (axis, (x1, x2, x3 ranges)): boxes
    whose range along ``axis`` is the face's plane, (value, value).

    axis 2: plate pieces; axis 0: vertical tube faces; axis 1: tangency
    tube faces.
    """
    out = []
    for plate in surface.plates:
        for x1, x2 in _plate_rects(plate):
            out.append((2, (x1, x2, (plate.level, plate.level))))
    for w in surface.walls:
        flat = (w.fixed, w.fixed)
        out.append((0, (flat, w.span, w.x3)) if w.orient == "v" else (1, (w.span, flat, w.x3)))
    return out


def _floor_towards(value, unit):
    """Largest integer n with n*unit <= value, by float guess + exact check.

    A guess that misses is replaced by a new guess from the exact
    remainder, so the rounds needed grow with the digits of value/unit,
    not with its size.
    """
    u = float(unit)
    n = int(float(value) // u)
    while True:
        over = value - (n + 1) * unit
        if over.sign() >= 0:
            n += 1 + max(0, int(float(over) // u))
            continue
        rest = value - n * unit
        if rest.sign() >= 0:
            return n
        n += min(-1, int(float(rest) // u))


def _into_cell(surface, boxes):
    """Translate tagged boxes (tag, (x1, x2, x3 ranges)) by lattice vectors
    into the cell [0, 1) x [0, P) x [0, 1), splitting a box where it wraps.

    One reduction step per lattice direction, each cutting one range at
    multiples of its unit: along e1 the x1 range at integers, along e3 the
    x3 range at integers, then along e2 - e1 = (0, P, 0) the x2 range at
    multiples of the plate period P.  e1 and e3 also drag x2 by their
    x2-components.  A range, at most one unit wide, starting in cell n is
    cut at (n + 1) * unit; a piece in cell 0 keeps its coordinates.  Each
    step floors each distinct range start and builds each shift k * unit
    once (many faces share them).  A point (all ranges degenerate) is never
    split, so lattice translates of one point reduce to the same cell point.
    """
    e1y, e3y = surface.lattice[0][1], surface.lattice[2][1]
    for axis, unit, drag in ((0, 1, e1y), (2, 1, e3y), (1, surface.plate_period, None)):
        floors, shifts, out = {}, {}, []
        for tag, box in boxes:
            lo, hi = box[axis]
            if lo not in floors:
                n = _floor_towards(lo, unit)
                floors[lo] = n, (n + 1) * unit
            n, cut = floors[lo]
            pieces = [(n, lo, hi)] if hi <= cut else [(n, lo, cut), (n + 1, cut, hi)]
            for k, a, b in pieces:
                moved = list(box)
                if k:
                    if k not in shifts:
                        shifts[k] = k * unit, None if drag is None else k * drag
                    step, lift = shifts[k]
                    a, b = a - step, b - step
                    if lift is not None:
                        moved[1] = (moved[1][0] - lift, moved[1][1] - lift)
                moved[axis] = (a, b)
                out.append((tag, tuple(moved)))
        boxes = out
    return boxes


def _dedup_sorted(vals):
    kept = []
    for v in sorted(vals):
        if not kept or v != kept[-1]:
            kept.append(v)
    return kept


def _atom_set(rects, cuts_u, cuts_v):
    """Grid cells (i, j) the rectangles cover, by bisection: every
    rectangle end is one of the cuts."""
    covered = set()
    for (u0, u1), (v0, v1) in rects:
        js = range(bisect_left(cuts_v, v0), bisect_left(cuts_v, v1))
        covered.update((i, j) for i in range(bisect_left(cuts_u, u0), bisect_left(cuts_u, u1))
                       for j in js)
    return covered


def _same_union(rects_a, rects_b):
    both = rects_a + rects_b
    cuts_u = _dedup_sorted([v for r in both for v in r[0]])
    cuts_v = _dedup_sorted([v for r in both for v in r[1]])
    return _atom_set(rects_a, cuts_u, cuts_v) == _atom_set(rects_b, cuts_u, cuts_v)


def _group_by_plane(boxes):
    """Faces by plane: (axis, value) -> rectangles in the other two ranges."""
    groups = {}
    for axis, box in boxes:
        groups.setdefault((axis, box[axis][0]), []).append(
            tuple(r for i, r in enumerate(box) if i != axis))
    return groups


@functools.lru_cache(maxsize=8)
def _own_planes(surface):
    """The surface's own faces in the cell, by plane (shared: not modified)."""
    return _group_by_plane(_into_cell(surface, _faces(surface)))


def check_central_symmetry(surface, point):
    """Whether x -> 2*point - x maps the surface to itself mod the lattice.

    Faces are reflected, then tested in order.  First the x1 and x3
    planes: `_into_cell` moves x1 only in its first pass and x3 only in its
    second, so a reflected x1 or x3 face lands on the plane v - floor(v);
    planes unlike the surface's own give False with no face reduced.  Then
    all faces are translated back into the fundamental cell and compared
    plane by plane as exact unions of rectangles, so pieces that the
    reflection shears across cell boundaries still match.  The surface's
    own faces are reduced to the cell once per surface and cached.
    """
    twice = [2 * p for p in point]
    reflected = [(axis, tuple((t - hi, t - lo) for t, (lo, hi) in zip(twice, box)))
                 for axis, box in _faces(surface)]
    original = _own_planes(surface)
    planes = {(axis, box[axis][0]) for axis, box in reflected if axis != 1}
    if {(axis, v - _floor_towards(v, 1)) for axis, v in planes} != {
            key for key in original if key[0] != 1}:
        return False
    image = _group_by_plane(_into_cell(surface, reflected))
    return original.keys() == image.keys() and all(
        _same_union(rects, image[key]) for key, rects in original.items())


# -- closed-surface bookkeeping ---------------------------------------------


def _reassemble_tubes(surface):
    """Group wall faces back into tubes; audit that each tube closes up."""
    groups = {}  # height interval -> its walls
    for w in surface.walls:
        groups.setdefault(w.x3, []).append(w)
    tubes = []
    for group in groups.values():
        vs = sorted((w for w in group if w.orient == "v"), key=lambda w: w.fixed)
        hs = sorted((w for w in group if w.orient == "h"), key=lambda w: w.fixed)
        if len(vs) != 2 or len(hs) != 2:
            raise AuditError("tube does not have two pairs of opposite faces")
        l, r = vs[0].fixed, vs[1].fixed
        b, t = hs[0].fixed, hs[1].fixed
        if any(w.span != (b, t) for w in vs):
            raise AuditError("vertical tube faces do not meet the horizontal ones")
        if any(w.span != (l, r) for w in hs):
            raise AuditError("horizontal tube faces do not meet the vertical ones")
        tubes.append((Rect((l, r), (b, t)), vs[0].x3))
    return tubes


def euler_characteristic(surface):
    """Euler characteristic of the closed quotient surface.

    Audits the gluing pattern: each plate closes into a torus-with-holes
    under the horizontal lattice, every tube end is matched either by a
    plate hole at its height or by another tube end shifted by any nonzero
    lattice vector, and nothing is matched twice.  The characteristic is then the
    hole count of the plates with the sign flipped, tubes contributing
    zero.
    """
    e1, e2, e3 = surface.lattice
    ends = (*e1[::2], *e2[::2], *e3[::2])  # (x1, x3) of each basis vector
    if ends != (1, 0, 1, 0, 0, 1):
        raise AuditError("lattice must be e1, e2 = (1, *, 0) and e3 = (0, *, 1)")
    if e2[1] - e1[1] != surface.plate_period:
        raise AuditError("x2-period of the lattice must match the plate height")
    for plate in surface.plates:
        if plate.outer.x1[1] - plate.outer.x1[0] != 1:
            raise AuditError("plate width must equal the x1-period")
        for h in plate.holes:
            if not h.strictly_inside(plate.outer):
                raise AuditError("plate hole touches the outer boundary")

    circles = [[rect, z, None] for rect, zs in _reassemble_tubes(surface) for z in zs]
    holes = [[h, plate.level, pi, None]
             for pi, plate in enumerate(surface.plates) for h in plate.holes]

    corners = [(None, ((r.x1[0], r.x1[0]), (r.x2[0], r.x2[0]), (z, z))) for r, z, _ in circles]
    cells = [box for _, box in _into_cell(surface, corners)]
    for ci, (rect, z, _) in enumerate(circles):
        for hole in holes:
            if hole[1] == z and hole[0].same_as(rect):
                if hole[3] is not None or circles[ci][2] is not None:
                    raise AuditError("boundary circle glued twice")
                hole[3] = ci
                circles[ci][2] = ("plate", hole[2])
        for cj in range(ci + 1, len(circles)):
            # glued when a nonzero lattice vector takes this end onto the other
            if (cells[ci] != cells[cj] or rect.sides() != circles[cj][0].sides()
                    or corners[ci] == corners[cj]):
                continue
            if circles[ci][2] is not None or circles[cj][2] is not None:
                raise AuditError("boundary circle glued twice")
            circles[ci][2] = ("tube", cj)
            circles[cj][2] = ("tube", ci)
    if any(c[2] is None for c in circles):
        raise AuditError("unmatched tube end; the surface is not closed")
    if any(h[3] is None for h in holes):
        raise AuditError("unmatched plate hole; the surface is not closed")
    return -sum(len(p.holes) for p in surface.plates)
