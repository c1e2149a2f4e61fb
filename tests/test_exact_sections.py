"""An exact section oracle, held against the float tracer.

The bundled surfaces are axis-aligned with coordinates in the surface's
number field, so a section by the plane x2 = level at a rational level
has exact endpoints.  ``exact_section`` builds them as FieldElements
straight from the surface's plates, walls, lattice and plate period,
pairs coincident endpoints by exact equality and classifies every
component exactly.  It shares no code with ``trace_section``: its only
floats are the guesses of ``surface._floor_towards``, which exact
comparisons then check.
"""

from bisect import bisect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinsections.errors import NearSaddle
from thinsections.iis import system_params
from thinsections.sections import WINDOW_CLASSES, component_census, trace_section
from thinsections.surface import _floor_towards, build_surface

# The explicit levels of test_sections.py and test_cli.py.
_U = float(system_params("s1")[3])
_E1Y = float(build_surface(1).lattice[0][1])
EXPLICIT_LEVELS = (0.1, 0.13, 0.15, 0.26, 0.29250440723273, 0.33, 0.33 + _E1Y,
                   0.44, 0.52, 0.61, 0.77, _U + 1e-3)
# The shorter x2-period of the two surfaces.
_PERIOD = min(float(build_surface(e).plate_period) for e in (1, 2))


@pytest.fixture(scope="module")
def surfaces():
    return {1: build_surface(1), 2: build_surface(2)}


def _clip(a, b, lo, hi):
    """[a, b] cut to [lo, hi] with its cut-end flags, or None if empty."""
    ca, cb = a < lo, b > hi
    a, b = lo if ca else a, hi if cb else b
    return (a, b, ca, cb) if a < b else None


def _segments(surface, level, R):
    """Exact segments ((x1, x3), (x1, x3), clipped0, clipped1) of the
    section x2 = level in the window |x1|, |x3| <= R.

    A translate is s*e2 + k3*e3 + k1*(e1 - e2): e2 shifts x1 by one, e3
    shifts x3 by one and e1 - e2 shifts x2 by minus the plate period, so
    each (k3, s) meeting the window has one k1 whose plate strip holds
    the plane.  Which pieces the plane crosses depends only on the gap
    between the pieces' sorted x2 ends that holds it.
    """
    F = surface.field
    one, zero = F.one, F.zero
    e1, e2, e3 = surface.lattice
    period = surface.plate_period
    assert (e2[0], e2[2], e3[0], e3[2]) == (one, zero, zero, one)
    assert (e1[0], e1[2], e2[1] - e1[1]) == (one, zero, period)
    lo, hi = F.rational(-R), F.rational(R)
    y0 = surface.plates[0].outer.x2[0]
    assert all(p.outer.x2 == (y0, y0 + period) for p in surface.plates)
    walls = [w for w in surface.walls if w.orient == "v"]
    ends = {y0, y0 + period} | {v for p in surface.plates for h in p.holes for v in h.x2}
    ends |= {v for w in walls for v in w.span}
    ends = sorted(ends | {w.fixed for w in surface.walls if w.orient == "h"})
    at = {v: i for i, v in enumerate(ends)}

    def crosses(span, gap):
        return at[span[0]] <= gap < at[span[1]]

    plate_pieces, wall_pieces = [], []
    for gap in range(len(ends) - 1):
        plate_pieces.append([])
        for plate in surface.plates:
            x = plate.outer.x1[0]
            for hole in sorted(plate.holes, key=lambda h: h.x1[0]):
                if crosses(hole.x2, gap):
                    plate_pieces[-1].append((x, hole.x1[0], plate.level))
                    x = hole.x1[1]
            plate_pieces[-1].append((x, plate.outer.x1[1], plate.level))
        wall_pieces.append([(w.fixed, w.x3) for w in walls if crosses(w.span, gap)])
    xs = [v for p in surface.plates for v in p.outer.x1] + [w.fixed for w in walls]
    zs = [p.level for p in surface.plates] + [v for w in walls for v in w.x3]
    k3s, ss = [range(-_floor_towards(max(v) - lo, one),
                     _floor_towards(hi - min(v), one) + 1) for v in (zs, xs)]
    out = []
    for k3 in k3s:
        y = level - k3 * e3[1] - ss[0] * e2[1]
        y -= _floor_towards(y - y0, period) * period
        for s in ss:
            while y < y0:
                y += period
            while y >= ends[-1]:
                y -= period
            gap = bisect(ends, y) - 1
            assert y != ends[gap], "the plane meets a plate seam or a tangency face"
            for xa, xb, z in plate_pieces[gap]:
                z = z + k3
                piece = lo <= z <= hi and _clip(xa + s, xb + s, lo, hi)
                if piece:
                    out.append(((piece[0], z), (piece[1], z)) + piece[2:])
            for x, (za, zb) in wall_pieces[gap]:
                x = x + s
                piece = lo <= x <= hi and _clip(za + k3, zb + k3, lo, hi)
                if piece:
                    out.append(((x, piece[0]), (x, piece[1])) + piece[2:])
            y -= e2[1]
    return out


def exact_section(surface, level, R):
    """Components of the section x2 = level, |x1|, |x3| <= R, computed
    exactly at the rational ``level`` and radius ``R``.

    Returns (window class, set of (x1, x3) endpoints, segment count) per
    component, classed as trace_section documents: spanning when it
    touches two opposite window edges or has diameter at least R, closed
    when every segment has two partners, boundary-clipped otherwise.
    """
    F = surface.field
    level, R = Fraction(level), Fraction(R)
    segs = _segments(surface, F.rational(level), R)
    root = list(range(len(segs)))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    owners = {}
    for i, (p, q, cp, cq) in enumerate(segs):
        for end, clipped in ((p, cp), (q, cq)):
            if not clipped:
                owners.setdefault(end, []).append(i)
    partners = [0] * len(segs)
    for end, at in owners.items():
        assert len(at) <= 2, "three segment ends meet at %r" % (end,)
        if len(at) == 2:
            root[find(at[0])] = find(at[1])
            for i in at:
                partners[i] += 1
    members = {}
    for i in range(len(segs)):
        members.setdefault(find(i), []).append(i)
    out = []
    for group in members.values():
        pts = {end for i in group for end in segs[i][:2]}
        # touching two opposite edges makes the diameter 2R
        if any(max(v) - min(v) >= R for v in ({p[k] for p in pts} for k in (0, 1))):
            cls = "spanning"
        elif all(partners[i] == 2 for i in group):
            cls = "closed"
        else:
            cls = "boundary-clipped"
        out.append((cls, pts, len(group)))
    return out


def _float(x):
    """x as a float; a rational x skips the interval evaluation."""
    c = x.coeffs
    return float(c[0]) if len(c) == 1 else float(x)


def _key(p):
    return round(p[0], 6), round(p[1], 6)


def _points(pts):
    """Points as an array sorted by their rounded coordinates."""
    return np.array(sorted(pts, key=_key)).reshape(-1, 2)


def _assert_agrees(surface, level, R):
    """The oracle and trace_section give the same census and segment
    count, and each exact component's endpoints are, one to one and
    within 1e-9, the points of one traced component of its class."""
    comps = trace_section(surface, level, R)
    exact = exact_section(surface, level, R)
    census = {c: sum(e[0] == c for e in exact) for c in WINDOW_CLASSES}
    assert census == component_census(comps)
    assert (sum(e[2] for e in exact)
            == sum(len(c.polylines[0]) - 1 for c in comps))
    owner = {_key(p): k for k, c in enumerate(comps) for p in c.polylines[0]}
    matched = set()
    for cls, pts, _n in exact:
        exact_pts = [(_float(x), _float(z)) for x, z in pts]
        k = owner[_key(exact_pts[0])]
        assert k not in matched and comps[k].window_class == cls
        matched.add(k)
        chain = comps[k].polylines[0]
        traced_pts = chain[:-1] if chain[0] == chain[-1] else chain
        a, b = _points(exact_pts), _points(traced_pts)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-9
    assert len(matched) == len(comps)


@pytest.mark.parametrize("example", (1, 2))
@pytest.mark.parametrize("level", (0.15, 0.52))
def test_oracle_matches_trace(surfaces, example, level):
    _assert_agrees(surfaces[example], level, 10.0)


@pytest.mark.parametrize("example", (1, 2))
def test_oracle_matches_trace_on_explicit_levels(surfaces, example):
    skipped = []
    for level in EXPLICIT_LEVELS:
        try:
            _assert_agrees(surfaces[example], level, 3.0)
        except NearSaddle:
            skipped.append(level)
    assert skipped == ([0.29250440723273] if example == 1 else [])


def test_oracle_matches_trace_far_from_the_fundamental_period(surfaces):
    _assert_agrees(surfaces[1], 1e15, 5.0)
    exact = exact_section(surfaces[1], 1e15, 5.0)
    assert (len(exact), sum(e[2] for e in exact)) == (24, 436)


@settings(max_examples=25)
@given(st.integers(0, int(_PERIOD * 2 ** 9) - 1))
def test_oracle_matches_trace_at_random_levels(surfaces, k):
    # odd multiples of 2^-10 below the period; none lies in the x2-shift
    # group of either lattice, where the plane would run along a plate seam
    level = (2 * k + 1) / 2 ** 10
    for surface in surfaces.values():
        try:
            _assert_agrees(surface, level, 2.0)
        except NearSaddle:
            continue
