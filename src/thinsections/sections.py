"""Plane sections of the periodic surfaces.

A section of the surface by a plane x2 = level is a disjoint family of
curves, drawn in (x1, x3) coordinates.  Tracing works on floats with numpy:
the exact surface is compiled once to floats, every lattice translate
meeting the requested window contributes horizontal (plate) and vertical
(wall) segments, coincident endpoints are paired, and one walk along the
pairs turns each connected component into one chain.  Tangency levels are
guarded against up front, so the float arithmetic only ever joins endpoints
that agree to machine precision; the tolerance eps is a safety margin, not
a smoothing parameter.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import EmptyWindow, NearSaddle

__all__ = [
    "SectionComponent",
    "trace_section",
    "component_census",
    "grid_census",
    "sample_levels",
    "DEFAULT_EPS",
]

WINDOW_CLASSES = ("spanning", "boundary-clipped", "closed")

DEFAULT_EPS = 1e-9

# Draws sample_levels makes for one level before it gives up.
_DRAWS_PER_LEVEL = 100


@dataclass(frozen=True)
class SectionComponent:
    """One connected curve of a plane section, clipped to the window.

    ``polylines`` holds chains of (x1, x3) vertices; a closed curve is a
    single chain whose first and last points coincide.  ``window_class``
    is "spanning" when the component touches two opposite window edges or
    has diameter at least the window radius, "closed" when the curve closed
    up inside the window, and "boundary-clipped" otherwise.
    """

    polylines: tuple
    window_class: str


@lru_cache(maxsize=8)
def _compiled(surface):
    """The surface as emit_segments' arguments after level and R."""
    f = float
    plates = tuple(
        (f(p.level), f(p.outer.x1[0]), f(p.outer.x1[1]),
         f(p.outer.x2[0]), f(p.outer.x2[1]),
         tuple(sorted(((f(h.x1[0]), f(h.x1[1]), f(h.x2[0]), f(h.x2[1]))
                       for h in p.holes), key=lambda h: h[0])))
        for p in surface.plates)
    walls = tuple((f(w.fixed), f(w.span[0]), f(w.span[1]), f(w.x3[0]), f(w.x3[1]))
                  for w in surface.walls if w.orient == "v")
    tang_y = np.array([f(w.fixed) for w in surface.walls if w.orient == "h"])
    return (plates, walls, tang_y, f(surface.lattice[1][1]), f(surface.plate_period),
            f(surface.lattice[2][1]))


def _window_radius(R):
    R = float(R)
    if not 0 < R < np.inf:
        raise EmptyWindow("window radius must be positive and finite, got %r" % (R,))
    return R


def _emit(surface, level, R, eps):
    R = _window_radius(R)
    level = float(level)
    if not np.isfinite(level):
        raise ValueError("section level must be finite")
    seg, clip, near = _kernels.emit_segments(level, R, *_compiled(surface))
    if near < eps:
        raise NearSaddle(
            "level %.12g is within %.3g of a tangency face" % (level, eps))
    return seg, clip


def _classify(seg_rows, closed, R, eps):
    xs = np.concatenate([seg_rows[:, 0], seg_rows[:, 2]])
    zs = np.concatenate([seg_rows[:, 1], seg_rows[:, 3]])
    tol = max(eps, 1e-9)
    spans_x = xs.min() <= -R + tol and xs.max() >= R - tol
    spans_z = zs.min() <= -R + tol and zs.max() >= R - tol
    diameter = max(xs.max() - xs.min(), zs.max() - zs.min())
    if spans_x or spans_z or diameter >= R:
        return "spanning"
    if closed:
        return "closed"
    return "boundary-clipped"


def _chains(seg, partner):
    """Walk the segments into one point chain per connected component.

    Every endpoint has at most one partner, so a component is a path or a
    cycle.  A path is walked from its first free endpoint, a cycle from its
    first segment, and a cycle's chain ends on its first point.  Returns
    (segment indices, chain, closed) per component.
    """
    ends = seg.reshape(-1, 2)
    used = bytearray(seg.shape[0])

    def walk(start):
        e, exits = start, []
        while True:
            used[e >> 1] = 1
            exits.append(e ^ 1)
            e = partner[e ^ 1]
            if e < 0 or used[e >> 1]:
                break
        pts = list(map(tuple, ends[[start] + exits].tolist()))
        if e == start:
            pts[-1] = pts[0]
        return [x >> 1 for x in exits], tuple(pts), e == start

    out = [walk(e) for e in np.flatnonzero(partner < 0).tolist() if not used[e >> 1]]
    return out + [walk(2 * i) for i in range(len(used)) if not used[i]]


def trace_section(surface, level, R, eps=DEFAULT_EPS):
    """Trace the section of ``surface`` by the plane x2 = level.

    The window is the square |x1| <= R, |x3| <= R.  Raises EmptyWindow for a
    radius that is not positive and finite, and NearSaddle when the level
    comes within eps of a tangency face of any translate meeting the
    window.  Returns a tuple of SectionComponent, spanning curves first.
    """
    seg, clip = _emit(surface, level, R, eps)
    if seg.shape[0] == 0:
        return ()
    partner = _kernels.match_endpoints(seg, clip, eps)
    components = [
        SectionComponent((chain,), _classify(seg[members], closed, R, eps))
        for members, chain, closed in _chains(seg, partner)
    ]
    rank = {c: i for i, c in enumerate(WINDOW_CLASSES)}
    components.sort(key=lambda c: (rank[c.window_class], c.polylines))
    return tuple(components)


def component_census(components):
    counts = {name: 0 for name in WINDOW_CLASSES}
    for comp in components:
        counts[comp.window_class] += 1
    return counts


def grid_census(surface, level, R, pitch=1.0 / 64, eps=DEFAULT_EPS):
    """Flood-fill cross-check: (components, spanning) on a pitch grid.

    Deliberately coarse and independent of the endpoint-matching walk; the
    pitch must stay well below the 1/5 feature separation of the surfaces.
    """
    seg, _clip = _emit(surface, level, R, eps)
    if seg.shape[0] == 0:
        return 0, 0
    return _kernels.flood_spanning(seg, float(R), float(pitch))


def sample_levels(surface, count, seed, R, eps=DEFAULT_EPS):
    """Deterministic section levels over one x2-period, resampled away from
    tangency faces so trace_section accepts every one of them.

    Raises NearSaddle when _DRAWS_PER_LEVEL draws in a row all fall within
    the guard of a tangency face of some translate in the window.
    """
    R = _window_radius(R)
    rng = np.random.default_rng(seed)
    period = float(surface.plate_period)
    c = _compiled(surface)
    out = []
    guard = 10.0 * max(eps, 1e-12)
    while len(out) < count:
        for _ in range(_DRAWS_PER_LEVEL):
            level = float(rng.uniform(0.0, period))
            if _kernels.emit_segments(level, R, *c)[2] >= guard:
                out.append(level)
                break
        else:
            raise NearSaddle(
                "no level in %d draws is %.3g away from every tangency face "
                "at R = %g" % (_DRAWS_PER_LEVEL, guard, R))
    return out
