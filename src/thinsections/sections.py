"""Plane sections of the periodic surfaces.

A section of the surface by a plane x2 = level is a disjoint family of
curves, drawn in (x1, x3) coordinates.  Tracing works on floats: the exact
surface is compiled once to arrays, every lattice translate meeting the
requested window contributes horizontal (plate) and vertical (wall)
segments, and coincident endpoints are joined back into curves.  Tangency
levels are guarded against up front, so the float arithmetic only ever
joins endpoints that agree to machine precision; the tolerance eps is a
safety margin, not a smoothing parameter.
"""

import os
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
    "default_eps",
]

WINDOW_CLASSES = ("spanning", "boundary-clipped", "closed")


def default_eps():
    raw = os.environ.get("THINSECTIONS_PRECISION", "")
    if raw:
        value = float(raw)
        if not 0 < value < 1e-3:
            raise ValueError("THINSECTIONS_PRECISION out of range: %r" % raw)
        return value
    return 1e-9


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
    plates = surface.plates
    holes = [(pid, h) for pid, p in enumerate(plates) for h in p.holes]
    vw = [w for w in surface.walls if w.orient == "v"]
    tang = [w for w in surface.walls if w.orient == "h"]
    f = float
    return {
        "plate_z": np.array([f(p.level) for p in plates]),
        "plate_x0": np.array([f(p.outer.x1[0]) for p in plates]),
        "plate_x1": np.array([f(p.outer.x1[1]) for p in plates]),
        "plate_y0": np.array([f(p.outer.x2[0]) for p in plates]),
        "plate_y1": np.array([f(p.outer.x2[1]) for p in plates]),
        "hole_pid": np.array([pid for pid, _ in holes], dtype=np.int64),
        "hole_x0": np.array([f(h.x1[0]) for _, h in holes]),
        "hole_x1": np.array([f(h.x1[1]) for _, h in holes]),
        "hole_y0": np.array([f(h.x2[0]) for _, h in holes]),
        "hole_y1": np.array([f(h.x2[1]) for _, h in holes]),
        "vw_x": np.array([f(w.fixed) for w in vw]),
        "vw_y0": np.array([f(w.span[0]) for w in vw]),
        "vw_y1": np.array([f(w.span[1]) for w in vw]),
        "vw_z0": np.array([f(w.x3[0]) for w in vw]),
        "vw_z1": np.array([f(w.x3[1]) for w in vw]),
        "tang_y": np.array([f(w.fixed) for w in tang]),
        "e2y": f(surface.lattice[1][1]),
        "period": f(surface.plate_period),
        "e3y": f(surface.lattice[2][1]),
    }


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
    c = _compiled(surface)
    seg, clip, near = _kernels.emit_segments(
        level, R, eps,
        c["plate_z"], c["plate_x0"], c["plate_x1"], c["plate_y0"], c["plate_y1"],
        c["hole_pid"], c["hole_x0"], c["hole_x1"], c["hole_y0"], c["hole_y1"],
        c["vw_x"], c["vw_y0"], c["vw_y1"], c["vw_z0"], c["vw_z1"],
        c["tang_y"], c["e2y"], c["period"], c["e3y"],
    )
    if near < eps:
        raise NearSaddle(
            "level %.12g is within %.3g of a tangency face" % (level, eps))
    return seg, clip


def _classify(seg_rows, free_ends, R, eps):
    xs = np.concatenate([seg_rows[:, 0], seg_rows[:, 2]])
    zs = np.concatenate([seg_rows[:, 1], seg_rows[:, 3]])
    tol = max(eps, 1e-9)
    spans_x = xs.min() <= -R + tol and xs.max() >= R - tol
    spans_z = zs.min() <= -R + tol and zs.max() >= R - tol
    diameter = max(xs.max() - xs.min(), zs.max() - zs.min())
    if spans_x or spans_z or diameter >= R:
        return "spanning"
    if free_ends == 0:
        return "closed"
    return "boundary-clipped"


def _chains(seg_rows, partner_of):
    """Walk segments into point chains; matched endpoints fuse segments."""
    n = len(seg_rows)
    used = [False] * n
    chains = []

    def endpoint(i, side):
        r = seg_rows[i]
        return (r[0], r[1]) if side == 0 else (r[2], r[3])

    def walk(start, side):
        pts = [endpoint(start, side)]
        i, entered = start, side
        while True:
            used[i] = True
            out_side = 1 - entered
            pts.append(endpoint(i, out_side))
            nxt = partner_of.get((i, out_side))
            if nxt is None:
                return pts, False
            j, jside = nxt
            if used[j]:
                return pts, j == start and jside == side
            i, entered = j, jside

    for i in range(n):
        for side in (0, 1):
            if not used[i] and (i, side) not in partner_of:
                chains.append(walk(i, side)[0])
    for i in range(n):
        if not used[i]:
            pts, closed = walk(i, 0)
            if closed:
                pts[-1] = pts[0]
            chains.append(pts)
    return chains


def trace_section(surface, level, R, eps=None):
    """Trace the section of ``surface`` by the plane x2 = level.

    The window is the square |x1| <= R, |x3| <= R.  Raises EmptyWindow for a
    radius that is not positive and finite, and NearSaddle when the level
    comes within eps of a tangency face of any translate meeting the
    window.  Returns a tuple of SectionComponent, spanning curves first.
    """
    if eps is None:
        eps = default_eps()
    seg, clip, = _emit(surface, level, R, eps)
    if seg.shape[0] == 0:
        return ()
    roots, partner = _kernels.match_endpoints(seg, clip, eps)
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(int(r), []).append(i)

    components = []
    for members in groups.values():
        rows = seg[members]
        free = sum(
            1 for i in members for side in (0, 1) if partner[2 * i + side] < 0
        )
        local = {m: k for k, m in enumerate(members)}
        local_partner = {}
        for k, m in enumerate(members):
            for side in (0, 1):
                p = partner[2 * m + side]
                if p >= 0:
                    local_partner[(k, side)] = (local[p // 2], int(p % 2))
        chains = _chains(rows.tolist(), local_partner)
        cls = _classify(rows, free, R, eps)
        components.append(SectionComponent(
            tuple(tuple((float(x), float(z)) for x, z in ch) for ch in chains),
            cls,
        ))
    rank = {c: i for i, c in enumerate(WINDOW_CLASSES)}
    components.sort(key=lambda c: (rank[c.window_class], c.polylines))
    return tuple(components)


def component_census(components):
    counts = {name: 0 for name in WINDOW_CLASSES}
    for comp in components:
        counts[comp.window_class] += 1
    return counts


def grid_census(surface, level, R, pitch=1.0 / 64, eps=None):
    """Flood-fill cross-check: (components, spanning) on a pitch grid.

    Deliberately coarse and independent of the endpoint-matching walk; the
    pitch must stay well below the 1/5 feature separation of the surfaces.
    """
    if eps is None:
        eps = default_eps()
    seg, _clip = _emit(surface, level, R, eps)
    if seg.shape[0] == 0:
        return 0, 0
    return _kernels.flood_spanning(seg, float(R), float(pitch))


def sample_levels(surface, count, seed, R, eps=None):
    """Deterministic section levels over one x2-period, resampled away from
    tangency faces so trace_section accepts every one of them."""
    if eps is None:
        eps = default_eps()
    R = _window_radius(R)
    rng = np.random.default_rng(seed)
    period = float(surface.plate_period)
    c = _compiled(surface)
    out = []
    guard = 10.0 * max(eps, 1e-12)
    while len(out) < count:
        level = float(rng.uniform(0.0, period))
        _s, _c, near = _kernels.emit_segments(
            level, R, eps,
            c["plate_z"], c["plate_x0"], c["plate_x1"], c["plate_y0"], c["plate_y1"],
            c["hole_pid"], c["hole_x0"], c["hole_x1"], c["hole_y0"], c["hole_y1"],
            c["vw_x"], c["vw_y0"], c["vw_y1"], c["vw_z0"], c["vw_z1"],
            c["tang_y"], c["e2y"], c["period"], c["e3y"],
        )
        if near >= guard:
            out.append(level)
    return out
