"""Plane sections of the periodic surfaces.

A section of the surface by a plane x2 = level is a disjoint family of
curves, drawn in (x1, x3) coordinates.  Tracing works with numpy: the
exact surface is compiled once, every lattice translate meeting the
requested window contributes horizontal (plate) and vertical (wall)
segments, endpoints are paired by exact integer keys of their (x1, x3)
grid points, and whole-array pointer jumping along the pairs orders every
connected component into one chain, after which one pass classifies all
components.  Floats carry x2, where levels within eps of a tangency face
are refused up front, and the drawn points, which classify within eps.
Equal coordinates of the drawn points share one float object: a window
has few distinct values (501 x1 and 301 x3 among 43,484 points of example
1 at R = 50), so sharing keeps the returned polylines small.

sample_levels draws numpy's default_rng(seed).uniform(0, P) stream, P the
x2-period, computed in Python ints: the levels do not depend on the
installed numpy, and numpy.random is never imported.  A seed that is not
an integer raises PreconditionFailed.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations, product

import numpy as np

from . import _kernels
from .errors import EmptyWindow, InvalidSystem, NearSaddle, PreconditionFailed, WindowTooLarge
from .surface import _floor_towards

__all__ = [
    "SectionComponent",
    "trace_section",
    "component_census",
    "sample_levels",
    "DEFAULT_EPS",
    "MAX_RADIUS",
]

WINDOW_CLASSES = ("spanning", "boundary-clipped", "closed")

DEFAULT_EPS = 1e-9

# Largest window radius traced.  Memory grows with R: example 1 at level
# 0.8294913849009875 peaked at 374 / 474 / 730 MB (ru_maxrss) and traced in
# 2.3 / 4.1 / 6.0 s at R = 300 / 400 / 500, each in a fresh CPython 3.11
# process (best of two runs, 2-core x86-64 host).
MAX_RADIUS = 500

# Draws sample_levels makes for one level before it gives up.
_DRAWS_PER_LEVEL = 100

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    """The surface as emit_segments' arguments after level and R: x2 as
    floats, x1 and x3 as integers over their denominators' lcm dx and dz;
    InvalidSystem unless rational with dx dz < 2^10 (keys below 2^31)."""
    f, walls = float, [w for w in surface.walls if w.orient == "v"]
    xs = [v for p in surface.plates for r in (p.outer, *p.holes) for v in r.x1]
    xs += [w.fixed for w in walls]
    zs = [p.level for p in surface.plates] + [v for w in walls for v in w.x3]
    dx, dz = (math.lcm(1, *(v.coeffs[0].denominator for v in vs if v.coeffs)) for vs in (xs, zs))
    if any(len(v.coeffs) > 1 for v in xs + zs) or dx * dz >> 10:
        raise InvalidSystem("sections need rational x1, x3 with small denominators")
    X, Z = (lambda v: int(sum(v.coeffs) * dx)), (lambda v: int(sum(v.coeffs) * dz))
    plates = tuple(
        (Z(p.level), X(p.outer.x1[0]), X(p.outer.x1[1]),
         f(p.outer.x2[0]), f(p.outer.x2[1]),
         tuple(sorted(((X(h.x1[0]), X(h.x1[1]), f(h.x2[0]), f(h.x2[1]))
                       for h in p.holes), key=lambda h: h[0])))
        for p in surface.plates)
    walls = tuple((X(w.fixed), f(w.span[0]), f(w.span[1]), Z(w.x3[0]), Z(w.x3[1]))
                  for w in walls)
    tang_y = np.array([f(w.fixed) for w in surface.walls if w.orient == "h"])
    return (plates, walls, tang_y, f(surface.lattice[1][1]), f(surface.plate_period),
            f(surface.lattice[2][1]), dx, dz)


def _window_radius(R):
    R = float(R)
    if not 0 < R < np.inf:
        raise EmptyWindow("window radius must be positive and finite, got %r" % (R,))
    if R > MAX_RADIUS:
        raise WindowTooLarge("window radius %g is above the limit %g" % (R, MAX_RADIUS))
    return R


def _emit(surface, level, R, eps):
    R = _window_radius(R)
    level = float(level)
    if not np.isfinite(level):
        raise ValueError("section level must be finite")
    compiled = _compiled(surface)
    traced = level
    if not 0.0 <= level < compiled[4]:
        # e2 - e1 = (0, P, 0) leaves the section unchanged: shift the level
        # into [0, P) (compiled[4] is P as a float) exactly, as floats
        # would lose its place in the period.  The reduction refines the
        # shared field as far as the level's size needs; the interval it
        # had before is put back afterwards, as it isolates the root too.
        field, period = surface.field, surface.plate_period
        exact, saved = field.rational(Fraction(level)), field.root_interval
        try:
            traced = float(exact - _floor_towards(exact, period) * period)
        finally:
            field._restore(saved)
    seg, key, near = _kernels.emit_segments(traced, R, *compiled)
    if near < eps:
        raise NearSaddle(
            "level %.12g is within %.3g of a tangency face" % (level, eps))
    return seg, key


def _column_bounds(col, first):
    return np.minimum.reduceat(col, first), np.maximum.reduceat(col, first)


def _classify(seg, members, first, closed, R, eps):
    """Window class of every component at once.

    ``seg[members]`` are the segments of all components one after another,
    component k from row first[k]; its bounding box comes from reduceats
    over its rows, one gathered column at a time (no copy of all the rows).
    """
    mins, maxs = zip(*(_column_bounds(seg[members, j], first) for j in range(4)))
    lo = np.minimum(np.column_stack(mins[:2]), np.column_stack(mins[2:]))
    hi = np.maximum(np.column_stack(maxs[:2]), np.column_stack(maxs[2:]))
    tol = max(eps, 1e-9)
    spans = ((lo <= -R + tol) & (hi >= R - tol)).any(axis=1)
    diameter = (hi - lo).max(axis=1)
    spanning = spans | (diameter >= R)
    code = np.where(spanning, 0, np.where(closed, 2, 1))
    return [WINDOW_CLASSES[k] for k in code.tolist()]


def _jump(pred, root):
    """Pointer jumping over predecessor links (list ranking, Wyllie 1979).

    A node on a path of predecessors ends pointing at its root, holding
    its distance from it; a node on a cycle points at another node of its
    cycle.  Round t brings the nodes at distance (2^(t-1), 2^t] to their
    root, so the first round that brings none is the last.
    """
    ptr = np.where(root, np.arange(pred.shape[0]), pred)
    rank = (~root).astype(np.int64)
    left = -1
    while True:
        step = rank[ptr]  # 0 exactly where ptr is a root
        count = np.count_nonzero(step)
        if count in (0, left):  # 0: every node is at its root
            return ptr, rank
        left = count
        rank += step
        ptr = ptr[ptr]


def _chain_order(partner):
    """One direction of every component, as nodes in chain order.

    Node e is segment e >> 1 entered at endpoint e.  Returns the kept nodes
    sorted by component and by place in it, the offset of each component
    among them and each component's closed flag.  Temporaries stay local,
    so they are freed before _chains builds its points.
    """
    n2 = partner.shape[0]
    node = np.arange(n2)
    free = partner < 0
    pred = partner ^ 1
    root, rank = _jump(pred, free)
    cyc = ~free[root]
    keep = ~cyc & (root < root[node ^ 1])
    if cyc.any():
        low, ptr = node.copy(), np.where(cyc, pred, node)
        for _ in range(n2.bit_length()):
            low = np.minimum(low, low[ptr])
            ptr = ptr[ptr]
        _, cyc_rank = _jump(pred, ~cyc | (low == node))
        keep |= cyc & (low % 2 == 0)
        root = np.where(cyc, n2 + low, root)
        rank = np.where(cyc, cyc_rank, rank)
    kept = np.flatnonzero(keep)
    # root * n2 + rank is unique per node, so one argsort gives the order
    order = kept[np.argsort(root[kept] * n2 + rank[kept])]
    key = root[order]
    first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    return order, first, key[first] >= n2


def _shared_floats(values):
    """``values`` (float64) as an object array of the same shape holding
    one float object per distinct bit pattern, so equal coordinates share
    one float and -0.0 and 0.0 stay apart.

    The bit patterns hash (Fibonacci hashing, top 12 bits) into 4,096
    slots; each slot makes one float of the value of one of its entries,
    and every entry with that value takes it.  The entries whose value
    differs from their slot's are shared among themselves the same way:
    O(n) per pass, no sort.
    """
    flat = values.reshape(-1)
    if flat.shape[0] == 0:
        return np.empty(values.shape, object)
    bits = flat.view(np.uint64)
    slot = ((bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(52)).astype(np.intp)
    rep = np.zeros(4096, np.intp)
    rep[slot] = np.arange(flat.shape[0])
    out = flat[rep].astype(object)[slot]
    own = np.flatnonzero(bits != bits[rep][slot])
    out[own] = _shared_floats(flat[own])
    return out.reshape(values.shape)


def _chains(seg, partner):
    """Order the segments into one point chain per connected component.

    Every endpoint has at most one partner, so a component is a path or a
    cycle.  A node is a segment entered at one of its endpoints e; the node
    before it is the segment entered at partner[e] ^ 1, and a node entered
    at a free endpoint starts a path.  Pointer jumping gives every node its
    start and its place.  A path keeps the direction that starts at its
    smaller free endpoint.  Each direction of a cycle is cut at its
    smallest entering endpoint, found by jumping with a running minimum;
    the direction kept is the one cut at 2 * (its first segment), and its
    chain ends on its first point.

    Returns (members, first, chains, closed): the segment indices of every
    component one after another, the offset of each component in them, a
    tuple of (x1, x3) points per component and a closed flag per
    component.  Equal coordinates share one float object (_shared_floats).
    Paths come first, by starting endpoint, then cycles, by first segment.
    """
    order, first, closed = _chain_order(partner)
    # a chain is its start endpoint, then the exit endpoint of each member
    at = first + np.arange(first.shape[0])
    stop = np.append(at[1:], order.shape[0] + first.shape[0])
    exits = np.ones(stop[-1], bool)
    exits[at] = False
    idx = np.empty(stop[-1], np.int64)
    idx[exits] = order ^ 1
    idx[at] = order[first]
    idx[stop[closed] - 1] = order[first[closed]]
    pts = list(zip(*_shared_floats(seg.reshape(-1, 2)[idx]).T.tolist()))
    chains = [tuple(pts[a:b]) for a, b in zip(at.tolist(), stop.tolist())]
    return order >> 1, first, chains, closed


def trace_section(surface, level, R, eps=DEFAULT_EPS):
    """Trace the section of ``surface`` by the plane x2 = level.

    The window is the square |x1| <= R, |x3| <= R.  Raises EmptyWindow for a
    radius that is not positive and finite, WindowTooLarge for one above
    MAX_RADIUS, and NearSaddle when the level comes within eps of a
    tangency face of any translate meeting the window.  Returns a tuple of
    SectionComponent, spanning curves first.
    """
    seg, key = _emit(surface, level, R, eps)
    if seg.shape[0] == 0:
        return ()
    partner = _kernels.match_endpoints(key)
    members, first, chains, closed = _chains(seg, partner)
    classes = _classify(seg, members, first, closed, R, eps)
    components = [SectionComponent((chain,), c) for chain, c in zip(chains, classes)]
    rank = {c: i for i, c in enumerate(WINDOW_CLASSES)}
    components.sort(key=lambda c: (rank[c.window_class], c.polylines))
    return tuple(components)


def component_census(components):
    counts = {name: 0 for name in WINDOW_CLASSES}
    for comp in components:
        counts[comp.window_class] += 1
    return counts


def _uniform_draws(seed, high):
    """The doubles numpy.random.default_rng(seed).uniform(0.0, high) draws,
    computed in Python ints: SeedSequence's pool of four 32-bit words mixed
    from the seed's 32-bit words, generate_state(4, uint64), PCG64 seeding
    and XSL-RR output (O'Neill 2014), then (x >> 11) 2^-53 high.  numpy
    keeps these streams fixed across releases (NEP 19)."""
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * 0x931E8875 & _M32) & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for s, d in permutations(range(4), 2):
        pool[d] = mix(pool[d], hashmix(pool[s]))
    for w, d in product(words[4:], range(4)):
        pool[d] = mix(pool[d], hashmix(w))
    h, bits = 0x8B51F9DD, 0
    for k in range(8):  # generate_state: eight 32-bit words, little-endian
        v = (pool[k % 4] ^ h) * (h := h * 0x58F38DED & _M32) & _M32
        bits |= (v ^ v >> 16) << 32 * k
    w = [bits >> 64 * k & _M64 for k in range(4)]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        yield (((x >> r | x << 64 - r) & _M64) >> 11) * 2.0 ** -53 * high


def sample_levels(surface, count, seed, R, eps=DEFAULT_EPS):
    """Deterministic section levels over one x2-period P, resampled away
    from tangency faces so trace_section accepts every one of them.

    The draws are numpy's default_rng(seed).uniform(0, P) stream, computed
    in ints (_uniform_draws), so they do not depend on the installed numpy.
    Raises PreconditionFailed when seed is not an integer or is negative,
    and NearSaddle when _DRAWS_PER_LEVEL draws in a row all fall within
    the guard of a tangency face of some translate in the window.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise PreconditionFailed(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise PreconditionFailed(f"seed ({seed}) must be >= 0")
    R = _window_radius(R)
    draws = _uniform_draws(seed, float(surface.plate_period))
    c = _compiled(surface)
    out = []
    guard = 10.0 * max(eps, 1e-12)
    while len(out) < count:
        for level in islice(draws, _DRAWS_PER_LEVEL):
            # the guard reads only the tangency distance: emit no pieces
            if _kernels.emit_segments(level, R, (), (), *c[2:])[2] >= guard:
                out.append(level)
                break
        else:
            raise NearSaddle(
                "no level in %d draws is %.3g away from every tangency face "
                "at R = %g" % (_DRAWS_PER_LEVEL, guard, R))
    return out
