"""Interval identification systems and the Rauzy induction.

A system is a support interval [A, B] plus n unordered pairs of
width-matched closed subintervals; each pair is identified by the
orientation preserving affine isometry (a translation) between its two
intervals.  All endpoints are exact field elements; every predicate
below is decided exactly.

Moves: a transmission re-bases one interval of a pair through another
pair; a reduction cuts off a singly covered end of the support.  One
induction step on a side is the admissible transmission on that side
followed by the reduction on the same side when its precondition
holds.  Iterating the steps on a thin system shrinks the support
forever; detect_self_similarity searches move schedules that reproduce
the start system scaled by an exact contraction factor.

Orbit graphs: the points of the support are vertices, joined by an edge
for every pair that maps one to the other.  OrbitChart writes the orbit
of a point x in integer coordinates: vertex c in Z^d (d the field
degree) is x + (sum_j c[j] lam^j) / D, where D clears the denominators
of the pair translations, so every move adds a fixed integer vector and
a zero translation gives no edge.  Over an irreducible modulus residues
are unique, so equal points have equal vectors and the vectors serve as
hash keys; a reducible modulus is rejected.  Whether a vertex lies in an
interval [lo, hi] is decided on integers by the sign filter of
`numberfield`: the field's fixed-point bounds of lam^j bracket the
vertex's offset, and floor/ceil bounds of D (x - lo) and D (hi - x) at
the same scale bracket the rest.  Those are differences of certified
enclosures: of D lo and D hi, taken once per system and cached on it,
and of D x, taken once per chart; an end equal to x gets the exact
bound 0.  The filter answers only when its integer interval excludes
the boundary; otherwise the exact point is built and its sign decides,
as on every exact boundary hit.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbiguousMove,
    InvalidSystem,
    NoAdmissibleMove,
    NotContained,
    OutOfSupport,
    PreconditionFailed,
    SelfTransmission,
)
from .linalg import char_poly, eigen_kernel
from .numberfield import FIXED_BITS, minimal_field

LEFT = "left"
RIGHT = "right"

# Parameter matrices of the two bundled order-3 systems.  Each has a
# unique real eigenvalue in (0, 1); the eigenvector coordinates with
# unit sum of the first three entries are the interval lengths.
SYSTEM_MATRIX = {
    "s1": ((3, 1, -1, -4), (-1, 2, 0, 0), (-2, -2, 1, 4), (3, 2, -1, -5)),
    "s2": (
        (-2, 2, 1, 0, 1),
        (2, -5, -2, 3, -2),
        (1, 0, 0, -1, 0),
        (1, -2, -1, 1, 0),
        (0, -2, -2, 3, -2),
    ),
}

_ROOT_HINT = {"s1": (Fraction(1, 5), Fraction(3, 10)), "s2": (Fraction(0), Fraction(1, 2))}

_FIELD_CACHE = {}


def _built(cls, *values):
    """cls with `values` in its slots, unaudited: the package's one way to
    build an object whose invariants hold by construction."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(obj, name, value)
    return obj


class IntervalPair:
    """Two width-matched closed subintervals identified by a translation.

    `left` and `right` name the storage order, not positions on the line.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = tuple(left)
        self.right = tuple(right)
        (a, b), (c, d) = self.left, self.right
        if b <= a:
            raise InvalidSystem("interval width must be positive")
        if b - a != d - c:
            raise InvalidSystem("pair widths differ")

    @property
    def width(self):
        return self.left[1] - self.left[0]

    def interval(self, side):
        return self.left if side == LEFT else self.right

    def other(self, side):
        return self.right if side == LEFT else self.left

    def intervals(self):
        return (self.left, self.right)

    def canonical(self):
        (a, b), (c, d) = self.left, self.right
        s = c.compare(a)
        if s < 0 or (s == 0 and d < b):
            return (c, d, a, b)
        return (a, b, c, d)

    def __repr__(self):
        return f"[{float(self.left[0]):.4f},{float(self.left[1]):.4f}]<->[{float(self.right[0]):.4f},{float(self.right[1]):.4f}]"


class IIS:
    """Support interval plus identified interval pairs, all exact.

    A system is immutable (every move builds a new one), so the half of
    an OrbitChart that does not depend on its point and the sorted
    canonical pairs are built once, in the `_chart` and `_canonical` slots.
    This constructor and IntervalPair's audit any input; transmit and
    reduce build their results unaudited with `_built`, since each changes
    one pair in a way that keeps positive, equal widths and containment.
    """

    __slots__ = ("field", "support", "pairs", "_chart", "_canonical")

    def __init__(self, field, support, pairs):
        self.field = field
        self.support = tuple(support)
        self.pairs = tuple(pairs)
        self._chart = self._canonical = None
        a, b = self.support
        if b <= a:
            raise InvalidSystem("support must have positive length")
        for p in self.pairs:
            for lo, hi in p.intervals():
                if lo < a or b < hi:
                    raise InvalidSystem("subinterval escapes the support")

    @property
    def order(self):
        return len(self.pairs)

    def width(self):
        return self.support[1] - self.support[0]

    def intervals(self):
        """All (pair index, side, (lo, hi)) triples."""
        return [(i, w, iv) for i, p in enumerate(self.pairs)
                for w, iv in ((LEFT, p.left), (RIGHT, p.right))]

    def canonical_pairs(self):
        """The pairs' canonical endpoint tuples, in field order."""
        if self._canonical is None:
            self._canonical = tuple(sorted(p.canonical() for p in self.pairs))
        return self._canonical

    def canonical_key(self):
        """Hashable exact signature: the integer residues of the support and
        of the canonical pairs, in field order.

        Valid for fields with canonical residues (irreducible modulus).
        """
        r = lambda xs: tuple((x._num, x._den) for x in xs)
        return r(self.support), tuple(map(r, self.canonical_pairs()))

    def __repr__(self):
        lo, hi = self.support
        body = "; ".join(repr(p) for p in self.pairs)
        return f"IIS([{float(lo):.4f},{float(hi):.4f}]; {body})"


def _bundled(name):
    """(field, parameters) of a bundled system, built once from its matrix."""
    if name not in _FIELD_CACHE:
        m = SYSTEM_MATRIX[name]
        field = minimal_field(char_poly(m), _ROOT_HINT[name])
        field.refine_below(Fraction(1, 2 ** 128))
        _FIELD_CACHE[name] = (field, tuple(eigen_kernel(m, field.gen)))
    return _FIELD_CACHE[name]


def system_field(name):
    """The number field of a bundled system, built from its matrix."""
    return _bundled(name)[0]


def system_params(name):
    """Eigenvector coordinates of a bundled system, unit sum on the
    first three entries."""
    return _bundled(name)[1]


def build_system(name):
    """The bundled system "s1" or "s2"."""
    if name not in SYSTEM_MATRIX:
        raise InvalidSystem(f"unknown system {name!r}")
    field = system_field(name)
    zero = field.zero
    a, b, c, *rest = system_params(name)
    # the third pair: [u, u + c] and [a + b - u, a + b + c - u] for s1
    d, e = (rest[0], a + b - rest[0]) if name == "s1" else rest
    pairs = (
        IntervalPair((zero, a), (b + c, a + b + c)),
        IntervalPair((zero, b), (a + c, a + b + c)),
        IntervalPair((d, d + c), (e, e + c)),
    )
    return IIS(field, (zero, a + b + c), pairs)


def validate(s):
    """Exact balanced / symmetric predicates."""
    a0, b0 = s.support
    starts = [iv[0] for _, _, iv in s.intervals()]
    ends = [iv[1] for _, _, iv in s.intervals()]
    total = sum((p.width for p in s.pairs), s.field.zero)
    balanced = (min(starts), max(ends), total) == (a0, b0, b0 - a0)
    # The reflection x -> A + B - x must carry one interval of each pair
    # exactly onto the other.
    symmetric = all((a0 + b0 - p.left[1], a0 + b0 - p.left[0]) == p.right for p in s.pairs)
    return {"balanced": balanced, "symmetric": symmetric}


def _contains(outer, inner):
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def transmit(s, i, j, which_side_of_j, which_of_i=None):
    """Re-base one interval of pair i through pair j.

    The moved interval of pair i must be contained in pair j's interval
    on `which_side_of_j`; it is replaced by its image under pair j's
    translation onto the other interval of j.  When both intervals of
    pair i are contained, `which_of_i` must disambiguate.
    """
    if i == j:
        raise SelfTransmission("cannot transmit a pair through itself")
    pj = s.pairs[j]
    target = pj.interval(which_side_of_j)
    dest = pj.other(which_side_of_j)
    pi = s.pairs[i]
    if which_of_i is None:
        inside = [side for side in (LEFT, RIGHT) if _contains(target, pi.interval(side))]
        if not inside:
            raise NotContained("no interval of pair i lies inside the target")
        if len(inside) == 2 and pi.left != pi.right:
            raise NotContained(
                "both intervals of pair i lie inside the target; pass which_of_i"
            )
        which_of_i = inside[0]
    moved = pi.interval(which_of_i)
    if not _contains(target, moved):
        raise NotContained("interval of pair i is not inside the target")
    shift = dest[0] - target[0]
    # The image is a translate of `moved`, which lies in `target`, so it
    # lands inside `dest` with the width of pair i's other interval.
    image = (moved[0] + shift, moved[1] + shift)
    ends = (image, pi.right) if which_of_i == LEFT else (pi.left, image)
    pairs = s.pairs[:i] + (_built(IntervalPair, *ends),) + s.pairs[i + 1:]
    return _built(IIS, s.field, s.support, pairs, None, None)


def _end_touchers(s, side):
    """(pair, side) of every interval whose outer endpoint hits the support end."""
    a0, b0 = s.support
    return [(i, which) for i, which, (lo, hi) in s.intervals()
            if (hi == b0 if side == RIGHT else lo == a0)]


def reduce(s, side):
    """Cut off the singly covered end of the support.

    On the right: the unique interval reaching B is shrunk back to the
    rightmost critical point u interior to it, its partner is shrunk by
    the same amount on its right end, and the support becomes [A, u].
    Mirror image on the left.
    """
    touchers = _end_touchers(s, side)
    if len(touchers) != 1:
        raise PreconditionFailed(
            f"support end covered by {len(touchers)} intervals, need exactly 1"
        )
    k, which = touchers[0]
    tgt, partner = s.pairs[k].interval(which), s.pairs[k].other(which)
    # tgt alone reaches the support end, so every other endpoint falls
    # short of it; u, the nearest of them, must lie inside tgt.
    outer, pick = (tgt[1], max) if side == RIGHT else (tgt[0], min)
    u = pick(x for _, _, iv in s.intervals() for x in iv if x is not outer)
    if not tgt[0] < u < tgt[1]:
        raise PreconditionFailed("no critical point interior to the end interval")
    if side == RIGHT:
        new_tgt = (tgt[0], u)
        new_partner = (partner[0], partner[1] - (tgt[1] - u))
        support = (s.support[0], u)
    else:
        new_tgt = (u, tgt[1])
        new_partner = (partner[0] + (u - tgt[0]), partner[1])
        support = (u, s.support[1])
    # tgt and its partner lose the same length, and every other endpoint
    # is at or inside u, so the result needs no audit.
    ends = (new_tgt, new_partner) if which == LEFT else (new_partner, new_tgt)
    pairs = s.pairs[:k] + (_built(IntervalPair, *ends),) + s.pairs[k + 1:]
    return _built(IIS, s.field, support, pairs, None, None)


def rauzy_step(s, side):
    """Admissible transmission on `side`, then the reduction there when
    its precondition holds.  Returns (new system, move log)."""
    touchers = _end_touchers(s, side)
    if len(touchers) < 2:
        raise NoAdmissibleMove(f"need two intervals at the {side} end")
    if len(touchers) > 2:
        raise AmbiguousMove(f"{len(touchers)} intervals share the {side} end")
    (i1, w1), (i2, w2) = touchers
    if i1 == i2:
        raise NoAdmissibleMove("both end intervals belong to the same pair")
    sg = s.pairs[i1].width.compare(s.pairs[i2].width)
    if sg == 0:
        raise AmbiguousMove("end intervals have equal widths")
    if sg < 0:
        mover, mside, along, aside = i1, w1, i2, w2
    else:
        mover, mside, along, aside = i2, w2, i1, w1
    out = transmit(s, mover, along, aside, which_of_i=mside)
    log = [{"move": "transmit", "side": side, "pair": mover}]
    try:
        out = reduce(out, side)
        log.append({"move": "reduce", "side": side, "pair": along})
    except PreconditionFailed:
        pass
    return out, log


@dataclass(frozen=True)
class SimilarityReport:
    period: int
    contraction: object
    translation: object
    move_log: tuple

    @property
    def sides(self):
        return tuple(m["side"] for m in self.move_log if m["move"] == "transmit")


def affine_match(base, other):
    """If other == k*base + t endpointwise (pairs unordered), return
    (k, t), else None.  k is the support width ratio ow / bw, so x maps to
    xo exactly when (xo - o0) * bw == (x - b0) * ow, with b0 and o0 the
    support starts: the endpoints are tested without a division, and k and
    t are built only for a match.  A system sorts its pairs once."""
    if base.order != other.order:
        return None
    (b0, b1), (o0, o1) = base.support, other.support
    bw, ow = b1 - b0, o1 - o0
    for bp, op in zip(base.canonical_pairs(), other.canonical_pairs()):
        for xb, xo in zip(bp, op):
            if (xo - o0) * bw != (xb - b0) * ow:
                return None
    k = ow / bw
    return k, o0 - k * b0


def detect_self_similarity(s, max_steps, policy="right"):
    """Search induction schedules for an exact scaled return.

    policy: "right" (the right side at every step) or "search"
    (breadth-first over all side sequences, deduplicating states).
    Returns a SimilarityReport, or None when no schedule of at most
    max_steps steps reproduces s up to an affine contraction.  When no
    side the policy tries admits a first step, raises the first side's
    NoAdmissibleMove or AmbiguousMove instead.  The default is the
    right-handed induction, the schedule both bundled systems contract
    under; "search" can find shorter mixed-side returns.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if policy not in (RIGHT, "search"):
        raise ValueError(f"unknown policy {policy!r}")
    search = policy == "search"
    sides = (RIGHT, LEFT) if search else (RIGHT,)
    frontier, seen = [(s, [])], {s.canonical_key()}
    for depth in range(1, max_steps + 1):
        nxt_frontier, stuck = [], []
        for cur, log in frontier:
            for side in sides:
                try:
                    nxt, moves = rauzy_step(cur, side)
                except (NoAdmissibleMove, AmbiguousMove) as exc:
                    stuck.append(exc)
                    continue
                hit = affine_match(s, nxt)
                if hit is not None:
                    return SimilarityReport(depth, *hit, tuple(log + moves))
                if search:
                    key = nxt.canonical_key()
                    if key in seen:
                        continue
                    seen.add(key)
                nxt_frontier.append((nxt, log + moves))
        if depth == 1 and len(stuck) == len(sides):
            raise stuck[0]
        frontier = nxt_frontier
    return None


# -- orbit graphs ----------------------------------------------------------------


def _scaled_bounds(value):
    """Integers lo <= value 2^FIXED_BITS <= hi from a certified enclosure
    of width 2^-128, which refines a coarser field first.  system_field
    refines the bundled fields that far, so there it comes cheap."""
    vlo, vhi = value.enclosure(Fraction(1, 2 ** 128))
    return math.floor(vlo * 2 ** FIXED_BITS), math.ceil(vhi * 2 ** FIXED_BITS)


def _system_chart(s):
    """(den, moves): the half of an orbit chart that does not depend on
    its point.  One move per (pair, side) with a nonzero translation: pair
    index, step vector, whether the step goes up the line, the interval
    (lo, hi) and the scaled bounds of den * lo and den * hi."""
    field = s.field
    d = field.degree
    taus = [p.right[0] - p.left[0] for p in s.pairs]
    den = math.lcm(1, *(q.denominator for t in taus for q in t.coeffs))
    moves = []
    for i, (p, tau) in enumerate(zip(s.pairs, taus)):
        if tau.is_zero():
            continue
        step = [int(q * den) for q in tau.coeffs]
        step += [0] * (d - len(step))
        rises = tau.sign() > 0
        for (lo, hi), sgn in ((p.left, 1), (p.right, -1)):
            moves.append((
                i,
                tuple(sgn * k for k in step),
                rises == (sgn > 0),
                lo,
                hi,
                _scaled_bounds(lo * den),
                _scaled_bounds(hi * den),
            ))
    return den, tuple(moves)


class OrbitChart:
    """Integer coordinates on the orbit of a point x of the support.

    Vertex c, a tuple of `field.degree` ints, stands for the point
    x + (sum_j c[j] lam^j) / den, where den is the least common
    denominator of the pairs' translation coefficients; vertex
    `origin` is x itself.  Interval membership is decided by a fixed-point
    filter with an exact fallback (see the module docstring).

    The system's half (den, the moves and the scaled bounds of den * lo
    and den * hi for every interval) is built by the first chart on a
    system and kept on it; a chart then takes one enclosure, of den * x,
    and bounds den * (x - lo) by [xlo - lhi, xhi - llo] and den * (hi - x)
    by [hlo - xhi, hhi - xlo].  An end equal to x gets the exact bound
    (0, 0), so at x itself the filter decides alone.
    """

    def __init__(self, s, x):
        field = s.field
        if not field.irreducible:
            raise InvalidSystem(
                "orbit vertices need canonical residues; rebuild the field "
                "with the minimal modulus (see minimal_field)"
            )
        a0, b0 = s.support
        if x < a0 or b0 < x:
            raise OutOfSupport(f"{x!r}")
        if s._chart is None:
            s._chart = _system_chart(s)
        den, moves = s._chart
        self.x = x
        self._den = den
        self.origin = (0,) * field.degree
        self._field = field
        xlo, xhi = _scaled_bounds(x * den)
        # Per move: pair index, step, rises, the scaled bounds of
        # den * (x - lo) and den * (hi - x), and the interval itself.
        self._moves = [
            (
                i,
                step,
                rises,
                *((0, 0) if x == lo else (xlo - lhi, xhi - llo)),
                *((0, 0) if x == hi else (hlo - xhi, hhi - xlo)),
                lo,
                hi,
            )
            for i, step, rises, lo, hi, (llo, lhi), (hlo, hhi) in moves
        ]

    def value(self, c):
        """The exact point of vertex c."""
        if not any(c):
            return self.x
        return self.x + self._field.element([Fraction(k, self._den) for k in c])

    def neighbors(self, c):
        """(vertex, pair index, rises) for every move whose interval
        contains the point of c; `rises` says the neighbour lies above."""
        # 2^FIXED_BITS * (c . lam) lies in [below, above], so
        # 2^FIXED_BITS * den * (point - lo) lies in [alo + below,
        # ahi + above] and 2^FIXED_BITS * den * (hi - point) in
        # [blo - above, bhi - below].  Integers decide when that interval
        # lies on one side of 0; otherwise the exact sign does.
        lin, slack = self._field.fixed_point(c)
        below, above = lin - slack, lin + slack
        point = None
        out = []
        for i, step, rises, alo, ahi, blo, bhi, lo, hi in self._moves:
            if alo + below < 0:
                if ahi + above < 0:
                    continue
                if point is None:
                    point = self.value(c)
                if (point - lo).sign() < 0:
                    continue
            if blo < above:
                if bhi < below:
                    continue
                if point is None:
                    point = self.value(c)
                if (hi - point).sign() < 0:
                    continue
            out.append((tuple(map(operator.add, c, step)), i, rises))
        return out


def neighbors(s, x):
    """Identification edges at x: one (neighbour, pair index) per
    subinterval membership, dropping pairs whose translation is zero.
    Raises OutOfSupport for a point outside the support."""
    chart = OrbitChart(s, x)
    return [(chart.value(w), i) for w, i, _ in chart.neighbors(chart.origin)]
