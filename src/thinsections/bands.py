"""Band complexes and the collapse machine.

A band complex is a disjoint union of horizontal support arcs plus
bands: rectangles whose two base intervals lie on support arcs and are
identified by a translation.  An interval identification system turns
into a band complex with one arc and one band per pair.

The machine has one step, `_rips_step_tracked`.  Its only move on thin
complexes is the collapse from a free subarc: a positive-measure piece
of a base whose interior meets no other base is pushed through its band
onto the other base and the support loses the piece.  After every
collapse, chains of bands glued along a shared base are merged (lengths
add) and support regions carrying no base are deleted.

All endpoints are exact field elements.  A complex's segmentation holds
each arc's sorted breakpoints and every band end's span: the ordinals
of its two endpoints among its arc's breakpoints.  Covers, merges, the
dead-arc runs, the normal order and the combinatorial signature are
read from these integers instead of comparing field elements again.
Only input complexes (from an IIS or JSON) are sorted; a move derives
its complex's segmentation from its parent's.  The constructors' audit
runs on inputs and on the bands a move makes (collapse remnants,
merged bands), not on what a move only copies or re-indexes.

Every step also produces the two integer matrices that cycle detection
accumulates: u expresses the new elementary-segment lengths over the
old ones and v the new band lengths over the old ones.  Both are read
from one ledger carried through the step's moves and written over the
complex the step started from.  It holds every breakpoint as a
position, a start arc plus an integer row over the start segments, and
every band's length as an integer row over the start bands.  Positions
travel with their breakpoints, a collapse's new points get theirs from
the band, a merge adds two length rows, and a row of u is the
difference of the positions of a new segment's two breakpoints,
checked on integer residues against its exact length.  A cycle is a
later complex with the same combinatorial shape whose entire parameter
vector is a common exact multiple of the earlier one.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    AuditError,
    DepthExhausted,
    Halted,
    InvalidSystem,
    NotFound,
    PreconditionFailed,
)
from .iis import OrbitChart, _built
from .linalg import perron_root_interval
from .numberfield import common_denominator, dot_equals

orbit_neighbors = OrbitChart.neighbors


class SupportArc:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if hi <= lo:
            raise AuditError("support arc must have positive length")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Arc[{float(self.lo):.4f},{float(self.hi):.4f}]"


class BandEnd:
    """One base interval of a band: arc index plus exact interval."""

    __slots__ = ("arc", "lo", "hi")

    def __init__(self, arc, lo, hi):
        self.arc = arc
        self.lo = lo
        self.hi = hi

    def width(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"({self.arc};[{float(self.lo):.4f},{float(self.hi):.4f}])"


class Band:
    """Two translation-identified bases, a width, and a length.

    The identification maps bottom onto top by x -> x - bottom.lo +
    top.lo; which base is called bottom is a normalization choice, not
    data, and may be flipped.
    """

    __slots__ = ("bottom", "top", "length")

    def __init__(self, bottom, top, length):
        if (bottom.width() - top.width()).sign() != 0:
            raise AuditError("band bases must have equal width")
        if bottom.hi <= bottom.lo:
            raise AuditError("band width must be positive")
        self.bottom = bottom
        self.top = top
        self.length = Fraction(length)

    @property
    def width(self):
        return self.bottom.width()

    def ends(self):
        return (self.bottom, self.top)

    def __repr__(self):
        return f"Band({self.bottom}~{self.top} w={float(self.width):.4f} l={self.length})"


class BandComplex:
    """Support arcs plus bands over them.

    The constructor audits an input: bases in their arcs (else AuditError),
    pairwise disjoint arcs with no shared point and positive band lengths
    (else InvalidSystem).  Moves keep these and build through `_built`.
    A complex is immutable: no code outside the constructors assigns to
    a complex, its arcs, its bands or their ends, and every move builds a
    new complex.  Its segmentation is therefore fixed once and cached in
    the `_segmentation` slot: sorted by `segmentation` for a complex from
    this auditing constructor, derived for a move's from `_arranged`.
    `segment_values` caches the segment lengths in the `_lengths` slot.
    """

    __slots__ = ("field", "supports", "bands", "_segmentation", "_lengths")

    def __init__(self, field, supports, bands):
        self.field = field
        self.supports = tuple(supports)
        self.bands = tuple(bands)
        self._segmentation = self._lengths = None
        for b in self.bands:
            for e in b.ends():
                if type(e.arc) is not int or not 0 <= e.arc < len(self.supports):
                    raise InvalidSystem(f"band end names no support arc: {e.arc!r}")
                arc = self.supports[e.arc]
                if e.lo < arc.lo or arc.hi < e.hi:
                    raise AuditError("band base escapes its support arc")
            if b.length <= 0:
                raise InvalidSystem(f"band length must be positive: {b.length}")
        arcs = sorted(self.supports, key=lambda arc: arc.lo)
        if any(p.hi >= q.lo for p, q in zip(arcs, arcs[1:])):
            raise InvalidSystem("support arcs overlap or share a point")

    def __repr__(self):
        return f"BandComplex({list(self.supports)}, {list(self.bands)})"


def complex_from_iis(s):
    """One support arc, one unit-length band per pair."""
    bands = [Band(BandEnd(0, *p.left), BandEnd(0, *p.right), 1) for p in s.pairs]
    return _normalized(BandComplex(s.field, [SupportArc(*s.support)], bands))


def support_measure(x):
    """Total length of the support arcs."""
    return sum((arc.hi - arc.lo for arc in x.supports), x.field.zero)


# -- segmentation ------------------------------------------------------------------


_ROLES = ("bottom", "top")


def segmentation(x):
    """Per arc: breakpoints and elementary segments with their covering
    band ends.  Returns (breaks, segs, spans): breaks[arc] is the sorted
    list of distinct breakpoints, segs is a flat list of (arc_idx, lo,
    hi, covers) with covers listing (band_idx, role) by band, bottom
    before top, and spans[band_idx] is ((arc, i, j), (arc, i, j)) for
    the bottom and top ends, i and j indexing breaks[arc].

    Segment t of an arc is covered by the ends with i <= t < j, and two
    ends coincide exactly when their spans are equal: every
    combinatorial question reads the spans instead of comparing field
    elements.

    A move's complex carries one derived from its parent's.  An input's
    endpoints are sorted here once per arc, tagged with their ends, so
    the pass that drops repeated values also gives every end its ordinals.

    The result is cached on the complex and shared by every caller, so
    it must not be modified."""
    if x._segmentation is not None:
        return x._segmentation
    tagged = [[(arc.lo, None), (arc.hi, None)] for arc in x.supports]
    for bi, b in enumerate(x.bands):
        for k, e in enumerate(b.ends()):
            tagged[e.arc] += [(e.lo, (bi, k, 1)), (e.hi, (bi, k, 2))]
    breaks = []
    ords = [[[arc, 0, 0] for arc in (b.bottom.arc, b.top.arc)] for b in x.bands]
    for pts in tagged:
        out = []
        for v, tag in sorted(pts, key=lambda pt: pt[0]):
            if not out or v != out[-1]:
                out.append(v)
            if tag is not None:
                bi, k, slot = tag
                ords[bi][k][slot] = len(out) - 1
        breaks.append(out)
    spans = tuple((tuple(bottom), tuple(top)) for bottom, top in ords)
    x._segmentation = (breaks, _segments(breaks, spans), spans)
    return x._segmentation


def _segments(breaks, spans):
    """segmentation's segs, read from the breakpoints and the spans."""
    covers = [[[] for _ in pts[1:]] for pts in breaks]
    for bi, ((a, i, j), (c, k, l)) in enumerate(spans):
        for cover in covers[a][i:j]:
            cover.append((bi, "bottom"))
        for cover in covers[c][k:l]:
            cover.append((bi, "top"))
    return [
        (ai, lo, hi, cover)
        for ai, pts in enumerate(breaks)
        for lo, hi, cover in zip(pts, pts[1:], covers[ai])
    ]


def _renumbered(points, spans):
    """(kept, spans) over the points an arc keeps, its ends and its band
    ends' endpoints: points[a] maps keys increasing with the value to arc
    a's candidate breakpoints, spans name keys, and kept[a] lists the
    kept points' entries in order."""
    used = [{min(pts), max(pts)} for pts in points]
    for (a, i, j), (c, k, l) in spans:
        used[a].update((i, j))
        used[c].update((k, l))
    keep = [sorted(u) for u in used]
    new = [{m: n for n, m in enumerate(ks)} for ks in keep]
    kept = [[pts[m] for m in ks] for pts, ks in zip(points, keep)]
    spans = [((a, new[a][i], new[a][j]), (c, new[c][k], new[c][l]))
             for (a, i, j), (c, k, l) in spans]
    return kept, spans


def _first_segments(breaks):
    """Index in segs of each arc's first segment."""
    return [0, *accumulate(len(pts) - 1 for pts in breaks[:-1])]


def segment_values(x):
    """The parameter vector: segment lengths in canonical order, a new list."""
    if x._lengths is None:
        x._lengths = tuple(hi - lo for _, lo, hi, _ in segmentation(x)[1])
    return list(x._lengths)


@dataclass
class FreeSubarc:
    arc: int
    lo: object
    hi: object
    band: int
    role: str
    seg: int  # index in segmentation(x)'s segs


def find_free_subarcs(x):
    """The collapse candidates, by arc, then position: maximal
    positive-measure subarcs whose interior meets exactly one base,
    tagged with that base."""
    _, segs, _ = segmentation(x)
    # Single segments are maximal: an interior breakpoint is an endpoint
    # of some base, which covers one of the two segments meeting there,
    # so two adjacent segments are never covered by the same one base alone.
    return [
        FreeSubarc(ai, lo, hi, *covers[0], s)
        for s, (ai, lo, hi, covers) in enumerate(segs)
        if len(covers) == 1
    ]


# -- the step ledger ---------------------------------------------------------------
#
# A machine step carries one ledger, written over the segments of the
# complex the step started from.  A position (a, row) is start arc a's lo
# plus row . (start segment lengths).  The ledger of a complex is a pair
# (at, rows): at[a][m] is the position of breakpoint m of arc a and
# rows[b] the integer row of band b's length over the start bands.


def _ledger(x):
    """The ledger of x over itself: breakpoint m of arc a lies at a's
    first m segments, and every band is its own length."""
    breaks, segs, _ = segmentation(x)
    first = _first_segments(breaks)

    def pos(a, m):
        row = [0] * len(segs)
        row[first[a] : first[a] + m] = [1] * m
        return a, row

    at = [[pos(a, m) for m in range(len(pts))] for a, pts in enumerate(breaks)]
    return at, _unit_rows(len(x.bands))


def _row_check(row, common, target, message):
    """Raise AuditError(message) unless row . values == target, decided on
    integer residues by `dot_equals` (`is_zero` only over a reducible modulus)."""
    if not dot_equals(row, common, target):
        raise AuditError(message)


def _transition_matrix(x_old, x_new, ledger):
    """Rows expressing each segment of x_new over the segments of x_old,
    given x_new's ledger over x_old: each row is the difference of the
    positions of the segment's two breakpoints, checked exactly against
    the segment's length."""
    values = common_denominator(segment_values(x_old))
    ends = [pq for at in ledger[0] for pq in zip(at, at[1:])]
    rows = []
    for target, ((a, row_lo), (b, row_hi)) in zip(segment_values(x_new), ends):
        if a != b:
            raise AuditError("segment ends lie on different start arcs")
        row = [h - l for h, l in zip(row_hi, row_lo)]
        _row_check(row, values, target, "segment bookkeeping row does not match its value")
        rows.append(row)
    return rows


def _unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _normalized(x):
    """x with arcs sorted by position and bands flipped and sorted."""
    breaks, _, spans = segmentation(x)
    points = [{m: (v, None) for m, v in enumerate(pts)} for pts in breaks]
    return _arranged(x.field, x.supports, x.bands, points, spans)


def _arranged(field, supports, bands, points, spans, rows=None):
    """The normal complex, unaudited, over raw arcs and bands with the
    segmentation `_renumbered(points, spans)`, the points holding (value,
    position) pairs: the spans give the ends' arcs, the bands their
    values and lengths.  Arcs are sorted by position; bands are flipped
    and sorted by their ends' (arc, lo, hi), read from the ordinals,
    which are monotone in value and equal exactly where values are.

    Given the raw bands' length rows, returns (complex, its ledger)."""
    kept, spans = _renumbered(points, spans)
    arc_order = sorted(range(len(supports)), key=lambda i: supports[i].lo)
    remap = {old: new for new, old in enumerate(arc_order)}
    ends = [((remap[a], i, j), (remap[c], k, l)) for (a, i, j), (c, k, l) in spans]
    flips = [t < b for b, t in ends]
    ends = [(t, b) if flip else (b, t) for (b, t), flip in zip(ends, flips)]
    order = sorted(range(len(bands)), key=ends.__getitem__)
    out_bands = []
    for i in order:
        b, ((ba, _, _), (ta, _, _)) = bands[i], ends[i]
        lo, hi = b.ends()[::-1] if flips[i] else b.ends()
        if flips[i] or (lo.arc, hi.arc) != (ba, ta):
            b = _built(Band, BandEnd(ba, lo.lo, lo.hi), BandEnd(ta, hi.lo, hi.hi), b.length)
        out_bands.append(b)
    breaks = [[v for v, _ in kept[i]] for i in arc_order]
    spans = tuple(ends[i] for i in order)
    segmented = (breaks, _segments(breaks, spans), spans)
    supports = tuple(supports[i] for i in arc_order)
    out = _built(BandComplex, field, supports, tuple(out_bands), segmented, None)
    if rows is None:
        return out
    return out, ([[p for _, p in kept[i]] for i in arc_order], [rows[i] for i in order])


# -- moves -------------------------------------------------------------------------


def _collapse(x, rec):
    """Collapse the free segment `rec` of x: the support loses the open
    segment and its band is replaced by at most two remnants.  Returns
    the new complex and its ledger over x.

    The segmentation follows from x's: arc alpha's breakpoints split at
    the segment, and each remnant of the band puts one inner point on
    the other base o's arc.  When o lies on alpha, it lies wholly in one
    piece, since only the collapsed base covers the segment."""
    breaks, _, spans = segmentation(x)
    k = _ROLES.index(rec.role)
    band = x.bands[rec.band]
    e, o = band.ends()[k], band.ends()[1 - k]
    (alpha, ei, ej), (oarc, oi, oj) = spans[rec.band][k], spans[rec.band][1 - k]
    t0 = rec.seg - _first_segments(breaks)[alpha]
    t1, j0, j1 = t0 + 1, rec.lo, rec.hi
    arc = x.supports[alpha]
    at, rows = _ledger(x)

    def keyed(a, i, j):
        """Breakpoints i..j of arc a with their positions, m keyed as 3m,
        leaving 3m + 1 and 3m + 2 for new points above it."""
        return {3 * m: (breaks[a][m], at[a][m]) for m in range(i, j + 1)}

    # raw arcs: the others, then alpha's pieces left and right of t0
    raw_arcs = [a for i, a in enumerate(x.supports) if i != alpha]
    points = [keyed(i, 0, len(pts) - 1) for i, pts in enumerate(breaks) if i != alpha]
    raw_map = {i: n for n, i in enumerate(i for i in range(len(breaks)) if i != alpha)}
    for lo, hi, i, j in ((arc.lo, j0, 0, t0), (j1, arc.hi, t1, len(breaks[alpha]) - 1)):
        if i < j:
            raw_map[alpha, i] = len(raw_arcs)
            raw_arcs.append(SupportArc(lo, hi))
            points.append(keyed(alpha, i, j))

    def span(a, i, j):
        """Raw arc and keys of an end with this span once alpha lost segment t0."""
        if a == alpha and i <= t0 < j:
            raise AuditError("band end straddles the collapsed subarc")
        raw = raw_map[a] if a != alpha else raw_map[alpha, 0 if j <= t0 else t1]
        return raw, 3 * i, 3 * j

    shift = o.lo - e.lo
    oraw = span(oarc, oi, oj)[0]
    new = []

    def image(t, value):
        """Key of `value`, the point of o over breakpoint t of e.  A value
        equal to an old breakpoint of o's arc is that breakpoint, so every
        end meeting there shares its position; any other value is a new
        point, keyed above the breakpoints below it, at o.lo plus the
        width from e.lo to t."""
        if t == ei:
            return 3 * oi
        if t == ej:
            return 3 * oj
        order = [value.compare(breaks[oarc][m]) for m in range(oi + 1, oj)]
        if 0 in order:
            return 3 * (oi + 1 + order.index(0))
        new.append(value)
        key = 3 * (oi + order.count(1)) + len(new)
        (_, base), (_, to), (_, fro) = at[oarc][oi], at[alpha][t], at[alpha][ei]
        points[oraw][key] = (value, (oarc, [b + p - q for b, p, q in zip(base, to, fro)]))
        return key

    raw_bands, raw_spans, raw_rows = [], [], []
    for bi, (b, (bottom, top)) in enumerate(zip(x.bands, spans)):
        if bi != rec.band:
            raw_bands.append(b)
            raw_spans.append((span(*bottom), span(*top)))
            raw_rows.append(rows[bi])
            continue
        for (r0, i), (r1, j) in (((e.lo, ei), (j0, t0)), ((j1, t1), (e.hi, ej))):
            if i >= j:
                continue
            lo, hi = r0 + shift, r1 + shift
            ends = [BandEnd(alpha, r0, r1), BandEnd(oarc, lo, hi)]
            ends_span = (span(alpha, i, j), (oraw, image(i, lo), image(j, hi)))
            if k:
                ends, ends_span = ends[::-1], ends_span[::-1]
            raw_bands.append(Band(*ends, band.length))
            raw_spans.append(ends_span)
            raw_rows.append(rows[rec.band])
    return _arranged(x.field, raw_arcs, raw_bands, points, raw_spans, raw_rows)


def _find_merge(x):
    """First pair of ends, in end order, of two different bands with
    equal spans whose segments carry no other base."""
    breaks, segs, spans = segmentation(x)
    first = _first_segments(breaks)
    ends = [(bi, role, sp) for bi, pair in enumerate(spans) for role, sp in zip(_ROLES, pair)]
    for k, (bi, ri, span) in enumerate(ends):
        arc, i, j = span
        if any(len(segs[first[arc] + t][3]) != 2 for t in range(i, j)):
            continue
        for bj, rj, other in ends[k + 1 :]:
            if bj != bi and other == span:
                return (bi, ri), (bj, rj)
    return None


def _merge_once(x, hit, ledger):
    """Fuse the two bands glued at `hit` into one band between their far
    ends; its length row is the sum of theirs.  The glued base's
    breakpoints go when no other end meets them."""
    (bi, ri), (bj, rj) = hit
    at, rows = ledger
    breaks, _, spans = segmentation(x)
    f1, f2 = 1 - _ROLES.index(ri), 1 - _ROLES.index(rj)
    b1, b2 = x.bands[bi], x.bands[bj]
    merged = Band(b1.ends()[f1], b2.ends()[f2], b1.length + b2.length)
    merged_row = [p + q for p, q in zip(rows[bi], rows[bj])]
    merged_span = (spans[bi][f1], spans[bj][f2])
    keep = [t for t in range(len(x.bands)) if t != bj]
    raw_bands = [merged if t == bi else x.bands[t] for t in keep]
    raw_spans = [merged_span if t == bi else spans[t] for t in keep]
    raw_rows = [merged_row if t == bi else rows[t] for t in keep]
    points = [dict(enumerate(zip(pts, ps))) for pts, ps in zip(breaks, at)]
    return _arranged(x.field, x.supports, raw_bands, points, raw_spans, raw_rows)


def _merge(x, ledger):
    hits = []
    while True:
        hit = _find_merge(x)
        if hit is None:
            return x, ledger, hits
        hits.append(hit)
        x, ledger = _merge_once(x, hit, ledger)


def _drop_dead(x, ledger):
    """Delete every maximal support subarc carrying no base: the runs of
    covered segments become the arcs, each with its slice of the
    breakpoints."""
    breaks, segs, spans = segmentation(x)
    first = _first_segments(breaks)
    at, rows = ledger
    # runs [i, j] of consecutive covered segments on one arc become the new
    # arcs; run_at[s] is segment s's run (t > 0: s - 1 is on the same arc)
    runs, run_at = [], []
    for s, (ai, _, _, covers) in enumerate(segs):
        t = s - first[ai]
        if covers and t and run_at[-1] is not None:
            runs[-1][2] = t + 1
        elif covers:
            runs.append([ai, t, t + 1])
        run_at.append(len(runs) - 1 if covers else None)
    raw_arcs = [SupportArc(breaks[a][i], breaks[a][j]) for a, i, j in runs]
    points = [{m: (breaks[a][m], at[a][m]) for m in range(i, j + 1)} for a, i, j in runs]
    raw_spans = [((run_at[first[a] + i], i, j), (run_at[first[c] + k], k, l))
                 for (a, i, j), (c, k, l) in spans]
    return _arranged(x.field, raw_arcs, x.bands, points, raw_spans, rows)


def _mat_mul(a, b):
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * n
        for coef, brow in zip(row, b):
            if coef:
                for t in range(n):
                    acc[t] += coef * brow[t]
        out.append(acc)
    return out


def _rips_step_tracked(x):
    """One machine iteration: collapse the free subarc with the leftmost
    left endpoint on the lowest arc, then merge band chains, then delete
    dead support.  Returns (new complex, u, v, move log), u and v the
    step's integer matrices for segment and band lengths.

    The lowest arc is the one of least index that carries a free
    subarc.  Index order is position order only on a normal complex,
    which `complex_from_iis` and every machine step produce; `run rips`
    and `detect_rips_cycle` normalize any other start complex first."""
    frees = find_free_subarcs(x)
    if not frees:
        raise Halted("no free subarc: the machine is stuck on this complex")
    best = frees[0]
    log = [{"move": "collapse", "arc": best.arc, "band": best.band, "end": best.role}]
    x1, ledger = _collapse(x, best)
    x2, ledger, hits = _merge(x1, ledger)
    for (bi, _), (bj, _) in hits:
        log.append({"move": "merge", "bands": [bi, bj]})
    x3, ledger = _drop_dead(x2, ledger)
    dropped = len(segmentation(x2)[1]) - len(segmentation(x3)[1])
    if dropped:
        log.append({"move": "drop-dead", "segments": dropped})
    # The ledger written by the collapse and carried through the merges
    # and the drop-dead holds x3's breakpoints as positions over x's
    # segments and x3's band lengths as rows over x's bands: u subtracts
    # positions, v is the band rows.
    u = _transition_matrix(x, x3, ledger)
    return x3, u, ledger[1], log


# -- cycle detection ---------------------------------------------------------------


def combinatorial_signature(x):
    """Scale-free shape of the complex: per-arc segment counts plus the
    spans from `segmentation`, each band's pair of (arc, breakpoint
    ordinal, breakpoint ordinal) ends.  Widths and lengths are
    deliberately excluded, and no field element is compared."""
    breaks, _, spans = segmentation(x)
    return (tuple(len(pts) - 1 for pts in breaks), spans)


@dataclass
class CycleReport:
    prefix_steps: int
    period_steps: int
    contraction: object
    width_matrix: tuple
    length_matrix: tuple
    params_start: list
    params_end: list
    lengths_start: list
    lengths_end: list
    complex_start: BandComplex
    complex_end: BandComplex
    phases: tuple = ()


def detect_rips_cycle(x, max_steps):
    """Normalize x, then run the machine until some state is
    combinatorially isomorphic to an earlier one with every segment
    length scaled by one common exact factor below 1 (see `rips_cycle`)."""

    def run():
        cur = _normalized(x)
        yield cur, None, None
        for t in range(1, max_steps + 1):
            try:
                cur, u, v, _ = _rips_step_tracked(cur)
            except Halted:
                raise NotFound(f"machine halted after {t - 1} steps without a cycle")
            yield cur, u, v

    return rips_cycle(run())


def rips_cycle(run):
    """The first cycle on a recorded machine run: `run` yields the start
    complex, then (complex, u, v) of each step, taken only as far as
    the cycle.  The report carries the integer period matrices for
    segment lengths (width_matrix) and band lengths (length_matrix)."""
    states, by_sig = [], {}
    for t, (cur, u, v) in enumerate(run):
        pt, lt = segment_values(cur), [b.length for b in cur.bands]
        states.append((cur, pt, lt, u, v))
        earlier = by_sig.setdefault(combinatorial_signature(cur), [])
        for s in earlier:
            start, ps, ls = states[s][:3]
            if not ps:
                continue
            k = pt[0] / ps[0]
            if not all(b == k * a for a, b in zip(ps, pt)) or not 0 < k < 1:
                continue
            u_period, v_period = _unit_rows(len(ps)), _unit_rows(len(ls))
            for _, _, _, u_i, v_i in states[s + 1 :]:
                u_period = _mat_mul(u_i, u_period)
                v_period = _mat_mul(v_i, v_period)
            _audit_cycle(u_period, ps, pt, v_period, ls, lt)
            return CycleReport(
                prefix_steps=s,
                period_steps=t - s,
                contraction=k,
                width_matrix=tuple(map(tuple, u_period)),
                length_matrix=tuple(map(tuple, v_period)),
                params_start=ps,
                params_end=pt,
                lengths_start=ls,
                lengths_end=lt,
                complex_start=start,
                complex_end=cur,
                phases=tuple(st[0] for st in states[s:]),
            )
        earlier.append(t)
    raise NotFound(f"no cycle within {len(states) - 1} machine steps")


def _audit_cycle(width_rows, params_start, params_end, length_rows, lengths_start, lengths_end):
    """Check that the period matrices carry the start segment values and
    band lengths onto the end ones exactly."""
    for rows, start, end in (
        (width_rows, params_start, params_end),
        (length_rows, lengths_start, lengths_end),
    ):
        n = len(start)
        if len(end) != n or len(rows) != n or any(len(row) != n for row in rows):
            raise AuditError("period matrix is not square over the stored vectors")
    common = common_denominator(params_start)
    for row, target in zip(width_rows, params_end):
        _row_check(row, common, target, "width matrix does not reproduce the segment values")
    for row, target in zip(length_rows, lengths_end):
        if sum(c * l for c, l in zip(row, lengths_start)) != target:
            raise AuditError("length matrix does not reproduce the band lengths")


# Width bound of the enclosures of the contraction and the Perron root.
_ONE_END_EPS = Fraction(1, 10**9)


def one_end_product(contraction, length_matrix):
    """Exact rational intervals (lo, hi) around contraction times the
    Perron root of the length matrix, and (m_lo, m_hi) around the root:
    a negative lower bound of the contraction's enclosure counts as 0."""
    c_lo, c_hi = contraction.enclosure(_ONE_END_EPS)
    m_lo, m_hi = perron_root_interval(length_matrix, _ONE_END_EPS)
    return (max(c_lo, Fraction(0)) * m_lo, c_hi * m_hi), (m_lo, m_hi)


def one_end_criterion(report):
    """Certified test that contraction times the Perron root of the
    length matrix is below 1.  Returns (bool, (lo, hi)) with an exact
    rational interval around the product."""
    (lo, hi), _ = one_end_product(report.contraction, report.length_matrix)
    return hi < 1, (lo, hi)


# -- leaf pruning ------------------------------------------------------------------


def _prune_rounds(adj, degrees, immortal, max_rounds):
    """Simultaneous leaf removal on the vertices 0..n-1 (n = len(degrees));
    returns {vertex: round removed} for removals within max_rounds.

    In each round every mortal vertex with at most one live edge (edges
    count with multiplicity) is removed at once.  `adj` and `degrees` are
    indexed by vertex, and `adj` must be symmetric with multiplicity.
    Live counts are kept rather than recounted: round 1 takes every
    mortal vertex of degree <= 1, each later round the vertices whose
    count fell from 2 in the round before, so a run costs O(V + E), as in
    Batagelj & Zaversnik's queue-based core decomposition.
    """
    live = degrees.copy()
    batch = [v for v in range(len(degrees)) if live[v] <= 1 and v not in immortal]
    removed = {}
    for r in range(1, max_rounds + 1):
        if not batch:
            break
        for v in batch:
            removed[v] = r
        nxt = []
        for v in batch:
            for w in adj[v]:
                before = live[w]
                live[w] = before - 1
                # A removed vertex was left with at most one live edge, so
                # only a vertex still present can fall from 2.
                if before == 2 and w not in immortal:
                    nxt.append(w)
        batch = nxt
    return removed


class _Ball:
    """Breadth-first ball around the origin of an orbit chart, grown one
    level at a time.  A vertex gets an integer id when first found (`ids`
    maps its chart vector to the id, `vertex` back), level by level: the
    root is 0 and the ball cut at depth d <= `level` is the id prefix
    below `ends[d]`.  `adj[v]` lists the neighbours of every expanded
    vertex (distance below `level`) with multiplicity, and `edges_into[w]`
    the expanded vertices one level below w that have w as a neighbour."""

    def __init__(self, chart):
        self.chart = chart
        self.ids = {chart.origin: 0}
        self.vertex = [chart.origin]
        self.adj = []
        self.edges_into = [[]]
        self.ends = [1]
        self.level = 0

    def grow(self):
        """Expand the frontier, finding every vertex at distance level + 1."""
        ids, vertex, adj, edges_into = self.ids, self.vertex, self.adj, self.edges_into
        # the frontier: every id not expanded yet, ends[level - 1]..found - 1
        found = len(vertex)
        for v in range(len(adj), found):
            ws = []
            for w, _, _ in orbit_neighbors(self.chart, vertex[v]):
                k = ids.get(w)
                if k is None:
                    k = ids[w] = len(vertex)
                    vertex.append(w)
                    edges_into.append([v])
                elif k >= found:
                    edges_into[k].append(v)
                ws.append(k)
            adj.append(ws)
        self.ends.append(len(vertex))
        self.level += 1


def _round_bounds(ball, depth, rounds):
    """(r_pess, r_opt): the rounds at which the root is pruned (rounds + 1
    when it survives them all) on the ball cut at `depth`, 1 <= depth <=
    ball.level, with its boundary mortal and immortal.

    The cut keeps the ids below ends[depth]: those below ends[depth - 1]
    with all their edges, the rest (the boundary) with their edges from
    one level below only.  Missing edges make a mortal boundary go no
    later than in the whole graph and an immortal one never goes, so
    r_pess <= r_opt, with the root's true round between them; deepening
    the cut tightens both, r_pess never falling and r_opt never rising.
    What the boundary does reaches the root one edge per round, so from
    depth >= rounds on the two agree.
    """
    inner, n = ball.ends[depth - 1], ball.ends[depth]
    local = ball.adj[:inner] + ball.edges_into[inner:n]
    degrees = [len(ws) for ws in local]
    opt = _prune_rounds(local, degrees, range(inner, n), rounds)
    pess = _prune_rounds(local, degrees, range(0), rounds)
    return pess.get(0, rounds + 1), opt.get(0, rounds + 1)


def _removal_round(s, x, rounds, cap):
    """Round at which x is pruned, or rounds + 1 when it survives them
    all; decided by growing a ball of its orbit graph until the optimistic
    and pessimistic simulations agree.  Vertices are integer ids given to
    the vectors of the orbit chart of x in breadth-first order.

    The result is the one of the schedule that evaluates the depths
    d0, d0 + 2, d0 + 4, ... (d0 = min(rounds, 4) + 2) until one settles,
    and raises DepthExhausted when the ball exceeds `cap` vertices on the
    way; this function evaluates fewer of them.  By `_round_bounds`, the
    interval [r_pess, r_opt] shrinks as the depth grows, so once it is a
    point it stays that point: every settled depth gives the first
    settled depth's answer.  The depths evaluated here step along that
    schedule by 2, 4, 8, ... up to `last`, its first depth >= rounds,
    which always settles.  When the ball exceeds the cap after level L,
    the +2 schedule would have evaluated every schedule depth <= L - 1
    and nothing deeper, so the deepest of those decides: its round if it
    settles, DepthExhausted if not (or if it was already evaluated, or
    there is none).
    """
    ball = _Ball(OrbitChart(s, x))
    d0 = min(rounds, 4) + 2
    last = max(d0, rounds + (rounds - d0) % 2)
    # evaluated: the deepest depth evaluated so far, d0 - 2 before any
    depth, gap, evaluated = d0, 2, d0 - 2
    while True:
        while ball.level < depth:
            ball.grow()
            if len(ball.vertex) > cap:
                deepest = d0 + (ball.level - 1 - d0) // 2 * 2
                if deepest > evaluated:
                    r_pess, r_opt = _round_bounds(ball, deepest, rounds)
                    if r_pess == r_opt:
                        return r_opt
                raise DepthExhausted(
                    f"neighborhood exceeded {cap} vertices before round status settled"
                )
        r_pess, r_opt = _round_bounds(ball, depth, rounds)
        if r_pess == r_opt:
            return r_opt
        if depth == last:
            raise AuditError(f"round status did not settle at depth {depth} >= {rounds}")
        evaluated = depth
        depth = min(depth + gap, last)
        gap *= 2


# Two-sided 95% normal quantile of the Wilson score intervals.
_Z95 = 1.959963984540054


def _wilson(k, n):
    """Wilson 95% score interval for k successes out of n trials."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    z2 = _Z95 * _Z95
    scale = 1 + z2 / n
    centre = (p + z2 / (2 * n)) / scale
    half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / scale
    # The interval contains p and lies in [0, 1]; clamp away rounding.
    return (max(0.0, min(p, centre - half)), min(1.0, max(p, centre + half)))


@dataclass(frozen=True)
class PruningReport:
    """Surviving-measure estimates, one per pruning round.

    `survivors[r]` counts the decided samples (`samples - exhausted`)
    still present after round r + 1, `estimates[r]` is their fraction and
    `wilson[r]` its Wilson 95% interval, (0.0, 1.0) when no sample was
    decided."""

    estimates: list
    samples: int
    exhausted: int
    survivors: list
    wilson: list


def pruning_decay(s, rounds, samples, seed=0, cap=20000):
    """Monte Carlo estimate of the support measure fraction whose orbit
    vertex survives r rounds of iterated leaf removal, r = 1..rounds.

    Each sample is a point with a 48-bit rational offset into the
    support.  Its status is decided on an adaptively grown neighborhood of
    its orbit chart (optimistic and pessimistic boundary assumptions must
    agree), peeled with live edge counts; samples whose neighborhood
    exceeds `cap` vertices are excluded and counted in `exhausted`.  The
    neighborhood is evaluated at depths doubling their step, and the
    result and the exhausted samples are those of evaluating every second
    depth (see `_removal_round`); the system's half of the orbit chart is
    built once for all samples.  The report carries a Wilson 95% interval
    per round.  Raises PreconditionFailed when rounds or samples is
    negative, and InvalidSystem when the field's modulus is not certified
    irreducible."""
    if rounds < 0 or samples < 0:
        raise PreconditionFailed(f"rounds ({rounds}) and samples ({samples}) must be >= 0")
    rng = random.Random(seed)
    lo, hi = s.support
    width = hi - lo
    survivors = [0] * rounds
    exhausted = 0
    for _ in range(samples):
        q = Fraction(rng.getrandbits(48), 1 << 48)
        xval = lo + width * q
        try:
            rr = _removal_round(s, xval, rounds, cap)
        except DepthExhausted:
            exhausted += 1
            continue
        for r in range(1, min(rr, rounds + 1)):
            survivors[r - 1] += 1
    decided = samples - exhausted
    # int / int is correctly rounded, as float(Fraction(n, decided)) is
    estimates = [n / decided if decided else 0.0 for n in survivors]
    wilson = [_wilson(k, decided) for k in survivors]
    return PruningReport(estimates, samples, exhausted, survivors, wilson)
