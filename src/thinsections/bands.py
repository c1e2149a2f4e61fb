"""Band complexes and the collapse machine.

A band complex is a disjoint union of horizontal support arcs plus
bands: rectangles whose two base intervals lie on support arcs and are
identified by a translation.  An interval identification system turns
into a band complex with one arc and one band per pair.

The only move the machine needs on thin complexes is the collapse from
a free subarc: a positive-measure piece of a base whose interior meets
no other base is pushed through its band onto the other base and the
support loses the piece.  After every collapse, chains of bands glued
along a shared base are merged (lengths add) and support regions
carrying no base are deleted.

All endpoints are exact field elements.  `segmentation` sorts each
arc's endpoints once and records every band end's span: the ordinals
of its two endpoints among the arc's breakpoints.  Covers, merges, the
dead-arc runs and the combinatorial signature are then read from these
integers instead of comparing field elements again.

Every step also produces the integer matrix expressing the new
elementary-segment lengths in terms of the old ones, which is what
cycle detection accumulates: a cycle is a later complex with the same
combinatorial shape whose entire parameter vector is a common exact
multiple of the earlier one.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AuditError,
    DepthExhausted,
    Halted,
    InvalidSystem,
    NotFound,
    NotFree,
    NotMaximal,
)
from .iis import OrbitChart
from .linalg import RatMatrix, perron_root_interval

orbit_neighbors = OrbitChart.neighbors


class SupportArc:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if (hi - lo).sign() <= 0:
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
        if bottom.width().sign() <= 0:
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

    A complex is immutable: no code outside the constructors assigns to
    a complex, its arcs, its bands or their ends, and every move builds a
    new complex.  `segmentation` is therefore computed once per complex
    and cached in the `_segmentation` slot.
    """

    __slots__ = ("field", "supports", "bands", "_segmentation")

    def __init__(self, field, supports, bands):
        self.field = field
        self.supports = tuple(supports)
        self.bands = tuple(bands)
        self._segmentation = None
        for b in self.bands:
            for e in b.ends():
                if type(e.arc) is not int or not 0 <= e.arc < len(self.supports):
                    raise InvalidSystem(f"band end names no support arc: {e.arc!r}")
                arc = self.supports[e.arc]
                if (e.lo - arc.lo).sign() < 0 or (arc.hi - e.hi).sign() < 0:
                    raise AuditError("band base escapes its support arc")

    def __repr__(self):
        return f"BandComplex({list(self.supports)}, {list(self.bands)})"


def complex_from_iis(s):
    """One support arc, one unit-length band per pair."""
    arcs = [SupportArc(s.support[0], s.support[1])]
    bands = []
    for p in s.pairs:
        bands.append(
            Band(BandEnd(0, p.left[0], p.left[1]), BandEnd(0, p.right[0], p.right[1]), 1)
        )
    return _normalized(BandComplex(s.field, arcs, bands))


def support_measure(x):
    """Total length of the support arcs."""
    total = x.field.zero
    for arc in x.supports:
        total = total + (arc.hi - arc.lo)
    return total


# -- segmentation ------------------------------------------------------------------


_ROLES = ("bottom", "top")


def segmentation(x):
    """Per arc: breakpoints and elementary segments with their covering
    band ends.  Returns (breaks, segs, spans): breaks[arc] is the sorted
    list of distinct breakpoints, segs is a flat list of (arc_idx, lo,
    hi, covers) with covers listing (band_idx, role) by band, bottom
    before top, and spans[band_idx] is ((arc, i, j), (arc, i, j)) for
    the bottom and top ends, i and j indexing breaks[arc].

    Each arc's endpoints are sorted once, tagged with the end they
    belong to, so the pass that drops repeated values also gives every
    end its ordinals.  Segment t of an arc is covered by the ends with
    i <= t < j, and two ends coincide exactly when their spans are
    equal: every combinatorial question reads the spans instead of
    comparing field elements.

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
            if not out or not (v - out[-1]).is_zero():
                out.append(v)
            if tag is not None:
                bi, k, slot = tag
                ords[bi][k][slot] = len(out) - 1
        breaks.append(out)
    spans = tuple(tuple(tuple(end) for end in pair) for pair in ords)
    covers = [[[] for _ in pts[1:]] for pts in breaks]
    for bi, pair in enumerate(spans):
        for role, (arc, i, j) in zip(_ROLES, pair):
            for t in range(i, j):
                covers[arc][t].append((bi, role))
    segs = [
        (ai, lo, hi, covers[ai][t])
        for ai, pts in enumerate(breaks)
        for t, (lo, hi) in enumerate(zip(pts, pts[1:]))
    ]
    x._segmentation = (breaks, segs, spans)
    return x._segmentation


def _first_segments(breaks):
    """Index in segs of each arc's first segment."""
    out = [0]
    for pts in breaks[:-1]:
        out.append(out[-1] + len(pts) - 1)
    return out


def segment_values(x):
    """The parameter vector: elementary segment lengths, canonical order."""
    _, segs, _ = segmentation(x)
    return [hi - lo for _, lo, hi, _ in segs]


@dataclass
class FreeSubarc:
    arc: int
    lo: object
    hi: object
    kind: str  # "free" or "dead"
    band: int = -1
    role: str = ""


def find_free_subarcs(x):
    """Maximal positive-measure subarcs whose interior meets at most one
    base: collapse candidates ("free", tagged with the covering base)
    and uncovered pieces ("dead")."""
    _, segs, _ = segmentation(x)
    # Single segments are maximal: an interior breakpoint is an endpoint
    # of some base, which covers one of the two segments meeting there,
    # so two adjacent segments are never both dead, nor both covered by
    # the same one base alone.
    out = []
    for ai, lo, hi, covers in segs:
        if len(covers) == 1:
            bi, role = covers[0]
            out.append(FreeSubarc(ai, lo, hi, "free", bi, role))
        elif not covers:
            out.append(FreeSubarc(ai, lo, hi, "dead"))
    return out


# -- bookkeeping helpers -----------------------------------------------------------


class _Tracker:
    """Expresses new segment lengths over the previous segment basis.

    Anchors are previous breakpoints; a tracked position is an anchor
    plus an integer combination of previous segments.  Differences of
    tracked positions on the same previous arc are exact integer rows.
    """

    def __init__(self, x):
        self.breaks, segs, _ = segmentation(x)
        self.dim = len(segs)
        self.seg_index = {}
        k = 0
        for ai, pts in enumerate(self.breaks):
            for i in range(len(pts) - 1):
                self.seg_index[(ai, i)] = k
                k += 1
        self.values = segment_values(x)

    def ordinal(self, arc, p):
        pts = self.breaks[arc]
        for i, q in enumerate(pts):
            if (p - q).is_zero():
                return i
        return None

    def span(self, arc, p, q):
        """Integer row for q - p, both previous breakpoints of arc."""
        i = self.ordinal(arc, p)
        j = self.ordinal(arc, q)
        if i is None or j is None:
            raise AuditError("span endpoints are not previous breakpoints")
        row = [0] * self.dim
        sgn = 1
        if i > j:
            i, j = j, i
            sgn = -1
        for t in range(i, j):
            row[self.seg_index[(arc, t)]] += sgn
        return row

    def diff(self, rep_hi, rep_lo):
        """Row for value(rep_hi) - value(rep_lo); reps are (arc, anchor,
        row) with position = anchor + value(row)."""
        arc_h, anc_h, row_h = rep_hi
        arc_l, anc_l, row_l = rep_lo
        if arc_h != arc_l:
            raise AuditError("anchor arcs differ")
        base = self.span(arc_h, anc_l, anc_h)
        return [bh - bl + bb for bh, bl, bb in zip(row_h, row_l, base)]

    def value_of(self, row):
        total = None
        for coef, v in zip(row, self.values):
            if coef:
                term = v * coef
                total = term if total is None else total + term
        return total


def _row_check(tracker, row, expected):
    got = tracker.value_of(row)
    if got is None:
        ok = expected.is_zero()
    else:
        ok = (got - expected).is_zero()
    if not ok:
        raise AuditError("segment bookkeeping row does not match its value")


def _reindex_arcs(arcs):
    """Sort arcs by position, return (sorted arcs, old->new index map)."""
    order = sorted(range(len(arcs)), key=lambda i: arcs[i].lo)
    remap = {old: new for new, old in enumerate(order)}
    return [arcs[i] for i in order], remap


def _band_key(b):
    return (b.bottom.arc, b.bottom.lo, b.bottom.hi, b.top.arc, b.top.lo, b.top.hi)


def _flip_normalized(band):
    b, t = band.bottom, band.top
    swap = False
    if t.arc < b.arc:
        swap = True
    elif t.arc == b.arc:
        s = (t.lo - b.lo).sign()
        if s < 0 or (s == 0 and (t.hi - b.hi).sign() < 0):
            swap = True
    if swap:
        return Band(t, b, band.length)
    return band


def _normalized(x, band_rows=None):
    """Sort arcs by position, remap ends, flip and sort bands.

    When band_rows (per-band integer rows over some basis) is given,
    returns (complex, rows reordered to match)."""
    arcs, remap = _reindex_arcs(list(x.supports))
    bands = []
    for b in x.bands:
        bands.append(
            Band(
                BandEnd(remap[b.bottom.arc], b.bottom.lo, b.bottom.hi),
                BandEnd(remap[b.top.arc], b.top.lo, b.top.hi),
                b.length,
            )
        )
    bands = [_flip_normalized(b) for b in bands]
    order = sorted(range(len(bands)), key=lambda i: _band_key(bands[i]))
    out = BandComplex(x.field, arcs, [bands[i] for i in order])
    if band_rows is None:
        return out
    return out, [band_rows[i] for i in order]


def _transition_matrix(x_old, x_new, images):
    """Rows expressing each segment of x_new over the segments of x_old.

    `images` maps a position value that is not a previous breakpoint to
    (anchor_arc, anchor_value, (span_arc, span_from, span_to)): the
    position equals anchor + (span_to - span_from)."""
    tr = _Tracker(x_old)
    old_arc_of = []
    for arc in x_new.supports:
        hit = None
        for oi, oarc in enumerate(x_old.supports):
            if (arc.lo - oarc.lo).sign() >= 0 and (oarc.hi - arc.hi).sign() >= 0:
                hit = oi
                break
        if hit is None:
            raise AuditError("new arc is not contained in any old arc")
        old_arc_of.append(hit)

    def rep(p, old_arc):
        if tr.ordinal(old_arc, p) is not None:
            return (old_arc, p, [0] * tr.dim)
        for key, (a_arc, a_val, span_spec) in images.items():
            if (p - key).is_zero():
                s_arc, s_from, s_to = span_spec
                return (a_arc, a_val, tr.span(s_arc, s_from, s_to))
        raise AuditError("breakpoint has no previous representation")

    rows = []
    _, new_segs, _ = segmentation(x_new)
    for ai, lo, hi, _ in new_segs:
        oa = old_arc_of[ai]
        row = tr.diff(rep(hi, oa), rep(lo, oa))
        _row_check(tr, row, hi - lo)
        rows.append(row)
    return rows


def _unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# -- moves -------------------------------------------------------------------------


def _locate_free(x, arc, lo, hi):
    recs = find_free_subarcs(x)
    for rec in recs:
        if rec.kind != "free" or rec.arc != arc:
            continue
        if (rec.lo - lo).is_zero() and (rec.hi - hi).is_zero():
            return rec
    for rec in recs:
        if rec.kind != "free" or rec.arc != arc:
            continue
        if (lo - rec.lo).sign() >= 0 and (rec.hi - hi).sign() >= 0:
            raise NotMaximal("subarc is properly contained in a free subarc")
    raise NotFree("interval is not a free subarc of any base")


def _piece_index(raw_map, alpha, j0, j1, left_idx, right_idx, end):
    """Raw arc index for a band end after arc alpha lost (j0, j1)."""
    if end.arc != alpha:
        return raw_map[end.arc]
    if (j0 - end.hi).sign() >= 0:
        if left_idx is None:
            raise AuditError("end lies on a dropped arc piece")
        return left_idx
    if (end.lo - j1).sign() >= 0:
        if right_idx is None:
            raise AuditError("end lies on a dropped arc piece")
        return right_idx
    raise AuditError("band end straddles the collapsed subarc")


def _collapse(x, rec):
    band = x.bands[rec.band]
    e = band.bottom if rec.role == "bottom" else band.top
    o = band.top if rec.role == "bottom" else band.bottom
    alpha = e.arc
    j0, j1 = rec.lo, rec.hi
    arc = x.supports[alpha]

    raw_arcs = []
    raw_map = {}
    for i, a in enumerate(x.supports):
        if i != alpha:
            raw_map[i] = len(raw_arcs)
            raw_arcs.append(a)
    left_idx = right_idx = None
    if (j0 - arc.lo).sign() > 0:
        left_idx = len(raw_arcs)
        raw_arcs.append(SupportArc(arc.lo, j0))
    if (arc.hi - j1).sign() > 0:
        right_idx = len(raw_arcs)
        raw_arcs.append(SupportArc(j1, arc.hi))

    def place(end):
        return BandEnd(
            _piece_index(raw_map, alpha, j0, j1, left_idx, right_idx, end),
            end.lo,
            end.hi,
        )

    shift = o.lo - e.lo
    raw_bands = []
    raw_rows = []
    for bi, b in enumerate(x.bands):
        if bi != rec.band:
            raw_bands.append(Band(place(b.bottom), place(b.top), b.length))
            raw_rows.append([int(k == bi) for k in range(len(x.bands))])
            continue
        for r0, r1 in ((e.lo, j0), (j1, e.hi)):
            if (r1 - r0).sign() <= 0:
                continue
            rem_e = BandEnd(
                _piece_index(raw_map, alpha, j0, j1, left_idx, right_idx, BandEnd(alpha, r0, r1)),
                r0,
                r1,
            )
            rem_o = place(BandEnd(o.arc, r0 + shift, r1 + shift))
            if rec.role == "bottom":
                raw_bands.append(Band(rem_e, rem_o, band.length))
            else:
                raw_bands.append(Band(rem_o, rem_e, band.length))
            raw_rows.append([int(k == rec.band) for k in range(len(x.bands))])

    raw = BandComplex(x.field, raw_arcs, raw_bands)
    out, rows = _normalized(raw, raw_rows)
    images = {
        j0 + shift: (o.arc, o.lo, (alpha, e.lo, j0)),
        j1 + shift: (o.arc, o.lo, (alpha, e.lo, j1)),
    }
    return out, images, rows


def collapse_free_subarc(x, arc, interval=None):
    """Collapse the band over a maximal free subarc: the support loses
    the open subarc, the band over it is replaced by at most two
    remnants, and the subarc's structure transfers through the band to
    the other base.

    `arc` is either a record from find_free_subarcs or an arc index with
    `interval` = (lo, hi)."""
    if isinstance(arc, FreeSubarc):
        rec = arc
        if rec.kind != "free":
            raise NotFree("record does not describe a free subarc")
        rec = _locate_free(x, rec.arc, rec.lo, rec.hi)
    else:
        lo, hi = interval
        rec = _locate_free(x, arc, lo, hi)
    out, _, _ = _collapse(x, rec)
    return out


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


def _merge_once(x, hit):
    (bi, ri), (bj, rj) = hit
    b1, b2 = x.bands[bi], x.bands[bj]
    far1 = b1.top if ri == "bottom" else b1.bottom
    far2 = b2.top if rj == "bottom" else b2.bottom
    merged = Band(far1, far2, b1.length + b2.length)
    raw_bands = []
    raw_rows = []
    n = len(x.bands)
    for k, b in enumerate(x.bands):
        if k == bi:
            row = [0] * n
            row[bi] = 1
            row[bj] = 1
            raw_bands.append(merged)
            raw_rows.append(row)
        elif k == bj:
            continue
        else:
            raw_bands.append(b)
            raw_rows.append([int(t == k) for t in range(n)])
    raw = BandComplex(x.field, list(x.supports), raw_bands)
    return _normalized(raw, raw_rows)


def _merge(x):
    v_total = _unit_rows(len(x.bands))
    hits = []
    while True:
        hit = _find_merge(x)
        if hit is None:
            return x, v_total, hits
        hits.append(hit)
        x, v = _merge_once(x, hit)
        v_total = _mat_mul(v, v_total)


def merge_long_bands(x):
    """Fuse every chain of bands glued end to end along shared bases
    that meet no other band; lengths add along the chain."""
    out, _, _ = _merge(x)
    return out


def _drop_dead(x):
    breaks, segs, spans = segmentation(x)
    first = _first_segments(breaks)
    # runs of consecutive covered segments on one arc become the new arcs
    runs = []
    run_at = []
    for ai, lo, hi, covers in segs:
        if not covers:
            run_at.append(None)
            continue
        if run_at and run_at[-1] is not None and runs[-1][0] == ai:
            runs[-1] = (ai, runs[-1][1], hi)
        else:
            runs.append((ai, lo, hi))
        run_at.append(len(runs) - 1)
    raw_arcs = [SupportArc(lo, hi) for _, lo, hi in runs]

    def locate(span):
        arc, i, _ = span
        return run_at[first[arc] + i]

    raw_bands = [
        Band(
            BandEnd(locate(sb), b.bottom.lo, b.bottom.hi),
            BandEnd(locate(st), b.top.lo, b.top.hi),
            b.length,
        )
        for b, (sb, st) in zip(x.bands, spans)
    ]
    raw = BandComplex(x.field, raw_arcs, raw_bands)
    return _normalized(raw, _unit_rows(len(x.bands)))


def drop_dead_subarcs(x):
    """Delete every maximal support subarc carrying no base."""
    out, _ = _drop_dead(x)
    return out


def _mat_mul(a, b):
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    n = len(b[0])
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
    frees = [r for r in find_free_subarcs(x) if r.kind == "free"]
    if not frees:
        raise Halted("no free subarc: the machine is stuck on this complex")
    # find_free_subarcs lists records by arc, then position
    best = frees[0]
    log = [{"move": "collapse", "arc": best.arc, "band": best.band, "end": best.role}]
    x1, images, v1 = _collapse(x, best)
    x2, v2, hits = _merge(x1)
    for (bi, _), (bj, _) in hits:
        log.append({"move": "merge", "bands": [bi, bj]})
    x3, v3 = _drop_dead(x2)
    dropped = len(segmentation(x2)[1]) - len(segmentation(x3)[1])
    if dropped:
        log.append({"move": "drop-dead", "segments": dropped})
    # Every arc of x3 lies inside an arc of x, and every breakpoint of x3
    # is a breakpoint of x or one of the two collapse images (merging only
    # removes breakpoints, drop-dead only removes segments), so one matrix
    # from x to x3 covers the whole step.
    u = _transition_matrix(x, x3, images)
    v = _mat_mul(v3, _mat_mul(v2, v1))
    return x3, u, v, log


def rips_step(x):
    """One machine iteration: collapse the free subarc with the leftmost
    left endpoint on the lowest arc, then merge band chains, then delete
    dead support.  Returns (new complex, move log)."""
    x3, _, _, log = _rips_step_tracked(x)
    return x3, log


# -- cycle detection ---------------------------------------------------------------


def combinatorial_signature(x):
    """Scale-free shape of the complex: per-arc segment counts plus the
    spans from `segmentation`, each band's pair of (arc, breakpoint
    ordinal, breakpoint ordinal) ends.  Widths and lengths are
    deliberately excluded, and no field element is compared."""
    breaks, _, spans = segmentation(x)
    return (tuple(len(pts) - 1 for pts in breaks), spans)


def _state(cx):
    return {
        "complex": cx,
        "sig": combinatorial_signature(cx),
        "params": segment_values(cx),
        "lengths": [b.length for b in cx.bands],
    }


@dataclass
class CycleReport:
    prefix_steps: int
    period_steps: int
    contraction: object
    width_matrix: RatMatrix
    length_matrix: RatMatrix
    params_start: list
    params_end: list
    lengths_start: list
    lengths_end: list
    complex_start: BandComplex
    complex_end: BandComplex
    phases: tuple = ()


def detect_rips_cycle(x, max_steps):
    """Run the machine until some state is combinatorially isomorphic to
    an earlier one with every segment length scaled by one common exact
    factor below 1.  The report carries the integer period matrices for
    segment lengths (width_matrix) and band lengths (length_matrix)."""
    cur = _normalized(x)
    states = [_state(cur)]
    by_sig = {states[0]["sig"]: [0]}
    u_steps = []
    v_steps = []
    for t in range(1, max_steps + 1):
        try:
            cur, u, v, _ = _rips_step_tracked(cur)
        except Halted:
            raise NotFound(f"machine halted after {t - 1} steps without a cycle")
        u_steps.append(u)
        v_steps.append(v)
        state = _state(cur)
        states.append(state)
        earlier = by_sig.setdefault(state["sig"], [])
        for s in earlier:
            ps, pt = states[s]["params"], state["params"]
            if not ps:
                continue
            k = pt[0] / ps[0]
            if not all((b - k * a).is_zero() for a, b in zip(ps, pt)):
                continue
            ks = k.sign()
            if ks <= 0 or (k - x.field.one).sign() >= 0:
                continue
            u_period = _unit_rows(len(ps))
            for i in range(s, t):
                u_period = _mat_mul(u_steps[i], u_period)
            v_period = _unit_rows(len(states[s]["lengths"]))
            for i in range(s, t):
                v_period = _mat_mul(v_steps[i], v_period)
            _audit_cycle(states[s], state, u_period, v_period)
            return CycleReport(
                prefix_steps=s,
                period_steps=t - s,
                contraction=k,
                width_matrix=RatMatrix.from_rows(u_period),
                length_matrix=RatMatrix.from_rows(v_period),
                params_start=ps,
                params_end=pt,
                lengths_start=states[s]["lengths"],
                lengths_end=state["lengths"],
                complex_start=states[s]["complex"],
                complex_end=state["complex"],
                phases=tuple(st["complex"] for st in states[s : t + 1]),
            )
        earlier.append(t)
    raise NotFound(f"no cycle within {max_steps} machine steps")


def _audit_cycle(state_s, state_t, u_period, v_period):
    ps, pt = state_s["params"], state_t["params"]
    for row, target in zip(u_period, pt):
        acc = None
        for coef, val in zip(row, ps):
            if coef:
                term = val * coef
                acc = term if acc is None else acc + term
        ok = target.is_zero() if acc is None else (acc - target).is_zero()
        if not ok:
            raise AuditError("period matrix does not reproduce the segment values")
    ls, lt = state_s["lengths"], state_t["lengths"]
    for row, target in zip(v_period, lt):
        if sum(c * l for c, l in zip(row, ls)) != target:
            raise AuditError("period matrix does not reproduce the band lengths")


def one_end_criterion(report, eps=Fraction(1, 10**9)):
    """Certified test that contraction times the Perron root of the
    length matrix is below 1.  Returns (bool, (lo, hi)) with an exact
    rational interval around the product."""
    c_lo, c_hi = report.contraction.enclosure(Fraction(eps))
    m_lo, m_hi = perron_root_interval(report.length_matrix, Fraction(eps))
    if c_lo < 0:
        c_lo = Fraction(0)
    lo, hi = c_lo * m_lo, c_hi * m_hi
    return hi < 1, (lo, hi)


# -- leaf pruning ------------------------------------------------------------------


def _prune_rounds(adj, degrees, immortal, max_rounds):
    """Simultaneous leaf removal; returns {vertex: round removed} for
    removals within max_rounds.

    In each round every mortal vertex with at most one live edge (edges
    count with multiplicity) is removed at once.  `adj` must be
    symmetric with multiplicity.  Live counts are kept rather than
    recounted: round 1 takes every mortal vertex of degree <= 1, each
    later round the vertices whose count fell from 2 in the round before,
    so a run costs O(V + E), as in Batagelj & Zaversnik's queue-based
    core decomposition.
    """
    live = dict(degrees)
    batch = [v for v, deg in live.items() if deg <= 1 and v not in immortal]
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


def _removal_round(s, x, rounds, cap):
    """Round at which x is pruned, or rounds + 1 when it survives them
    all; decided by growing a neighborhood until the optimistic and
    pessimistic simulations agree.  Vertices are keyed by their integer
    vectors on the orbit chart of x."""
    chart = OrbitChart(s, x)
    root = chart.origin
    adj = {}
    edges_into = {root: []}
    frontier = [root]
    seen = {root}
    depth = min(rounds, 4) + 2
    expanded_to = 0
    while True:
        while expanded_to < depth:
            nxt = []
            for v in frontier:
                if v not in adj:
                    adj[v] = [w for w, _, _ in orbit_neighbors(chart, v)]
                    for w in adj[v]:
                        edges_into.setdefault(w, []).append(v)
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
            frontier = nxt
            expanded_to += 1
            if len(seen) > cap:
                raise DepthExhausted(
                    f"neighborhood exceeded {cap} vertices before round status settled"
                )
        boundary = frozenset(v for v in seen if v not in adj)
        degrees = {}
        local = {}
        for v in seen:
            if v in adj:
                degrees[v] = len(adj[v])
                local[v] = adj[v]
            else:
                local[v] = edges_into[v]
                degrees[v] = len(local[v])
        opt = _prune_rounds(local, degrees, boundary, rounds)
        pess = _prune_rounds(local, degrees, frozenset(), rounds)
        r_opt = opt.get(root, rounds + 1)
        r_pess = pess.get(root, rounds + 1)
        if r_opt == r_pess:
            return r_opt
        depth += 2


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


class PruningReport:
    """Sequence of surviving-measure estimates, one per pruning round.

    `survivors[r]` counts the decided samples (`samples - exhausted`)
    still present after round r + 1, `estimates[r]` is their fraction and
    `wilson[r]` its Wilson 95% interval, (0.0, 1.0) when no sample was
    decided."""

    __slots__ = ("estimates", "samples", "exhausted", "survivors", "wilson")

    def __init__(self, estimates, samples, exhausted, survivors):
        self.estimates = estimates
        self.samples = samples
        self.exhausted = exhausted
        self.survivors = survivors
        self.wilson = [_wilson(k, samples - exhausted) for k in survivors]

    def __iter__(self):
        return iter(self.estimates)

    def __len__(self):
        return len(self.estimates)

    def __getitem__(self, i):
        return self.estimates[i]

    def __repr__(self):
        shown = ", ".join(f"{e:.3f}" for e in self.estimates)
        return f"PruningReport([{shown}], exhausted={self.exhausted}/{self.samples})"


def pruning_decay(s, rounds, samples, seed=0, cap=20000):
    """Monte Carlo estimate of the support measure fraction whose orbit
    vertex survives r rounds of iterated leaf removal, r = 1..rounds.

    Each sample is a point with a 48-bit rational offset into the
    support.  Its status is decided on an adaptively grown neighborhood of
    its orbit chart (optimistic and pessimistic boundary assumptions must
    agree), peeled with live edge counts; samples whose neighborhood
    exceeds `cap` vertices are excluded and counted in `exhausted`.  The
    report carries a Wilson 95% interval per round.  Raises InvalidSystem
    when the field's modulus is not certified irreducible."""
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
        for r in range(1, rounds + 1):
            if rr > r:
                survivors[r - 1] += 1
    decided = samples - exhausted
    estimates = [
        (Fraction(n, decided) if decided else Fraction(0)) for n in survivors
    ]
    return PruningReport([float(e) for e in estimates], samples, exhausted, survivors)
