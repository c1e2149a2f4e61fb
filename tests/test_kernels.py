"""The numpy section kernels against plain loop references.

The references below walk the lattice translates, the endpoint runs and
the chains of paired endpoints one at a time, in the order the vectorised
kernels promise, with the same float operations; the kernels must
reproduce them exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinsections import _kernels
from thinsections.sections import _chains, _classify, _compiled, _emit, sample_levels
from thinsections.surface import build_surface


@pytest.fixture(scope="module", params=[1, 2])
def surface(request):
    return build_surface(request.param)


def _reference_emit(surface, level, R):
    f = float
    vw = [w for w in surface.walls if w.orient == "v"]
    tang = [f(w.fixed) for w in surface.walls if w.orient == "h"]
    e2y, e3y = f(surface.lattice[1][1]), f(surface.lattice[2][1])
    period = f(surface.plate_period)
    rows, clips, near = [], [], 1e300
    steps = range(int(np.floor(-R - 1.0)), int(np.floor(R)) + 1)
    for k3 in steps:
        for s in steps:
            base = level - s * e2y - k3 * e3y
            k1_lo = int(np.ceil((-1e-6 - base) / period))
            k1_hi = int(np.floor((period + 1e-6 - base) / period))
            for k1 in range(k1_lo, k1_hi + 1):
                yloc = base + k1 * period
                for t in tang:
                    near = min(near, abs(t - yloc))
                for p in surface.plates:
                    z = f(p.level) + k3
                    if z < -R or z > R:
                        continue
                    if not f(p.outer.x2[0]) < yloc < f(p.outer.x2[1]):
                        continue
                    cuts = sorted(((f(h.x1[0]), f(h.x1[1])) for h in p.holes
                                   if f(h.x2[0]) < yloc < f(h.x2[1])),
                                  key=lambda c: c[0])
                    xcur = f(p.outer.x1[0])
                    for a, b in cuts + [(f(p.outer.x1[1]), None)]:
                        xa, xb, c0, c1 = xcur + s, a + s, 0, 0
                        xcur = b
                        if xa < -R:
                            xa, c0 = -R, 1
                        if xb > R:
                            xb, c1 = R, 1
                        if xb - xa > 1e-12:
                            rows.append((xa, z, xb, z))
                            clips.append((c0, c1))
                for w in vw:
                    if not f(w.span[0]) < yloc < f(w.span[1]):
                        continue
                    x = f(w.fixed) + s
                    if x < -R or x > R:
                        continue
                    za, zb, c0, c1 = f(w.x3[0]) + k3, f(w.x3[1]) + k3, 0, 0
                    if za < -R:
                        za, c0 = -R, 1
                    if zb > R:
                        zb, c1 = R, 1
                    if zb - za > 1e-12:
                        rows.append((x, za, x, zb))
                        clips.append((c0, c1))
    return np.array(rows).reshape(-1, 4), np.array(clips, np.uint8).reshape(-1, 2), near


def _reference_match(seg, clip, eps):
    ends = seg.reshape(-1, 2)
    live = sorted((e for e in range(ends.shape[0]) if not clip.flat[e]),
                  key=lambda e: ends[e, 0])
    partner = np.full(ends.shape[0], -1, np.int64)
    i = 0
    while i < len(live):
        j = i + 1
        while j < len(live) and ends[live[j], 0] - ends[live[j - 1], 0] <= eps:
            j += 1
        run = sorted(live[i:j], key=lambda e: ends[e, 1])
        r = 0
        while r < len(run) - 1:
            if ends[run[r + 1], 1] - ends[run[r], 1] <= eps:
                partner[run[r]], partner[run[r + 1]] = run[r + 1], run[r]
                r += 2
            else:
                r += 1
        i = j
    return partner


def test_match_endpoints_chains_x_gaps():
    # a gap of at most eps keeps an x-run going, so a run can span more
    # than eps: at x = 0, 0.8e-9 and 1.6e-9 all three ends share one run,
    # and the last two (z = 0 and 0.5e-9) pair
    seg = np.array([[0.0, 5.0, 10.0, 10.0], [0.8e-9, 0.0, 20.0, 20.0],
                    [1.6e-9, 0.5e-9, 30.0, 30.0]])
    clip = np.array([[0, 1]] * 3, np.uint8)
    partner = _kernels.match_endpoints(seg, clip, 1e-9)
    assert partner.tolist() == [-1, -1, 4, -1, 2, -1]
    assert np.array_equal(partner, _reference_match(seg, clip, 1e-9))


@pytest.mark.parametrize("R", [0.5, 5.0])
@pytest.mark.parametrize("level", [0.1, 0.37, 0.77])
def test_kernels_match_loop_references(surface, level, R):
    seg, clip, near = _kernels.emit_segments(level, R, *_compiled(surface))
    ref_seg, ref_clip, ref_near = _reference_emit(surface, level, R)
    assert np.array_equal(seg, ref_seg)
    assert np.array_equal(clip, ref_clip)
    assert near == ref_near
    assert seg.dtype == np.float64 and clip.dtype == np.uint8
    partner = _kernels.match_endpoints(seg, clip, 1e-9)
    assert np.array_equal(partner, _reference_match(seg, clip, 1e-9))


@pytest.mark.parametrize("R", [0.5, 5.0, 50.0])
def test_guard_emit_without_pieces_reads_the_same_tangency_distance(surface, R):
    plates, walls, *rest = _compiled(surface)
    levels = [0.1, 0.37, 0.77, float(rest[0][0])] + sample_levels(surface, 3, 0, R)
    for level in levels:
        seg, clip, near = _kernels.emit_segments(level, R, (), (), *rest)
        assert seg.shape == (0, 4) and clip.shape == (0, 2)
        assert near == _kernels.emit_segments(level, R, plates, walls, *rest)[2]


def _reference_levels(surface, count, seed, R, eps=1e-9):
    # sample_levels with the full emit as its guard
    rng = np.random.default_rng(seed)
    period, out = float(surface.plate_period), []
    while len(out) < count:
        level = float(rng.uniform(0.0, period))
        if _kernels.emit_segments(level, R, *_compiled(surface))[2] >= 10.0 * eps:
            out.append(level)
    return out


@pytest.mark.parametrize("R", [0.5, 5.0, 50.0])
@pytest.mark.parametrize("seed", [0, 5])
def test_sample_levels_match_full_emit_guard(surface, seed, R):
    assert sample_levels(surface, 6, seed, R) == _reference_levels(surface, 6, seed, R)


@pytest.mark.parametrize("level", [0.1, 0.37, 0.77])
def test_emit_does_not_depend_on_block_bound(surface, level, monkeypatch):
    # the smallest bound puts one k3 value in each of the 12 blocks at R = 5
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 1)
    seg, clip, near = _kernels.emit_segments(level, 5.0, *_compiled(surface))
    ref_seg, ref_clip, ref_near = _reference_emit(surface, level, 5.0)
    assert np.array_equal(seg, ref_seg)
    assert np.array_equal(clip, ref_clip)
    assert near == ref_near


@pytest.mark.parametrize("runs", [300, 70_000])
def test_match_endpoints_on_many_runs(runs):
    # four endpoints per x-run, jittered within eps in x; z near 0, 1 or 2
    # with jitter within eps, so an endpoint has 0 to 3 candidates
    rng = np.random.default_rng(runs)
    x = rng.permutation(np.repeat(np.arange(runs, dtype=float), 4))
    x += rng.uniform(-2e-10, 2e-10, x.shape)
    z = rng.integers(0, 3, x.shape) + rng.uniform(-2e-10, 2e-10, x.shape)
    seg = np.stack([x, z], axis=1).reshape(-1, 4)
    clip = (rng.random((seg.shape[0], 2)) < 0.1).astype(np.uint8)
    # the run labels switch to a wider unsigned dtype past 255 and 65,535
    labels = _kernels._runs(x, 1e-9)
    assert labels.dtype == np.min_scalar_type(runs) and labels.max() == runs - 1
    partner = _kernels.match_endpoints(seg, clip, 1e-9)
    assert (partner >= 0).sum() > x.shape[0] // 4
    assert np.array_equal(partner, _reference_match(seg, clip, 1e-9))


def _reference_chains(seg, partner):
    # paths from their first free endpoint, then cycles from their first
    # segment; a cycle's chain ends on its first point
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


def _reference_classify(rows, closed, R, eps):
    xs = np.concatenate([rows[:, 0], rows[:, 2]])
    zs = np.concatenate([rows[:, 1], rows[:, 3]])
    tol = max(eps, 1e-9)
    spans_x = xs.min() <= -R + tol and xs.max() >= R - tol
    spans_z = zs.min() <= -R + tol and zs.max() >= R - tol
    diameter = max(xs.max() - xs.min(), zs.max() - zs.min())
    if spans_x or spans_z or diameter >= R:
        return "spanning"
    return "closed" if closed else "boundary-clipped"


def _check_chains(seg, partner, R, eps=1e-9):
    members, first, chains, closed = _chains(seg, partner)
    bounds = np.append(first, members.shape[0]).tolist()
    got = [(members[a:b].tolist(), chain, bool(c))
           for a, b, chain, c in zip(bounds, bounds[1:], chains, closed)]
    ref = _reference_chains(seg, partner)
    assert got == ref
    assert repr(chains) == repr([chain for _, chain, _ in ref])
    classes = _classify(seg[members], first, closed, R, eps)
    assert classes == [_reference_classify(seg[m], c, R, eps) for m, _, c in ref]
    return ref


@pytest.mark.parametrize("R", [5.0, 10.0, 20.0, 50.0])
def test_chains_match_walk_on_sampled_levels(surface, R):
    for level in sample_levels(surface, 3, 0, 50.0):
        seg, clip = _emit(surface, level, R, 1e-9)
        _check_chains(seg, _kernels.match_endpoints(seg, clip, 1e-9), R)


def _pairs(n_ends, *pairs):
    partner = np.full(n_ends, -1, np.int64)
    for a, b in pairs:
        partner[a], partner[b] = b, a
    return partner


# unit square, stored bottom, top, left, right; the left side's lower end
# is paired with the corner but sits 5e-10 above it
SQUARE = ([(0, 0, 1, 0), (0, 1, 1, 1), (0, 5e-10, 0, 1), (1, 0, 1, 1)],
          [(0, 4), (1, 6), (2, 5), (3, 7)])
# (0,0)-(1,0)-(2,0)-(3,0) stored middle, right, left: the smaller free
# endpoint (3) lies on segment 1, the lowest-numbered segment is interior
PATH = ([(1, 0, 2, 0), (2, 0, 3, 0), (0, 0, 1, 0)], [(0, 5), (1, 2)])
LONE = ([(0, 2, 0, 3)], [])
# two segments over the same two points
LENS = ([(0, 0, 1, 0), (0, 0, 1, 0)], [(0, 2), (1, 3)])


def _union(*cases):
    rows, pairs = [], []
    for seg, case_pairs in cases:
        pairs += [(a + 2 * len(rows), b + 2 * len(rows)) for a, b in case_pairs]
        rows += seg
    return rows, pairs


@pytest.mark.parametrize("case, expect", [
    (SQUARE, [([0, 3, 1, 2], ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)),
               True)]),
    (PATH, [([1, 0, 2], ((3.0, 0.0), (2.0, 0.0), (1.0, 0.0), (0.0, 0.0)), False)]),
    (LONE, [([0], ((0.0, 2.0), (0.0, 3.0)), False)]),
    (LENS, [([0, 1], ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)), True)]),
    (_union(LONE, SQUARE, PATH, LENS), None),
    (_union(LENS, PATH, SQUARE, LONE), None),
])
def test_chains_match_walk_on_hand_built_pairs(case, expect):
    rows, pairs = case
    seg = np.array(rows, float)
    got = _check_chains(seg, _pairs(2 * seg.shape[0], *pairs), 5.0)
    if expect is not None:
        assert got == expect


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 1000, 1025])
def test_chains_match_walk_on_one_long_path_and_cycle(n):
    # pointer jumping stops after the first round that brings no node to
    # its root: paths whose length is at or next to a power of two, and a
    # cycle of the same length beside them
    rows = np.arange(8.0 * n).reshape(-1, 4)
    path = [(2 * i + 1, 2 * i + 2) for i in range(n - 1)]
    cycle = [(2 * (n + i) + 1, 2 * (n + (i + 1) % n)) for i in range(n)]
    _check_chains(rows, _pairs(4 * n, *path, *cycle), 5.0)


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=300), free=st.integers(min_value=0, max_value=7),
       rnd=st.randoms(use_true_random=False))
def test_chains_match_walk_on_random_pairings(n, free, rnd):
    ends = list(range(2 * n))
    rnd.shuffle(ends)
    paired = ends[min(free, 2 * n):]
    pairs = list(zip(paired[::2], paired[1::2]))
    _check_chains(np.arange(4.0 * n).reshape(-1, 4), _pairs(2 * n, *pairs), 5.0)


def test_chains_match_walk_on_clipped_path():
    # window |x|, |z| <= 1: an L from the left edge to the top edge, and a
    # second piece whose clipped end sits on the same boundary point
    seg = np.array([(-1.0, 0.0, 0.5, 0.0), (0.5, 0.0, 0.5, 1.0), (-1.0, -0.5, -1.0, 0.0)])
    clip = np.array([(1, 0), (0, 1), (0, 1)], np.uint8)
    partner = _kernels.match_endpoints(seg, clip, 1e-9)
    assert partner.tolist() == [-1, 2, 1, -1, -1, -1]
    got = _check_chains(seg, partner, 1.0)
    assert got == [([0, 1], ((-1.0, 0.0), (0.5, 0.0), (0.5, 1.0)), False),
                   ([2], ((-1.0, -0.5), (-1.0, 0.0)), False)]
