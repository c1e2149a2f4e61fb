"""The numpy section kernels against plain loop references.

The references below walk the lattice translates, the endpoint runs and
the chains of paired endpoints one at a time, in the order the vectorised
kernels promise, with the same float operations; the kernels must
reproduce them exactly.  Endpoint keys are checked against keys built from
the exact Fraction coordinates, and the key pairing against the float eps
rule it replaced (`_reference_match`), which stays as the oracle.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinsections import _kernels
from thinsections.errors import InvalidSystem
from thinsections.sections import _chains, _classify, _compiled, _emit, sample_levels
from thinsections.surface import Rect, build_surface


@pytest.fixture(scope="module", params=[1, 2])
def surface(request):
    return build_surface(request.param)


def _reference_emit(surface, level, R):
    # floats as the kernel computes them; keys from the exact Fraction
    # coordinates, by the formula emit_segments documents
    f = float
    q = lambda v: Fraction(sum(v.coeffs))
    vw = [w for w in surface.walls if w.orient == "v"]
    tang = [f(w.fixed) for w in surface.walls if w.orient == "h"]
    e2y, e3y = f(surface.lattice[1][1]), f(surface.lattice[2][1])
    period = f(surface.plate_period)
    dx = math.lcm(*(q(v).denominator for p in surface.plates
                    for r in (p.outer, *p.holes) for v in r.x1),
                  *(q(w.fixed).denominator for w in vw))
    dz = math.lcm(*(q(p.level).denominator for p in surface.plates),
                  *(q(v).denominator for w in vw for v in w.x3))
    xoff, zoff = math.floor(dx * R) + 1, math.floor(dz * R) + 1
    width = 2 * zoff + 1

    def key(clipped, x, z):
        X, Z = x * dx, z * dz
        assert X.denominator == 1 and Z.denominator == 1
        return -1 if clipped else int((X + xoff) * width + Z + zoff)

    rows, keys, near = [], [], 1e300
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
                    cuts = sorted(((h.x1[0], h.x1[1]) for h in p.holes
                                   if f(h.x2[0]) < yloc < f(h.x2[1])),
                                  key=lambda c: f(c[0]))
                    xcur = p.outer.x1[0]
                    for a, b in cuts + [(p.outer.x1[1], None)]:
                        xa, xb, c0, c1 = f(xcur) + s, f(a) + s, 0, 0
                        ends = (q(xcur) + s, q(a) + s)
                        xcur = b
                        if xa < -R:
                            xa, c0 = -R, 1
                        if xb > R:
                            xb, c1 = R, 1
                        if xb - xa > 1e-12:
                            rows.append((xa, z, xb, z))
                            keys.append((key(c0, ends[0], q(p.level) + k3),
                                         key(c1, ends[1], q(p.level) + k3)))
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
                        keys.append((key(c0, q(w.fixed) + s, q(w.x3[0]) + k3),
                                     key(c1, q(w.fixed) + s, q(w.x3[1]) + k3)))
    return np.array(rows).reshape(-1, 4), np.array(keys, np.int64).reshape(-1, 2), near


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


def _clip(key):
    return (key < 0).astype(np.uint8)


@pytest.mark.parametrize("R", [0.5, 5.0])
@pytest.mark.parametrize("level", [0.1, 0.37, 0.77])
def test_kernels_match_loop_references(surface, level, R):
    seg, key, near = _kernels.emit_segments(level, R, *_compiled(surface))
    ref_seg, ref_key, ref_near = _reference_emit(surface, level, R)
    assert np.array_equal(seg, ref_seg)
    assert np.array_equal(key, ref_key)
    assert near == ref_near
    assert seg.dtype == np.float64 and key.dtype == np.int32
    partner = _kernels.match_endpoints(key)
    assert np.array_equal(partner, _reference_match(seg, _clip(key), 1e-9))


@pytest.mark.parametrize("R", [20.0, 50.0])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_key_pairing_matches_the_eps_rule_on_sampled_levels(surface, seed, R):
    level, = sample_levels(surface, 1, seed, R)
    seg, key = _emit(surface, level, R, 1e-9)
    partner = _kernels.match_endpoints(key)
    assert (partner >= 0).sum() > seg.shape[0]
    assert np.array_equal(partner, _reference_match(seg, _clip(key), 1e-9))


def test_compiled_grid_of_the_bundled_surfaces(surface):
    # x1 coordinates on (Z/5), x3 coordinates on (Z/4)
    plates, walls, *_, dx, dz = _compiled(surface)
    assert (dx, dz) == (5, 4)
    assert sorted({p[0] for p in plates} | {v for w in walls for v in w[3:]}) == [0, 1, 3, 4]


def _with_left_edge(surf, edge):
    plate = surf.plates[0]
    bad = replace(plate, outer=Rect((edge, plate.outer.x1[1]), plate.outer.x2))
    return replace(surf, plates=(bad, surf.plates[1]))


def test_compiled_takes_the_grid_from_the_surface():
    surf = build_surface(1)
    plates, *_, dx, dz = _compiled(_with_left_edge(surf, surf.field.rational(Fraction(1, 10))))
    assert (dx, dz) == (10, 4) and plates[0][1:3] == (1, 10)


@pytest.mark.parametrize("edge", ["irrational", Fraction(1, 2 ** 8), Fraction(1, 7 * 37)])
def test_compiled_rejects_an_irrational_or_too_fine_x1_edge(edge):
    # gen / 10 is about 0.025; 1/2^8 makes dx dz = 5 * 2^8 * 4 >= 2^10, and
    # 1/259 makes it 5180
    surf = build_surface(1)
    edge = surf.field.gen / 10 if edge == "irrational" else surf.field.rational(edge)
    with pytest.raises(InvalidSystem, match="rational x1, x3 with small denominators"):
        _compiled(_with_left_edge(surf, edge))


def _reference_pairs(key):
    # endpoints grouped by key in index order, paired 1st-2nd, 3rd-4th, ...
    flat, groups = key.ravel().tolist(), {}
    for e, k in enumerate(flat):
        if k >= 0:
            groups.setdefault(k, []).append(e)
    partner = np.full(len(flat), -1, np.int64)
    for ends in groups.values():
        for a, b in zip(ends[0::2], ends[1::2]):
            partner[a], partner[b] = b, a
    return partner


@pytest.mark.parametrize("key, expect", [
    # pairs: (5) at ends 0 and 3, (7) at ends 1 and 2
    ([[5, 7], [7, 5]], [3, 2, 1, 0]),
    # a run of three pairs its first two ends by index, a run of four both pairs
    ([[9, 4], [9, 9], [4, 4]], [2, 4, 0, -1, 1, -1]),
    ([[9, 9], [9, 9]], [1, 0, 3, 2]),
    # clipped ends never pair, also with each other
    ([[-1, 3], [-1, -1], [3, -1]], [-1, 4, -1, -1, 1, -1]),
    (np.empty((0, 2), np.int64), []),
])
def test_match_endpoints_pairs_equal_keys(key, expect):
    key = np.asarray(key, np.int64)
    partner = _kernels.match_endpoints(key)
    assert partner.dtype == np.int64 and partner.tolist() == expect
    assert np.array_equal(partner, _reference_pairs(key))


@settings(max_examples=50)
@given(n=st.integers(min_value=0, max_value=200), values=st.integers(min_value=1, max_value=60),
       rnd=st.randoms(use_true_random=False))
def test_match_endpoints_against_the_eps_rule(n, values, rnd):
    # keys from a small range, a tenth clipped; as points on a grid of
    # spacing 0.25 the eps oracle pairs them the same way
    key = np.array([rnd.randrange(values) if rnd.random() > 0.1 else -1
                    for _ in range(2 * n)], np.int64).reshape(-1, 2)
    partner = _kernels.match_endpoints(key)
    assert np.array_equal(partner, _reference_pairs(key))
    seg = np.stack([key // 7 * 0.25, key % 7 * 0.25], axis=2).reshape(-1, 4)
    assert np.array_equal(partner, _reference_match(seg, _clip(key), 1e-9))


@pytest.mark.parametrize("R", [0.5, 5.0, 50.0])
def test_guard_emit_without_pieces_reads_the_same_tangency_distance(surface, R):
    plates, walls, *rest = _compiled(surface)
    levels = [0.1, 0.37, 0.77, float(rest[0][0])] + sample_levels(surface, 3, 0, R)
    for level in levels:
        seg, key, near = _kernels.emit_segments(level, R, (), (), *rest)
        assert seg.shape == (0, 4) and key.shape == (0, 2)
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


@pytest.mark.parametrize("R, eps", [(0.5, 1e-9), (5.0, 1e-9), (50.0, 1e-9), (5.0, 1e-4)])
def test_sample_levels_are_numpys_draws_on_64_seeds(surface, R, eps):
    # the reference draws from numpy.random itself; at R = 5 a guard of
    # 10 * eps = 1e-3 rejects about 170 draws over the 64 seeds, so the
    # redraws must follow numpy's stream too
    for seed in range(64):
        got = sample_levels(surface, 2, seed, R, eps)
        assert got == _reference_levels(surface, 2, seed, R, eps), seed


@pytest.mark.parametrize("level", [0.1, 0.37, 0.77])
def test_emit_does_not_depend_on_block_bound(surface, level, monkeypatch):
    # the smallest bound puts one k3 value in each of the 12 blocks at R = 5
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 1)
    seg, key, near = _kernels.emit_segments(level, 5.0, *_compiled(surface))
    ref_seg, ref_key, ref_near = _reference_emit(surface, level, 5.0)
    assert np.array_equal(seg, ref_seg)
    assert np.array_equal(key, ref_key)
    assert near == ref_near


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
    classes = _classify(seg, members, first, closed, R, eps)
    assert classes == [_reference_classify(seg[m], c, R, eps) for m, _, c in ref]
    return ref


@pytest.mark.parametrize("R", [5.0, 10.0, 20.0, 50.0])
def test_chains_match_walk_on_sampled_levels(surface, R):
    for level in sample_levels(surface, 3, 0, 50.0):
        seg, key = _emit(surface, level, R, 1e-9)
        _check_chains(seg, _kernels.match_endpoints(key), R)


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
    # second piece whose clipped end sits on the same boundary point; keys
    # on the grid (Z/2)^2 with xoff = zoff = 3 and width 7
    seg = np.array([(-1.0, 0.0, 0.5, 0.0), (0.5, 0.0, 0.5, 1.0), (-1.0, -0.5, -1.0, 0.0)])
    key = np.array([(-1, 4 * 7 + 3), (4 * 7 + 3, -1), (1 * 7 + 2, -1)])
    partner = _kernels.match_endpoints(key)
    assert partner.tolist() == [-1, 2, 1, -1, -1, -1]
    got = _check_chains(seg, partner, 1.0)
    assert got == [([0, 1], ((-1.0, 0.0), (0.5, 0.0), (0.5, 1.0)), False),
                   ([2], ((-1.0, -0.5), (-1.0, 0.0)), False)]
