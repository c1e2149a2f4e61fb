"""Plane-section tracing: windows, censuses, kernels, level sampling."""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from thinsections import _kernels, iis, polynomials as P, sections
from thinsections.errors import EmptyWindow, NearSaddle, PreconditionFailed, WindowTooLarge
from thinsections.iis import system_params
from thinsections.sections import (
    MAX_RADIUS,
    SectionComponent,
    component_census,
    sample_levels,
    trace_section,
    _emit,
)
from thinsections.surface import _floor_towards, build_surface

SEED = 20260815


@pytest.fixture(scope="module")
def ex1():
    return build_surface(1)


@pytest.fixture(scope="module")
def ex2():
    return build_surface(2)


# -- guards -------------------------------------------------------------------


def test_nonpositive_radius_rejected(ex1):
    for R in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(EmptyWindow):
            trace_section(ex1, 0.1, R)
        with pytest.raises(EmptyWindow):
            sample_levels(ex1, 1, 0, R)


def test_radius_above_the_limit_rejected_before_emitting(ex1, refuse_to_emit):
    for R in (MAX_RADIUS * (1 + 1e-12), 501, 1e4, 1e300):
        with pytest.raises(WindowTooLarge):
            trace_section(ex1, 0.1, R)
        with pytest.raises(WindowTooLarge):
            sample_levels(ex1, 1, 0, R)
    # the limit itself is a window; check it without tracing one
    assert sections._window_radius(MAX_RADIUS) == MAX_RADIUS
    with pytest.raises(AssertionError, match="was built"):
        trace_section(ex1, 0.1, MAX_RADIUS)


def test_negative_seed_rejected(ex1):
    with pytest.raises(PreconditionFailed):
        sample_levels(ex1, 1, -1, 5.0)
    with pytest.raises(PreconditionFailed):
        sample_levels(ex1, 1, np.int64(-1), 5.0)


@pytest.mark.parametrize("seed", [3.0, 0.5, math.nan, "3", None, Fraction(3)])
def test_non_integer_seed_rejected(ex1, seed):
    with pytest.raises(PreconditionFailed, match="integer"):
        sample_levels(ex1, 1, seed, 5.0)


def test_integer_like_seeds_draw_as_their_int(ex1):
    # operator.index: numpy ints and bools are the ints they equal
    assert sample_levels(ex1, 3, np.int64(3), 5.0) == sample_levels(ex1, 3, 3, 5.0)
    assert sample_levels(ex1, 3, np.uint8(7), 5.0) == sample_levels(ex1, 3, 7, 5.0)
    assert sample_levels(ex1, 3, True, 5.0) == sample_levels(ex1, 3, 1, 5.0)
    assert sample_levels(ex1, 3, False, 5.0) == sample_levels(ex1, 3, 0, 5.0)


def test_tiny_window_is_empty(ex1):
    assert trace_section(ex1, 0.26, 0.01) == ()


def test_near_saddle_rejected(ex1):
    a, b, c, u = system_params("s1")
    with pytest.raises(NearSaddle):
        trace_section(ex1, float(u), 5.0)
    with pytest.raises(NearSaddle):
        trace_section(ex1, float(u) + 2e-10, 5.0)
    assert trace_section(ex1, float(u) + 1e-3, 5.0)


def test_nonfinite_level_rejected(ex1):
    with pytest.raises(ValueError):
        trace_section(ex1, float("nan"), 5.0)


@pytest.fixture
def own_ex1(monkeypatch):
    """Example 1 over a field of its own: reducing a level near 1e300
    exactly refines the field's isolating interval to about 2^-1000, which
    would carry over to every later user of the shared field."""
    monkeypatch.setattr(iis, "_FIELD_CACHE", {})
    return build_surface(1)


@pytest.mark.parametrize("level", [1e15, -1e15, 1e20, 1e300])
def test_far_level_traces_as_its_exact_reduction(own_ex1, level):
    # e2 - e1 = (0, P, 0) maps the section at level L onto the one at
    # L - k*P; the float level alone would lose its place in the period
    exact, period = own_ex1.field.rational(Fraction(level)), own_ex1.plate_period
    reduced = float(exact - _floor_towards(exact, period) * period)
    assert 0.0 <= reduced < float(period)
    assert trace_section(own_ex1, level, 5.0) == trace_section(own_ex1, reduced, 5.0)


def test_far_level_leaves_the_shared_field_interval(ex1):
    # the exact reduction of 1e300 needs an interval near 2^-1000 wide;
    # the bundled field gets its own interval back afterwards
    before = ex1.field.root_interval
    comps = trace_section(ex1, 1e300, 5.0)
    assert ex1.field.root_interval == before
    assert before[1] - before[0] > Fraction(1, 2 ** 200)
    assert comps == trace_section(ex1, 1e300, 5.0)


def test_far_level_refines_with_few_interval_evaluations(own_ex1, monkeypatch):
    # the reduction of 1e300 refines the field about 900 levels below
    # 2^-128; the level search reaches each level its signs and enclosures
    # need with O(log level) evaluations, where one step at a time took 992
    field, period = own_ex1.field, own_ex1.plate_period
    exact, saved = field.rational(Fraction(1e300)), field.root_interval
    reduced = float(exact - _floor_towards(exact, period) * period)
    field._restore(saved)
    want = trace_section(own_ex1, reduced, 5.0)
    calls = []
    evaluate_interval = P.evaluate_interval

    def counted(coeffs, lo, hi):
        calls.append(hi - lo)
        return evaluate_interval(coeffs, lo, hi)

    monkeypatch.setattr(P, "evaluate_interval", counted)
    assert trace_section(own_ex1, 1e300, 5.0) == want
    assert len(calls) <= 150
    assert min(calls) < Fraction(1, 2 ** 900)


# -- component structure -------------------------------------------------------


def test_components_are_rectilinear_chains(ex1):
    comps = trace_section(ex1, 0.1, 6.0)
    assert comps and all(isinstance(c, SectionComponent) for c in comps)
    for comp in comps:
        assert comp.window_class in ("spanning", "boundary-clipped", "closed")
        assert len(comp.polylines) == 1
        for chain in comp.polylines:
            assert len(chain) >= 2
            for (x0, z0), (x1, z1) in zip(chain, chain[1:]):
                dx, dz = abs(x1 - x0), abs(z1 - z0)
                assert min(dx, dz) < 1e-9  # axis-parallel move
                assert max(dx, dz) > 1e-9  # no stalls


def test_spanning_sorted_first(ex1):
    comps = trace_section(ex1, 0.1, 12.0)
    classes = [c.window_class for c in comps]
    if "spanning" in classes:
        assert classes[: classes.count("spanning")] == ["spanning"] * classes.count("spanning")


def test_all_breaks_lie_on_window_boundary(ex1, ex2):
    # every free endpoint must come from the window cut, not from a failed join
    for surface in (ex1, ex2):
        for level in (0.1, 0.77):
            R = 10.0
            seg, key = _emit(surface, level, R, 1e-9)
            partner = _kernels.match_endpoints(key)
            for i in range(seg.shape[0]):
                for side in (0, 1):
                    if partner[2 * i + side] < 0 and key[i, side] >= 0:
                        x, z = seg[i, 2 * side], seg[i, 2 * side + 1]
                        assert abs(abs(x) - R) < 1e-9 or abs(abs(z) - R) < 1e-9


def test_partner_is_an_involution(ex1, ex2):
    eps = 1e-9
    for surface in (ex1, ex2):
        for level in (0.1, 0.77):
            seg, key = _emit(surface, level, 10.0, eps)
            partner = _kernels.match_endpoints(key)
            ends = seg.reshape(-1, 2)
            paired = np.flatnonzero(partner >= 0)
            assert paired.size > 0
            assert np.array_equal(partner[partner[paired]], paired)
            assert not np.any(partner[paired] == paired)
            assert np.all(key.ravel()[paired] >= 0)
            assert np.all(np.abs(ends[paired] - ends[partner[paired]]) <= eps)


def test_clipped_components_touch_boundary(ex1):
    R = 8.0
    for comp in trace_section(ex1, 0.44, R):
        if comp.window_class != "boundary-clipped":
            continue
        ends = [chain[k] for chain in comp.polylines for k in (0, -1)]
        assert any(
            abs(abs(x) - R) < 1e-9 or abs(abs(z) - R) < 1e-9 for x, z in ends
        )


def test_no_closed_components_on_sampled_levels(ex1):
    for level in sample_levels(ex1, 6, seed=SEED, R=10.0):
        census = component_census(trace_section(ex1, level, 10.0))
        assert census["closed"] == 0
        assert census["spanning"] + census["boundary-clipped"] > 0


def test_census_counts_components(ex1):
    comps = trace_section(ex1, 0.52, 9.0)
    census = component_census(comps)
    assert sum(census.values()) == len(comps)


def test_census_empty_input():
    assert component_census(()) == {
        "spanning": 0, "boundary-clipped": 0, "closed": 0}


# -- invariants ----------------------------------------------------------------


def test_sections_never_cross(ex1):
    seg, _clip = _emit(ex1, 0.1, 6.0, 1e-9)
    horiz = [r for r in seg if abs(r[1] - r[3]) < 1e-15]
    vert = [r for r in seg if abs(r[0] - r[2]) < 1e-15]
    for h in horiz:
        for v in vert:
            strictly_inside_h = h[0] + 1e-9 < v[0] < h[2] - 1e-9
            strictly_inside_v = v[1] + 1e-9 < h[1] < v[3] - 1e-9
            assert not (strictly_inside_h and strictly_inside_v)


def test_lattice_periodicity(ex1):
    R = 8.0
    e1y = float(ex1.lattice[0][1])
    segA, _ = _emit(ex1, 0.33, R, 1e-9)
    segB, _ = _emit(ex1, 0.33 + e1y, R, 1e-9)

    def keys(seg, shift, xlo, xhi):
        out = set()
        for r in seg:
            if r[0] + shift >= xlo - 1e-9 and r[2] + shift <= xhi + 1e-9:
                out.add((round(r[0] + shift, 6), round(r[1], 6),
                         round(r[2] + shift, 6), round(r[3], 6)))
        return out

    assert keys(segA, 1.0, -R + 1, R) == keys(segB, 0.0, -R + 1, R)


def test_window_growth_is_prefix(ex1):
    # segments fully inside the smaller window reappear identically at 2R
    small, big = 8.0, 16.0
    segA, keyA = _emit(ex1, 0.61, small, 1e-9)
    segB, _ = _emit(ex1, 0.61, big, 1e-9)
    inner = {
        tuple(np.round(r, 6))
        for r, k in zip(segA, keyA)
        if k.min() >= 0
    }
    outer = {tuple(np.round(r, 6)) for r in segB}
    assert inner <= outer


def test_spanning_component_grows_with_window(ex1):
    # the prefix property at component level: each small-window spanning
    # component's segments embed in a single big-window component
    small, big = 8.0, 16.0
    level = 0.61

    def steps(comp):
        for chain in comp.polylines:
            for a, b in zip(chain, chain[1:]):
                yield tuple(sorted((tuple(np.round(a, 6)), tuple(np.round(b, 6)))))

    lookup = {}
    for k, comp in enumerate(trace_section(ex1, level, big)):
        for key in steps(comp):
            lookup[key] = k
    for comp in trace_section(ex1, level, small):
        if comp.window_class != "spanning":
            continue
        parents = {lookup[key] for key in steps(comp) if key in lookup}
        assert len(parents) == 1


# -- window censuses -----------------------------------------------------------


def _edge_spanning(components, R, tol=1e-9):
    n = 0
    for comp in components:
        xs = [p[0] for chain in comp.polylines for p in chain]
        zs = [p[1] for chain in comp.polylines for p in chain]
        ex = min(xs) <= -R + tol and max(xs) >= R - tol
        ez = min(zs) <= -R + tol and max(zs) >= R - tol
        if ex or ez:
            n += 1
    return n


def test_example_1_window_census_profile(ex1):
    # stability profile: curves touching two opposite edges stay rare at
    # both radii and do not multiply when the radius doubles; no closed
    # curves anywhere
    levels = sample_levels(ex1, 8, seed=SEED, R=20.0)
    means = {}
    for R in (10.0, 20.0):
        counts = []
        for level in levels:
            comps = trace_section(ex1, level, R)
            assert component_census(comps)["closed"] == 0
            counts.append(_edge_spanning(comps, R))
        means[R] = sum(counts) / len(counts)
        assert all(c <= 3 for c in counts)
    assert means[20.0] <= means[10.0] + 0.5


def test_example_2_census_reported_not_gated(ex2):
    # reconstruction shows multi-strand growth; record, do not gate
    census = component_census(trace_section(ex2, 0.52, 10.0))
    assert census["closed"] == 0
    assert sum(census.values()) > 0


# -- shared coordinate objects ---------------------------------------------------


def test_shared_floats_keeps_every_bit_pattern():
    v = np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5])
    out = sections._shared_floats(v).tolist()
    assert [math.copysign(1.0, x) for x in out] == [1, -1, 1, -1, 1, 1]
    assert out == v.tolist() and out[0] is out[4] and out[1] is out[3] and out[2] is out[5]
    assert out[0] is not out[1]
    # 4,999 distinct values in 4,096 slots: some bit patterns collide
    w = np.arange(1.0, 5000.0)
    out = sections._shared_floats(np.stack([w, w[::-1]], axis=1))
    assert out.shape == (4999, 2) and out.tolist() == np.stack([w, w[::-1]], axis=1).tolist()
    assert all(a is b for a, b in zip(out[:, 0], out[::-1, 1]))
    assert len({id(x) for x in out.ravel()}) == 4999
    assert sections._shared_floats(np.empty(0)).tolist() == []


def _coordinates(components):
    return [v for c in components for chain in c.polylines for p in chain for v in p]


def test_polylines_share_their_coordinates(ex1, ex2):
    for surface in (ex1, ex2):
        for level in sample_levels(surface, 2, 0, 20.0):
            values = _coordinates(trace_section(surface, level, 20.0))
            distinct = np.unique(np.array(values).view(np.uint64)).shape[0]
            assert len({id(v) for v in values}) <= distinct + 64


@pytest.mark.parametrize("R", [5.0, 20.0, 50.0])
def test_sharing_leaves_the_trace_unchanged(ex1, ex2, monkeypatch, R):
    for surface in (ex1, ex2):
        levels = [lv for seed in range(4) for lv in sample_levels(surface, 3, seed, R)]
        shared = [repr(trace_section(surface, lv, R)) for lv in levels]
        with monkeypatch.context() as m:
            # the reference: one float object per coordinate, as tolist() makes
            m.setattr(sections, "_shared_floats", lambda values: values.astype(object))
            traced = [trace_section(surface, lv, R) for lv in levels]
        values = _coordinates(traced[0])
        assert len({id(v) for v in values}) == len(values)
        assert shared == [repr(t) for t in traced]


def test_closed_chain_ends_on_its_first_point():
    # a unit square of two plate and two wall segments; keys name its corners
    seg = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0],
                    [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    key = np.array([[0, 1], [1, 2], [3, 2], [0, 3]], np.int32)
    members, first, chains, closed = sections._chains(seg, _kernels.match_endpoints(key))
    assert closed.tolist() == [True] and first.tolist() == [0]
    assert sorted(members.tolist()) == [0, 1, 2, 3]
    (chain,) = chains
    assert len(chain) == 5 and chain[-1] == chain[0] and chain[-1][0] is chain[0][0]
    assert sorted(chain[:4]) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


# -- sampling -------------------------------------------------------------------


def test_sample_levels_deterministic(ex1):
    a = sample_levels(ex1, 5, seed=7, R=6.0)
    b = sample_levels(ex1, 5, seed=7, R=6.0)
    assert a == b
    period = float(ex1.plate_period)
    assert all(0 <= lv < period for lv in a)
    for lv in a:
        trace_section(ex1, lv, 6.0)


# seeds of one to five 32-bit words: numpy's SeedSequence pools the first
# four and mixes any further words in afterwards
_DRAW_SEEDS = [*range(256), 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]


@pytest.mark.parametrize("example", [None, 1, 2])
def test_uniform_draws_are_numpys_default_rng_stream(example):
    # high is 1.0 or a surface's plate period, as sample_levels passes it
    high = 1.0 if example is None else float(build_surface(example).plate_period)
    for seed in _DRAW_SEEDS:
        rng = np.random.default_rng(seed)
        want = [float(rng.uniform(0.0, high)) for _ in range(30)]
        assert list(islice(sections._uniform_draws(seed, high), 30)) == want, seed


def test_sample_levels_gives_up_near_every_tangency(ex1):
    # a guard of 10 * eps = 1.0 leaves no level clear of every tangency face
    with pytest.raises(NearSaddle, match="draws"):
        sample_levels(ex1, 1, 0, 5.0, eps=0.1)
