"""Plane-section tracing: windows, censuses, kernels, level sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thinsections import _kernels, iis, polynomials as P, sections
from thinsections.errors import EmptyWindow, NearSaddle, WindowTooLarge
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


# -- sampling -------------------------------------------------------------------


def test_sample_levels_deterministic(ex1):
    a = sample_levels(ex1, 5, seed=7, R=6.0)
    b = sample_levels(ex1, 5, seed=7, R=6.0)
    assert a == b
    period = float(ex1.plate_period)
    assert all(0 <= lv < period for lv in a)
    for lv in a:
        trace_section(ex1, lv, 6.0)


def test_sample_levels_gives_up_near_every_tangency(ex1):
    # a guard of 10 * eps = 1.0 leaves no level clear of every tangency face
    with pytest.raises(NearSaddle, match="draws"):
        sample_levels(ex1, 1, 0, 5.0, eps=0.1)
