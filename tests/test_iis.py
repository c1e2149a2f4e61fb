"""Interval identification systems: construction, moves, self-similarity, orbits."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thinsections import polynomials
from thinsections.bands import pruning_decay
from thinsections.errors import (
    AmbiguousMove,
    InvalidSystem,
    NoAdmissibleMove,
    NotContained,
    OutOfSupport,
    PreconditionFailed,
    SelfTransmission,
)
from thinsections.iis import (
    IIS,
    IntervalPair,
    OrbitChart,
    affine_match,
    build_system,
    detect_self_similarity,
    neighbors,
    rauzy_step,
    reduce,
    system_params,
    transmit,
    validate,
)
from thinsections.numberfield import (
    FIXED_BITS,
    FieldElement,
    NumberField,
    field_new,
    rational_field,
)
from thinsections.serialize import iis_from_json, iis_to_json

from orbit_slices import orbit_bfs, point_valence

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def s1():
    return build_system("s1")


@pytest.fixture(scope="module")
def s2():
    return build_system("s2")


def mirror_system(s):
    """Reflect through the support midpoint: x -> A + B - x."""
    a0, b0 = s.support
    m = a0 + b0

    def flip(iv):
        return (m - iv[1], m - iv[0])

    pairs = [IntervalPair(flip(p.left), flip(p.right)) for p in s.pairs]
    return IIS(s.field, s.support, pairs)


def scale_translate(s, k, t):
    """The affine image k*s + t, k > 0."""
    if k <= 0:
        raise InvalidSystem("scale factor must be positive")

    def img(iv):
        return (k * iv[0] + t, k * iv[1] + t)

    support = img(s.support)
    pairs = [IntervalPair(img(p.left), img(p.right)) for p in s.pairs]
    return IIS(s.field, support, pairs)


def rational_system(support, pairs):
    f = rational_field()

    def q(x):
        return f.rational(Fraction(x))

    return IIS(
        f,
        (q(support[0]), q(support[1])),
        [IntervalPair((q(a), q(b)), (q(c), q(d))) for (a, b), (c, d) in pairs],
    )


# -- construction ------------------------------------------------------------------


def test_s1_reference_decimals(s1):
    a, b, c, u = system_params("s1")
    width = float(s1.width())
    assert abs(width - 1.0) < 1e-12  # a+b+c = 1 exactly
    # three of the four published decimals hold within 5e-4 ...
    assert abs(float(a) - 0.444) < 5e-4
    assert abs(float(b) - 0.254) < 5e-4
    assert abs(float(c) - 0.302) < 5e-4
    # ... while the printed u=0.292 misses that tolerance by ~4e-6;
    # the honest bound is 5.1e-4 (see the acceptance suite)
    assert abs(float(u) - 0.292) < 5.1e-4


def test_s2_reference_decimals(s2):
    vals = [float(x) for x in system_params("s2")]
    for got, want in zip(vals, (0.4495, 0.2943, 0.2562, 0.4292, 0.0898)):
        assert abs(got - want) < 5e-4


def test_s1_exact_parameter_identities(s1):
    lam = s1.field.gen
    a, b, c, u = system_params("s1")
    assert (a - (2 * lam - lam ** 2)).is_zero()
    assert (b - lam).is_zero()
    assert (c - (lam ** 2 - 3 * lam + 1)).is_zero()
    assert (u - (lam ** 3 / 4 - 3 * lam ** 2 / 2 + 5 * lam / 2 - Fraction(1, 4))).is_zero()


def test_s2_exact_parameter_identities(s2):
    lam = s2.field.gen
    a, b, c, d, e = system_params("s2")
    f3 = Fraction(1, 3)
    assert (a - (-10 * lam ** 2 * f3 - 58 * lam * f3 + 2)).is_zero()
    assert (b - (2 * lam ** 2 * f3 + 11 * lam * f3)).is_zero()
    assert (c - (8 * lam ** 2 * f3 + 47 * lam * f3 - 1)).is_zero()
    assert (d - (7 * lam ** 2 * f3 + 41 * lam * f3 - 2 * f3)).is_zero()
    assert (e - (-10 * lam ** 2 * f3 - 59 * lam * f3 + 5 * f3)).is_zero()


def test_invalid_systems():
    with pytest.raises(InvalidSystem):
        rational_system((0, 10), [((0, 2), (5, 8))])  # widths differ
    with pytest.raises(InvalidSystem):
        rational_system((0, 3), [((0, 2), (2, 4))])  # escapes support
    with pytest.raises(InvalidSystem):
        rational_system((2, 2), [])  # empty support


@pytest.mark.parametrize("name", ["s3", "S1"])
def test_build_system_takes_only_bundled_names(name):
    with pytest.raises(InvalidSystem):
        build_system(name)


def test_validate_examples(s1, s2):
    assert validate(s1) == {"balanced": True, "symmetric": True}
    v2 = validate(s2)
    assert v2["balanced"] is True
    assert v2["symmetric"] is False
    # a single pair covering the support twice is balanced iff the one
    # pair width equals the support length
    twice = rational_system((0, 1), [((0, 1), (0, 1))])
    assert validate(twice) == {"balanced": True, "symmetric": True}


# -- moves -------------------------------------------------------------------------


def test_transmit_reference_move(s1):
    a, b, c, u = system_params("s1")
    out = transmit(s1, 1, 0, "right")
    lo, hi = out.pairs[1].right
    assert (lo - (a - b)).is_zero() and (hi - a).is_zero()
    assert abs(float(lo) - 0.190) < 1e-3 and abs(float(hi) - 0.444) < 1e-3
    # everything else untouched
    assert out.pairs[0] is s1.pairs[0] and out.pairs[2] is s1.pairs[2]
    assert out.support == s1.support


def test_transmit_identical_intervals_lands_on_partner():
    s = rational_system((0, 7), [((0, 2), (5, 7)), ((0, 2), (3, 5))])
    out = transmit(s, 1, 0, "left")
    lo, hi = out.pairs[1].left
    assert float(lo) == 5 and float(hi) == 7


def test_transmit_guards(s1):
    with pytest.raises(SelfTransmission):
        transmit(s1, 0, 0, "left")
    with pytest.raises(NotContained):
        transmit(s1, 0, 2, "left")  # [0,a] is wider than pair 3's intervals
    s = rational_system((0, 10), [((0, 1), (2, 3)), ((0, 8), (1, 9))])
    with pytest.raises(NotContained):
        # both intervals of pair 0 sit inside [0,8]; caller must choose
        transmit(s, 0, 1, "left")
    out = transmit(s, 0, 1, "left", which_of_i="right")
    # [2,3] shifted by 1 - 0 onto the partner side
    assert float(out.pairs[0].right[0]) == 3
    assert float(out.pairs[0].right[1]) == 4


def test_reduce_reference_move(s1):
    a, b, c, u = system_params("s1")
    B = s1.support[1]
    step1 = transmit(s1, 1, 0, "right")
    out = reduce(step1, "right")
    assert (out.support[1] - (B - u)).is_zero()
    assert abs(float(out.support[1]) - 0.708) < 1e-3
    lo, hi = out.pairs[0].left
    assert (lo).is_zero() and (hi - (a - u)).is_zero()
    lo, hi = out.pairs[0].right
    assert (lo - (b + c)).is_zero() and (hi - (B - u)).is_zero()
    # pairs other than the one reaching the end are untouched
    assert out.pairs[1] is step1.pairs[1]
    assert out.pairs[2] is step1.pairs[2]


def test_reduce_guards():
    # support end covered twice
    s = rational_system((0, 4), [((0, 2), (2, 4)), ((0, 3), (1, 4))])
    with pytest.raises(PreconditionFailed):
        reduce(s, "right")
    # sole end interval has no interior critical point
    s = rational_system((0, 4), [((0, 2), (2, 4))])
    with pytest.raises(PreconditionFailed):
        reduce(s, "right")


def test_reduce_left_mirror():
    s = rational_system((0, 10), [((0, 4), (6, 10)), ((5, 7), (2, 4))])
    out = reduce(s, "left")
    # leftmost critical point interior to [0,4] is 2
    assert float(out.support[0]) == 2
    lo, hi = out.pairs[0].left
    assert (float(lo), float(hi)) == (2.0, 4.0)
    lo, hi = out.pairs[0].right
    assert (float(lo), float(hi)) == (8.0, 10.0)


def test_rauzy_step_guards():
    s = rational_system((0, 4), [((0, 2), (2, 4))])
    with pytest.raises(NoAdmissibleMove):
        rauzy_step(s, "right")
    s = rational_system((0, 5), [((0, 2), (3, 5)), ((1, 3), (3, 5))])
    with pytest.raises(AmbiguousMove):
        rauzy_step(s, "right")


def test_rauzy_step_composition(s1):
    via_ops = reduce(transmit(s1, 1, 0, "right"), "right")
    via_step = rauzy_step(s1, "right")[0]
    k, t = affine_match(via_ops, via_step)
    assert (k - s1.field.one).is_zero() and t.is_zero()


# -- self-similarity ---------------------------------------------------------------


def test_s1_right_schedule_is_exact_contraction(s1):
    lam = s1.field.gen
    rep = detect_self_similarity(s1, 12)
    assert rep.period == 6
    assert (rep.contraction - lam).is_zero()
    assert rep.translation.is_zero()
    assert rep.sides == ("right",) * 6
    # replaying the move log lands exactly on lam * s1
    cur = s1
    for _ in range(6):
        cur = rauzy_step(cur, "right")[0]
    target = scale_translate(s1, lam, s1.field.zero)
    k, t = affine_match(target, cur)
    assert (k - s1.field.one).is_zero() and t.is_zero()
    assert validate(cur)["symmetric"] is True


def test_s1_exhaustive_search_finds_shorter_return(s1):
    # six right steps reproduce lam*S1 exactly, but the exhaustive
    # search discovers period-5 mixed schedules (an affine return with
    # nonzero translation); pin both behaviors
    lam = s1.field.gen
    rep = detect_self_similarity(s1, 12, policy="search")
    assert rep.period == 5
    assert (rep.contraction - lam).is_zero()
    assert not rep.translation.is_zero()
    sides = rep.sides
    assert sides.count("right") == 4 and sides.count("left") == 1


def test_s2_right_schedule(s2):
    lam = s2.field.gen
    rep = detect_self_similarity(s2, 12, policy="right")
    assert rep.period == 10
    assert (rep.contraction - lam).is_zero()
    assert rep.translation.is_zero()


def test_golden_schedules_match(s1, s2):
    g1 = json.loads((GOLDEN / "s1_schedule.json").read_text())
    rep = detect_self_similarity(s1, 12, policy=g1["policy"])
    assert rep.period == g1["period"]
    assert list(rep.sides) == g1["sides"]
    assert [str(c) for c in rep.contraction.coeffs] == g1["contraction_coeffs"]
    assert [str(c) for c in rep.translation.coeffs] == g1["translation_coeffs"]
    assert list(rep.move_log) == g1["move_log"]
    g2 = json.loads((GOLDEN / "s2_schedule.json").read_text())
    rep2 = detect_self_similarity(s2, 12, policy=g2["policy"])
    assert rep2.period == g2["period"]
    assert list(rep2.move_log) == g2["move_log"]


def test_rational_exchange_has_no_contraction():
    s = rational_system(
        (0, 1), [((0, Fraction(3, 5)), (Fraction(2, 5), 1)),
                 ((Fraction(3, 5), 1), (0, Fraction(2, 5)))]
    )
    assert detect_self_similarity(s, 10, policy="search") is None


@pytest.mark.parametrize("policy", ["left", "alternate-rl", "bogus"])
def test_unknown_policy_raises(s1, policy):
    with pytest.raises(ValueError, match="unknown policy"):
        detect_self_similarity(s1, 12, policy=policy)


def test_mirror_conjugation(s1):
    # the honest symmetry of the induction: a left step equals the
    # mirrored right step of the mirrored system, up to the translation
    # that re-anchors the shrunken support
    left = rauzy_step(s1, "left")[0]
    conj = mirror_system(rauzy_step(mirror_system(s1), "right")[0])
    k, t = affine_match(left, conj)
    assert (k - s1.field.one).is_zero()
    assert (t + left.support[0]).is_zero()


def _descendant(s, sides):
    """s after the admissible Rauzy steps among `sides`."""
    for side in sides:
        try:
            s = rauzy_step(s, side)[0]
        except (NoAdmissibleMove, AmbiguousMove):
            pass
    return s


def _moved(s, j, delta):
    """s with the right interval of pair j shifted by delta, or None when
    that leaves the support."""
    pairs = list(s.pairs)
    lo, hi = pairs[j].right
    pairs[j] = IntervalPair(pairs[j].left, (lo + delta, hi + delta))
    try:
        return IIS(s.field, s.support, pairs)
    except InvalidSystem:
        return None


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["s1", "s2"]),
    sides=st.lists(st.sampled_from(["left", "right"]), max_size=4),
    k=st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60),
    t=st.fractions(min_value=-3, max_value=3, max_denominator=60),
    j=st.integers(min_value=0, max_value=3),
    delta=st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(1, 100)),
)
def test_affine_match_returns_the_map_and_rejects_a_moved_end(s1, s2, which, sides, k, t, j, delta):
    base = _descendant({"s1": s1, "s2": s2}[which], sides)
    f = base.field
    kk, tt = f.rational(k), f.rational(t)
    image = scale_translate(base, kk, tt)
    got = affine_match(base, image)
    assert got == (kk, tt) and got[0].field is f
    j %= base.order
    moved = _moved(image, j, f.rational(delta)) or _moved(image, j, f.rational(-delta))
    assert moved is not None
    assert affine_match(base, moved) is None
    fewer = IIS(f, image.support, image.pairs[:-1])
    assert affine_match(base, fewer) is None and affine_match(fewer, base) is None


@pytest.mark.parametrize("which", ["s1", "s2"])
def test_canonical_key_is_exact_and_order_free(s1, s2, which):
    s = {"s1": s1, "s2": s2}[which]
    back = iis_from_json(json.loads(json.dumps(iis_to_json(s))))
    assert back.field is not s.field
    assert back.canonical_key() == s.canonical_key()
    assert hash(back.canonical_key()) == hash(s.canonical_key())
    # neither the pair order nor the storage side of an interval matters
    shuffled = IIS(s.field, s.support,
                   [IntervalPair(p.right, p.left) for p in reversed(s.pairs)])
    assert shuffled.canonical_key() == s.canonical_key()
    for side in ("left", "right"):
        assert rauzy_step(s, side)[0].canonical_key() != s.canonical_key()


def test_affine_match_sorts_the_base_once(s1, monkeypatch):
    # a search matches every state against its start system: the start's
    # canonical pairs are sorted by the first match and kept
    calls = [0]
    original = IntervalPair.canonical

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(IntervalPair, "canonical", counted)
    base = IIS(s1.field, s1.support, s1.pairs)
    images = [rauzy_step(base, side)[0] for side in ("left", "right", "right")]
    assert affine_match(base, images[0]) is None
    assert calls[0] == 2 * base.order
    for image in images[1:]:
        calls[0] = 0
        assert affine_match(base, image) is None
        assert calls[0] == image.order
    assert base.canonical_pairs() == tuple(sorted(p.canonical() for p in base.pairs))


def test_s2_exhaustive_search_finds_period_8(s2):
    assert detect_self_similarity(s2, 12, policy="search").period == 8


@pytest.mark.xfail(
    strict=True,
    reason="a single left+right composite on a symmetric system is not "
    "symmetric in general; the right^6 schedule closing on a symmetric "
    "image is what holds (see test_s1_right_schedule_is_exact_contraction)",
)
def test_left_right_composite_preserves_symmetry(s1):
    composite = rauzy_step(rauzy_step(s1, "right")[0], "left")[0]
    assert validate(composite)["symmetric"] is True


# -- orbit graphs ------------------------------------------------------------------


def test_orbit_neighbors_at_zero(s1):
    a, b, c, u = system_params("s1")
    ns = neighbors(s1, s1.field.zero)
    got = sorted((float(y), i) for y, i in ns)
    assert len(got) == 2
    assert abs(got[0][0] - float(b + c)) < 1e-12 and got[0][1] == 0
    assert abs(got[1][0] - float(a + c)) < 1e-12 and got[1][1] == 1
    assert point_valence(s1, s1.field.zero) == 2


def test_orbit_valences(s1):
    a, b, c, u = system_params("s1")
    assert point_valence(s1, s1.support[1]) == 2
    # x = u + c/2 happens to equal a exactly (a modulus identity), and
    # lies in pair 1's left interval and both intervals of pair 3
    x = u + c / 2
    assert (x - a).is_zero()
    assert point_valence(s1, x) == 3
    # a point in exactly one subinterval
    x1 = (b + u) / 2
    assert point_valence(s1, x1) == 1
    with pytest.raises(OutOfSupport):
        point_valence(s1, s1.support[1] + s1.field.one)


def test_orbit_bfs_depth_zero(s1):
    x = s1.field.rational(Fraction(1, 7))
    g = orbit_bfs(s1, x, 0)
    assert g.vertices == {x} and g.edges == set() and g.frontier == {x}


def test_orbit_bfs_monotone_and_exact(s1):
    x = s1.field.rational(Fraction(1, 3))
    prev = set()
    for d in range(4):
        g = orbit_bfs(s1, x, d)
        assert prev <= g.vertices
        prev = g.vertices
        # every edge re-verifies against its pair's translation
        for (p, q, i) in g.edges:
            pair = s1.pairs[i]
            t = pair.right[0] - pair.left[0]
            assert ((q - p) - t).is_zero() or ((q - p) + t).is_zero()
        for v in g.frontier:
            assert v in g.vertices


def test_orbit_equivalence_across_transmission(s1):
    # moves rewire the graph but preserve orbits: depth-k balls embed in
    # the other system's depth-2k balls
    s_prime = transmit(s1, 1, 0, "right")
    for j in range(1, 101, 7):
        x = s1.field.rational(Fraction(j, 101))
        b1 = orbit_bfs(s1, x, 2).vertices
        b2 = orbit_bfs(s_prime, x, 2).vertices
        assert b1 <= orbit_bfs(s_prime, x, 4).vertices
        assert b2 <= orbit_bfs(s1, x, 4).vertices


def _exact_neighbors(s, x):
    """Reference: every membership and translation decided on field elements."""
    out = []
    for i, p in enumerate(s.pairs):
        for side in ("left", "right"):
            lo, hi = p.interval(side)
            if (x - lo).sign() >= 0 and (hi - x).sign() >= 0:
                o = p.other(side)
                y = x + (o[0] - lo)
                if not (y - x).is_zero():
                    out.append((y, i))
    return out


def _endpoints(s):
    pts = list(s.support)
    for p in s.pairs:
        pts += [*p.left, *p.right]
    return pts


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_chart_neighbors_match_exact_on_boundaries(name, s1, s2, monkeypatch):
    # every interval and support endpoint, plus u + c/2 (= a, on s1).  At
    # x itself each bound is exactly zero or far from it, so the filter
    # decides alone; the neighbours of x land on further endpoints, where
    # the filter cannot decide and the exact sign must
    s = {"s1": s1, "s2": s2}[name]
    points = _endpoints(s)
    if name == "s1":
        a, b, c, u = system_params("s1")
        points.append(u + c / 2)
    exact_sign = FieldElement.sign
    calls = [0]

    def counted(self):
        calls[0] += 1
        return exact_sign(self)

    def with_sign_calls(fn, *args):
        calls[0] = 0
        with monkeypatch.context() as m:
            m.setattr(FieldElement, "sign", counted)
            return fn(*args), calls[0]

    fallbacks = 0
    for x in points:
        assert neighbors(s, x) == _exact_neighbors(s, x)
        chart = OrbitChart(s, x)
        first, n = with_sign_calls(chart.neighbors, chart.origin)
        assert n == 0
        for w, i, rises in first:
            y = chart.value(w)
            assert rises == ((y - x).sign() > 0)
            got, n = with_sign_calls(chart.neighbors, w)
            fallbacks += n
            assert [(chart.value(v), j) for v, j, _ in got] == _exact_neighbors(s, y)
    assert fallbacks > 0


@pytest.mark.parametrize("name", ["s1", "s2"])
@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 2 ** 200)])
def test_chart_vertex_on_an_interval_end(name, shift, s1, s2, monkeypatch):
    # x = e -/+ tau_i in the support, for every interval end e and pair
    # translation tau_i: the vertex x +/- tau_i of x's chart lies exactly
    # on e.  Moved by 2^-200 (into the support), it lies closer to e than
    # the 2^-192 filter resolves.  Every vertex of the depth-3 ball gets
    # the exact neighbours, and most points send `neighbors` to its exact
    # fallback, which builds the point by `value`
    s = {"s1": s1, "s2": s2}[name]
    a0, b0 = s.support
    taus = [p.right[0] - p.left[0] for p in s.pairs]
    ends = [v for p in s.pairs for v in (*p.left, *p.right)]
    points = [e - sg * t for e in ends for t in taus for sg in (1, -1)]
    points = [x for x in points if a0 <= x <= b0]
    assert len(points) == {"s1": 38, "s2": 35}[name]
    points = [x + shift if x < b0 else x - shift for x in points]
    values = [0]
    original = OrbitChart.value

    def counted(self, c):
        values[0] += 1
        return original(self, c)

    monkeypatch.setattr(OrbitChart, "value", counted)
    fell_back = 0
    for x in points:
        chart = OrbitChart(s, x)
        layer, seen, inside = [chart.origin], {chart.origin}, 0
        for depth in range(4):
            nxt = []
            for c in layer:
                before = values[0]
                got = chart.neighbors(c)
                inside += values[0] - before
                y = chart.value(c)
                assert [(chart.value(w), i) for w, i, _ in got] == _exact_neighbors(s, y)
                for w, _, _ in got:
                    if w not in seen and depth < 3:
                        seen.add(w)
                        nxt.append(w)
            layer = nxt
        fell_back += inside > 0
    assert fell_back > len(points) // 2


def test_chart_refines_a_coarse_field(s1):
    # s1 loaded with the 1/160-wide interval field_new leaves: the chart's
    # enclosures refine the field before its filter reads the lam^j
    # bounds, and every neighbour still matches the exact one
    obj = iis_to_json(s1)
    coarse = field_new(s1.field.modulus, (Fraction(1, 5), Fraction(3, 10)))
    obj["field"]["root_interval"] = [str(v) for v in coarse.root_interval]
    s = iis_from_json(obj)
    lo, hi = s.field.root_interval
    assert hi - lo > Fraction(1, 2 ** 20)
    a0, b0 = s.support
    for q in (Fraction(12345, 2 ** 20), Fraction(1, 3), Fraction(7, 8)):
        x = a0 + (b0 - a0) * q
        chart = OrbitChart(s, x)
        lo, hi = s.field.root_interval
        assert hi - lo < Fraction(1, 2 ** 128)
        for w, _, _ in chart.neighbors(chart.origin):
            got = [(chart.value(v), j) for v, j, _ in chart.neighbors(w)]
            assert got == _exact_neighbors(s, chart.value(w))


def test_chart_takes_one_enclosure_after_the_first(s1, s2, monkeypatch):
    # the first chart on a system builds its half (den, the moves, the
    # bounds of den * lo and den * hi) and keeps it; a second chart
    # evaluates one interval polynomial, the enclosure of den * x (made
    # at a point already charted once, which may have refined the field
    # for that enclosure)
    evaluated = []
    original = polynomials.evaluate_interval

    def counted(coeffs, lo, hi):
        evaluated.append(tuple(coeffs))
        return original(coeffs, lo, hi)

    monkeypatch.setattr(polynomials, "evaluate_interval", counted)
    for base in (s1, s2):
        s = IIS(base.field, base.support, base.pairs)
        a0, b0 = s.support
        rng = random.Random(3)
        for _ in range(4):
            x = a0 + (b0 - a0) * Fraction(rng.getrandbits(48), 1 << 48)
            OrbitChart(s, x)
            evaluated.clear()
            chart = OrbitChart(s, x)
            assert evaluated == [(x * chart._den).coeffs]


@settings(max_examples=60)
@given(
    which=st.sampled_from(["s1", "s2"]),
    q=st.one_of(
        st.integers(min_value=0, max_value=10 ** 9).map(
            lambda k: Fraction(random.Random(k).getrandbits(48), 1 << 48)
        ),
        st.sampled_from([Fraction(0), Fraction(1)]),
    ),
)
def test_chart_bounds_bracket_the_exact_offsets(s1, s2, which, q):
    # every move's integer bounds bracket 2^FIXED_BITS den (x - lo) and
    # 2^FIXED_BITS den (hi - x), compared exactly
    s = {"s1": s1, "s2": s2}[which]
    a0, b0 = s.support
    x = a0 + (b0 - a0) * q
    chart = OrbitChart(s, x)
    scale = chart._den * 2 ** FIXED_BITS
    for _, _, _, alo, ahi, blo, bhi, lo, hi in chart._moves:
        assert alo <= (x - lo) * scale <= ahi
        assert blo <= (hi - x) * scale <= bhi


def test_orbits_reject_reducible_modulus():
    # (x^2 - 2)(x - 3) with root sqrt(2): residues are not canonical, so
    # integer keys would merge distinct points; a typed error says so
    field = NumberField([6, -2, -3, 1], (1, 2))
    assert not field.irreducible

    def r(v):
        return field.rational(Fraction(v))

    s = IIS(
        field,
        (r(0), r(1)),
        [
            IntervalPair((r(0), r(Fraction(2, 5))), (r(Fraction(3, 5)), r(1))),
            IntervalPair((r(Fraction(2, 5)), r(1)), (r(0), r(Fraction(3, 5)))),
        ],
    )
    x = field.gen - r(1)
    with pytest.raises(InvalidSystem, match="minimal_field"):
        neighbors(s, x)
    with pytest.raises(InvalidSystem, match="minimal_field"):
        orbit_bfs(s, x, 2)
    with pytest.raises(InvalidSystem, match="minimal_field"):
        pruning_decay(s, rounds=3, samples=2)


# -- randomized move bookkeeping -----------------------------------------------------

frac9 = st.integers(min_value=0, max_value=36).map(lambda n: Fraction(n, 12))
width9 = st.integers(min_value=1, max_value=24).map(lambda n: Fraction(n, 12))


@st.composite
def transmission_setups(draw):
    tw = draw(width9)  # target width
    tlo = draw(frac9)
    moff = draw(st.integers(min_value=0, max_value=24))
    mw = draw(st.integers(min_value=1, max_value=24))
    # moved interval inside [tlo, tlo+tw]
    mlo = tlo + Fraction(moff, 12) * tw / 3
    mwid = min(Fraction(mw, 24) * tw / 2, tlo + tw - mlo)
    if mwid <= 0:
        mwid = tlo + tw - mlo
    plo = draw(frac9)  # partner of target
    rlo = draw(frac9)  # partner of moved
    support_hi = max(tlo + tw, plo + tw, rlo + mwid, mlo + mwid) + 1
    s = rational_system(
        (0, support_hi),
        [((rlo, rlo + mwid), (mlo, mlo + mwid)), ((tlo, tlo + tw), (plo, plo + tw))],
    )
    return s, mlo, mwid, tlo, plo


@settings(max_examples=150)
@given(transmission_setups())
def test_transmit_bookkeeping_randomized(setup):
    s, mlo, mwid, tlo, plo = setup
    out = transmit(s, 0, 1, "left", which_of_i="right")
    # width of every pair preserved, support unchanged, pair 1 untouched
    for pin, pout in zip(s.pairs, out.pairs):
        assert (pin.width - pout.width).is_zero()
    assert out.support == s.support
    assert out.pairs[1] is s.pairs[1]
    lo, hi = out.pairs[0].right
    shift = plo - tlo
    assert float(lo) == float(mlo + shift) and float(hi) == float(mlo + mwid + shift)


@st.composite
def reduction_setups(draw):
    # pair 0's right interval is the unique one reaching the end; pair 1
    # sits strictly inside it to provide interior critical points
    c1 = draw(st.integers(min_value=4, max_value=10))
    width = draw(st.integers(min_value=8, max_value=16))
    end = c1 + width
    i1 = draw(st.integers(min_value=1, max_value=width - 2))
    i2 = draw(st.integers(min_value=1, max_value=width - 2))
    lo, hi = sorted((c1 + i1, c1 + i2))
    if lo == hi:
        hi = hi + 1  # i's top out at width-2, so this stays interior
    a1 = draw(st.integers(min_value=0, max_value=3))
    s = rational_system(
        (0, end),
        [((a1, a1 + width), (c1, end)), ((lo, hi), (lo, hi))],
    )
    return s, end, max(p for p in (lo, hi, a1 + width) if c1 < p < end)


@settings(max_examples=150)
@given(reduction_setups())
def test_reduce_bookkeeping_randomized(setup):
    s, end, u = setup
    out = reduce(s, "right")
    cut = Fraction(end) - Fraction(u)
    assert float(out.support[1]) == float(u)
    assert (s.pairs[0].width - out.pairs[0].width - s.field.rational(cut)).is_zero()
    assert out.pairs[1] is s.pairs[1]
    # support shrinks by exactly the pair shrinkage
    shrink = (s.support[1] - s.support[0]) - (out.support[1] - out.support[0])
    assert (shrink - s.field.rational(cut)).is_zero()
