"""JSON round-trips and the SVG emitters."""

import json
import xml.dom.minidom
from fractions import Fraction

import pytest

from thinsections import build_system, complex_from_iis, detect_rips_cycle, detect_self_similarity
from thinsections.errors import AuditError, InvalidSystem
from thinsections.iis import affine_match
from thinsections.sections import trace_section
from thinsections.serialize import (
    complex_from_json,
    complex_to_json,
    components_from_json,
    components_to_json,
    cycle_report_from_json,
    cycle_report_to_json,
    element_from_json,
    element_to_json,
    iis_from_json,
    iis_to_json,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    similarity_report_to_json,
)
from thinsections.surface import build_surface
from thinsections.svg import complex_svg, section_svg


@pytest.fixture(scope="module")
def s1():
    return build_system("s1")


@pytest.fixture(scope="module")
def s1_cycle(s1):
    return detect_rips_cycle(complex_from_iis(s1), 40)


def _reload(obj):
    return json.loads(json.dumps(obj))


# -- scalars and matrices ------------------------------------------------------------


def test_poly_round_trip():
    p = poly_from_json(["-3/2", "0", "7", "1/5"])
    assert poly_to_json(p) == ["-3/2", "0", "7", "1/5"]
    assert p[0] == Fraction(-3, 2)


def test_matrix_round_trip():
    rows = [["1", "-2/3"], ["0", "4"]]
    m = matrix_from_json(rows)
    assert matrix_to_json(m) == rows
    assert m[0, 1] == Fraction(-2, 3)


def test_element_standalone_round_trip(s1):
    x = s1.pairs[2].left[0]
    obj = _reload(element_to_json(x))
    y = element_from_json(obj)
    assert y.field is not x.field
    assert y.field == x.field
    assert y.coeffs == x.coeffs
    reused = element_from_json(obj, s1.field)
    assert reused.field is s1.field
    assert (reused - x).is_zero()


def test_element_field_reuse_rejects_other_field(s1):
    s2 = build_system("s2")
    obj = element_to_json(s1.field.gen)
    y = element_from_json(_reload(obj), s2.field)
    assert y.field is not s2.field
    assert y.coeffs == s1.field.gen.coeffs


# -- systems -------------------------------------------------------------------------


def test_iis_round_trip_is_affine_identity(s1):
    blob = json.dumps(iis_to_json(s1))
    back = iis_from_json(json.loads(blob))
    k, t = affine_match(s1, back)
    assert (k - s1.field.one).is_zero()
    assert t.is_zero()


def test_iis_json_value_forms(s1):
    obj = iis_to_json(s1)
    # rational endpoints travel as strings, generic elements as arrays
    assert obj["support"] == ["0", "1"]
    # pair 1 is ([0, b], ...) with b the generator: ["0", "1"] lowest first
    assert obj["pairs"][1]["left"] == ["0", ["0", "1"]]
    # pair 2 starts at u, a genuine cubic-field element
    assert isinstance(obj["pairs"][2]["left"][0], list)


def test_iis_from_json_revalidates(s1):
    obj = _reload(iis_to_json(s1))
    obj["pairs"][0]["left"][1] = "2"  # width no longer matches the partner
    with pytest.raises(InvalidSystem):
        iis_from_json(obj)


def test_build_system_accepts_mapping(s1):
    back = build_system(_reload(iis_to_json(s1)))
    assert affine_match(s1, back) is not None


def test_similarity_report_json(s1):
    rep = detect_self_similarity(s1, 8)
    obj = _reload(similarity_report_to_json(rep))
    assert obj["period"] == 6
    assert {m["move"] for m in obj["move_log"]} == {"transmit", "reduce"}
    k = element_from_json(obj["contraction"], s1.field)
    assert (k - rep.contraction).is_zero()


# -- band complexes ------------------------------------------------------------------


def test_complex_round_trip(s1_cycle):
    x = s1_cycle.complex_end
    back = complex_from_json(_reload(complex_to_json(x)), x.field)
    assert len(back.supports) == len(x.supports)
    assert len(back.bands) == len(x.bands)
    for b1, b2 in zip(x.bands, back.bands):
        assert b1.length == b2.length
        for e1, e2 in zip(b1.ends(), b2.ends()):
            assert e1.arc == e2.arc
            assert (e1.lo - e2.lo).is_zero()
            assert (e1.hi - e2.hi).is_zero()


def test_complex_from_json_revalidates(s1):
    obj = _reload(complex_to_json(complex_from_iis(s1)))
    obj["bands"][0]["top"]["interval"][1] = "9"  # escapes the support arc
    with pytest.raises(AuditError):
        complex_from_json(obj)


@pytest.mark.parametrize("arc", [-1, 1, 3, "0", 0.0, True])
def test_complex_from_json_rejects_unknown_arc(s1, arc):
    # s1's complex has one support arc: index 0 is the only valid arc
    obj = _reload(complex_to_json(complex_from_iis(s1)))
    obj["bands"][0]["bottom"]["arc"] = arc
    with pytest.raises(InvalidSystem):
        complex_from_json(obj)


def test_cycle_report_round_trip(s1_cycle):
    obj = _reload(cycle_report_to_json(s1_cycle))
    back = cycle_report_from_json(obj)
    assert back.prefix_steps == s1_cycle.prefix_steps
    assert back.period_steps == s1_cycle.period_steps
    assert (back.contraction - s1_cycle.contraction).is_zero()
    assert back.width_matrix == s1_cycle.width_matrix
    assert back.length_matrix == s1_cycle.length_matrix


def test_cycle_report_rejects_tampered_matrix(s1_cycle):
    obj = _reload(cycle_report_to_json(s1_cycle))
    row = obj["width_matrix"][0]
    row[0] = str(Fraction(row[0]) + 1)
    with pytest.raises(AuditError):
        cycle_report_from_json(obj)


def test_cycle_report_rejects_tampered_length_matrix(s1_cycle):
    obj = _reload(cycle_report_to_json(s1_cycle))
    row = obj["length_matrix"][0]
    row[0] = str(Fraction(row[0]) + 1)
    with pytest.raises(AuditError):
        cycle_report_from_json(obj)


@pytest.mark.parametrize("key", ["width_matrix", "length_matrix"])
def test_cycle_report_rejects_truncated_matrix(s1_cycle, key):
    obj = _reload(cycle_report_to_json(s1_cycle))
    obj[key] = obj[key][:-1]
    with pytest.raises(AuditError):
        cycle_report_from_json(obj)


@pytest.mark.parametrize("key", ["width_matrix", "length_matrix"])
def test_cycle_report_rejects_ragged_matrix(s1_cycle, key):
    obj = _reload(cycle_report_to_json(s1_cycle))
    obj[key][-1] = obj[key][-1][:-1]
    with pytest.raises(AuditError):
        cycle_report_from_json(obj)


def test_cycle_report_rejects_tampered_contraction(s1_cycle):
    obj = _reload(cycle_report_to_json(s1_cycle))
    obj["contraction"]["poly"] = ["1/3"]
    with pytest.raises(AuditError):
        cycle_report_from_json(obj)


# -- sections ------------------------------------------------------------------------


def test_components_round_trip():
    comps = trace_section(build_surface(1), 0.13, 6.0)
    back = components_from_json(_reload(components_to_json(comps)))
    assert len(back) == len(comps)
    for c1, c2 in zip(comps, back):
        assert c1.window_class == c2.window_class
        assert len(c1.polylines) == len(c2.polylines)


def test_components_reject_unknown_class():
    with pytest.raises(AuditError):
        components_from_json([{"window_class": "wiggly", "polylines": [[[0, 0], [1, 1]]]}])


def test_components_reject_degenerate_polyline():
    with pytest.raises(AuditError):
        components_from_json([{"window_class": "closed", "polylines": [[[0, 0]]]}])


# -- svg -----------------------------------------------------------------------------


def _parse(svg_text):
    return xml.dom.minidom.parseString(svg_text)


def test_complex_svg_structure(s1):
    x = complex_from_iis(s1)
    text = complex_svg(x)
    doc = _parse(text)
    assert len(doc.getElementsByTagName("polygon")) == len(x.bands)
    assert text == complex_svg(x)  # deterministic bytes


def test_complex_svg_multi_arc(s1_cycle):
    x = s1_cycle.complex_end
    doc = _parse(complex_svg(x))
    assert len(doc.getElementsByTagName("polygon")) == len(x.bands)
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert any(t.startswith("a0") for t in texts)


def test_complex_svg_empty():
    from thinsections.bands import BandComplex

    f = build_system("s1").field
    _parse(complex_svg(BandComplex(f, [], [])))


def test_section_svg_structure():
    comps = trace_section(build_surface(1), 0.13, 6.0)
    text = section_svg(comps, 6.0)
    doc = _parse(text)
    polylines = doc.getElementsByTagName("polyline")
    assert len(polylines) == sum(len(c.polylines) for c in comps)
    # light grid: 13 vertical + 13 horizontal unit lines at R = 6
    grid = [
        e for e in doc.getElementsByTagName("line")
        if e.getAttribute("stroke") == "#dcdce6"
    ]
    assert len(grid) == 2 * 13
    # every polyline stays inside the drawn frame
    rect = doc.getElementsByTagName("rect")[1]
    x0, y0 = float(rect.getAttribute("x")), float(rect.getAttribute("y"))
    w = float(rect.getAttribute("width"))
    for e in polylines:
        for pair in e.getAttribute("points").split():
            px, py = (float(v) for v in pair.split(","))
            assert x0 - 0.5 <= px <= x0 + w + 0.5
            assert y0 - 0.5 <= py <= y0 + w + 0.5
