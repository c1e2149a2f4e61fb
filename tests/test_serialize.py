"""JSON round-trips of systems and complexes, the written-only reports,
and the SVG emitters."""

import json
import xml.dom.minidom
from fractions import Fraction

import pytest

from thinsections import bands, build_system, complex_from_iis, detect_rips_cycle, detect_self_similarity
from thinsections.errors import AuditError, InvalidSystem
from thinsections.iis import affine_match
from thinsections.sections import trace_section
from thinsections.serialize import (
    complex_from_json,
    complex_to_json,
    iis_from_json,
    iis_to_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    similarity_report_to_json,
    value_from_json,
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


def test_matrix_to_json():
    m = ((1, Fraction(-2, 3)), (0, 4))
    assert matrix_to_json(m) == [["1", "-2/3"], ["0", "4"]]


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


def test_iis_from_json_reads_a_reloaded_mapping(s1):
    back = iis_from_json(_reload(iis_to_json(s1)))
    assert affine_match(s1, back) is not None


def test_similarity_report_json(s1):
    rep = detect_self_similarity(s1, 8)
    obj = _reload(similarity_report_to_json(rep))
    assert obj["period"] == 6
    assert {m["move"] for m in obj["move_log"]} == {"transmit", "reduce"}
    k = value_from_json(obj["contraction"]["poly"], s1.field)
    assert (k - rep.contraction).is_zero()


# -- band complexes ------------------------------------------------------------------


def test_complex_round_trip(s1_cycle):
    x = s1_cycle.complex_end
    back = complex_from_json(_reload(complex_to_json(x)))
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


# -- cycle reports -------------------------------------------------------------------


def _period_rows(rep):
    return {key: [list(row) for row in getattr(rep, key)]
            for key in ("width_matrix", "length_matrix")}


def _audit(rep, rows):
    bands._audit_cycle(rows["width_matrix"], rep.params_start, rep.params_end,
                       rows["length_matrix"], rep.lengths_start, rep.lengths_end)


def test_cycle_report_rejects_tampered_matrix(s1_cycle):
    rows = _period_rows(s1_cycle)
    _audit(s1_cycle, rows)
    rows["width_matrix"][0][0] += 1
    with pytest.raises(AuditError):
        _audit(s1_cycle, rows)


def test_cycle_report_rejects_tampered_length_matrix(s1_cycle):
    rows = _period_rows(s1_cycle)
    rows["length_matrix"][0][0] += 1
    with pytest.raises(AuditError):
        _audit(s1_cycle, rows)


@pytest.mark.parametrize("key", ["width_matrix", "length_matrix"])
def test_cycle_report_rejects_truncated_matrix(s1_cycle, key):
    rows = _period_rows(s1_cycle)
    rows[key].pop()
    with pytest.raises(AuditError):
        _audit(s1_cycle, rows)


@pytest.mark.parametrize("key", ["width_matrix", "length_matrix"])
def test_cycle_report_rejects_ragged_matrix(s1_cycle, key):
    rows = _period_rows(s1_cycle)
    rows[key][-1].pop()
    with pytest.raises(AuditError):
        _audit(s1_cycle, rows)


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
