"""JSON encoding for exact objects and traced sections.

Rationals travel as "p/q" strings (plain "p" for integers) so nothing
is rounded on the way out.  Values living in an ambient field serialize
as a bare rational string when they are constants and as a coefficient
array, lowest degree first, otherwise.  A standalone field element
carries its field inline: {"modulus": [...], "root_interval": [lo, hi],
"poly": [...]}.

Every loader goes back through the ordinary constructors, so reading an
artifact re-runs the same validation as building the object in process;
a hand-edited file that breaks an invariant fails to load.
"""

from fractions import Fraction

from . import polynomials as P
from .bands import Band, BandComplex, BandEnd, CycleReport, SupportArc, _audit_cycle
from .errors import AuditError
from .iis import IIS, IntervalPair
from .linalg import RatMatrix
from .numberfield import NumberField
from .sections import WINDOW_CLASSES, SectionComponent

__all__ = [
    "complex_from_json",
    "complex_to_json",
    "components_from_json",
    "components_to_json",
    "cycle_report_from_json",
    "cycle_report_to_json",
    "element_from_json",
    "element_to_json",
    "field_from_json",
    "field_to_json",
    "iis_from_json",
    "iis_to_json",
    "matrix_from_json",
    "matrix_to_json",
    "poly_from_json",
    "poly_to_json",
    "similarity_report_to_json",
]


def _frac_str(q):
    return str(Fraction(q))


def poly_to_json(p):
    return [_frac_str(c) for c in p]


def poly_from_json(arr):
    return P.poly([Fraction(s) for s in arr])


def matrix_to_json(m):
    return [[_frac_str(e) for e in m.row(i)] for i in range(m.rows)]


def matrix_from_json(rows):
    if len({len(row) for row in rows}) > 1:
        raise AuditError("matrix rows differ in length")
    return RatMatrix.from_rows([[Fraction(s) for s in row] for row in rows])


def field_to_json(field):
    lo, hi = field.root_interval
    return {
        "modulus": poly_to_json(field.modulus),
        "root_interval": [_frac_str(lo), _frac_str(hi)],
    }


def field_from_json(obj, like=None):
    """Rebuild a field, reusing `like` when it is the same field.

    Reuse keeps deserialized elements interoperable with an already
    refined in-process field and skips re-validation.
    """
    modulus = poly_from_json(obj["modulus"])
    lo, hi = (Fraction(s) for s in obj["root_interval"])
    rebuilt = NumberField(modulus, (lo, hi))
    if like is not None and like == rebuilt:
        return like
    return rebuilt


def value_to_json(x):
    c = x.coeffs
    if len(c) <= 1:
        return _frac_str(c[0] if c else 0)
    return poly_to_json(c)


def value_from_json(v, field):
    if isinstance(v, str):
        return field.rational(Fraction(v))
    return field.element(poly_from_json(v))


def element_to_json(x):
    out = field_to_json(x.field)
    out["poly"] = poly_to_json(x.coeffs)
    return out


def element_from_json(obj, like=None):
    field = field_from_json(obj, like)
    return field.element(poly_from_json(obj["poly"]))


# -- interval identification systems ------------------------------------------------


def iis_to_json(s):
    return {
        "field": field_to_json(s.field),
        "support": [value_to_json(x) for x in s.support],
        "pairs": [
            {
                "left": [value_to_json(x) for x in p.left],
                "right": [value_to_json(x) for x in p.right],
            }
            for p in s.pairs
        ],
    }


def iis_from_json(obj, like=None):
    field = field_from_json(obj["field"], like)
    support = tuple(value_from_json(v, field) for v in obj["support"])
    pairs = [
        IntervalPair(
            [value_from_json(v, field) for v in p["left"]],
            [value_from_json(v, field) for v in p["right"]],
        )
        for p in obj["pairs"]
    ]
    return IIS(field, support, pairs)


def similarity_report_to_json(rep):
    return {
        "period": rep.period,
        "contraction": element_to_json(rep.contraction),
        "translation": element_to_json(rep.translation),
        "move_log": list(rep.move_log),
    }


# -- band complexes ------------------------------------------------------------------


def complex_to_json(x):
    def end(e):
        return {"arc": e.arc, "interval": [value_to_json(e.lo), value_to_json(e.hi)]}

    return {
        "field": field_to_json(x.field),
        "supports": [
            [value_to_json(arc.lo), value_to_json(arc.hi)] for arc in x.supports
        ],
        "bands": [
            {
                "bottom": end(b.bottom),
                "top": end(b.top),
                "length": _frac_str(b.length),
            }
            for b in x.bands
        ],
    }


def complex_from_json(obj, like=None):
    field = field_from_json(obj["field"], like)

    def end(e):
        lo, hi = (value_from_json(v, field) for v in e["interval"])
        return BandEnd(e["arc"], lo, hi)

    supports = [
        SupportArc(value_from_json(lo, field), value_from_json(hi, field))
        for lo, hi in obj["supports"]
    ]
    bands = [
        Band(end(b["bottom"]), end(b["top"]), Fraction(b["length"]))
        for b in obj["bands"]
    ]
    return BandComplex(field, supports, bands)


def cycle_report_to_json(rep):
    field = rep.complex_start.field
    return {
        "prefix_steps": rep.prefix_steps,
        "period_steps": rep.period_steps,
        "contraction": element_to_json(rep.contraction),
        "width_matrix": matrix_to_json(rep.width_matrix),
        "length_matrix": matrix_to_json(rep.length_matrix),
        "params_start": [value_to_json(x) for x in rep.params_start],
        "params_end": [value_to_json(x) for x in rep.params_end],
        "lengths_start": [_frac_str(q) for q in rep.lengths_start],
        "lengths_end": [_frac_str(q) for q in rep.lengths_end],
        "complex_start": complex_to_json(rep.complex_start),
        "complex_end": complex_to_json(rep.complex_end),
        "field": field_to_json(field),
    }


def cycle_report_from_json(obj, like=None):
    """Rebuild a cycle report and re-check its defining identities."""
    field = field_from_json(obj["field"], like)
    start = complex_from_json(obj["complex_start"], field)
    end = complex_from_json(obj["complex_end"], field)
    contraction = value_from_json_or_element(obj["contraction"], field)
    wm = matrix_from_json(obj["width_matrix"])
    lm = matrix_from_json(obj["length_matrix"])
    ps = [value_from_json(v, field) for v in obj["params_start"]]
    pt = [value_from_json(v, field) for v in obj["params_end"]]
    ls = [Fraction(s) for s in obj["lengths_start"]]
    lt = [Fraction(s) for s in obj["lengths_end"]]
    _audit_cycle(wm.to_rows(), ps, pt, lm.to_rows(), ls, lt)
    if pt != [contraction * a for a in ps]:
        raise AuditError("stored contraction does not scale the values")
    return CycleReport(
        prefix_steps=obj["prefix_steps"],
        period_steps=obj["period_steps"],
        contraction=contraction,
        width_matrix=wm,
        length_matrix=lm,
        params_start=ps,
        params_end=pt,
        lengths_start=ls,
        lengths_end=lt,
        complex_start=start,
        complex_end=end,
    )


def value_from_json_or_element(v, field):
    """Accept either the in-context form or a standalone element."""
    if isinstance(v, dict):
        return element_from_json(v, field)
    return value_from_json(v, field)


# -- traced sections -----------------------------------------------------------------


def components_to_json(components):
    return [
        {
            "window_class": c.window_class,
            "polylines": [[[x, z] for x, z in pl] for pl in c.polylines],
        }
        for c in components
    ]


def components_from_json(arr):
    out = []
    for c in arr:
        if c["window_class"] not in WINDOW_CLASSES:
            raise AuditError(f"unknown window class {c['window_class']!r}")
        polylines = tuple(
            tuple((float(x), float(z)) for x, z in pl) for pl in c["polylines"]
        )
        if any(len(pl) < 2 for pl in polylines):
            raise AuditError("polyline with fewer than two points")
        out.append(SectionComponent(polylines, c["window_class"]))
    return tuple(out)
