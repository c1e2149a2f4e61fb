"""JSON encoding for exact objects and traced sections.

Rationals travel as "p/q" strings (plain "p" for integers) so nothing
is rounded on the way out.  Values living in an ambient field serialize
as a bare rational string when they are constants and as a coefficient
array, lowest degree first, otherwise.  A standalone field element
carries its field inline: {"modulus": [...], "root_interval": [lo, hi],
"poly": [...]}.

Two documents are read back, the inputs `--system` takes: systems and
band complexes.  Their loaders go back through the ordinary
constructors, so reading one re-runs the same validation as building
the object in process; a hand-edited file that breaks an invariant
fails to load.  Cycle reports, similarity reports and section
components are written only.
"""

from fractions import Fraction

from . import polynomials as P
from .bands import Band, BandComplex, BandEnd, SupportArc
from .iis import IIS, IntervalPair
from .numberfield import NumberField

__all__ = [
    "complex_from_json",
    "complex_to_json",
    "components_to_json",
    "cycle_report_to_json",
    "element_to_json",
    "field_from_json",
    "field_to_json",
    "iis_from_json",
    "iis_to_json",
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
    return [[_frac_str(e) for e in row] for row in m]


def field_to_json(field):
    lo, hi = field.root_interval
    return {
        "modulus": poly_to_json(field.modulus),
        "root_interval": [_frac_str(lo), _frac_str(hi)],
    }


def field_from_json(obj):
    modulus = poly_from_json(obj["modulus"])
    lo, hi = (Fraction(s) for s in obj["root_interval"])
    return NumberField(modulus, (lo, hi))


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


def iis_from_json(obj):
    field = field_from_json(obj["field"])
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


def complex_from_json(obj):
    field = field_from_json(obj["field"])

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


# -- traced sections -----------------------------------------------------------------


def components_to_json(components):
    return [
        {
            "window_class": c.window_class,
            "polylines": [[[x, z] for x, z in pl] for pl in c.polylines],
        }
        for c in components
    ]
