"""Frozen renormalization tables for the two bundled systems.

Each bundled system admits a documented contraction cycle of the band
complex reduction: after a fixed entry stage the complex returns to the
same combinatorial shape with every width multiplied by a fixed field
element.  This module records that data in exact form: the integer
matrices taking the defining parameters to the stage parameters, the
per-cycle width and length transition matrices, the stage parameters as
explicit polynomials in the cubic generator, and the stage band lengths.
Each matrix is a tuple of integer rows.

Nothing here feeds the reduction machinery in :mod:`thinsections.bands`;
the detector finds cycles from scratch.  These tables exist so the
verifier can certify the recorded data independently: the stage vector
is an exact eigenvector of the width cycle matrix, the entry maps
reproduce the stage polynomials, and the contraction times the length
growth rate stays below one.

The stage labels follow the colour conventions of the bundled drawings:
for "s1" two red widths r1, r2, a green width g, a blue width n and the
gap h between the red base intervals; for "s2" the red, green and blue
widths a', b', c' plus the two gap parameters d', e'.  Gaps are carried
in the vectors because the cycle matrices act on widths and gaps jointly.
"""

from fractions import Fraction

from .iis import system_field, system_params

__all__ = [
    "LENGTH_CYCLE",
    "STAGE_ENTRY_MAPS",
    "STAGE_LABELS",
    "STAGE_LENGTHS",
    "WIDTH_CYCLE",
    "cycle_contraction",
    "entry_stage_params",
    "stage_params",
    "stage_params_scaled",
]


# Integer maps from the defining parameter vector to the recorded stage
# vector, applied left to right.  "s1" passes through an intermediate
# three-band shape on (a', b', c', u') before splitting into the
# five-component stage vector; "s2" enters its stage in one map.
STAGE_ENTRY_MAPS = {
    "s1": (
        # Third row: (2, 0, -1, -2) annihilates the defining parameter
        # vector exactly (it would force the third intermediate width to
        # zero); (2, -1, 0, -2) restores the chain, reproducing all five
        # stage polynomials below.
        ((-4, 4, 1, 2), (-1, 2, 0, 0), (2, -1, 0, -2), (-1, 3, 0, -1)),
        ((1, -1, -1, 0), (-1, 0, 2, 2), (0, 1, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)),
    ),
    "s2": (
        (
            (5, -9, -5, 5, -5),
            (-1, 3, 1, -2, 2),
            (-3, 4, 2, -1, 1),
            (5, -9, -4, 4, -3),
            (0, -2, -2, 3, -2),
        ),
    ),
}

# One full cycle acting on the stage vector (widths and gaps).
WIDTH_CYCLE = {
    "s1": (
        (8, 2, 4, -5, 0),
        (-2, 5, 0, 2, -4),
        (-2, -2, -1, 1, 1),
        (4, 2, 2, -2, -1),
        (-3, 0, -2, 2, 0),
    ),
    "s2": (
        (-5, 5, 1, 1, 0),
        (1, -2, 0, 0, 1),
        (2, -2, -1, 0, -1),
        (-4, 5, 1, 0, 1),
        (-2, 1, -1, 1, 0),
    ),
}

# One full cycle acting on the band length vector.
LENGTH_CYCLE = {
    "s1": ((0, 2, 1, 2), (0, 1, 0, 0), (2, 0, 4, 1), (1, 2, 4, 2)),
    "s2": ((5, 3, 0), (4, 3, 1), (4, 2, 1)),
}

STAGE_LABELS = {
    "s1": ("r1", "r2", "h", "g", "n"),
    "s2": ("a'", "b'", "c'", "d'", "e'"),
}

# Band lengths at the stage, in band order.
STAGE_LENGTHS = {"s1": (2, 1, 5, 5), "s2": (15, 14, 15)}

_F = Fraction

# Stage vectors as polynomials in the cubic generator, lowest degree
# first, reduced on construction by the field modulus.
_STAGE_POLYS = {
    "s1": (
        (0, 0, 0, 1),
        (1, -5, 5, -2),
        (_F(-1, 4), _F(3, 2), _F(-3, 2), _F(1, 4)),
        (0, 0, 1),
        (_F(1, 2), -2, 1, _F(-1, 2)),
    ),
    "s2": (
        (_F(10, 3), _F(-124, 3), _F(-23, 3)),
        (_F(5, 3), _F(-62, 3), _F(-10, 3)),
        (_F(-17, 3), _F(212, 3), _F(37, 3)),
        (_F(19, 3), _F(-236, 3), -14),
        (_F(-10, 3), _F(125, 3), 7),
    ),
}

# The same vectors after one cycle, again as recorded polynomials; each
# entry must equal the contraction times the unscaled entry.
_STAGE_POLYS_SCALED = {
    "s1": (
        (1, -4, -1, 5),
        (3, -17, 23, -10),
        (_F(-5, 4), _F(13, 2), _F(-13, 2), _F(5, 4)),
        (1, -5, 4, 1),
        (_F(1, 2), -3, 5, _F(-7, 2)),
    ),
    "s2": (
        # Constant term -23/3: with +23/3 the first entry misses the
        # contraction identity by exactly 46/3.
        (_F(-23, 3), _F(286, 3), 20),
        (_F(-10, 3), _F(125, 3), 6),
        (_F(37, 3), _F(-461, 3), -28),
        (-14, _F(523, 3), _F(100, 3)),
        (7, _F(-262, 3), _F(-43, 3)),
    ),
}


def stage_params(name):
    """The recorded stage vector as exact field elements."""
    field = system_field(name)
    return tuple(field.element(c) for c in _STAGE_POLYS[name])


def stage_params_scaled(name):
    """The recorded stage vector after one cycle, as field elements."""
    field = system_field(name)
    return tuple(field.element(c) for c in _STAGE_POLYS_SCALED[name])


def cycle_contraction(name):
    """Exact per-cycle width multiplier of the recorded cycle."""
    gen = system_field(name).gen
    if name == "s1":
        return gen * gen
    if name == "s2":
        return gen
    raise KeyError(name)


def entry_stage_params(name):
    """Stage vector obtained by pushing the defining parameters through
    the entry maps; must agree with :func:`stage_params` exactly."""
    vec = list(system_params(name))
    field = system_field(name)
    for m in STAGE_ENTRY_MAPS[name]:
        vec = [
            sum((field.rational(q) * x for q, x in zip(row, vec)), field.zero)
            for row in m
        ]
    return tuple(vec)
