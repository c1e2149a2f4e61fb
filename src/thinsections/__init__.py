"""Interval identification systems of thin type, band complexes, and
plane sections of the associated triply periodic surfaces, with exact
algebraic-number arithmetic underneath."""

__version__ = "0.1.0"

from .numberfield import (  # noqa: F401
    FieldElement,
    NumberField,
    field_new,
    minimal_field,
    rational_field,
)
from .linalg import char_poly, eigen_kernel  # noqa: F401
from .iis import (  # noqa: F401
    IIS,
    IntervalPair,
    build_system,
    detect_self_similarity,
    rauzy_step,
    reduce,
    system_field,
    system_params,
    transmit,
    validate,
)
from .bands import (  # noqa: F401
    Band,
    BandComplex,
    SupportArc,
    complex_from_iis,
    detect_rips_cycle,
    find_free_subarcs,
    one_end_criterion,
    pruning_decay,
    support_measure,
)
