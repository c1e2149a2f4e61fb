from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from thinsections import sections

settings.register_profile(
    "det",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("det")


def bounded_fractions(bound, max_denominator):
    """The values of st.fractions(min_value=-bound, max_value=bound,
    max_denominator=max_denominator), drawn faster: a denominator d, then a
    numerator in [-bound d, bound d]."""
    return st.integers(1, max_denominator).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(lambda n: Fraction(n, d)))


@pytest.fixture
def refuse_to_emit(monkeypatch):
    """Make compiling a surface or emitting a window fail, so a test
    proves that nothing was built."""
    def refuse(*args):
        raise AssertionError("the window was built")
    monkeypatch.setattr(sections, "_compiled", refuse)
    monkeypatch.setattr(sections._kernels, "emit_segments", refuse)
