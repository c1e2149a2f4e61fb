import pytest
from hypothesis import HealthCheck, settings

from thinsections import sections

settings.register_profile(
    "det",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("det")


@pytest.fixture
def refuse_to_emit(monkeypatch):
    """Make compiling a surface or emitting a window fail, so a test
    proves that nothing was built."""
    def refuse(*args):
        raise AssertionError("the window was built")
    monkeypatch.setattr(sections, "_compiled", refuse)
    monkeypatch.setattr(sections._kernels, "emit_segments", refuse)
