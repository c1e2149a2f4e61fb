"""The benchmark's span tracer names functions of the package."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # a renamed function would leave its layer silently untraced
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{path}"
        for _, sites, _ in spans.TARGETS
        for module, path in sites
        if spans._resolve(module, path) is None
    ]
    assert missing == []
