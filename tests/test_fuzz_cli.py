"""Hand-edited system files through the command line.

Valid s1/s2 documents (interval identification systems, and band complexes
for `run rips`) are mutated: bad, huge or moved rational strings, reversed
or degenerate root intervals, dropped keys and entries, reversed lists and
values of the wrong type.  Every mutant must give exit code 0, 2 or 3 through
`cli.main`, never an internal error.  Runs are bounded by the step count
and by hypothesis' example count, not by wall time.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thinsections import iis
from thinsections.bands import complex_from_iis
from thinsections.cli import main
from thinsections.serialize import complex_to_json, iis_to_json

# bad strings, huge values, and plain rationals that move a point or an end
RATIONALS = ["1/0", "-3/0", "0/0", "abc", "", "1/2/3", "1e400", "-1e-400", "nan", "inf",
             "0x10", "9" * 400, "-" + "7" * 300 + "/11", "1/" + "3" * 300,
             "0", "1", "-1", "1/2", "3/7", "2"]
WRONG_TYPES = [None, True, 0, -1, 7, 2.5, float("inf"), float("nan"), [], {}, "x", [[]],
               ["1"], {"a": 1}]


def _documents():
    out = []
    for name in ("s1", "s2"):
        system = iis.build_system(name)
        out += [("rauzy", iis_to_json(system)), ("rips", iis_to_json(system)),
                ("rips", complex_to_json(complex_from_iis(system)))]
    return out


DOCUMENTS = _documents()


def _paths(node, at=()):
    """Every place in a JSON document, the root included."""
    yield at
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for k, child in items:
        yield from _paths(child, at + (k,))


def _get(doc, at):
    for k in at:
        doc = doc[k]
    return doc


@st.composite
def mutants(draw):
    kind, doc = draw(st.sampled_from(DOCUMENTS))
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.sampled_from(list(_paths(doc))))
        if not at:
            continue
        parent, key, node = _get(doc, at[:-1]), at[-1], _get(doc, at)
        how = draw(st.sampled_from(["rational", "type", "drop", "interval", "swap"]))
        if how == "rational":
            parent[key] = draw(st.sampled_from(RATIONALS))
        elif how == "type":
            parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
        elif how == "drop":
            del parent[key]
        elif how == "swap" and isinstance(node, list) and len(node) > 1:
            node.reverse()
        elif how == "interval" and "field" in doc and isinstance(doc["field"], dict):
            lo, hi = draw(st.sampled_from([("1", "0"), ("1/2", "1/2"), ("0", "0"),
                                           ("-100", "100"), ("1/3", "1/4")]))
            doc["field"]["root_interval"] = [lo, hi]
    return kind, doc


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


@settings(max_examples=300)
@given(case=mutants())
def test_mutated_system_files_end_in_a_typed_exit(workdir, case):
    kind, doc = case
    path = workdir / "system.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", kind, "--system", str(path), "--steps", "2"])
    assert code in (0, 2, 3)
    assert "internal error" not in err.getvalue()


@pytest.mark.parametrize("kind", ["rauzy", "rips"])
@pytest.mark.parametrize("interval, message", [
    (["1/0", "1"], "ZeroDivisionError"),
    (["1", "-1/0"], "ZeroDivisionError"),
    (["1/2", "1/4"], "reversed"),
    (["1", float("inf")], "OverflowError"),
])
def test_bad_root_interval_is_a_usage_error(tmp_path, capsys, kind, interval, message):
    doc = iis_to_json(iis.build_system("s1"))
    doc["field"]["root_interval"] = interval
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert main(["run", kind, "--system", str(path), "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "internal error" not in err


@pytest.mark.parametrize("kind", ["rauzy", "rips"])
def test_huge_modulus_coefficient_is_a_usage_error(tmp_path, capsys, kind):
    # the rational root test divides by trial: a 60-digit end coefficient
    # is refused instead of run for about 10^30 steps
    doc = iis_to_json(iis.build_system("s2"))
    doc["field"] = {"modulus": ["-1", "0", "9" * 60], "root_interval": ["0", "1"]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert main(["run", kind, "--system", str(path), "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below 2^40" in err
