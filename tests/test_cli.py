"""Verifier rows and the command line front end."""

import json
import os
import subprocess
import sys
import xml.dom.minidom

import pytest

from thinsections import iis
from thinsections.cli import main
from thinsections.serialize import iis_from_json
from thinsections.verify import STATUS_APPROX, STATUS_EXACT, collect_rows, summarize


# -- verifier ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def s1_rows():
    return collect_rows("s1")


def test_no_failures_on_healthy_build(s1_rows):
    assert summarize(s1_rows)["fail"] == 0


def test_rows_sorted_by_claim(s1_rows):
    claims = [r.claim for r in s1_rows]
    assert claims == sorted(claims)
    assert len(set(claims)) == len(claims)


def test_exact_status_reserved_for_identities(s1_rows):
    by_claim = {r.claim: r for r in s1_rows}
    assert by_claim["s1.04-parameter-identities"].status == STATUS_EXACT
    assert by_claim["s1.07-rauzy-cycle"].status == STATUS_EXACT
    # decimal comparisons never claim exactness
    assert by_claim["s1.03-eigenvalue-digits"].status == STATUS_APPROX
    assert by_claim["s1.05-parameter-digits"].status == STATUS_APPROX


def test_product_certificate_row(s1_rows):
    row = next(r for r in s1_rows if r.claim == "s1.11-one-end-product")
    assert row.status == STATUS_APPROX
    assert row.recorded == "lambda_1^2 * mu_1 < 1"
    lo, hi = (float(v) for v in row.computed.strip("[]").split(","))
    assert 0 < lo <= hi < 1


def test_s2_rauzy_row_is_exact():
    rows = collect_rows("s2")
    row = next(r for r in rows if r.claim == "s2.07-rauzy-cycle")
    assert row.status == STATUS_EXACT
    assert "period-10" in row.recorded
    assert summarize(rows)["fail"] == 0


def test_surface_scope_rows():
    rows = collect_rows("surface")
    assert summarize(rows)["fail"] == 0
    by_claim = {r.claim: r for r in rows}
    assert "2 classes" in by_claim["surf.01-saddle-heights"].computed
    assert "4 classes" in by_claim["surf.02-saddle-heights"].computed
    assert by_claim["surf.05-euler"].computed == "chi = -4"


def test_collect_rows_deterministic(s1_rows):
    assert collect_rows("s1") == s1_rows


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        collect_rows("s3")


def test_all_scope_is_the_union_of_the_others():
    parts = {scope: collect_rows(scope) for scope in ("s1", "s2", "surface")}
    assert [len(rows) for rows in parts.values()] == [11, 11, 7]
    union = sorted((r for rows in parts.values() for r in rows), key=lambda r: r.claim)
    assert collect_rows("all") == union
    assert len({r.claim for r in union}) == 29


def test_corrupted_parameter_matrix_fails(monkeypatch):
    rows = iis.SYSTEM_MATRIX["s1"]
    monkeypatch.setitem(iis.SYSTEM_MATRIX, "s1", ((4, *rows[0][1:]), *rows[1:]))
    monkeypatch.setattr(iis, "_FIELD_CACHE", {})
    out = collect_rows("s1")
    failed = {r.claim for r in out if r.status == "fail"}
    assert "s1.01-char-poly" in failed
    assert "s1.04-parameter-identities" in failed
    assert len(failed) >= 5
    # a builder that raises leaves an error row under its claim
    row = next(r for r in out if r.claim == "s1.06-coverage")
    assert (row.recorded, row.tolerance) == ("-", "-")
    assert row.computed.startswith("error: InvalidSystem")
    assert main(["verify", "--scope", "s1"]) == 1


# -- verify command ------------------------------------------------------------------


def test_verify_exit_zero_and_report(capsys):
    assert main(["verify", "--scope", "surface"]) == 0
    text = capsys.readouterr().out
    assert "exact-pass" in text
    assert " fail" in text.splitlines()[-1]


def test_verify_json_output(capsys):
    assert main(["verify", "--scope", "surface", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scope"] == "surface"
    assert payload["summary"]["fail"] == 0
    claims = [r["claim"] for r in payload["rows"]]
    assert claims == sorted(claims)


def test_bad_scope_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--scope", "s9"])
    assert info.value.code == 2


# -- run command ---------------------------------------------------------------------


def test_run_rauzy_artifacts(tmp_path, capsys):
    emit = tmp_path / "states"
    svg = tmp_path / "frames"
    code = main([
        "run", "rauzy", "--system", "s1", "--steps", "7",
        "--emit-json", str(emit), "--svg", str(svg),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "similarity report: period 6" in out
    assert sorted(p.name for p in emit.glob("step_*.json"))[-1] == "step_007.json"
    assert (svg / "step_007.svg").exists()
    xml.dom.minidom.parse(str(svg / "step_003.svg"))
    # emitted states re-load and re-validate
    state = iis_from_json(json.loads((emit / "step_003.json").read_text()))
    assert state.order == 3
    summary = json.loads((emit / "summary.json").read_text())
    assert summary["similarity"]["period"] == 6
    assert summary["move_log"][0]["move"] == "transmit"


def test_run_rauzy_from_json_path(tmp_path, capsys):
    from thinsections.serialize import iis_to_json

    path = tmp_path / "s2.json"
    path.write_text(json.dumps(iis_to_json(iis.build_system("s2"))))
    assert main(["run", "rauzy", "--system", str(path), "--steps", "10"]) == 0
    assert "similarity report: period 10" in capsys.readouterr().out


def test_run_rips_cycle_summary(tmp_path, capsys):
    emit = tmp_path / "states"
    code = main([
        "run", "rips", "--system", "s1", "--steps", "18",
        "--emit-json", str(emit),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycle report: prefix 5, period 13" in out
    summary = json.loads((emit / "summary.json").read_text())
    cycle = summary["cycle"]
    assert (cycle["prefix_steps"], cycle["period_steps"]) == (5, 13)


def test_run_rips_zero_steps(tmp_path):
    emit = tmp_path / "states"
    assert main(["run", "rips", "--system", "s2", "--steps", "0",
                 "--emit-json", str(emit)]) == 0
    assert [p.name for p in emit.glob("step_*.json")] == ["step_000.json"]


def test_run_rips_halts_nonzero(tmp_path, capsys):
    from thinsections.bands import Band, BandComplex, BandEnd, SupportArc
    from thinsections.serialize import complex_to_json

    f = iis.build_system("s1").field
    half = f.rational("1/2")
    bands = [
        Band(BandEnd(0, f.zero, half), BandEnd(0, half, f.one), 1),
        Band(BandEnd(0, f.zero, half), BandEnd(0, half, f.one), 2),
    ]
    x = BandComplex(f, [SupportArc(f.zero, f.one)], bands)
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(complex_to_json(x)))
    emit = tmp_path / "states"
    code = main(["run", "rips", "--system", str(path), "--steps", "5",
                 "--emit-json", str(emit)])
    assert code == 3
    assert "halted" in capsys.readouterr().out
    # partial artifacts retained
    assert (emit / "step_000.json").exists()
    assert (emit / "summary.json").exists()


@pytest.mark.parametrize("edit", [
    {"supports": [["0", "1"], ["1/2", "2"]]},
    {"supports": [["0", "1"], ["1", "2"]]},
    {"length": "0"},
    {"length": "-1"},
], ids=["overlapping-arcs", "touching-arcs", "zero-length", "negative-length"])
def test_run_rips_rejects_an_invalid_complex(tmp_path, capsys, edit):
    # the emitted start state of s1 with one edit is invalid input: exit 2
    assert main(["run", "rips", "--system", "s1", "--steps", "0",
                 "--emit-json", str(tmp_path)]) == 0
    state = json.loads((tmp_path / "step_000.json").read_text())
    if "supports" in edit:
        state["supports"] = edit["supports"]
    else:
        state["bands"][1]["length"] = edit["length"]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(state))
    capsys.readouterr()
    assert main(["run", "rips", "--system", str(path), "--steps", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def _swapped_arcs(x):
    """x with its two support arcs listed in the other order."""
    from thinsections.bands import Band, BandComplex, BandEnd

    def end(e):
        return BandEnd(1 - e.arc, e.lo, e.hi)

    bands = [Band(end(b.bottom), end(b.top), b.length) for b in x.bands]
    return BandComplex(x.field, x.supports[::-1], bands)


def test_run_rips_reports_the_cycle_of_the_printed_run(tmp_path):
    """A JSON complex is normalized before step 0, so the cycle report
    names emitted states and its move log is the one printed."""
    from thinsections.bands import _normalized, _rips_step_tracked, complex_from_iis
    from thinsections.serialize import complex_to_json

    x = complex_from_iis(iis.build_system("s1"))
    for _ in range(3):
        x = _rips_step_tracked(x)[0]
    assert len(x.supports) == 2
    path = tmp_path / "swapped.json"
    swapped = _swapped_arcs(x)
    path.write_text(json.dumps(complex_to_json(swapped)))
    emit = tmp_path / "states"
    assert main(["run", "rips", "--system", str(path), "--steps", "45",
                 "--emit-json", str(emit)]) == 0
    summary = json.loads((emit / "summary.json").read_text())
    cycle = summary["cycle"]
    start, period = cycle["prefix_steps"], cycle["period_steps"]
    assert cycle["complex_start"] == json.loads((emit / f"step_{start:03d}.json").read_text())
    assert cycle["complex_end"] == json.loads(
        (emit / f"step_{start + period:03d}.json").read_text())
    cur = _normalized(swapped)
    assert json.loads((emit / "step_000.json").read_text()) == complex_to_json(cur)
    log = []
    for _ in range(45):
        cur, _, _, moves = _rips_step_tracked(cur)
        log.extend(moves)
    assert summary["move_log"] == log


@pytest.mark.parametrize("system,steps,calls", [("s1", 45, 45), ("s2", 45, 45), ("s2", 18, 18)])
def test_run_rips_steps_the_machine_once(monkeypatch, capsys, system, steps, calls):
    from thinsections import bands

    step = bands._rips_step_tracked
    counted = []

    def counting(x):
        counted.append(x)
        return step(x)

    monkeypatch.setattr(bands, "_rips_step_tracked", counting)
    assert main(["run", "rips", "--system", system, "--steps", str(steps)]) == 0
    assert len(counted) == calls
    out = capsys.readouterr().out
    assert ("cycle report" in out) == (steps == 45)


def test_run_rejects_negative_steps():
    assert main(["run", "rauzy", "--system", "s1", "--steps", "-3"]) == 2


def test_run_rejects_unusable_input(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"what": 1}')
    assert main(["run", "rips", "--system", str(path), "--steps", "2"]) == 2


@pytest.mark.parametrize(
    "content", [None, "not json", "3", '{"pairs": 3}'],
    ids=["missing", "not-json", "not-object", "no-field"])
def test_run_rejects_unreadable_system(tmp_path, capsys, content):
    path = tmp_path / "system.json"
    if content is not None:
        path.write_text(content)
    assert main(["run", "rips", "--system", str(path), "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("arc", [-1, 3])
def test_run_rips_rejects_unknown_arc(tmp_path, capsys, arc):
    from thinsections.bands import complex_from_iis
    from thinsections.serialize import complex_to_json

    obj = complex_to_json(complex_from_iis(iis.build_system("s1")))
    obj["bands"][0]["top"]["arc"] = arc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "rips", "--system", str(path), "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "internal error" not in err


@pytest.mark.parametrize("argv", [
    ["section", "--example", "1", "--level", "0.13", "--radius", "3", "--svg", "{missing}/x.svg"],
    ["section", "--example", "1", "--level", "0.13", "--radius", "3", "--json", "{missing}/x.json"],
    ["section", "--example", "1", "--levels", "2", "--radius", "5", "--svg", "{missing}/x.svg"],
    ["run", "rips", "--system", "s1", "--steps", "0", "--emit-json", "{file}"],
], ids=["section-svg", "section-json", "section-sampled-svg", "run-emit-json-on-a-file"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    file = tmp_path / "file"
    file.write_text("")
    argv = [a.format(missing=tmp_path / "missing", file=file) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    # outputs are opened before any work: no level is traced first
    assert not [line for line in out.splitlines() if line.startswith("level")]


@pytest.mark.parametrize("argv,reason", [
    (["--levels", "2", "--radius", "5", "--json", "{dir}/s.json", "--svg", "{dir}/missing/x.svg"],
     "No such file"),
    (["--levels", "1", "--radius", "600", "--json", "{dir}/s.json", "--svg", "{dir}/x.svg"],
     "limit"),
    (["--levels", "1", "--radius", "3", "--json", "{dir}/same", "--svg", "{dir}/same"],
     "name one file"),
], ids=["unwritable-svg", "window-too-large", "one-path"])
def test_failed_section_leaves_no_output(tmp_path, capsys, argv, reason):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main(["section", "--example", "1", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    # every file the run opened is removed again
    assert list(tmp_path.iterdir()) == []


def test_section_refuses_a_file_named_twice(tmp_path, capsys):
    # a hard link names an existing file by a second path
    (tmp_path / "a").write_text("kept")
    os.link(tmp_path / "a", tmp_path / "b")
    argv = ["--json", str(tmp_path / "a"), "--svg", str(tmp_path / "b")]
    assert main(["section", "--example", "1", "--levels", "1", "--radius", "3", *argv]) == 2
    assert "name one file" in capsys.readouterr().err
    assert (tmp_path / "a").read_text() == "kept"


# -- section command -----------------------------------------------------------------


def test_section_explicit_levels(tmp_path, capsys):
    out_json = tmp_path / "census.json"
    out_svg = tmp_path / "plot.svg"
    code = main([
        "section", "--example", "1", "--level", "0.13,0.29250440723273",
        "--radius", "6", "--json", str(out_json), "--svg", str(out_svg),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "skipped, too close to a tangency height" in text
    payload = json.loads(out_json.read_text())
    assert payload["seed"] is None
    assert len(payload["levels"]) == 1
    assert len(payload["skipped"]) == 1
    assert payload["levels"][0]["census"]["closed"] == 0
    assert payload["levels"][0]["components"]  # polylines included for explicit runs
    xml.dom.minidom.parse(str(out_svg))


def test_section_sampled_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main([
            "section", "--example", "2", "--levels", "2", "--radius", "5",
            "--json", str(path),
        ]) == 0
    assert a.read_text() == b.read_text()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 20260815
    assert payload["aggregate"]["traced"] == 2


def test_section_seed_changes_sampling(tmp_path, capsys):
    assert main(["section", "--example", "1", "--levels", "1",
                 "--radius", "4", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["section", "--example", "1", "--levels", "1",
                 "--radius", "4", "--seed", "8"]) == 0
    second = capsys.readouterr().out
    assert "seed 7" in first and "seed 8" in second
    assert first.splitlines()[1] != second.splitlines()[1]


def test_section_rejects_a_radius_above_the_limit(refuse_to_emit, capsys):
    for extra in (["--level", "0.1"], ["--levels", "1"]):
        assert main(["section", "--example", "1", "--radius", "1e4", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limit" in err


def test_section_rejects_nonpositive_radius(capsys):
    assert main(["section", "--example", "1", "--level", "0.1",
                 "--radius", "0"]) == 2
    for extra in (["--level", "0.1"], ["--levels", "1"]):
        assert main(["section", "--example", "1", "--radius", "inf", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err


def test_section_rejects_fewer_than_one_level(capsys):
    for n in ("0", "-2"):
        assert main(["section", "--example", "1", "--levels", n, "--radius", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--levels" in err


def test_section_rejects_a_negative_seed(capsys):
    argv = ["section", "--example", "1", "--levels", "1", "--radius", "5", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed (-1) must be >= 0")


def test_section_at_a_far_level(capsys):
    # the level is reduced modulo the plate period exactly, not in floats
    assert main(["section", "--example", "1", "--radius", "5", "--level", "1e20"]) == 0
    assert "24 components" in capsys.readouterr().out


@pytest.mark.parametrize("level", ["abc", "nan", "1e400", "0.1,,0.2"])
def test_section_rejects_bad_level(capsys, level):
    assert main(["section", "--example", "1", "--radius", "5", "--level", level]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--level" in err


def test_section_requires_levels_or_level():
    with pytest.raises(SystemExit) as info:
        main(["section", "--example", "1", "--radius", "5"])
    assert info.value.code == 2


# -- console script -------------------------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "thinsections.cli", "verify", "--scope", "surface"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("0 fail")
