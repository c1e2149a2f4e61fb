"""The benchmark's set-up, its four jobs and their output checks.

``setup`` builds every input the jobs use.  A job calls the package's
public entry points and returns raw results; ``summarise`` turns them into
plain JSON outside the timed region; ``check`` compares that against the
outputs recorded in ``expected/`` (or, for a section seed with no
recording, against invariants) and counts the items that failed.  A job
never lets an exception out: an item that raises is a failed item.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

from thinsections import bands, iis, sections, serialize, surface, verify

EXPECTED = Path(__file__).resolve().parent / "expected"

SYSTEMS = ("s1", "s2")
EXAMPLES = (1, 2)

RIPS_STEPS = 45
PRUNE_ROUNDS = 40
PRUNE_SAMPLES = 3
# Common random numbers: every run prunes the same 12 sample points, 6 of
# which survive 40 rounds.  Whether a point survives is a coin flip per
# point costing 10x more when it lands "survive", so a seed-drawn sample
# would make the job time spread by about 1.2/sqrt(samples), far beyond
# any bound a run can afford.
PRUNE_PANEL = (1, 2, 3, 4)
SECTION_R = 50
SECTION_LEVELS = 3
SEARCH_STEPS = 12
SEARCH_PERIOD = {"s1": 5, "s2": 8}


@dataclass
class Inputs:
    systems: dict
    complexes: dict
    surfaces: dict


def setup():
    """Fields refined below 2^-128 and their parameters (both inside
    build_system), systems, band complexes, surfaces and their compiled
    float arrays: what a CLI call builds before its job."""
    systems = {name: iis.build_system(name) for name in SYSTEMS}
    complexes = {name: bands.complex_from_iis(s) for name, s in systems.items()}
    surfaces = {ex: surface.build_surface(ex) for ex in EXAMPLES}
    for surf in surfaces.values():
        sections._compiled(surf)
    return Inputs(systems, complexes, surfaces)


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed item by check()
        return exc


# -- jobs (timed) ------------------------------------------------------------------


def _cycle(x):
    report = bands.detect_rips_cycle(x, RIPS_STEPS)
    return report, bands.one_end_criterion(report)


def rips_cycle(inp, seed):
    return {name: _attempt(_cycle, inp.complexes[name])
            for name in _shuffled(SYSTEMS, seed)}


def orbit_pruning(inp, seed):
    s1 = inp.systems["s1"]
    return {p: _attempt(bands.pruning_decay, s1, PRUNE_ROUNDS, PRUNE_SAMPLES, p)
            for p in _shuffled(PRUNE_PANEL, seed)}


def _sweep(surf, seed):
    levels = sections.sample_levels(surf, SECTION_LEVELS, seed, SECTION_R)
    out = []
    for level in levels:
        comps = _attempt(sections.trace_section, surf, level, SECTION_R)
        census = None if isinstance(comps, Exception) else sections.component_census(comps)
        out.append((level, comps, census))
    return out


def section_sweep(inp, seed):
    return {ex: _attempt(_sweep, inp.surfaces[ex], seed)
            for ex in _shuffled(EXAMPLES, seed)}


def exact_geometry(inp, seed):
    out = {"rows": _attempt(verify.collect_rows, "surface")}
    for name in _shuffled(SYSTEMS, seed):
        out[name] = _attempt(iis.detect_self_similarity, inp.systems[name],
                             SEARCH_STEPS, "search")
    return out


JOBS = {
    "rips_cycle": rips_cycle,
    "orbit_pruning": orbit_pruning,
    "section_sweep": section_sweep,
    "exact_geometry": exact_geometry,
}


# -- outputs as JSON (untimed) ---------------------------------------------------------


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def _without_root_intervals(obj):
    """Drop the fields' isolating intervals: they record how far signs
    refined the generator, which is state, not output."""
    if isinstance(obj, dict):
        return {k: _without_root_intervals(v) for k, v in obj.items()
                if k != "root_interval"}
    if isinstance(obj, list):
        return [_without_root_intervals(v) for v in obj]
    return obj


def _level_summary(level, comps, census):
    if isinstance(comps, Exception):
        return {"level": level, **_error(comps)}
    tol = SECTION_R + 1e-6
    points = [p for c in comps for pl in c.polylines for p in pl]
    return {
        "level": level,
        "census": census,
        "segments": sum(len(pl) - 1 for c in comps for pl in c.polylines),
        "components": len(comps),
        "in_window": all(abs(x) <= tol and abs(z) <= tol for x, z in points),
        "closed_ok": all(len(c.polylines) == 1 and c.polylines[0][0] == c.polylines[0][-1]
                         for c in comps if c.window_class == "closed"),
    }


def summarise(workload, raw):
    if workload == "rips_cycle":
        out = {}
        for name, res in raw.items():
            if isinstance(res, Exception):
                out[name] = _error(res)
                continue
            report, (one_end, _) = res
            out[name] = {"report": _without_root_intervals(
                serialize.cycle_report_to_json(report)), "one_end": one_end}
        return out
    if workload == "orbit_pruning":
        return {str(p): _error(res) if isinstance(res, Exception) else
                {"survivors": res.survivors, "exhausted": res.exhausted,
                 "samples": res.samples, "estimates": res.estimates}
                for p, res in raw.items()}
    if workload == "section_sweep":
        return {str(ex): _error(res) if isinstance(res, Exception) else
                [_level_summary(*entry) for entry in res]
                for ex, res in raw.items()}
    if workload == "exact_geometry":
        rows = raw["rows"]
        out = {"rows": _error(rows) if isinstance(rows, Exception) else [
            {"claim": r.claim, "status": r.status, "computed": r.computed} for r in rows]}
        for name in SYSTEMS:
            res = raw[name]
            if isinstance(res, Exception):
                out[name] = _error(res)
            elif res is None:
                out[name] = {"error": "no scaled return found"}
            else:
                out[name] = _without_root_intervals(
                    serialize.similarity_report_to_json(res))
        return out
    raise KeyError(workload)


# -- checks (untimed) --------------------------------------------------------------------


def load_expected(workload):
    return json.loads((EXPECTED / f"{workload}.json").read_text())


def _check_rips(seed, outputs, expected):
    attempted = failed = 0
    problems = []
    for name in SYSTEMS:
        want = expected[name]
        items = want["report"]["prefix_steps"] + want["report"]["period_steps"]
        attempted += items
        got = outputs.get(name, {})
        if got != want or got.get("one_end") is not True:
            failed += items
            problems.append(f"{name}: cycle report or one-end result differs")
    return attempted, failed, problems


def _non_increasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def _check_pruning(seed, outputs, expected):
    attempted = failed = 0
    problems = []
    for p in PRUNE_PANEL:
        attempted += PRUNE_SAMPLES
        got = outputs.get(str(p), {"error": "missing"})
        want = expected["panel"][str(p)]
        if "error" in got:
            problem = got["error"]
        elif got["exhausted"] or not _non_increasing(got["estimates"]):
            problem = "exhausted samples or increasing estimates"
        elif got["survivors"] != want["survivors"]:
            problem = "survivor counts differ from the recording"
        else:
            continue
        failed += PRUNE_SAMPLES
        problems.append(f"pruning seed {p}: {problem}")
    return attempted, failed, problems


def _level_problem(got, want, period):
    if "error" in got:
        return got["error"]
    census = got["census"]
    if sorted(census) != sorted(sections.WINDOW_CLASSES):
        return "census has the wrong classes"
    if not 0 <= got["level"] < period:
        return "level outside one period"
    if sum(census.values()) != got["components"] or got["components"] < 1:
        return "census total differs from the component count"
    if got["segments"] < got["components"]:
        return "fewer segments than components"
    if not (got["in_window"] and got["closed_ok"]):
        return "a curve leaves the window or a closed curve is open"
    if want is not None and any(got[k] != want[k] for k in ("level", "census", "segments")):
        return "level, census or segment count differs from the recording"
    return None


def _check_sections(seed, outputs, expected):
    attempted = failed = 0
    problems = []
    recorded = expected["seeds"].get(str(seed), {})
    for ex in EXAMPLES:
        attempted += SECTION_LEVELS
        got = outputs.get(str(ex), {"error": "missing"})
        if isinstance(got, dict) or len(got) != SECTION_LEVELS:
            failed += SECTION_LEVELS
            why = got["error"] if isinstance(got, dict) else "wrong number of levels"
            problems.append(f"example {ex}: {why}")
            continue
        want = recorded.get(str(ex), [None] * SECTION_LEVELS)
        for lv, w in zip(got, want):
            problem = _level_problem(lv, w, expected["period"][str(ex)])
            if problem:
                failed += 1
                problems.append(f"example {ex} level {lv['level']}: {problem}")
    return attempted, failed, problems


def _check_geometry(seed, outputs, expected):
    problems = []
    want_rows = expected["rows"]
    attempted = len(want_rows) + len(SYSTEMS)
    rows = outputs["rows"]
    got_rows = {} if isinstance(rows, dict) else {r["claim"]: r for r in rows}
    for want in want_rows:
        got = got_rows.get(want["claim"])
        if got != want or got["status"] == verify.STATUS_FAIL:
            problems.append(f"row {want['claim']}: {got}")
    for name in SYSTEMS:
        got = outputs[name]
        if got != expected[name] or got.get("period") != SEARCH_PERIOD[name]:
            problems.append(f"{name}: scaled-return search differs")
    return attempted, len(problems), problems


CHECKS = {
    "rips_cycle": _check_rips,
    "orbit_pruning": _check_pruning,
    "section_sweep": _check_sections,
    "exact_geometry": _check_geometry,
}


def check(workload, seed, outputs, expected):
    """(items attempted, items failed, problem descriptions)."""
    return CHECKS[workload](seed, outputs, expected)
