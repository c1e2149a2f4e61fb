"""Command line front end.

Three commands: `verify` re-derives every recorded number and identity
and exits nonzero on any mismatch; `run` drives the induction or the
band reduction step by step with optional JSON/SVG artifacts per step
and reads its report off that one run (`run rips` normalizes a JSON
complex before step 0, so every printed state is normal); `section`
traces plane sections of a bundled surface and reports the per-level
census.  Exit codes: 0 success, 1 verification failures,
2 usage or internal error (an unreadable input or an unwritable output
path is a usage error), 3 a runner stopped early (no admissible move /
machine halted).
"""

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from . import bands
from .errors import (
    AmbiguousMove,
    Halted,
    NearSaddle,
    NoAdmissibleMove,
    NotFound,
    ThinSectionsError,
)
from .iis import IIS, RIGHT, SimilarityReport, affine_match, build_system, rauzy_step
from .sections import component_census, sample_levels, trace_section
from .serialize import (
    complex_from_json,
    complex_to_json,
    components_to_json,
    cycle_report_to_json,
    iis_from_json,
    iis_to_json,
    similarity_report_to_json,
)
from .surface import build_surface
from .svg import complex_svg, section_svg
from .verify import SCOPES, _decimal, collect_rows, format_report, rows_to_json, summarize

DEFAULT_SEED = 20260815


# -- verify -----------------------------------------------------------------------


def _cmd_verify(args):
    rows = collect_rows(args.scope)
    if args.json:
        print(json.dumps(rows_to_json(args.scope, rows), indent=2))
    else:
        print(format_report(rows))
    return 1 if summarize(rows)["fail"] else 0


# -- run --------------------------------------------------------------------------


def _load_spec(path, kind):
    """The system or complex in a JSON file; unreadable or malformed
    input is a usage error."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if "pairs" in payload:
            return iis_from_json(payload)
        if "bands" in payload and kind == "rips":
            return complex_from_json(payload)
    except (OSError, KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ThinSectionsError(f"{path}: {type(exc).__name__}: {exc}") from None
    raise ThinSectionsError(f"{path}: not a usable {kind} input")


def _system_for(kind, spec):
    s = build_system(spec) if spec in ("s1", "s2") else _load_spec(spec, kind)
    if kind == "rips":
        return bands._normalized(bands.complex_from_iis(s) if isinstance(s, IIS) else s)
    return s


def _emit_state(n, x, to_json, to_svg, emit_dir, svg_dir):
    if emit_dir:
        with open(os.path.join(emit_dir, f"step_{n:03d}.json"), "w") as fh:
            json.dump(to_json(x), fh, indent=1)
    if svg_dir:
        with open(os.path.join(svg_dir, f"step_{n:03d}.svg"), "w") as fh:
            fh.write(to_svg(x))


def _rauzy_step(s):
    s, moves = rauzy_step(s, RIGHT)
    return s, None, None, moves


def _rauzy_report(run, logs, cut, summary):
    """The first scaled return of the start system along the run."""
    for n in range(1, len(run)):
        hit = affine_match(run[0][0], run[n][0])
        if hit is not None:
            report = SimilarityReport(n, *hit, tuple(m for ms in logs[:n] for m in ms))
            print(
                f"similarity report: period {report.period}, contraction "
                f"{_decimal(report.contraction)}, translation "
                f"{_decimal(report.translation)}"
            )
            summary["similarity"] = similarity_report_to_json(report)
            return
    if not cut:
        print(f"no scaled return within {len(logs)} steps")


def _rips_report(run, logs, cut, summary):
    """The cycle test and the one-end criterion on the run as printed."""
    if cut or not logs:
        return
    try:
        rep = bands.rips_cycle(run)
    except NotFound as exc:
        print(str(exc))
        return
    ok, (lo, hi) = bands.one_end_criterion(rep)
    print(
        f"cycle report: prefix {rep.prefix_steps}, period "
        f"{rep.period_steps}, contraction {_decimal(rep.contraction)}"
    )
    print(
        f"contraction x length growth in [{float(lo):.6f}, "
        f"{float(hi):.6f}]{' < 1' if ok else ''}"
    )
    summary["cycle"] = cycle_report_to_json(rep)


# kind: (step returning (state, u, v, moves), JSON writer, SVG writer,
# stop exceptions, word for a stop, word for a step, report reader)
_RUNNERS = {
    "rauzy": (
        _rauzy_step, iis_to_json, lambda s: complex_svg(bands.complex_from_iis(s)),
        (NoAdmissibleMove, AmbiguousMove), "stopped", "induction", _rauzy_report,
    ),
    "rips": (
        # looked up per call, so a wrapped or patched machine step is the one run
        lambda x: bands._rips_step_tracked(x), complex_to_json, complex_svg,
        Halted, "halted", "machine", _rips_report,
    ),
}


def _run_steps(kind, x, steps, emit_dir, svg_dir):
    """Step the machine up to `steps` times, printing the moves and
    writing each state, then read the kind's report off that one run:
    (state, u, v) per state, the start first; u and v are the machine's
    transition matrices and None for the induction."""
    step, to_json, to_svg, stop, stopped, noun, report = _RUNNERS[kind]
    run, logs = [(x, None, None)], []
    _emit_state(0, x, to_json, to_svg, emit_dir, svg_dir)
    for n in range(1, steps + 1):
        try:
            x, u, v, moves = step(x)
        except stop as exc:
            print(f"{stopped} before step {n}: {exc}")
            break
        run.append((x, u, v))
        logs.append(moves)
        for m in moves:
            detail = " ".join(f"{key}={val}" for key, val in m.items() if key != "move")
            print(f"  step {n:3d}  {m['move']:<9} {detail}")
        _emit_state(n, x, to_json, to_svg, emit_dir, svg_dir)
    print(f"{len(logs)} {noun} steps completed")
    summary = {"kind": kind, "steps": len(logs), "move_log": [m for ms in logs for m in ms]}
    cut = len(logs) < steps
    report(run, logs, cut, summary)
    if emit_dir:
        with open(os.path.join(emit_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
    return 3 if cut else 0


def _cmd_run(args):
    if args.steps < 0:
        raise ThinSectionsError("--steps must be >= 0")
    for d in (args.emit_json, args.svg):
        if d:
            os.makedirs(d, exist_ok=True)
    return _run_steps(args.kind, _system_for(args.kind, args.system), args.steps,
                      args.emit_json, args.svg)


# -- section ----------------------------------------------------------------------


def _cmd_section(args):
    if args.level is None and args.levels < 1:
        raise ThinSectionsError("--levels must be >= 1")
    explicit = args.level is not None
    if explicit:
        try:
            levels = [float(Fraction(part)) for part in args.level.split(",")]
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ThinSectionsError(
                f"--level {args.level!r}: not a list of finite numbers") from None
    with contextlib.ExitStack() as stack:
        # open the outputs first, so a bad path fails before any level is traced
        json_fh, svg_fh = (stack.enter_context(open(path, "w")) if path else None
                           for path in (args.json, args.svg))
        surface = build_surface(args.example)
        R = args.radius
        if not explicit:
            levels = sample_levels(surface, args.levels, args.seed, R)
            print(f"sampled {len(levels)} levels with seed {args.seed}")
        per_level = []
        skipped = []
        first = None
        for lv in levels:
            try:
                comps = trace_section(surface, lv, R)
            except NearSaddle as exc:
                skipped.append({"level": lv, "reason": str(exc)})
                print(f"level {lv:.9f}: skipped, too close to a tangency height")
                continue
            census = component_census(comps)
            entry = {"level": lv, "census": census}
            if explicit:
                entry["components"] = components_to_json(comps)
            per_level.append(entry)
            if first is None:
                first = comps
            print(
                f"level {lv:.9f}: {sum(census.values())} components "
                f"(spanning {census['spanning']}, boundary-clipped "
                f"{census['boundary-clipped']}, closed {census['closed']})"
            )
        histogram = {}
        for entry in per_level:
            n = entry["census"]["spanning"]
            histogram[n] = histogram.get(n, 0) + 1
        traced = len(per_level)
        aggregate = {
            "traced": traced,
            "skipped": len(skipped),
            "spanning_histogram": {str(k): histogram[k] for k in sorted(histogram)},
            "fraction_single_spanning": (
                histogram.get(1, 0) / traced if traced else 0.0
            ),
            "closed_total": sum(e["census"]["closed"] for e in per_level),
        }
        print(
            f"aggregate: spanning histogram {aggregate['spanning_histogram']}, "
            f"single-spanning fraction {aggregate['fraction_single_spanning']:.3f}, "
            f"closed total {aggregate['closed_total']}"
        )
        if json_fh:
            payload = {
                "example": args.example,
                "radius": R,
                "seed": None if explicit else args.seed,
                "levels": per_level,
                "skipped": skipped,
                "aggregate": aggregate,
            }
            json.dump(payload, json_fh, indent=1)
        if svg_fh:
            if first is None:
                os.remove(args.svg)
                print("no traced level; skipping the SVG", file=sys.stderr)
            else:
                svg_fh.write(section_svg(first, R))
    return 0


# -- parser -----------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="thinsections",
        description=(
            "Interval identification systems, band complexes, and plane "
            "sections of the associated periodic surfaces."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="re-derive every recorded number and identity")
    v.add_argument("--scope", choices=SCOPES, default="all")
    v.add_argument("--json", action="store_true", help="emit the report as JSON")
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("run", help="drive the induction or the band reduction")
    r.add_argument("kind", choices=("rauzy", "rips"))
    r.add_argument(
        "--system", required=True, metavar="s1|s2|PATH",
        help="bundled system name or path to a serialized one; run rips "
        "normalizes a serialized complex before step 0",
    )
    r.add_argument("--steps", type=int, required=True)
    r.add_argument("--emit-json", metavar="DIR", help="write per-step JSON states")
    r.add_argument("--svg", metavar="DIR", help="write per-step SVG frames")
    r.set_defaults(fn=_cmd_run)

    s = sub.add_parser("section", help="trace plane sections of a bundled surface")
    s.add_argument("--example", type=int, choices=(1, 2), required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--levels", type=int, metavar="N", help="sample N random levels")
    g.add_argument("--level", metavar="X[,Y..]", help="explicit level list")
    s.add_argument("--radius", type=float, required=True)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--svg", metavar="PATH", help="plot of the first traced level")
    s.add_argument("--json", metavar="PATH", help="census and aggregate statistics")
    s.set_defaults(fn=_cmd_section)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ThinSectionsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
