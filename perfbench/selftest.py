"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs one traced job per workload (seed 0) in a fresh worker, then checks

* the layer table: every layer a workload should move is called on it,
  and every layer predicted to leave a workload unchanged is called zero
  times there (so ``numberfield.sign`` on section_sweep, ``bands.step`` on
  orbit_pruning and ``iis.neighbors`` on rips_cycle are all 0);
* the derived metrics the table names are nonzero where they apply;
* the output checks: the job's own outputs pass, and a corrupted copy of
  them (one census, survivor count, period or row status changed) fails,
  both against the recording and, for sections, against the invariants
  used for a seed with no recording.

Prints one line per failed expectation and exits 1 if there is any.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

ARITHMETIC = ["numberfield.sign", "numberfield.is_zero", "numberfield.add",
              "numberfield.sub", "numberfield.mul", "polynomials.evaluate_interval"]
MACHINE = ["bands.step", "bands.collapse", "bands.merge", "bands.drop_dead",
           "bands.segmentation", "bands.transition_matrix", "bands.signature",
           "bands.find_free_subarcs"]
ORBITS = ["iis.neighbors", "bands.removal_round", "bands.prune_rounds"]
SECTIONS = ["kernels.emit_segments", "kernels.match_endpoints", "sections.trace_section",
            "sections.sample_levels", "sections._chains", "sections._classify"]
GEOMETRY = ["surface.saddle_levels", "surface.check_central_symmetry",
            "surface.euler_characteristic", "iis.rauzy_step", "iis.affine_match"]
# sample_levels reads float(surface.plate_period): one subtraction and one
# interval evaluation per call, the only exact arithmetic after set-up.
PLATE_PERIOD = ["numberfield.sub", "polynomials.evaluate_interval"]
FIELD = [name for name in LAYERS
         if name.startswith("numberfield.") and name not in PLATE_PERIOD]

# (layers, workloads they should move, workloads predicted unchanged)
TABLE = [
    (ARITHMETIC, ["rips_cycle", "orbit_pruning", "exact_geometry"], []),
    (FIELD, [], ["section_sweep"]),
    (["numberfield.inverse"], ["rips_cycle", "exact_geometry"], []),
    (MACHINE, ["rips_cycle"], ["orbit_pruning", "section_sweep"]),
    (ORBITS, ["orbit_pruning"], ["rips_cycle", "section_sweep"]),
    (SECTIONS, ["section_sweep"], ["rips_cycle", "orbit_pruning", "exact_geometry"]),
    (GEOMETRY, ["exact_geometry"], ["section_sweep"]),
]
DERIVED = {
    "rips_cycle": ["bands.segmentation.per_step", "numberfield.sign.zero_frac"],
    "orbit_pruning": ["bands.removal_round.regrows_per_sample"],
    "section_sweep": ["sections.sample_levels.attempts_per_level",
                      "kernels.emit_segments.rows", "sections.components"],
}


def _corrupt(workload, outputs):
    bad = copy.deepcopy(outputs)
    if workload == "rips_cycle":
        bad["s1"]["report"]["period_steps"] += 1
    elif workload == "orbit_pruning":
        bad["1"]["survivors"][-1] += 1
    elif workload == "section_sweep":
        bad["1"][0]["census"]["spanning"] += 1
    else:
        bad["rows"][0]["status"] = "fail"
    return bad


def _traced(workload, seed, tmp):
    dump = Path(tmp) / f"{workload}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "trace", "--dump", str(dump)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["layers"], json.loads(dump.read_text())


SEED = 0


def main():
    errors = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        runs = {w: _traced(w, SEED, tmp) for w in workloads.JOBS}
    for workload, (layers, outputs) in runs.items():
        for names, moves, unchanged in TABLE:
            for name in names:
                calls = layers[name + ".calls"]
                if workload in moves and not (calls and layers[name + ".total_s"]):
                    errors.append(f"{workload}: {name} should be called but was not")
                if workload in unchanged and calls:
                    errors.append(f"{workload}: {name} predicted unchanged but called {calls}x")
        if workload == "section_sweep":
            for name in PLATE_PERIOD:
                if layers[name + ".calls"] != layers["sections.sample_levels.calls"]:
                    errors.append(f"{workload}: {name} called beyond the plate period reads")
        for name in DERIVED.get(workload, []):
            if not layers[name]:
                errors.append(f"{workload}: {name} is 0")

        expected = workloads.load_expected(workload)
        seeds = [SEED] + ([10 ** 9] if workload == "section_sweep" else [])
        for seed in seeds:
            _, failed, problems = workloads.check(workload, seed, outputs, expected)
            if failed:
                errors.append(f"{workload} seed {seed}: clean outputs failed: {problems}")
            _, failed, _ = workloads.check(workload, seed, _corrupt(workload, outputs), expected)
            if not failed:
                errors.append(f"{workload} seed {seed}: corrupted outputs passed the check")
    for line in errors:
        print(line)
    print(f"selftest: {len(errors)} failed expectations")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
