"""Record the outputs the benchmark checks runs against.

    python3 perfbench/record.py

Runs each workload's job once in a fresh worker per recording and writes
``perfbench/expected/<workload>.json``.  Run it only on a commit whose
outputs are known good; a later commit is checked against these files.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _dump(workload, seed):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = Path(tmp) / "outputs.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                        "--seed", str(seed), "--mode", "job", "--dump", str(path)],
                       check=True, stdout=subprocess.DEVNULL)
        return json.loads(path.read_text())


def _write(workload, payload, dumps):
    """Write the recording, then check every dumped output against it: a
    recording is refused when an item failed or broke an invariant."""
    path = workloads.EXPECTED / f"{workload}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for seed, out in dumps.items():
        _, failed, problems = workloads.check(workload, seed, out, payload)
        if failed:
            path.unlink()
            raise SystemExit(f"{workload} seed {seed}: {problems}")
    print(f"wrote {path}")


SECTION_SEEDS = range(32)


def main():
    workloads.EXPECTED.mkdir(exist_ok=True)

    for workload in ("rips_cycle", "exact_geometry"):
        out = _dump(workload, 0)
        _write(workload, out, {0: out})
    out = _dump("orbit_pruning", 0)
    _write("orbit_pruning", {"panel": out}, {0: out})

    periods = {str(ex): float(workloads.surface.build_surface(ex).plate_period)
               for ex in workloads.EXAMPLES}
    seeds = {}
    dumps = {}
    for seed in SECTION_SEEDS:
        dumps[seed] = out = _dump("section_sweep", seed)
        seeds[str(seed)] = {ex: [{k: lv.get(k) for k in ("level", "census", "segments")}
                                 for lv in levels] for ex, levels in out.items()}
    _write("section_sweep", {"period": periods, "seeds": seeds}, dumps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
