"""One benchmark job in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|job|trace
        [--spans PATH] [--dump PATH]

Imports the package from ``src/`` (imports are not timed), builds the
inputs (timed as set-up), and in ``job`` and ``trace`` modes runs the
workload's job once (timed), then summarises and checks its outputs.
Both timed regions run under ``hostspeed.Sampler``: ``setup_s`` and
``wall_s`` are scaled to a fixed host speed, ``*_raw_s`` are as timed.  In
``trace`` mode the job runs under the span tracer and the per-layer
summary is included; ``--spans`` writes the spans.  ``--dump`` writes the
job's summarised outputs instead of checking them, which is how
``record.py`` makes ``expected/``.
Prints one JSON object on its last line.
"""

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from spans import Tracer  # noqa: E402
from thinsections import _kernels  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "job", "trace"))
    ap.add_argument("--spans")
    ap.add_argument("--dump")
    args = ap.parse_args(argv)

    sampler = Sampler()
    with sampler.running():
        inputs, setup = sampler.timed(workloads.setup)
    result = {"setup_s": setup["scaled_s"], "setup_raw_s": setup["raw_s"],
              "env": {"numpy": numpy.__version__, "using_numba": _kernels.USING_NUMBA}}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    job = workloads.JOBS[args.workload]
    tracer = Tracer() if args.mode == "trace" else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(sampler.running())
        raw, wall = sampler.timed(job, inputs, args.seed)
    result["wall_s"] = wall["scaled_s"]
    result["wall_raw_s"] = wall["raw_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = workloads.summarise(args.workload, raw)
    if args.dump:
        Path(args.dump).write_text(json.dumps(outputs, indent=1) + "\n")
    else:
        expected = workloads.load_expected(args.workload)
        attempted, failed, problems = workloads.check(
            args.workload, args.seed, outputs, expected)
        result.update(attempted=attempted, failed=failed, problems=problems)
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
