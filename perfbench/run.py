"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs in a fresh, single-threaded worker interpreter
(``worker.py``), one at a time, so each starts where a CLI call starts.
With ``--trace 0`` the run repeats the workload's job in new workers while
at least half of another job fits in ``--seconds``, runs a worker that only
sets up before each job, and reports the medians of ``setup_s`` (every
worker's), ``wall_s`` and ``peak_rss_mb``.  Both times are scaled to a
fixed host speed (``hostspeed.py``).  With ``--trace 1`` it alternates untraced
and traced job workers and reports the per-layer metrics of the traced
ones plus ``trace.overhead_frac``.

The last line of standard output is the result: ``correct``, ``attempted``
and ``failed`` items over every job in the run, and ``metrics``.  The line
before it records the environment.  Both also go to ``perfbench/out/``,
next to the spans of the last traced job.  A run that cannot measure (no
package source, a worker that crashes or overruns) prints no result and
exits with code 2.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = ROOT / "src" / "thinsections"

DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(args, mode, deadline, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.splitlines()[-1])


def _measure(args):
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    setups, jobs, traced = [], [], []
    spans = OUT / f"spans-{args.workload}.npz"
    while True:
        t = time.perf_counter()
        if not args.trace:
            # Spread over the run, so that set-up and jobs see the same host.
            setups.append(_worker(args, "setup", deadline))
        jobs.append(_worker(args, "job", deadline))
        if args.trace:
            traced.append(_worker(args, "trace", deadline, spans))
        now = time.perf_counter()
        # Start another job only if at least half of it fits, so that runs
        # last --seconds on average.
        if now + (now - t) / 2 > start + args.seconds:
            return setups, jobs, traced


def _median(results, key):
    return statistics.median(r[key] for r in results)


def _metrics(args, setups, jobs, traced):
    if not args.trace:
        values = {"setup_s": _median(setups + jobs, "setup_s"),
                  "wall_s": _median(jobs, "wall_s"),
                  "peak_rss_mb": _median(jobs, "peak_rss_mb")}
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    sys.path.insert(0, str(HERE))
    from spans import metric_names

    out = {}
    for name, unit in metric_names():
        if name == "trace.overhead_frac":
            value = _median(traced, "wall_s") / _median(jobs, "wall_s") - 1
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def _environment(jobs, traced):
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **jobs[0]["env"],
        "nproc": len(os.sched_getaffinity(0)),
        "absent_layers": sorted({name for t in traced for name in t["absent"]}),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="checked by the worker")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups, jobs, traced = _measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    everything = jobs + traced
    failed = sum(r["failed"] for r in everything)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": failed,
        "metrics": _metrics(args, setups, jobs, traced),
    }
    record = {
        "environment": _environment(jobs, traced),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": [r["setup_s"] for r in setups + jobs],
        "setup_raw_s": [r["setup_raw_s"] for r in setups + jobs],
        "wall_s": [r["wall_s"] for r in jobs],
        "wall_raw_s": [r["wall_raw_s"] for r in jobs],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "problems": sorted({p for r in everything for p in r["problems"]}),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
