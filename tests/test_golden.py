"""Machine move logs and verifier rows pinned byte for byte.

The golden files hold the 45-step `rips_step` move logs of s1 and s2 and
the `verify --json` document of scope "all".  A change that is meant to
alter them re-records both with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from thinsections.bands import complex_from_iis, rips_step
from thinsections.iis import build_system
from thinsections.verify import collect_rows, rows_to_json

GOLDEN = Path(__file__).parent / "golden"
RIPS_STEPS = 45


def rips_moves():
    out = {}
    for name in ("s1", "s2"):
        x = complex_from_iis(build_system(name))
        logs = []
        for _ in range(RIPS_STEPS):
            x, log = rips_step(x)
            logs.append(log)
        out[name] = logs
    return out


def verify_all():
    return rows_to_json("all", collect_rows("all"))


def _dump(obj):
    return json.dumps(obj, indent=1) + "\n"


def test_rips_move_logs_match_golden():
    assert _dump(rips_moves()) == (GOLDEN / "rips_moves.json").read_text()


def test_verify_json_matches_golden():
    assert _dump(verify_all()) == (GOLDEN / "verify.json").read_text()


if __name__ == "__main__":
    (GOLDEN / "rips_moves.json").write_text(_dump(rips_moves()))
    (GOLDEN / "verify.json").write_text(_dump(verify_all()))
