"""Order decisions on field elements go through one primitive.

`FieldElement.compare` (and <, <=, >, >= through it) orders two elements
from their cached brackets and builds their difference only when the
brackets overlap.  An order test written as `(a - b).sign() < 0` always
builds it, so the package's sources may contain one only where a
difference is wanted on purpose: the exact fallback of
`OrbitChart.neighbors`, whose fixed-point filter has already failed.
"""

import ast
from pathlib import Path

import thinsections

SRC = Path(thinsections.__file__).parent

ALLOWED = {
    ("iis.py", "(point - lo).sign() < 0"),
    ("iis.py", "(hi - point).sign() < 0"),
}

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_difference_sign(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sign"
        and not node.args
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.Sub)
    )


def _is_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _difference_sign_orders(path):
    """(line, source) of every ordering of `(a - b).sign()` against 0."""
    text = path.read_text()
    out = []
    for node in ast.walk(ast.parse(text, str(path))):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, _ORDER) and (
                (_is_difference_sign(left) and _is_zero(right))
                or (_is_zero(left) and _is_difference_sign(right))
            ):
                out.append((node.lineno, ast.get_source_segment(text, node)))
    return sorted(out)


def test_no_order_test_builds_a_difference():
    found, bad = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, source in _difference_sign_orders(path):
            if (path.name, source) in ALLOWED:
                found.add((path.name, source))
            else:
                bad.append(f"{path.name}:{line}: {source}")
    assert not bad, "order via compare or <, not (a - b).sign():\n" + "\n".join(bad)
    # the allowlist names nothing that is gone
    assert found == ALLOWED


def test_the_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "if (a - b).sign() < 0: pass\n"
        "ok = 0 >= (x.hi - x.lo).sign()\n"
        "if lo < (c - d).sign() <= 0: pass\n"
        "same = (a - b).sign() != 0\n"
        "pos = a.sign() > 0\n"
        "lt = a < b\n"
    )
    assert [line for line, _ in _difference_sign_orders(probe)] == [1, 2, 3]
