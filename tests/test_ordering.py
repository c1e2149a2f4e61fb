"""Order and equality decisions on field elements each go through one
primitive.

`FieldElement.compare` (and <, <=, >, >= through it) orders two elements
from their cached brackets and builds their difference only when the
brackets overlap.  An order test written as `(a - b).sign() < 0` always
builds it, so the package's sources may contain one only where a
difference is wanted on purpose: the exact fallback of
`OrbitChart.neighbors`, whose fixed-point filter has already failed.

Equality is `==` and `!=`, which compare canonical residues over an
irreducible modulus.  A test written as `(a - b).is_zero()` or
`(a - b).sign() == 0` decides the same thing again through a
subtraction, so the sources may contain one only in `__eq__`'s own
fallback over a reducible modulus and in `Band.__init__`'s width audit
(see EQUALITY_ALLOWED).
"""

import ast
from pathlib import Path

import thinsections

SRC = Path(thinsections.__file__).parent

ORDER_ALLOWED = {
    ("iis.py", "(point - lo).sign() < 0"),
    ("iis.py", "(hi - point).sign() < 0"),
}

EQUALITY_ALLOWED = {
    # __eq__ over a reducible modulus, which has no canonical residue
    ("numberfield.py", "(self - o).is_zero()"),
    # The equal-width audit: its zero signs are the only ones a run of the
    # band machine makes, and the benchmark self-test requires
    # numberfield.sign.zero_frac > 0 on rips_cycle.
    ("bands.py", "(bottom.width() - top.width()).sign() != 0"),
}

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_EQUALITY = (ast.Eq, ast.NotEq)


def _is_difference_call(node, attr):
    """Whether node is `(a - b).attr()`."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and not node.args
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.Sub)
    )


def _is_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _difference_tests(path, ops, zero_tests=False):
    """(line, source) of every `(a - b).sign()` compared with 0 by one of
    `ops`, and with `zero_tests` of every `(a - b).is_zero()`."""
    text = path.read_text()
    out = []
    for node in ast.walk(ast.parse(text, str(path))):
        if zero_tests and _is_difference_call(node, "is_zero"):
            out.append((node.lineno, ast.get_source_segment(text, node)))
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, ops) and (
                (_is_difference_call(left, "sign") and _is_zero(right))
                or (_is_zero(left) and _is_difference_call(right, "sign"))
            ):
                out.append((node.lineno, ast.get_source_segment(text, node)))
    return sorted(out)


def _offenders(allowed, ops, zero_tests=False):
    """The sites outside `allowed`, and the allowed sites found."""
    found, bad = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, source in _difference_tests(path, ops, zero_tests):
            if (path.name, source) in allowed:
                found.add((path.name, source))
            else:
                bad.append(f"{path.name}:{line}: {source}")
    return bad, found


def test_no_order_test_builds_a_difference():
    bad, found = _offenders(ORDER_ALLOWED, _ORDER)
    assert not bad, "order via compare or <, not (a - b).sign():\n" + "\n".join(bad)
    # the allowlist names nothing that is gone
    assert found == ORDER_ALLOWED


def test_no_equality_test_builds_a_difference():
    bad, found = _offenders(EQUALITY_ALLOWED, _EQUALITY, zero_tests=True)
    assert not bad, "test equality with == or !=, not a difference:\n" + "\n".join(bad)
    # the allowlist names nothing that is gone
    assert found == EQUALITY_ALLOWED


def test_the_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "if (a - b).sign() < 0: pass\n"
        "ok = 0 >= (x.hi - x.lo).sign()\n"
        "if lo < (c - d).sign() <= 0: pass\n"
        "same = (a - b).sign() != 0\n"
        "pos = a.sign() > 0\n"
        "lt = a < b\n"
        "if not (a - b).is_zero(): pass\n"
        "eq = 0 == (x.hi - x.lo).sign()\n"
        "both = (a - b - c).is_zero() and a.is_zero()\n"
        "ok = [(u - v).sign() for u, v in w]\n"
        "eq = a == b\n"
    )
    assert [line for line, _ in _difference_tests(probe, _ORDER)] == [1, 2, 3]
    assert [line for line, _ in _difference_tests(probe, _EQUALITY, zero_tests=True)] == [
        4, 7, 8, 9]
