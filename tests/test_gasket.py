"""The Rauzy gasket as an independent check of the band machine.

A word w over {1, 2, 3} that uses every letter gives the integer matrix
M_w, the product along w of the M_i (the 3x3 identity with row i set to
all ones).  Its Perron root rho and Perron vector lam, normalized so that
lam_1 + lam_2 + lam_3 = 1, give the system of pairs [0, lam_i] <->
[1 - lam_i, 1] on [0, 1], whose thin-type parameters lie on the Rauzy
gasket (Arnoux & Rauzy, Bull. SMF 119, 1991).  The machine must find a
cycle on it whose contraction, raised to some k dividing |w|, is 1/rho
exactly, and the one-end criterion must hold.  rho comes from `linalg`
and `polynomials` alone; no machine output feeds the prediction.

The corpus is every word of length 3-6 that uses all three letters,
taken once per rotation class (the least rotation, which starts with 1).
"""

from itertools import product

import pytest

from thinsections import polynomials as P
from thinsections.bands import complex_from_iis, detect_rips_cycle, one_end_criterion
from thinsections.iis import IIS, IntervalPair
from thinsections.linalg import char_poly, eigen_kernel
from thinsections.numberfield import minimal_field

MAX_STEPS = 400


def _corpus(lengths):
    words = []
    for n in lengths:
        for w in map("".join, product("123", repeat=n)):
            if set(w) == set("123") and w == min(w[i:] + w[:i] for i in range(n)):
                words.append(w)
    return words


WORDS = _corpus(range(3, 7))


def _matrix(word):
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for letter in word:
        step = [[1] * 3 if i == int(letter) - 1 else [int(i == j) for j in range(3)]
                for i in range(3)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*step)] for row in m]
    return m


def _gasket_system(word):
    """(system, rho) for the word: rho the field generator."""
    m = _matrix(word)
    cp = char_poly(m)
    lo, hi = P.isolate_real_roots(cp)[-1]  # the Perron root is the largest
    field = minimal_field(cp, (lo, hi))
    lam = eigen_kernel(m, field.gen)
    one = field.one
    pairs = [IntervalPair((field.zero, v), (one - v, one)) for v in lam]
    return IIS(field, (field.zero, one), pairs), field.gen


def test_corpus_size():
    assert len(WORDS) == 132
    assert WORDS[:3] == ["123", "132", "1123"]


@pytest.mark.parametrize("word", WORDS)
def test_gasket_system_cycles_at_its_perron_root(word):
    s, rho = _gasket_system(word)
    assert s.field.degree == 3 and s.field.irreducible
    rep = detect_rips_cycle(complex_from_iis(s), MAX_STEPS)
    n = len(word)
    k = rep.contraction
    powers = [k ** d for d in range(1, n + 1) if n % d == 0]
    assert any(p * rho == 1 for p in powers)
    ok, _ = one_end_criterion(rep)
    assert ok
