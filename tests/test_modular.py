import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplane import FieldContext
from qplane import modular


@pytest.mark.parametrize("ell", list(range(1, 13)) + [53, 101])
def test_each_prime_is_below_2_30_with_the_roots_of_phi(ell):
    deg = FieldContext.root_of_unity(ell)._deg
    below = 2 ** 30
    for k in range(3):
        p, roots, vinv = modular.cyclotomic_prime(ell, k)
        assert p < below and (p - 1) % ell == 0
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        below = p
        assert len(set(roots)) == len(roots) == deg
        for r in roots:  # of order exactly ell
            assert [e for e in range(1, ell + 1) if pow(r, e, p) == 1] == [ell]
        # vinv inverts the Vandermonde matrix (root e to the power t at (e, t))
        columns = [[pow(r, s, p) for r in roots] for s in range(deg)]
        for t, row in enumerate(vinv):
            for s, column in enumerate(columns):
                assert sum(map(operator.mul, row, column)) % p == (t == s)


def test_the_prime_tables_at_ell_211_build_within_a_second():
    # the inverse Vandermonde matrix is read off the Lagrange polynomials in
    # O(deg^2); solving the deg x 2deg system took 3.4-3.7 s for these two
    script = """
import time
from qplane import modular
start = time.perf_counter()
tables = [modular.cyclotomic_prime(211, k) for k in (0, 1)]
print(time.perf_counter() - start)
assert [len(vinv) for _, _, vinv in tables] == [210, 210]
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 1.0, done.stdout


def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 5000):
        trial = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert modular.is_prime(n) == trial
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert modular.is_prime(2 ** 61 - 1) and not modular.is_prime(3215031751)


def test_ratrec_recovers_each_fraction_within_the_bound():
    m = 10007 * 10009
    bound = math.isqrt(m // 2)
    for x in (Fraction(0), Fraction(3, 7), Fraction(-70, 71), Fraction(bound), Fraction(-1, bound)):
        u = x.numerator * pow(x.denominator, -1, m) % m
        assert modular.ratrec(u, m, bound) == (x.numerator, x.denominator)
    assert modular.ratrec(pow(2, -1, m) * (bound + 1) % m, m, bound) is None


@st.composite
def packed_inputs(draw):
    """(sparse rows of residues, ncols, p): up to 12 x 14, sides may be 0,
    mod a 30-bit prime of the modular path or a small prime; entries
    random, of rank at most 2, or all p - 1 and near it, where the
    unreduced lanes of the packed rows grow fastest."""
    p = draw(st.sampled_from((2, 7, modular.cyclotomic_prime(3, 0)[0])))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 14))
    kind = draw(st.sampled_from(("random", "low rank", "all p - 1", "near p - 1")))
    if kind == "low rank":
        inner = draw(st.integers(0, 2))
        left = [[draw(st.integers(0, p - 1)) for _ in range(inner)] for _ in range(nrows)]
        right = [[draw(st.integers(0, p - 1)) for _ in range(ncols)] for _ in range(inner)]
        grid = [[sum(a * right[k][j] for k, a in enumerate(row)) % p for j in range(ncols)]
                for row in left]
    else:
        values = {"random": st.integers(0, p - 1), "all p - 1": st.just(p - 1),
                  "near p - 1": st.sampled_from((1, p - 2, p - 1))}[kind]
        grid = [[draw(values) for _ in range(ncols)] for _ in range(nrows)]
    return [{j: v for j, v in enumerate(row) if v} for row in grid], ncols, p


@given(packed_inputs())
# both rows pivot before the last column, so the free columns 2-4 are read
# after every row is a pivot row
@example(([{0: 3, 1: 1, 2: 4, 3: 1, 4: 5}, {0: 2, 1: 6, 2: 5, 4: 3}], 5, 7))
# zero rows, never a pivot, at both ends and between the pivot rows
@example(([{}, {0: 5, 1: 2}, {}, {1: 1}, {0: 3}, {}], 2, modular.cyclotomic_prime(3, 0)[0]))
@settings(max_examples=150, deadline=None)
def test_packed_elimination_mod_p_matches_sympy(case):
    rows, ncols, p = case
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    K = sympy.GF(p)
    dense = [[K(row.get(j, 0)) for j in range(ncols)] for row in rows]
    echelon, cols = DomainMatrix(dense, (len(rows), ncols), K).rref()
    want = [(c, {j: int(x) % p for j, x in enumerate(row) if x})
            for c, row in zip(cols, echelon.to_list())]
    assert modular._rref_mod(rows, ncols, p) == want
