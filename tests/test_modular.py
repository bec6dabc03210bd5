import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
