import gc
import hashlib
import json
import os
import random
from fractions import Fraction
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qplane import (INFINITE, FieldContext, JordanSpec, MatrixPair, QMatrix,
                    RelationViolated, conjugate, enumerate_ML, jordan_block,
                    predicted_commutant_dim, q_layered, realize)
from qplane import cli
from qplane.cli import main
from qplane.scalars import MAX_ORDER
from qplane.serialize import (index_to_obj, matrix_to_obj, pair_from_obj,
                              pair_to_obj)
from qplane import ComponentIndex, classify, sample_point

GEN = FieldContext.generic()
C3 = FieldContext.root_of_unity(3)
ONE = {"rows": 1, "cols": 1, "entries": [["1"]]}  # a matrix document
PAIR = {"field": {"type": "cyclotomic", "ell": 3}, "A": ONE, "B": ONE}


def src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_pair(tmp_path, name, pair):
    path = tmp_path / name
    path.write_text(json.dumps(pair_to_obj(pair)))
    return str(path)


def nilpotent_pair(ctx, n, top):
    A = jordan_block(ctx, n, ctx.zero())
    v = [ctx.rational(top)] + [ctx.zero()] * (n - 1)
    return MatrixPair(A, q_layered(n, n, v))


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_count_command(capsys):
    code, out = run(capsys, "count", "--ell", "2", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"count": 4}


def test_count_command_at_large_n(capsys):
    code, out = run(capsys, "count", "--ell", "3", "--n", "5000")
    assert code == 0
    expected = sum((i // 2 + 1) * (((5000 - i + 3) ** 2 + 6) // 12)
                   for i in range(5001))
    assert json.loads(out) == {"count": expected}


def test_chains_command(capsys):
    code, out = run(capsys, "chains", "--ell", "4", "--counts", "3,2,3,1")
    assert code == 0
    assert json.loads(out) == {"m": [2, 0, 1, 1]}


def test_enumerate_command_sorted(capsys):
    code, out = run(capsys, "enumerate", "--ell", "2", "--n", "2")
    assert code == 0
    body = json.loads(out)
    assert body["n"] == 2
    assert len(body["components"]) == 4
    keys = [(tuple(c["m"]), tuple(c["r"])) for c in body["components"]]
    assert keys == sorted(keys)
    dims = {(tuple(c["m"]), tuple(c["r"])): c["dim"] for c in body["components"]}
    assert dims[((0, 1), (0,))] == 5


def test_enumerate_git_types(capsys):
    code, out = run(capsys, "enumerate", "--ell", "2", "--n", "2", "--git")
    assert code == 0
    body = json.loads(out)
    assert len(body["types"]) == 4
    assert all(t["dim"] == 2 for t in body["types"])


def test_enumerate_git_output_is_pinned(capsys):
    # each type is serialize.git_index_to_obj plus its dimension
    code, out = run(capsys, "enumerate", "--ell", "3", "--n", "4", "--git")
    assert code == 0
    assert out == (
        '{"ell": 3, "n": 4, "types": [{"dim": 3, "m": 1, "p": 1, "r": 0}, '
        '{"dim": 3, "m": 0, "p": 1, "r": 1}, {"dim": 4, "m": 4, "p": 0, "r": 0}, '
        '{"dim": 4, "m": 3, "p": 0, "r": 1}, {"dim": 4, "m": 2, "p": 0, "r": 2}, '
        '{"dim": 4, "m": 1, "p": 0, "r": 3}, {"dim": 4, "m": 0, "p": 0, "r": 4}]}\n'
    )


def test_enumerate_infinite_order(capsys):
    code, out = run(capsys, "enumerate", "--ell", "inf", "--n", "2")
    assert code == 0
    body = json.loads(out)
    assert body["ell"] == "inf"
    assert len(body["components"]) == 5


def test_classify_command(capsys, tmp_path):
    path = write_pair(tmp_path, "pair.json", nilpotent_pair(C3, 3, 2))
    code, out = run(capsys, "classify", "--input", path)
    assert code == 0
    assert json.loads(out) == {"m": [0, 0, 1], "r": [0, 0], "n": 3}


def test_commutant_command(capsys, tmp_path):
    A = jordan_block(GEN, 3, GEN.zero())
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_obj(A, with_field=True)))
    code, out = run(capsys, "commutant", "--input", str(path))
    assert code == 0
    body = json.loads(out)
    assert body["dimension"] == 3
    assert len(body["basis"]) == 3


def test_sample_round_trips_through_classify(capsys, tmp_path):
    idx = ComponentIndex(3, m=(1, 1, 0), r=(1, 0))
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(index_to_obj(idx)))
    code, out = run(capsys, "sample", "--ell", "3", "--index", str(path),
                    "--seed", "11")
    assert code == 0
    body = json.loads(out)
    assert body["seed"] == 11
    pair = pair_from_obj(body)
    assert classify(pair) == idx


def test_invariants_command(capsys, tmp_path):
    path = write_pair(tmp_path, "pair.json", nilpotent_pair(GEN, 2, 3))
    code, out = run(capsys, "invariants", "--input", path, "--max-degree", "2")
    assert code == 0
    body = json.loads(out)
    assert body["N"] == 2
    assert body["T"][0][0] == "2"


def test_homext_command(capsys, tmp_path):
    p1 = write_pair(tmp_path, "m1.json", nilpotent_pair(GEN, 2, 3))
    p2 = write_pair(tmp_path, "m2.json", nilpotent_pair(GEN, 2, 3))
    code, out = run(capsys, "homext", "--m1", p1, "--m2", p2)
    assert code == 0
    body = json.loads(out)
    assert body == {"hom": 1, "ext1": 1, "ext2": 0}


def test_classify_command_with_q_twisted_spectrum(capsys, tmp_path):
    q = C3.q()
    lams = [C3.rational(2) * q, C3.rational(2) * q * q]
    g = QMatrix.from_rational_rows(C3, [[1, 1], [1, 2]])
    A = conjugate(g, QMatrix.diagonal(C3, lams))
    B = conjugate(g, QMatrix(C3, [[C3.zero(), C3.zero()], [C3.one(), C3.zero()]]))
    path = write_pair(tmp_path, "pair.json", MatrixPair(A, B))
    code, out = run(capsys, "classify", "--input", path)
    assert code == 0
    idx = classify(JordanSpec(C3, [(lam, [1]) for lam in lams]))
    assert json.loads(out) == dict(index_to_obj(idx), n=idx.n)


def test_output_is_deterministic(capsys, tmp_path):
    idx = ComponentIndex(2, m=(0, 1), r=(0,))
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(index_to_obj(idx)))
    argv = ["sample", "--ell", "2", "--index", str(path), "--seed", "3"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_seed_env_override(capsys, tmp_path, monkeypatch):
    idx = ComponentIndex(2, m=(1, 0), r=(1,))
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(index_to_obj(idx)))
    argv = ["sample", "--ell", "2", "--index", str(path)]

    monkeypatch.delenv("QPLANE_SEED", raising=False)
    _, default_out = run(capsys, *argv)
    assert json.loads(default_out)["seed"] == 0

    monkeypatch.setenv("QPLANE_SEED", "17")
    _, env_out = run(capsys, *argv)
    assert json.loads(env_out)["seed"] == 17

    # explicit flag beats the environment
    _, flag_out = run(capsys, *(argv + ["--seed", "4"]))
    assert json.loads(flag_out)["seed"] == 4


def test_a_seed_does_not_outlive_its_call(capsys, tmp_path, monkeypatch):
    # main parses with one parser for the whole process: --seed 4 in one call
    # leaves the next call without --seed at the default or QPLANE_SEED
    idx = ComponentIndex(2, m=(1, 0), r=(1,))
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(index_to_obj(idx)))
    argv = ["sample", "--ell", "2", "--index", str(path)]
    monkeypatch.delenv("QPLANE_SEED", raising=False)
    _, flag_out = run(capsys, *(argv + ["--seed", "4"]))
    assert json.loads(flag_out)["seed"] == 4
    _, default_out = run(capsys, *argv)
    assert json.loads(default_out)["seed"] == 0
    monkeypatch.setenv("QPLANE_SEED", "17")
    _, env_out = run(capsys, *argv)
    assert json.loads(env_out)["seed"] == 17


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

def test_a_call_after_the_first_leaves_no_cyclic_garbage(capsys):
    # a parser built per call left 302 objects that only the cyclic
    # collector frees
    argv = ["count", "--ell", "3", "--n", "2"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == '{"count": 5}\n' * 2


def test_help_from_the_shared_parser_twice(capsys):
    # split on whitespace: argparse wraps the usage line to the terminal width
    for argv, usage in ((["--help"], ["usage:", "qplane", "[-h]"]),
                        (["sample", "--help"], ["usage:", "qplane", "sample", "[-h]"])):
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().out.split()[:len(usage)] == usage


def test_import_builds_no_parser():
    probe = "import qplane.cli; print(qplane.cli.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_bad_flags_exit_two(capsys):
    assert main(["count", "--ell", "2"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main(["count", "--ell", "zero", "--n", "1"]) == 2
    capsys.readouterr()


def test_missing_file_exits_two(capsys):
    assert main(["classify", "--input", "/does/not/exist.json"]) == 2
    capsys.readouterr()


def test_relation_violation_exits_three(capsys, tmp_path):
    I2 = QMatrix.identity(GEN, 2)
    obj = {"field": GEN.to_obj(), "A": matrix_to_obj(I2), "B": matrix_to_obj(I2)}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["classify", "--input", str(path)]) == 3
    capsys.readouterr()


def test_unfindable_eigenvalues_exit_four(capsys, tmp_path):
    # A = companion matrix of x^2 - 2 q-commutes with B = 0 but has no
    # eigenvalues in the field
    A = QMatrix.from_rational_rows(C3, [[0, 2], [1, 0]])
    pair = MatrixPair(A, QMatrix.zero(C3, 2, 2))
    path = write_pair(tmp_path, "pair.json", pair)
    assert main(["classify", "--input", str(path)]) == 4
    capsys.readouterr()


def test_chains_rejects_bad_counts(capsys):
    assert main(["chains", "--ell", "4", "--counts", "3,x,1"]) == 2
    capsys.readouterr()
    assert main(["chains", "--ell", "4", "--counts", "3,2,1"]) == 2
    capsys.readouterr()


def assert_clean_exit_two(capsys, argv, message=None):
    """Exit 2 with nothing on stdout and one error line on stderr, which is
    `error: message` when a message is given."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    assert out == ""
    if message is not None:
        assert err == f"error: {message}\n"


def test_enumerate_past_the_recursion_limit_exits_two(capsys):
    assert_clean_exit_two(capsys, ["enumerate", "--ell", "inf", "--n", "5000"])


def run_cli_bounded(*argv, timeout=60):
    """The CLI in a fresh interpreter, held to `timeout` seconds and 1 GiB of
    address space, so an input that would run away fails the test instead."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    return subprocess.run([sys.executable, "-m", "qplane.cli", *argv],
                          env=src_env(), capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit_memory)


def lu_conjugate(A, seed):
    """g A g^-1 for g = L U, L lower and U upper unitriangular, their entries
    below and above the diagonal drawn from -1, 1, 2 by random.Random(seed)
    row by row, L first."""
    ctx, n = A.ctx, A.nrows
    r = ctx.rational
    rng = random.Random(seed)
    L = QMatrix(ctx, [[r(1) if i == j else r(rng.choice((-1, 1, 2))) if i > j else r(0)
                       for j in range(n)] for i in range(n)])
    U = QMatrix(ctx, [[r(1) if i == j else r(rng.choice((-1, 1, 2))) if i < j else r(0)
                       for j in range(n)] for i in range(n)])
    return conjugate(L * U, A)


def relation_holds(A, B):
    """AB = qBA, read off dense products of QScalars: the oracle of the
    check in MatrixPair, which forms no product."""
    ctx, a, b, n = A.ctx, A.rows, B.rows, A.nrows
    return all(sum((a[i][k] * b[k][j] for k in range(n)), ctx.zero())
               == ctx.q() * sum((b[i][k] * a[k][j] for k in range(n)), ctx.zero())
               for i in range(n) for j in range(n))


def near_misses(ell):
    """(pair, A, B): each sample point with n <= 4, its L*U conjugate, and
    that conjugate with one entry of B moved by one unit of its denominator,
    at a row i where column i of A has a nonzero off the diagonal, at (r, i)
    say: then AE - qEA, E the move, is nonzero at (r, i), so the moved pair
    breaks AB = qBA.  A conjugate with no such column is left out."""
    ctx = FieldContext.for_order(ell)
    out = []
    for n in range(1, 5):
        for k, idx in enumerate(enumerate_ML(ell, n)):
            M = sample_point(idx, seed=k)
            D = MatrixPair(lu_conjugate(M.A, k), lu_conjugate(M.B, k))
            hit = next(((r, i) for r, i, _ in D.A.nonzeros() if r != i), None)
            if hit is not None:
                r, i = hit
                unit = ctx.rational(Fraction(1, D.B[i, i].int_den[0]))
                out.append((D, D.A, D.B + QMatrix.sparse(ctx, n, n, [(i, i, unit)])))
    return out


RELATION_ORDERS = (1, 2, 3, 4, 5, 8, 12, INFINITE)


@pytest.mark.parametrize("ell", RELATION_ORDERS)
def test_the_relation_check_accepts_sample_points_and_refuses_near_misses(ell):
    ctx = FieldContext.for_order(ell)
    swapped = 0
    for n in range(1, 5):
        for k, idx in enumerate(enumerate_ML(ell, n)):
            M = sample_point(idx, seed=k)  # the check runs on construction
            D = MatrixPair(lu_conjugate(M.A, k), lu_conjugate(M.B, k))
            assert relation_holds(M.A, M.B) and relation_holds(D.A, D.B)
            # the pair with the roles swapped has BA = qAB; it breaks AB = qBA
            # unless q^2 = 1 or BA = 0
            if relation_holds(D.B, D.A):
                MatrixPair(D.B, D.A)
            else:
                swapped += 1
                with pytest.raises(RelationViolated, match="^AB = qBA fails for this pair$"):
                    MatrixPair(D.B, D.A)
    assert swapped >= 15 or ell <= 2
    misses = near_misses(ell)
    assert len(misses) >= 3 * sum(len(enumerate_ML(ell, n)) for n in range(1, 5)) // 4
    for _, A, B in misses:
        assert not relation_holds(A, B)
        with pytest.raises(RelationViolated, match="^AB = qBA fails for this pair$"):
            MatrixPair(A, B)
    for n in (1, 2, 4):
        identity = QMatrix.identity(ctx, n)
        if ell == 1:
            MatrixPair(identity, identity)
        else:
            with pytest.raises(RelationViolated, match="^AB = qBA fails for this pair$"):
                MatrixPair(identity, identity)
    if ell >= 3:  # BA = qAB with BA != 0, and a conjugate of it
        A = QMatrix.diagonal(ctx, [ctx.one(), ctx.q()])
        B = QMatrix.sparse(ctx, 2, 2, [(0, 1, ctx.one())])
        assert B * A == (A * B).scale(ctx.q()) and not relation_holds(A, B)
        for X, Y in ((A, B), (lu_conjugate(A, 1), lu_conjugate(B, 1))):
            with pytest.raises(RelationViolated, match="^AB = qBA fails for this pair$"):
                MatrixPair(X, Y)


@pytest.mark.parametrize("ell", RELATION_ORDERS)
def test_classify_of_a_near_miss_exits_three(ell, capsys, tmp_path):
    D, A, B = near_misses(ell)[-1]
    obj = pair_to_obj(D)
    obj["B"] = matrix_to_obj(B)
    path = tmp_path / "near_miss.json"
    path.write_text(json.dumps(obj))
    assert main(["classify", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: AB = qBA fails for this pair\n"


def test_commutant_of_a_dense_ten_by_ten_conjugate_stays_fast(tmp_path):
    # exact elimination of its 100 x 100 operator took 13-17 s on a 2-core
    # VM; images mod primes, certified exact, take well under a second
    r, q = C3.rational, C3.q()
    spec = JordanSpec(C3, [(r(7), (2, 1)), (r(7) * q, (1, 1)),
                           (r(11), (2, 1)), (r(11) * q, (1, 1))])
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(matrix_to_obj(lu_conjugate(realize(spec), 10), with_field=True)))
    done = run_cli_bounded("commutant", "--input", str(path), timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["dimension"] == predicted_commutant_dim(spec) == 8


@pytest.mark.parametrize("ell", [101, 211])
def test_commutant_of_a_dense_three_by_three_conjugate_at_high_order_stays_fast(ell, tmp_path):
    # the dense conjugate of the m = (0, 0, 1) sample point, as the CI step
    # builds it: its 9 x 9 operator has 45 nonzeros, and exact elimination,
    # where each pivot inverse is a norm over Q(zeta_ell), took about 45 s
    # at ell 101 on a 2-core VM; images mod primes take well under a second
    m = (0, 0, 1) + (0,) * (ell - 3)
    A = lu_conjugate(sample_point(ComponentIndex(ell, m, (0,) * (ell - 1)), seed=0).A, 5)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(matrix_to_obj(A, with_field=True)))
    done = run_cli_bounded("commutant", "--input", str(path), timeout=5)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["dimension"] == 2


def exponent_cliff_pair(n=8, top=10000):
    """A = diag(q^top, q^(top-1), ...) and (1)/(q^2) on B's superdiagonal,
    over Q(q): one q-chain of length n at exponents near top."""
    A = [["0"] * n for _ in range(n)]
    B = [["0"] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = f"q^{top - i}"
        if i + 1 < n:
            B[i][i + 1] = "(1)/(q^2)"
    return {"A": {"rows": n, "cols": n, "entries": A},
            "B": {"rows": n, "cols": n, "entries": B},
            "field": {"type": "generic_q"}}


def test_classify_with_exponents_near_ten_thousand_answers_in_time(tmp_path):
    # the pseudo-remainders of the Q(q) gcds once rescaled the whole
    # remainder at every step, quadratic in the exponent: about 25 s on a
    # 2-core VM
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(exponent_cliff_pair()))
    done = run_cli_bounded("classify", "--input", str(path), timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"m": {"8": 1}, "n": 8, "r": {}}


def test_classify_of_a_large_integer_spectrum_answers_in_time(tmp_path):
    # A = conjugate([[1, 1], [1, 2]], diag(10^12, 10^12 + 1)) at ell 3, as
    # in the CI step: trial division of its char poly's constant coefficient
    # gave no answer within 5 s
    entries = [["999999999999", "1"], ["-2", "1000000000002"]]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(dict(PAIR, A=dict(ONE, rows=2, cols=2, entries=entries),
                                    B=dict(ONE, rows=2, cols=2, entries=[["0"] * 2] * 2))))
    done = run_cli_bounded("classify", "--input", str(path), timeout=5)
    assert done.returncode == 0, done.stderr
    assert done.stdout == '{"m": [2, 0, 0], "n": 2, "r": [0, 0]}\n'


def test_enumerate_bounds_its_output_before_building_it():
    # at ell = inf the index count grows about 4x per +4 in n: n = 100
    # would list more than memory holds.  At a finite ell each index holds
    # ell + ell - 1 counts: ell = 10^4, n = 24 lists 94235 indices, under
    # MAX_LISTED, but about 1.9 * 10^9 counts, and ran out of memory
    for ell, n in (("inf", 100), ("2", 10 ** 12), ("10000", 24)):
        done = run_cli_bounded("enumerate", "--ell", ell, "--n", str(n), timeout=10)
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: input too large: ")
        assert "out of memory" not in lines[0]
    assert lines[0] == ("error: input too large: more than 5000000 index counts"
                        " at ell = 10000, n = 24")
    done = run_cli_bounded("enumerate", "--ell", "inf", "--n", "16")
    assert done.returncode == 0
    assert len(json.loads(done.stdout)["components"]) == 5822
    # 94235 indices of 27 + 26 counts each, just under the bound
    done = run_cli_bounded("enumerate", "--ell", "27", "--n", "24")
    assert done.returncode == 0, done.stderr
    components = json.loads(done.stdout)["components"]
    assert len(components) == 94235
    assert sum(len(c["m"]) + len(c["r"]) for c in components) == 94235 * 53 < cli.MAX_WRITTEN


def test_enumerate_git_bounds_its_output_before_building_it():
    # about 10^8 closed-orbit types at ell = 2, n = 20000
    done = run_cli_bounded("enumerate", "--git", "--ell", "2", "--n", "20000", timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input too large: ")


def test_invariants_bounds_its_grid_before_building_it(tmp_path):
    # the grid has (N + 1)^2 entries and needs N powers of each matrix:
    # N = 100000 would run until memory is gone
    pair = sample_point(ComponentIndex(3, m=(0, 0, 1), r=(0, 0)), seed=0)
    path = write_pair(tmp_path, "pair.json", pair)
    done = run_cli_bounded("invariants", "--input", path, "--max-degree", "100000",
                           timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input too large: ")
    done = run_cli_bounded("invariants", "--input", path, "--max-degree", "300")
    assert done.returncode == 0
    body = json.loads(done.stdout)
    assert body["N"] == 300 and len(body["T"]) == 301


def test_width_one_answers_without_walking_to_n():
    # at ell = 1 the only index is m = (n,), r = ()
    n = 10 ** 9
    done = run_cli_bounded("enumerate", "--ell", "1", "--n", str(n), timeout=10)
    assert done.returncode == 0
    listed = json.loads(done.stdout)["components"]
    assert [(entry["m"], entry["r"]) for entry in listed] == [([n], [])]
    done = run_cli_bounded("count", "--ell", "1", "--n", str(n), timeout=10)
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"count": 1}


def test_chains_at_a_thousand_slots_answers_in_time():
    # sums of cyclic window minima, one running minimum per window start,
    # were quadratic in ell
    counts = [1 + (k * k) % 11 for k in range(1000)]
    done = run_cli_bounded("chains", "--ell", "1000",
                           "--counts", ",".join(map(str, counts)), timeout=10)
    assert done.returncode == 0
    m = json.loads(done.stdout)["m"]
    assert len(m) == 1000
    assert sum((i + 1) * c for i, c in enumerate(m)) == sum(counts)


def test_count_of_an_unindexable_n_exits_two(capsys):
    assert_clean_exit_two(capsys, ["count", "--ell", "3", "--n", str(10 ** 20)])


def partition_numbers(n):
    """p(0..n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        j, total = 1, 0
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            total += sign * p[k - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= k:
                total += sign * p[k - j * (3 * j + 1) // 2]
            j += 1
        p[k] = total
    return p


def test_count_bounds_its_table_work_before_building_it():
    # the tables take about min(ell, n) * n additions: 10^10, 3 * 10^9 and
    # 10^12 here, against minutes of work or gigabytes of entries
    for ell, n in (("inf", 10 ** 5), ("3", 10 ** 9), ("1000000", 10 ** 6)):
        done = run_cli_bounded("count", "--ell", ell, "--n", str(n), timeout=10)
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: input too large: ")
    # below the bound the counts are exact: at ell = inf the sum of
    # p(i) p(n - i), at ell = 3 of p_2(i) p_3(n - i) in closed form
    p = partition_numbers(4000)
    n = 10 ** 6
    expected = {("inf", 4000): sum(p[i] * p[4000 - i] for i in range(4001)),
                ("3", n): sum((i // 2 + 1) * (((n - i + 3) ** 2 + 6) // 12)
                              for i in range(n + 1))}
    for (ell, n), count in expected.items():
        done = run_cli_bounded("count", "--ell", ell, "--n", str(n), timeout=10)
        assert done.returncode == 0
        assert json.loads(done.stdout) == {"count": count}


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_count", exhausted)
    assert_clean_exit_two(capsys, ["count", "--ell", "3", "--n", "5"])


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # as `qplane enumerate --ell 3 --n 12 | head -c 10`: the reader takes 10
    # bytes and closes the pipe.  The n = 12 listing is 10753 bytes, which
    # the pipe may hold whole; the n = 24 one is 98255 bytes, more than a
    # 64 KiB pipe holds, so a write always meets the closed pipe.  Buffered,
    # the last write is the flush; unbuffered, every chunk is written as made
    for n in ("12", "24"):
        for unbuffered in ("", "1"):
            env = dict(src_env(), PYTHONUNBUFFERED=unbuffered)
            child = subprocess.Popen(
                [sys.executable, "-m", "qplane.cli", "enumerate", "--ell", "3", "--n", n],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            assert child.stdout.read(10) == b'{"componen'
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=60) == 0, stderr
            assert stderr == b""


def test_sample_draws_bases_past_the_small_rationals(tmp_path):
    # 60 one-by-one summands need 60 pairwise non-q-equivalent bases, more
    # than the 55 rationals num/den with 1 <= num, den <= 9
    for ell, index in (("2", {"m": [60, 0], "r": [0]}),
                       ("inf", {"m": {"1": 60}, "r": {}})):
        path = tmp_path / f"index_{ell}.json"
        path.write_text(json.dumps(index))
        done = run_cli_bounded("sample", "--ell", ell, "--index", str(path), timeout=10)
        assert done.returncode == 0
        pair = pair_from_obj(json.loads(done.stdout))  # checks AB = qBA
        assert len({pair.A[i, i] for i in range(60)}) == 60


def test_generic_exponent_above_the_parser_cap_exits_two(capsys, tmp_path):
    obj = matrix_to_obj(QMatrix.identity(GEN, 1), with_field=True)
    obj["entries"] = [["q^" + str(10 ** 20)]]
    path = tmp_path / "A.json"
    path.write_text(json.dumps(obj))
    assert_clean_exit_two(capsys, ["commutant", "--input", str(path)])


def test_an_entry_grid_that_is_not_a_list_of_lists_exits_two(capsys, tmp_path):
    # each once reached len() or was read character by character
    for rows, cols, entries in ((1, 1, 5), (1, 1, [7]), (2, 1, "ab")):
        obj = pair_to_obj(MatrixPair(QMatrix.zero(C3, 1, 1), QMatrix.zero(C3, 1, 1)))
        obj["A"] = {"rows": rows, "cols": cols, "entries": entries}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(obj))
        assert main(["classify", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: entry grid must be a list of lists\n"


def test_a_json_boolean_is_not_an_integer(capsys, tmp_path):
    # bool is a subclass of int, so each of these once exited 0: a 1x1
    # matrix, an index m = (1,) and the field ell = 1
    one_by_one = pair_to_obj(MatrixPair(QMatrix.zero(C3, 1, 1), QMatrix.zero(C3, 1, 1)))
    pair = dict(one_by_one, A={"rows": True, "cols": True, "entries": [["1"]]})
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert_clean_exit_two(capsys, ["classify", "--input", str(path)])
    pair = dict(one_by_one, field={"type": "cyclotomic", "ell": True})
    path.write_text(json.dumps(pair))
    assert_clean_exit_two(capsys, ["classify", "--input", str(path)])
    for index in ({"m": [True], "r": []}, {"m": {"1": True}, "r": {}}):
        path = tmp_path / "index.json"
        path.write_text(json.dumps(index))
        assert_clean_exit_two(capsys, ["sample", "--ell", "2", "--index", str(path)])


def test_matrices_of_different_sizes_exit_two(capsys, tmp_path):
    # a malformed document, not a pair that violates AB = qBA (exit 3)
    obj = {"field": C3.to_obj(), "A": matrix_to_obj(QMatrix.zero(C3, 1, 1)),
           "B": matrix_to_obj(QMatrix.zero(C3, 2, 2))}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(obj))
    for command in ("classify", "invariants"):
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: sizes differ: 1 vs 2\n"


def matrix_doc(field, text):
    return {"field": field, "rows": 1, "cols": 1, "entries": [[text]]}


REFUSALS = {  # name: (subcommand, its file flag, document, the message)
    "pair_not_an_object": ("classify", "--input", [1], "pair must be a JSON object"),
    "pair_without_B": ("classify", "--input", {"field": PAIR["field"], "A": ONE},
                       "pair object lacks the 'B' key"),
    "matrix_not_an_object": ("commutant", "--input", [], "matrix must be a JSON object"),
    "matrix_without_field": ("commutant", "--input", ONE,
                             "matrix object needs a 'field' key"),
    "matrix_without_entries": ("commutant", "--input", {"field": {"type": "generic_q"},
                                                        "rows": 1, "cols": 1},
                               "matrix object lacks key 'entries'"),
    "index_not_an_object": ("sample", "--index", [1], "component index must be a JSON object"),
    "index_without_keys": ("sample", "--index", {}, "component index lacks the 'm' key"),
    "index_with_a_misspelt_key": ("sample", "--index", {"M": [1, 0, 0], "r": [0, 0]},
                                  "component index lacks the 'm' key"),
    "index_without_r": ("sample", "--index", {"m": [1, 0, 0]},
                        "component index lacks the 'r' key"),
    # int() read each of these keys, so "01" overwrote "1" and "1_0" was 10
    "index_with_a_duplicate_size_key": ("sample", "--index", {"m": {"1": 1, "01": 2}, "r": {}},
                                        "'m' keys must be block sizes >= 1 in decimal, got '01'"),
    "index_with_a_signed_key": ("sample", "--index", {"m": {"+1": 1}, "r": {}},
                                "'m' keys must be block sizes >= 1 in decimal, got '+1'"),
    "index_with_an_underscored_key": ("sample", "--index", {"m": {}, "r": {"1_0": 1}},
                                      "'r' keys must be block sizes >= 1 in decimal, got '1_0'"),
    "index_with_a_block_above_the_order": (
        "sample", "--index", {"m": {}, "r": {"3": 1}},
        "'r' has a block size 3 above 2, the largest at this order"),
    "field_without_type": ("classify", "--input", dict(PAIR, field={"ell": 3}),
                           "field context must be an object with a 'type' key"),
    "field_of_unknown_type": ("classify", "--input", dict(PAIR, field={"type": "padic"}),
                              "unknown field context type 'padic'"),
    "empty_scalar": ("commutant", "--input", matrix_doc(PAIR["field"], ""),
                     "empty scalar expression (at position 0)"),
    "leading_plus": ("commutant", "--input", matrix_doc(PAIR["field"], "+1"),
                     "unexpected leading '+' (at position 0)"),
    "zero_denominator": ("commutant", "--input", matrix_doc({"type": "generic_q"}, "(1)/(0)"),
                         "zero denominator polynomial"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_malformed_document_is_refused_with_one_line(capsys, tmp_path, name):
    command, flag, document, message = REFUSALS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argv = [command, flag, str(path)] + (["--ell", "3"] if command == "sample" else [])
    assert_clean_exit_two(capsys, argv, message)


def test_a_sparse_key_above_the_order_is_refused_before_any_counts_are_built(tmp_path):
    # the dense counts up to the key were built before the order was checked:
    # 1.9 s for the key 10^7, minutes for 10^9
    path = tmp_path / "index.json"
    path.write_text(json.dumps({"m": {"1000000000": 1}, "r": {}}))
    done = run_cli_bounded("sample", "--ell", "3", "--index", str(path), timeout=5)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: 'm' has a block size 1000000000 above 3, "
                           "the largest at this order\n")


def test_a_sample_too_large_is_refused_before_any_counts_are_built(tmp_path):
    # at ell = inf no order bounds a key: {"1000": 1} wrote a 10 MB grid, and
    # the key 10^9 asked for 10^9 counts before anything else ran; a negative
    # count is malformed whatever its size, and is refused as such
    path = tmp_path / "index.json"
    large = "input too large: the index names blocks of total size {}, above " + str(
        cli.MAX_SAMPLE_N)
    for counts, message in (({"1000": 1}, large.format(1000)),
                            ({"1000000000": 1}, large.format(10 ** 9)),
                            ({"1000000000": -1}, "'m' counts must be nonnegative")):
        path.write_text(json.dumps({"m": counts, "r": {}}))
        done = run_cli_bounded("sample", "--ell", "inf", "--index", str(path), timeout=5)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"error: {message}\n"


def test_an_order_above_the_bound_is_refused_before_anything_is_built(tmp_path):
    # sample at ell 10^6 and a 1x1 matrix at ell 10^6 spent over 20 s
    # building Phi_ell, and at ell 10^9 the index padded its counts to ell
    # until memory ran out
    index, matrix = tmp_path / "index.json", tmp_path / "matrix.json"
    index.write_text(json.dumps({"m": [1], "r": []}))
    matrix.write_text(json.dumps({"field": {"type": "cyclotomic", "ell": 10 ** 6},
                                  "rows": 1, "cols": 1, "entries": [["1"]]}))
    message = "error: input too large: the order of q may be at most {}, got {}\n"
    for argv, ell in ((("sample", "--ell", "1000000", "--index", str(index)), 10 ** 6),
                      (("sample", "--ell", "1000000000", "--index", str(index)), 10 ** 9),
                      (("commutant", "--input", str(matrix)), 10 ** 6)):
        done = run_cli_bounded(*argv, timeout=5)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == message.format(MAX_ORDER, ell)


def test_a_sample_at_the_size_bound_is_written(capsys, tmp_path):
    # a zero count names no block, however large its size
    top = cli.MAX_SAMPLE_N
    path = tmp_path / "index.json"
    path.write_text(json.dumps({"m": {str(top): 1, "1000000000": 0}, "r": {}}))
    done = run_cli_bounded("sample", "--ell", "inf", "--index", str(path), timeout=5)
    assert done.returncode == 0
    assert json.loads(done.stdout)["A"]["rows"] == top
    path.write_text(json.dumps({"m": [1, 0, 0], "r": [0, top // 2]}))
    assert_clean_exit_two(capsys, ["sample", "--ell", "3", "--index", str(path)],
                          f"input too large: the index names blocks of total size {top + 1}, "
                          f"above {top}")


def test_invalid_json_and_a_non_integer_seed_are_refused_with_one_line(
        capsys, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text("{")
    with pytest.raises(json.JSONDecodeError) as decode_error:
        json.loads("{")
    assert_clean_exit_two(capsys, ["classify", "--input", str(path)],
                          f"{path} is not valid JSON: {decode_error.value}")
    path.write_text(json.dumps({"m": [1, 0], "r": [0]}))
    monkeypatch.setenv("QPLANE_SEED", "x")
    assert_clean_exit_two(capsys, ["sample", "--ell", "3", "--index", str(path)],
                          "QPLANE_SEED must be an integer, got 'x'")


def test_the_document_is_written_in_one_call(monkeypatch):
    # json.dump wrote the 10753-byte listing in 4745 chunks, each a system
    # call of its own under PYTHONUNBUFFERED=1
    class CountingStdout:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            pass

    fake = CountingStdout()
    monkeypatch.setattr(sys, "stdout", fake)
    assert main(["enumerate", "--ell", "3", "--n", "12"]) == 0
    assert len(fake.writes) == 1
    text = fake.writes[0]
    assert len(text) == 10753 and text.endswith("\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aad3cb20b926ba3edf3f3d7af30854b0eb8abcc90242231815d84b3673b6b072")


def test_import_loads_only_the_standard_library():
    # the library stays stdlib-only: importing it pulls in no third-party module
    probe = ("import sys; before = set(sys.modules); import qplane, qplane.cli; "
             "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                         capture_output=True, text=True).stdout.split()
    assert "qplane.cli" in out
    foreign = [name for name in out if name.split(".")[0] != "qplane"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
