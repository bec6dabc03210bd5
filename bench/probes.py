"""Robustness probes: inputs that qplane's CLI should answer but does not.

Each probe runs ``python -m qplane.cli`` in a fresh process with a
deadline, one at a time; a fresh process keeps the partial fill of
``restricted_partition_count``'s cache out of the picture.  The expected
answer comes from a path independent of the one probed: a table count of
partitions, or ``classify`` of the known Jordan data.  Probes are never
timed and never dropped; a failing probe is counted, not hidden.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PROBE_DEADLINE_S = 10.0


def _spectrum_answer(ctx, eigenvalues):
    import qplane as Q
    from qplane.serialize import index_to_obj
    spec = Q.JordanSpec(ctx, [(lam, (1,)) for lam in eigenvalues])
    idx = Q.classify(spec)
    out = index_to_obj(idx)
    out["n"] = idx.n
    return out


def _pair_file(path: Path, pair) -> str:
    from qplane.serialize import pair_to_obj
    path.write_text(json.dumps(pair_to_obj(pair), sort_keys=True))
    return str(path)


def build_probes(workdir: Path):
    """(name, CLI arguments, expected JSON answer) for each probe."""
    import qplane as Q
    from workloads import iterative_count_ml

    probes = [("count_ell3_n5000", ["count", "--ell", "3", "--n", "5000"],
               {"count": iterative_count_ml(3, 5000)})]

    # dense conjugate of diag(2q, 2q^2): no rational member in the q-orbit
    ctx = Q.FieldContext.root_of_unity(3)
    q = ctx.q()
    lams = [ctx.rational(2) * q, ctx.rational(2) * q * q]
    A0 = Q.QMatrix.diagonal(ctx, lams)
    B0 = Q.QMatrix(ctx, [[ctx.zero(), ctx.zero()], [ctx.one(), ctx.zero()]])
    g = Q.QMatrix.from_rational_rows(ctx, [[1, 1], [1, 2]])
    gi = Q.inverse(g)
    pair = Q.MatrixPair(g * A0 * gi, g * B0 * gi)
    probes.append(("dense_diag_2q_2q2_ell3",
                   ["classify", "--input", _pair_file(workdir / "probe_orbit.json", pair)],
                   _spectrum_answer(ctx, lams)))

    # huge but plain integer spectrum: trial division up to sqrt(|c0|)
    big = [ctx.rational(10 ** 12), ctx.rational(10 ** 12 + 1)]
    pair = Q.MatrixPair(Q.QMatrix.diagonal(ctx, big), Q.QMatrix.zero(ctx, 2, 2))
    probes.append(("diag_1e12_ell3",
                   ["classify", "--input", _pair_file(workdir / "probe_big.json", pair)],
                   _spectrum_answer(ctx, big)))
    return probes


def run_probes(workdir: Path, env) -> list:
    """Run every probe; returns (name, passed, detail) triples."""
    results = []
    for name, argv, expected in build_probes(workdir):
        cmd = [sys.executable, "-m", "qplane.cli", *argv]
        try:
            done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=PROBE_DEADLINE_S)
        except subprocess.TimeoutExpired:
            results.append((name, False, f"no answer within {PROBE_DEADLINE_S:g} s"))
            continue
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or [""])[-1]
            results.append((name, False, f"exit {done.returncode}: {last[:120]}"))
            continue
        try:
            got = json.loads(done.stdout)
        except json.JSONDecodeError:
            got = None
        if got != expected:
            results.append((name, False, f"wrong answer {done.stdout.strip()[:120]!r}"))
        else:
            results.append((name, True, "ok"))
    return results
