"""Command-line front end.

Every subcommand reads JSON files and/or flags and writes one JSON document
to standard output.  Exit codes: 0 success, 2 invalid input or flags
(including input too large for the recursion, index, listing or counting
limits, or for memory),
3 the input pair violates AB = qBA, 4 a spectrum could not be resolved in
the coefficient field.  A reader that closes standard output early (as
``| head`` does) ends the run with 0 and no message.  The default seed is 0,
overridden by the QPLANE_SEED environment variable, overridden in turn by
--seed.
"""

import argparse
import json
import os
import sys

from .classify import classify
from .commutant import hom_ext, qcommutant_basis
from .components import dim_component, enumerate_ML, count_ML, sample_point
from .chains import associated_sequence
from .errors import (EigenvaluesNotFound, ParseError, QPlaneError,
                     RelationViolated)
from .git_quotient import count_TPL, dim_git, enumerate_TPL, trace_fingerprint
from .serialize import (ell_from_obj, ell_to_obj, fingerprint_to_obj,
                        git_index_to_obj, index_from_obj, index_to_obj,
                        matrix_from_obj, matrix_to_obj, pair_from_obj,
                        pair_to_obj)

DEFAULT_SEED = 0
MAX_LISTED = 100_000  # n = 24 at ell = inf lists 94235 indices (1.4 s, 44 MB)
MAX_COUNT_WORK = 20_000_000  # table additions; ell = 2, n = 10^7 takes 5 s and 0.5 GB
# n of a sampled pair; at ell = inf one nilpotent-kind block of size 200,
# the slowest shape measured, takes 1.25 s and 77 MB (size 300: 3.2 s and
# 0.2 GB), and the pair is 0.5 MB of JSON (n = 1000: 10 MB)
MAX_SAMPLE_N = 200


def _parse_ell(text: str):
    if text.lower() in ("inf", "infinity", "oo"):
        return ell_from_obj("inf")
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"--ell must be a positive integer or 'inf', got {text!r}") from None
    return ell_from_obj(value)


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from None


def _emit(obj) -> int:
    # one write: json.dump writes each encoder chunk (a system call each, unbuffered)
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()  # here, so that a closed pipe raises inside main
    return 0


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QPLANE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"QPLANE_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _cmd_enumerate(args) -> int:
    ell = _parse_ell(args.ell)
    if args.git:
        if count_TPL(ell, args.n) > MAX_LISTED:
            raise OverflowError(f"more than {MAX_LISTED} closed-orbit types at n = {args.n}")
        types = enumerate_TPL(ell, args.n)
        body = [git_index_to_obj(t) | {"dim": dim_git(t, ell, args.n)} for t in types]
        return _emit({"ell": ell_to_obj(ell), "n": args.n, "types": body})
    # count_ML never falls as n grows, and at every ell >= 2 it is past
    # MAX_LISTED by n = 1000, so counting at min(n, 1000) is enough
    if count_ML(ell, min(args.n, 1000)) > MAX_LISTED:
        raise OverflowError(f"more than {MAX_LISTED} component indices at n = {args.n}")
    indices = sorted(enumerate_ML(ell, args.n), key=lambda i: (i.m, i.r))
    body = []
    for idx in indices:
        entry = index_to_obj(idx)
        entry["dim"] = dim_component(idx)
        body.append(entry)
    return _emit({"ell": ell_to_obj(ell), "n": args.n, "components": body})


def _cmd_count(args) -> int:
    ell = _parse_ell(args.ell)
    # count_ML fills tables of n + 1 entries with about min(ell, n) * n
    # additions, and none at ell = 1
    if ell != 1 and min(ell, args.n) * max(args.n, 0) > MAX_COUNT_WORK:
        raise OverflowError(f"more than {MAX_COUNT_WORK} table additions at n = {args.n}")
    return _emit({"count": count_ML(ell, args.n)})


def _cmd_classify(args) -> int:
    pair = pair_from_obj(_load_json(args.input))
    idx = classify(pair)
    out = index_to_obj(idx)
    out["n"] = idx.n
    return _emit(out)


def _cmd_commutant(args) -> int:
    A = matrix_from_obj(_load_json(args.input))
    basis = qcommutant_basis(A)
    return _emit({
        "dimension": len(basis),
        "basis": [matrix_to_obj(B) for B in basis],
    })


def _cmd_sample(args) -> int:
    ell = _parse_ell(args.ell)
    idx = index_from_obj(_load_json(args.index), ell, MAX_SAMPLE_N)
    seed = _seed_from(args)
    pair = sample_point(idx, seed=seed)
    out = pair_to_obj(pair)
    out["seed"] = seed
    return _emit(out)


def _cmd_invariants(args) -> int:
    pair = pair_from_obj(_load_json(args.input))
    N = pair.size if args.max_degree is None else args.max_degree
    # the grid has (N + 1)^2 entries and needs about N powers of each matrix
    if N > 0 and (N + 1) ** 2 > MAX_LISTED:
        raise OverflowError(f"more than {MAX_LISTED} trace invariants at degree {N}")
    fp = trace_fingerprint(pair, N)
    return _emit(fingerprint_to_obj(fp))


def _cmd_homext(args) -> int:
    m1 = pair_from_obj(_load_json(args.m1))
    m2 = pair_from_obj(_load_json(args.m2))
    report = hom_ext(m1, m2)
    return _emit({
        "hom": report.hom_dim,
        "ext1": report.ext1_dim,
        "ext2": report.ext2_dim,
    })


def _cmd_chains(args) -> int:
    ell = _parse_ell(args.ell)
    text = args.counts.strip()
    try:
        counts = tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise ParseError(f"--counts must be comma-separated integers, got {args.counts!r}") from None
    try:
        m = associated_sequence(counts, ell)
    except ValueError as err:
        raise ParseError(str(err)) from None
    return _emit({"m": list(m)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplane",
        description="Exact computations on q-commuting matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="list components (or closed-orbit types) with dimensions")
    enum.add_argument("--ell", required=True, help="order of q, or 'inf'")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--git", action="store_true", help="enumerate closed-orbit types instead")
    enum.set_defaults(func=_cmd_enumerate)

    count = sub.add_parser("count", help="closed-form component count")
    count.add_argument("--ell", required=True)
    count.add_argument("--n", type=int, required=True)
    count.set_defaults(func=_cmd_count)

    cls = sub.add_parser("classify", help="component index of a pair file")
    cls.add_argument("--input", required=True, help="pair JSON path")
    cls.set_defaults(func=_cmd_classify)

    comm = sub.add_parser("commutant", help="basis of {B : AB = qBA} for a matrix file")
    comm.add_argument("--input", required=True, help="matrix JSON path")
    comm.set_defaults(func=_cmd_commutant)

    smp = sub.add_parser("sample", help="sample a generic point of a component")
    smp.add_argument("--ell", required=True)
    smp.add_argument("--index", required=True, help="component index JSON path")
    smp.add_argument("--seed", type=int, default=None)
    smp.set_defaults(func=_cmd_sample)

    inv = sub.add_parser("invariants", help="trace fingerprint of a pair file")
    inv.add_argument("--input", required=True)
    inv.add_argument("--max-degree", type=int, default=None)
    inv.set_defaults(func=_cmd_invariants)

    hx = sub.add_parser("homext", help="Hom/Ext dimensions between two pair files")
    hx.add_argument("--m1", required=True)
    hx.add_argument("--m2", required=True)
    hx.set_defaults(func=_cmd_homext)

    ch = sub.add_parser("chains", help="per-length chain counts of a multiplicity vector")
    ch.add_argument("--ell", required=True)
    ch.add_argument("--counts", required=True, help="comma-separated multiplicities")
    ch.set_defaults(func=_cmd_chains)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        # argparse exits with 2 on bad flags already; normalize other codes
        return 2 if exit_err.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped reading (`| head`): not an error.  Point stdout
        # at the null device so that the interpreter's exit flush of what is
        # left in its buffer stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except RelationViolated as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except EigenvaluesNotFound as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (QPlaneError, ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RecursionError, OverflowError) as err:
        print(f"error: input too large: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
