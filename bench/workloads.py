"""The three benchmark workloads: seeded task lists with exact checks.

A workload is a list of Task objects built from ``--seed``.  Each task has
``make()`` (builds fresh inputs, untimed), ``run(inputs)`` (the timed call
into qplane) and ``check(inputs, output)`` (the exact check, untimed; it
returns an error string or None).  Every pass rebuilds its inputs, so
repeated passes hand qplane equal values in fresh objects.

All qplane calls go through module attributes (``Q.classify``, ``C.main``)
at call time, so the traced run sees them after it patches the modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import qplane as Q
import qplane.cli as C
import qplane.serialize as S

INF = Q.INFINITE

# The n=5 generic index past the squarefree-gcd cliff.  Generic classify
# times swing with the sampled values: 6-14 s on this index across sample
# seeds, 0.4-2.3 s on (1,0,1) at n=4, up to 2x on other n=4 indices.  So
# generic_q samples every index at a fixed sample seed (the two above at
# seeds measured near their median cost); --seed there varies the commutant
# eigenvalues and the Jacobian points, not the classify inputs.
CLIFF_INDEX = ((3, 1), ())
GENERIC_SAMPLE_SEED = 0
PINNED_SAMPLE_SEEDS = {((3, 1), ()): 1, ((1, 0, 1), ()): 3}


class Task:
    __slots__ = ("name", "make", "run", "check")

    def __init__(self, name, make, run, check):
        self.name = name
        self.make = make
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# independent reference values computed by the benchmark itself
# ---------------------------------------------------------------------------

def partitions_at_most(s: int, top: int):
    """p_s(t) for t = 0..top: partitions of t into parts of size <= s."""
    table = [1] + [0] * top
    for part in range(1, s + 1):
        for t in range(part, top + 1):
            table[t] += table[t - part]
    return table


def iterative_count_ml(ell, n: int) -> int:
    """Component count sum_i p_{ell-1}(i) * p_ell(n-i), by tables."""
    if ell is INF:
        p = partitions_at_most(n, n)
        return sum(p[i] * p[n - i] for i in range(n + 1))
    low = partitions_at_most(ell - 1, n)
    high = partitions_at_most(ell, n)
    return sum(low[i] * high[n - i] for i in range(n + 1))


def tpl_count(ell, n: int) -> int:
    """Number of closed-orbit types (p, m, r) with ell*p + m + r = n."""
    if ell == 1:
        return 1
    if ell is INF:
        return n + 1
    return sum(n - ell * p + 1 for p in range(n // ell + 1))


def block_sizes(idx):
    """(size, dense kind?) of the summands sample_point stacks, in order."""
    out = []
    for i, c in enumerate(idx.m):
        out.extend([(i + 1, True)] * c)
    for j, c in enumerate(idx.r):
        out.extend([(j + 1, False)] * c)
    return out


def expected_fingerprint(pair, idx):
    """Tr(A^i B^j) of a sample_point pair, from its diagonals alone.

    Every summand is upper triangular except the full-cycle kind, so the
    trace is sum_k A_kk^i B_kk^j there; a full-cycle summand has B^ell = c*I
    with c the product of its cyclic entries, so it adds c^(j/ell) sum_k
    A_kk^i when ell divides j and nothing otherwise.
    """
    ctx = pair.ctx
    n = pair.size
    A, B = pair.A.rows, pair.B.rows
    one, zero = ctx.one(), ctx.zero()
    grid = [[zero] * (n + 1) for _ in range(n + 1)]
    lo = 0
    for size, dense in block_sizes(idx):
        hi = lo + size
        full_cycle = dense and idx.ell is not INF and size == idx.ell
        if full_cycle:
            c = one
            for k in range(lo, hi - 1):
                c = c * B[k][k + 1]
            c = c * B[hi - 1][lo]
        for i in range(n + 1):
            for j in range(n + 1):
                if full_cycle:
                    if j % size:
                        continue
                    term = sum((A[k][k] ** i for k in range(lo, hi)), zero)
                    grid[i][j] = grid[i][j] + term * c ** (j // size)
                else:
                    for k in range(lo, hi):
                        a = A[k][k] ** i if i else one
                        b = B[k][k] ** j if j else one
                        grid[i][j] = grid[i][j] + a * b
        lo = hi
    return tuple(tuple(row) for row in grid)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def pick_bases(rng: random.Random):
    """The two eigenvalue bases, in seeded order.

    Distinct primes are never q-equivalent.  The pair is fixed because the
    commutant's cost moves by up to 50% with the size of the bases.
    """
    return rng.sample((7, 11), 2)


def shaped_spec(ctx, n: int, shape: random.Random, bases):
    """Jordan data of size n with every eigenvalue 0 or c*q^k, c in bases.

    ``shape`` fixes the block sizes, which base and which power of q each
    block gets; the caller passes the bases, so the workload seed moves at
    most their order and the amount of work barely depends on it.  Blocks
    have size at most 3.
    """
    q = ctx.q()
    span = 3 if ctx.ell is INF else ctx.ell
    parts = {}
    left = n
    while left:
        size = shape.randint(1, min(3, left))
        if shape.random() < 0.25:
            key = (0, 0)
        else:
            key = (bases[shape.randrange(2)], shape.randrange(span))
        parts.setdefault(key, []).append(size)
        left -= size
    blocks = []
    for (c, k), sizes in sorted(parts.items()):
        value = ctx.zero() if c == 0 else ctx.rational(c) * q ** k
        blocks.append((value, tuple(sorted(sizes, reverse=True))))
    return Q.JordanSpec(ctx, blocks)


def unimodular(ctx, n: int, rng: random.Random):
    """A dense conjugator L*U: unit triangular factors, entries in {-1, 1, 2}."""
    zero, one = ctx.zero(), ctx.one()
    pick = lambda: ctx.rational(rng.choice((-1, 1, 2)))
    L = Q.QMatrix(ctx, [[one if i == j else (pick() if i > j else zero)
                         for j in range(n)] for i in range(n)])
    U = Q.QMatrix(ctx, [[one if i == j else (pick() if i < j else zero)
                         for j in range(n)] for i in range(n)])
    return L * U


def commutant_task(name, spec, conjugator=None):
    """qcommutant_basis of realize(spec), or of its conjugate by g."""
    def make():
        A = Q.realize(spec)
        if conjugator is not None:
            A = Q.conjugate(conjugator, A)
        return A

    def check(A, basis):
        want = Q.predicted_commutant_dim(spec)
        if len(basis) != want:
            return f"commutant dimension {len(basis)} != predicted {want}"
        q = A.ctx.q()
        for B in basis:
            if A * B != (B * A) * q:
                return "basis element violates AB = qBA"
        return None

    return Task(name, make, lambda A: Q.qcommutant_basis(A), check)


def homext_task(name, idx, sample_seed, golden):
    key = index_key(idx)

    def make():
        return Q.sample_point(idx, seed=sample_seed)

    def check(M, report):
        if report.hom_dim - report.ext1_dim + report.ext2_dim != 0:
            return "Hom/Ext alternating sum is not 0"
        dims = [report.hom_dim, report.ext1_dim, report.ext2_dim]
        if golden.get(key) != dims:
            return f"Hom/Ext dims {dims} != recorded {golden.get(key)}"
        for F in report.hom_basis:
            if F * M.A != M.A * F or F * M.B != M.B * F:
                return "Hom basis element is not a module map"
        return None

    return Task(name, make, lambda M: Q.hom_ext(M, M), check)


def index_key(idx) -> str:
    ell = "inf" if idx.ell is INF else str(idx.ell)
    return f"{ell}:{','.join(map(str, idx.m))}:{','.join(map(str, idx.r))}"


# ---------------------------------------------------------------------------
# commutant_elim
# ---------------------------------------------------------------------------

SPARSE_SIZES = {3: (6, 6, 6, 6, 7, 7, 8, 10), 5: (7,)}
# sparse n=6 operators at ell=5 sharing one block shape: the middle of the
# task-time distribution, so task_p50_ms sits inside this cluster
CLUSTER = (5, 6, 9)    # ell, n, count
DENSE_SIZES = {3: (5, 5, 4, 4, 4, 4), 5: (4, 4, 4, 4)}
HOMEXT_SIZES = {3: (5, 5), 5: (5, 5)}


def commutant_elim(seed: int, golden, workdir: Path):
    shape = random.Random("commutant_elim:shapes")
    rng = random.Random(f"commutant_elim:{seed}")
    tasks = []
    for ell in (3, 5):
        ctx = Q.FieldContext.root_of_unity(ell)
        for k, n in enumerate(SPARSE_SIZES[ell]):
            spec = shaped_spec(ctx, n, shape, pick_bases(rng))
            tasks.append(commutant_task(f"sparse/l{ell}/n{n}/{k}", spec))
        if ell == CLUSTER[0]:
            for k in range(CLUSTER[2]):
                spec = shaped_spec(ctx, CLUSTER[1], random.Random("commutant_elim:cluster"),
                                   pick_bases(rng))
                tasks.append(commutant_task(f"cluster/l{ell}/n{CLUSTER[1]}/{k}", spec))
        for k, n in enumerate(DENSE_SIZES[ell]):
            spec = shaped_spec(ctx, n, shape, pick_bases(rng))
            g = unimodular(ctx, n, rng)
            tasks.append(commutant_task(f"dense/l{ell}/n{n}/{k}", spec, g))
        for k, n in enumerate(HOMEXT_SIZES[ell]):
            m, r = shape.choice(all_indices(ell, n))
            idx = Q.ComponentIndex(ell, m, r)
            tasks.append(homext_task(f"homext/l{ell}/n{n}/{k}", idx,
                                     rng.randrange(10 ** 6), golden))
    return tasks


# ---------------------------------------------------------------------------
# classify_sweep
# ---------------------------------------------------------------------------

SWEEP_ORDERS = (2, 3, 4, 5)
SWEEP_MAX_N = 5
DENSE_EVERY = 16  # one index in 16 is also classified as a dense conjugate
CLI_EVERY = 16    # and another one in 16 also goes through cli.main


def sweep_task(name, idx, sample_seed):
    """sample -> JSON round trip -> classify, fingerprints, chains."""
    ell = idx.ell

    def make():
        return None

    def run(_):
        pair = Q.sample_point(idx, seed=sample_seed)
        text = json.dumps(S.pair_to_obj(pair), sort_keys=True)
        back = S.pair_from_obj(json.loads(text))
        found = Q.classify(back)
        fp = Q.trace_fingerprint(back)
        fp_ss = Q.trace_fingerprint(Q.semisimplify(back))
        diag = [back.A.rows[k][k] for k in range(back.size)]
        chains = Q.chain_decompose([x for x in diag if x])
        closed = [Q.associated_sequence(counts, ell) for counts in class_counts(idx)]
        return pair, back, found, fp, fp_ss, chains, closed

    def check(_, out):
        pair, back, found, fp, fp_ss, chains, closed = out
        if back != pair:
            return "JSON round trip changed the pair"
        if found != idx:
            return f"classify gave {found}, expected {idx}"
        if fp != fp_ss:
            return "fingerprint changed under semisimplify"
        if fp.grid != expected_fingerprint(pair, idx):
            return "fingerprint differs from the diagonal formula"
        total = [0] * len(idx.m)
        for seq in closed:
            for i, c in enumerate(seq):
                total[i] += c
        got = list(chains.length_counts) + [0] * (len(total) - len(chains.length_counts))
        if got != total or tuple(total) != idx.m:
            return f"chain counts {got} vs associated_sequence {total}"
        return None

    return Task(name, make, run, check)


def class_counts(idx):
    """Per-class multiplicity vectors of A's nonzero diagonal.

    sample_point gives each dense summand of size i its own q-class, with
    multiplicity 1 on base*q^0 .. base*q^-(i-1).
    """
    out = []
    for size, dense in block_sizes(idx):
        if dense:
            out.append((1,) * size + (0,) * (idx.ell - size))
    return out


def dense_task(name, idx, sample_seed, rng):
    """classify and fingerprint of g M g^-1 for a sampled pair M."""
    n = idx.n
    ctx = Q.FieldContext.root_of_unity(idx.ell)
    g = unimodular(ctx, n, rng)

    def make():
        pair = Q.sample_point(idx, seed=sample_seed)
        gi = Q.inverse(g)
        return pair, Q.MatrixPair(g * pair.A * gi, g * pair.B * gi)

    def run(inputs):
        _, dense = inputs
        return Q.classify(dense), Q.trace_fingerprint(dense)

    def check(inputs, out):
        pair, _ = inputs
        found, fp = out
        if found != idx:
            return f"classify of the conjugate gave {found}, expected {idx}"
        if fp.grid != expected_fingerprint(pair, idx):
            return "fingerprint is not conjugation invariant"
        return None

    return Task(name, make, run, check)


def cli_task(name, idx, sample_seed, workdir: Path):
    path = workdir / (name.replace("/", "_") + ".json")

    def make():
        pair = Q.sample_point(idx, seed=sample_seed)
        path.write_text(json.dumps(S.pair_to_obj(pair), sort_keys=True))
        return str(path)

    def run(file_name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = C.main(["classify", "--input", file_name])
        return code, buf.getvalue()

    def check(_, out):
        code, text = out
        want = S.index_to_obj(idx)
        want["n"] = idx.n
        if code != 0 or json.loads(text) != want:
            return f"cli classify exit {code}, output {text.strip()!r}"
        return None

    return Task(name, make, run, check)


def census_task(name, ell, n, swept):
    """enumerate_ML, count_ML and enumerate_TPL once per (ell, n)."""
    def run(_):
        return (Q.enumerate_ML(ell, n), Q.count_ML(ell, n), Q.enumerate_TPL(ell, n))

    def check(_, out):
        indices, count, types = out
        if count != iterative_count_ml(ell, n):
            return f"count_ML {count} != table count {iterative_count_ml(ell, n)}"
        if len(indices) != count or len(set(indices)) != count or set(indices) != swept:
            return "enumerate_ML disagrees with count_ML"
        if len(types) != tpl_count(ell, n) or len(set(types)) != len(types):
            return "enumerate_TPL has the wrong size"
        if any(t.size(ell) != n for t in types):
            return "enumerate_TPL type of the wrong size"
        return None

    return Task(name, lambda: None, run, check)


def classify_sweep(seed: int, golden, workdir: Path):
    rng = random.Random(f"classify_sweep:{seed}")
    tasks = []
    extra = []
    for ell in SWEEP_ORDERS:
        for n in range(1, SWEEP_MAX_N + 1):
            # the canonical list, independent of the code under test
            indices = [Q.ComponentIndex(ell, m, r) for m, r in all_indices(ell, n)]
            for idx in indices:
                sample_seed = rng.randrange(10 ** 6)
                tasks.append(sweep_task(f"sweep/{index_key(idx)}", idx, sample_seed))
                if n >= 2:
                    extra.append((idx, sample_seed))
            tasks.append(census_task(f"census/l{ell}/n{n}", ell, n, set(indices)))
    # fixed positions, so the seed changes values but not the mix
    for k, (idx, sample_seed) in enumerate(extra):
        if k % DENSE_EVERY == 0:
            tasks.append(dense_task(f"dense/{index_key(idx)}", idx, sample_seed, rng))
        elif k % CLI_EVERY == CLI_EVERY // 2:
            tasks.append(cli_task(f"cli/{index_key(idx)}", idx, sample_seed, workdir))
    return tasks


def all_indices(ell, n: int):
    """Every (m, r) with ||m|| + ||r|| = n, listed by the benchmark itself."""
    top_m = n if ell is INF else min(ell, n)
    top_r = n if ell is INF else min(ell - 1, n)
    out = []
    for j in range(n + 1):
        for m in count_vectors(j, top_m):
            for r in count_vectors(n - j, top_r):
                out.append((m, r))
    return out


def count_vectors(total: int, top: int):
    """Tuples (c_1..c_top) with sum i*c_i = total."""
    if top == 0:
        return [()] if total == 0 else []
    out = []
    for c in range(total // top + 1):
        for rest in count_vectors(total - c * top, top - 1):
            out.append(rest + (c,))
    return out


# ---------------------------------------------------------------------------
# generic_q
# ---------------------------------------------------------------------------

GENERIC_MAX_N = 4
GENERIC_COMMUTANT_SIZES = (3, 3, 4, 4)
# Equal-cost q-commutants at the two ranks the metrics read, so neither
# jumps between two tasks of unequal cost: fifteen of J_2(11 q^8) at the
# median (about a median n=4 classify), five of J_3(7 q) just below the ten
# slowest tasks (task_tail_ms is the 11th slowest).
GENERIC_MEDIAN_CLUSTER = 15
GENERIC_TAIL_CLUSTER = 5
GENERIC_JACOBIAN = (("D", 1), ("D", 2), ("N", 1), ("N", 2), ("N", 3))


def classify_task(name, idx, sample_seed):
    def run(_):
        return Q.classify(Q.sample_point(idx, seed=sample_seed))

    def check(_, found):
        return None if found == idx else f"classify gave {found}, expected {idx}"

    return Task(name, lambda: None, run, check)


def jacobian_task(name, kind, i, seed):
    def check(_, got):
        want = i * i
        return None if got == want else f"Jacobian rank {got} != {want}"

    return Task(name, lambda: None,
                lambda _: Q.parametrization_jacobian_rank(kind, i, INF, seed=seed),
                check)


def generic_q(seed: int, golden, workdir: Path):
    rng = random.Random(f"generic_q:{seed}")
    ctx = Q.FieldContext.generic()
    tasks = []
    for n in range(1, GENERIC_MAX_N + 1):
        for m, r in all_indices(INF, n):
            idx = Q.ComponentIndex(INF, m, r)
            sample_seed = PINNED_SAMPLE_SEEDS.get((idx.m, idx.r), GENERIC_SAMPLE_SEED)
            tasks.append(classify_task(f"classify/{index_key(idx)}", idx, sample_seed))
    cliff = Q.ComponentIndex(INF, *CLIFF_INDEX)
    tasks.append(classify_task(f"cliff/{index_key(cliff)}", cliff,
                               PINNED_SAMPLE_SEEDS[CLIFF_INDEX]))
    shape = random.Random("generic_q:shapes")
    for k, n in enumerate(GENERIC_COMMUTANT_SIZES):
        # fixed bases: unlike the cyclotomic case, their order alone moves
        # a Q(q) commutant's cost by up to 30%
        spec = shaped_spec(ctx, n, shape, (7, 11))
        tasks.append(commutant_task(f"commutant/n{n}/{k}", spec))
    q = ctx.q()
    for count, size, value in ((GENERIC_MEDIAN_CLUSTER, 2, ctx.rational(11) * q ** 8),
                               (GENERIC_TAIL_CLUSTER, 3, ctx.rational(7) * q)):
        spec = Q.JordanSpec(ctx, [(value, (size,))])
        for k in range(count):
            tasks.append(commutant_task(f"cluster/jordan{size}/{k}", spec))
    for kind, i in GENERIC_JACOBIAN:
        tasks.append(jacobian_task(f"jacobian/{kind}{i}", kind, i, rng.randrange(10 ** 6)))
    return tasks


WORKLOADS = {
    "commutant_elim": commutant_elim,
    "classify_sweep": classify_sweep,
    "generic_q": generic_q,
}

