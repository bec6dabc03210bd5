"""Golden SHA-256 digests of the library's outputs.

Each category serializes a fixed, seeded set of results to canonical JSON
and compares its SHA-256 with a value recorded from an earlier version, so
a refactor that changes any output byte (a scalar string, a basis order, a
seeded sample, an error message) fails here.  The inputs are lists built in
a fixed order; nothing iterates a set or depends on hash values.  When an
output is meant to change, rerun ``digest(category, ell)`` (for the one
category over several orders, ``sha256(category_commutant_modular())``)
and record the new value with the reason in CHANGES.md.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from qplane import (EigenvaluesNotFound, FieldContext, INFINITE, MatrixPair,
                    QMatrix, QScalar, canonical_key, chain_decompose, classify,
                    conjugate, enumerate_ML, format_scalar, hom_ext, jordan_data,
                    qcommutant_basis, sample_point, semisimplify, sylvester_operator,
                    trace_fingerprint)
from qplane import matrices, modular
from qplane.serialize import (fingerprint_to_obj, index_to_obj, matrix_to_obj,
                              pair_to_obj)

ORDERS = (2, 3, 5, INFINITE)


def unimodular(ctx, n, rng, picks=(-1, 1, 2)):
    """A dense L*U with unit triangular factors, entries drawn from picks
    (ints, or "q" for the scalar q)."""
    zero, one = ctx.zero(), ctx.one()

    def pick():
        c = rng.choice(picks)
        return ctx.q() if c == "q" else ctx.rational(c)

    L = QMatrix(ctx, [[one if i == j else pick() if j < i else zero for j in range(n)]
                      for i in range(n)])
    U = QMatrix(ctx, [[one if i == j else pick() if j > i else zero for j in range(n)]
                      for i in range(n)])
    return L * U


def samples(ell, top):
    """(index, seed, pair) for every component index with n <= top."""
    out = []
    for n in range(1, top + 1):
        for k, idx in enumerate(enumerate_ML(ell, n)):
            out.append((idx, k, sample_point(idx, seed=k)))
    return out


def dense_pairs(ell, top, picks=(-1, 1, 2)):
    """Dense L*U conjugates of every sample point with n <= top."""
    rng = random.Random(7)
    out = []
    for _, _, pair in samples(ell, top):
        g = unimodular(pair.ctx, pair.size, rng, picks)
        out.append(MatrixPair(conjugate(g, pair.A), conjugate(g, pair.B)))
    return out


def companions(ctx):
    """Companion matrices whose spectra do not all lie in the field:
    y^2 - 2, and (y - 3/2)(y^2 + y + 7)."""
    return [QMatrix.from_rational_rows(ctx, [[0, 2], [1, 0]]),
            QMatrix.from_rational_rows(ctx, [[0, 0, Fraction(21, 2)],
                                             [1, 0, Fraction(-11, 2)],
                                             [0, 1, Fraction(1, 2)]])]


def random_scalar(ctx, rng):
    """Small rational multiples of powers of q; over Q(q) a ratio of two
    polynomials whose denominator need not be monic over Z."""
    def coeff():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if ctx.is_generic:
        num = [coeff() for _ in range(rng.randint(0, 4))]
        den = [coeff() for _ in range(rng.randint(1, 4))]
        if not any(den):
            den[-1] = Fraction(rng.randint(2, 5))
        return QScalar(ctx, num=num, den=den)
    out = ctx.zero()
    for _ in range(rng.randint(0, 4)):
        out = out + ctx.rational(coeff()) * ctx.q_power(rng.randint(-6, 6))
    return out


def spec_to_obj(spec):
    """A JordanSpec as JSON: its blocks in order, each eigenvalue as a
    canonical scalar string beside its partition."""
    return {
        "blocks": [
            {"eigenvalue": format_scalar(lam), "partition": list(parts)}
            for lam, parts in spec.blocks
        ]
    }


def spec_record(A):
    try:
        return spec_to_obj(jordan_data(A))
    except EigenvaluesNotFound as err:
        return f"EigenvaluesNotFound: {err}"


def chains_record(elements):
    dec = chain_decompose(elements)
    return [[[format_scalar(b), n] for b, n in dec.chains], list(dec.length_counts)]


def basis_record(basis):
    return [matrix_to_obj(B)["entries"] for B in basis]


def category_sample(ell):
    return [[index_to_obj(idx), seed, pair_to_obj(pair)]
            for idx, seed, pair in samples(ell, 4 if ell != INFINITE else 3)]


def category_classify(ell):
    pairs = [pair for _, _, pair in samples(ell, 4)] + dense_pairs(ell, 3)
    return [index_to_obj(classify(pair)) for pair in pairs]


def category_jordan(ell):
    ctx = FieldContext.for_order(ell)
    mats = [pair.A for pair in dense_pairs(ell, 4)] + companions(ctx)
    return [spec_record(A) for A in mats]


def category_chains(ell):
    ctx = FieldContext.for_order(ell)
    rng = random.Random(13)
    cases = []
    for _ in range(40):
        bases = [random_scalar(ctx, rng) or ctx.one() for _ in range(rng.randint(1, 3))]
        cases.append([rng.choice(bases) * ctx.q_power(rng.randint(-7, 7))
                      for _ in range(rng.randint(1, 9))])
    return [chains_record(elements) for elements in cases]


def category_fingerprints(ell):
    pairs = [pair for _, _, pair in samples(ell, 3)] + dense_pairs(ell, 3)
    return [fingerprint_to_obj(trace_fingerprint(pair)) for pair in pairs]


def category_commutant(ell):
    mats = [pair.A for _, _, pair in samples(ell, 3)] + [
        pair.A for pair in dense_pairs(ell, 3)]
    return [basis_record(qcommutant_basis(A)) for A in mats]


def category_commutant_modular():
    """q-commutants of the dense L*U conjugates (entries from -1, 2, 3) of
    the sample points of size n = 4 and 5 at ell 3 and 5 and of size 3 at
    ell 7, A = 0 left out: each operator goes through ``matrices._modular``,
    which the operators of ``category_commutant`` never reach."""
    out = []
    for ell, n in ((3, 4), (3, 5), (5, 4), (5, 5), (7, 3)):
        for pair in dense_pairs(ell, n, (-1, 2, 3)):
            A = pair.A
            if pair.size < n or A.is_zero():
                continue
            op = sylvester_operator(A, A, A.ctx.q())
            assert matrices._use_modular(op, len(op.nonzeros()))
            out.append(basis_record(qcommutant_basis(A)))
    return out


def category_hom_ext(ell):
    small = [pair for _, _, pair in samples(ell, 2)]
    cases = [(M1, M2) for M1 in small for M2 in small]
    dense = dense_pairs(ell, 3)
    # each sample point against a dense conjugate with q among the
    # conjugator's entries, and against a rational one with A scaled by q,
    # which shifts the q-chains by one step
    cases += [(M, D) for (_, _, M), D in zip(samples(ell, 3),
                                              dense_pairs(ell, 3, (-1, 1, "q")))]
    cases += [(M, MatrixPair(D.A.scale(D.ctx.q()), D.B))
              for (_, _, M), D in zip(samples(ell, 3), dense)]
    cases += [(M, M) for M in dense[-3:]]
    out = []
    for M1, M2 in cases:
        report = hom_ext(M1, M2)
        out.append([report.hom_dim, report.ext1_dim, report.ext2_dim,
                    basis_record(report.hom_basis)])
    return out


def category_semisimplify(ell):
    top = 6 if ell != INFINITE else 5
    return [pair_to_obj(semisimplify(pair)) for _, _, pair in samples(ell, top)]


def category_canonical_key(ell):
    ctx = FieldContext.for_order(ell)
    rng = random.Random(17)
    xs = [random_scalar(ctx, rng) for _ in range(300)]
    return [format_scalar(x) for x in sorted(xs, key=canonical_key)]


CATEGORIES = {
    "sample": category_sample,
    "classify": category_classify,
    "jordan_data": category_jordan,
    "chain_decompose": category_chains,
    "fingerprints": category_fingerprints,
    "commutant": category_commutant,
    "hom_ext": category_hom_ext,
    "canonical_key": category_canonical_key,
    "semisimplify": category_semisimplify,
}


def sha256(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest(category, ell):
    return sha256(CATEGORIES[category](ell))


DIGESTS = {  # recorded at e42da4d
    ("sample", 2): "9e9c349353c3583fd3e74ef6b12bcc78bd033cb20dd92ebcda689abb5f8cf12b",
    ("sample", 3): "641f0f5be85f26f2eb3436faef017f0316df679771012336fac1e4efdface309",
    ("sample", 5): "112f56e1578e855d445d048caa7a29eaf6ae0e45e82812e5a1ec989baabc1ad7",
    ("sample", INFINITE): "78ee2605a76f922b1f74c8abf40d0bce351e211f59e03a15dc83f644b9da3e9a",
    ("classify", 2): "9e6d9a7da5c5b3b7592e048271f5c7a80273231a0278e79803893c6743a3bdab",
    ("classify", 3): "ed3940c574acd04fa8523eacaad6b0f2014938e71056813b825b8d06f3b7bc8f",
    ("classify", 5): "27374ea62bf3377b0f8a1f68df84d83cd505f1f74c3a9a899c98ebfcdb105c93",
    ("classify", INFINITE): "77e21aa9ba75d2208b80e5de4bedb714bee48eda14d8d6fc0d1f053d4c28ad88",
    # re-recorded when "; pass hint_eigenvalues for the rest" was dropped
    # from the EigenvaluesNotFound message; nothing else in them changed
    ("jordan_data", 2): "8892b5a17a9cb9cd129ba8ca532b2f034eff2c34c5e9076d54ac88c8f4becfd7",
    ("jordan_data", 3): "d676c6d5e1cc3df7946c642abbbd25d0e2f18bca36438302765bd6d2b03d3974",
    ("jordan_data", 5): "c16687f907fc13821090eb98a8c241a8eb876b7ccc96a355b84d0ce4d86d056a",
    ("jordan_data", INFINITE): "4c9dbaed2af621702d2d59afce73eb71786e20ce8d7cd4da9276e17fa30771cd",
    ("chain_decompose", 2): "7083e3099363982bdb6e4d62e9ef8cc7d86cae1e50d2fad5e65f99234993a6fb",
    ("chain_decompose", 3): "f0e1b45ce9f53a1af2f3a62443ff3e9e50ee309cf80fc0633dffe3a8215fd5c9",
    ("chain_decompose", 5): "6a3a25e805a9f595e5aca8d915d01d8a99ea788f4c91be7dacd00436d53c34e6",
    ("chain_decompose", INFINITE): "2411121eba51be037d6bc90e20abb9395e190489eeba436d2ae28f08945ffb03",
    ("fingerprints", 2): "d8ec26c169d4cb84065da56a5de96f1161d85d5e4525b3a44dc6d73db8b83a6c",
    ("fingerprints", 3): "bea0401f6c2c65616a6212eaef2fb76b52e097b273a504cc4fa398d2a6d998cc",
    ("fingerprints", 5): "a0a8608a09d0322a974f2ce317af753d279666bcdcf38d40c3a54688d12e8401",
    ("fingerprints", INFINITE): "8350fe5e9dd46d3b7e8fed800c2ca4577c46ec4f9dc0270d5e722d9f7d1c713f",
    ("commutant", 2): "be0a34a694a33a8253dd27b97022826d9719436e717d403869b7385c1aaeb01a",
    ("commutant", 3): "accd03a2128684fabf8c87f6de1ab65a00a684e49299467132e659a9b81860e5",
    ("commutant", 5): "eb7168b508d306124b4e066087ad0ca6b91a8b544854b490a2d82296276d63e1",
    ("commutant", INFINITE): "10e241c3609d9eb532cafa0e8b80a552b1df027ffa642f0b2dfc133524c230b2",
    ("hom_ext", 2): "b519d70fce71db31f630da99aaa85512616212bb2005920a164d4a0634c8d1d0",
    ("hom_ext", 3): "8ff6dbe2737b696b4fec3171ffc033413c6d70394b168cc518ec3e88142b2d92",
    ("hom_ext", 5): "13670df63fce5928a6135335b69009549077edea81331300ec58c8659c323a5e",
    ("hom_ext", INFINITE): "9820061dc919451a8eea2a633eff113921dc9c690da9d0031f74a10765a8c15e",
    ("canonical_key", 2): "c5b770f023c59bfda9a7cb676966b74df7972ddf8d18b4472dda0849832313b0",
    ("canonical_key", 3): "c4d01a8b3437f747e5a013913008c6c8b14b772c6f2826005d084d3406160196",
    ("canonical_key", 5): "1eaac8dd89c70da75c779ec9004db5d051ca5a091ee5ae263677b774b6d82b77",
    ("canonical_key", INFINITE): "407c4748f0bfff6a92b8162b9b80ff82538b7c7a5b86fe9a360a3082e1fa9d31",
    # recorded at cb92d0c
    ("semisimplify", 2): "5e75c7e65e6c3b01d9a5b6c63f4c6f5e2df23137a662264361dd669db2c286b7",
    ("semisimplify", 3): "3cc8795568df2a62b3beec05c4a7171f3e272d42f74137607378fe36d2366bf2",
    ("semisimplify", 5): "3c171b25f9f934d7220ab907b0248c0d85b15f94be781f6fab5664c42ed7b839",
    ("semisimplify", INFINITE): "91c9258ebec545ab85afa7dfd8501a1930c258ef23d2904360a8730a92700101",
}


@pytest.mark.parametrize("ell", ORDERS, ids=lambda ell: f"ell{ell}")
@pytest.mark.parametrize("category", list(CATEGORIES))
def test_output_digest(category, ell):
    assert digest(category, ell) == DIGESTS[category, ell]


# ell 4, where Phi_4 = x^2 + 1: the one order of composite ell that the
# classify_sweep benchmark runs, and one that ORDERS leaves out; recorded at
# f7662d4
COMPOSITE_DIGESTS = {
    "sample": "565127164c37faa3636b4f916a448d477e2484d0ff44d4e2c78e9f0815bce0d8",
    "classify": "3888be93e5372744a86c7324a418587e3c146d94c641c33c475230210fe7d26e",
    "jordan_data": "df1c0c921235a7efad2729aa75e5a21b6c0d94311b6fd260730f91197d1bc298",
    "fingerprints": "7cbcf225d3b176fa44c4bd995927565760a739d11ac0ca8cd62e85f4f60013d9",
}


@pytest.mark.parametrize("category", list(COMPOSITE_DIGESTS))
def test_output_digest_at_a_composite_order(category):
    assert digest(category, 4) == COMPOSITE_DIGESTS[category]


# recorded at 9718b95
COMMUTANT_MODULAR = "da88e7d2d5b0c49b0f24a17ba34b54a34b44a146a288308f38f738ab7029027b"


def test_commutant_modular_digest(monkeypatch):
    # 16 of the 101 operators join two primes by CRT
    primes = set()
    real = modular.cyclotomic_prime
    monkeypatch.setattr(modular, "cyclotomic_prime",
                        lambda ell, k: primes.add(k) or real(ell, k))
    assert sha256(category_commutant_modular()) == COMMUTANT_MODULAR
    assert primes == {0, 1}
