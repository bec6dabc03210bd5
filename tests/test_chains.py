import os
import random
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import (BadIndex, ChainDecomposition, FieldContext, INFINITE, MixedContext,
                    ZeroElement, associated_sequence, chain_decompose, partition_count,
                    restricted_partition_count)
from qplane.scalars import canonical_key, q_orbit

C4 = FieldContext.root_of_unity(4)
GEN = FieldContext.generic()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def all_partitions(t, max_part=None):
    """Enumerate partitions of t (weakly decreasing tuples)."""
    if max_part is None:
        max_part = t
    if t == 0:
        yield ()
        return
    for first in range(min(t, max_part), 0, -1):
        for rest in all_partitions(t - first, first):
            yield (first,) + rest


def window_min_identity_holds(counts, ell):
    """Lemma-style cross-check: for each window width, the weighted tail of
    the chain counts equals the sum of cyclic window minima."""
    m = associated_sequence(counts, ell)
    for i in range(ell):
        lhs = ell * m[ell - 1]
        for j in range(i + 1, ell):
            lhs += (j - i) * m[j - 1]
        rhs = sum(min(counts[(j + k) % ell] for k in range(i + 1))
                  for j in range(ell))
        if lhs != rhs:
            return False
    return True


def brute_force_decompositions(offsets, ell):
    """All ways to split an offset multiset into cyclic runs.

    Returns frozen multisets of (top offset, length) pairs.  A run topped at
    t with length k covers t, t-1, ..., t-k+1 (mod ell).
    """
    results = set()

    def recurse(remaining, acc):
        if not remaining:
            results.add(frozenset((chain, acc.count(chain)) for chain in acc))
            return
        pivot = min(remaining)
        for top_shift in range(ell):
            top = (pivot + top_shift) % ell
            for length in range(top_shift + 1, ell + 1):
                covered = [(top - k) % ell for k in range(length)]
                rest = list(remaining)
                ok = True
                for off in covered:
                    if off in rest:
                        rest.remove(off)
                    else:
                        ok = False
                        break
                if ok and pivot in covered:
                    # a full cycle has no distinguished top: canonicalize
                    chain = (0, ell) if length == ell else (top, length)
                    recurse(rest, acc + [chain])

    recurse(list(offsets), [])
    return results


def greedy_chain_decompose(elements):
    """chain_decompose by greedy extraction: per q-class, anchored at its
    canonically smallest member, take a longest run of offsets (the
    smallest top among equal lengths) until none is left; each base is
    anchor * q^top."""
    ctx = elements[0].ctx
    ell = ctx.ell
    classes = {}
    for x in elements:
        key, k = q_orbit(x)
        classes.setdefault(key, []).append((k, x))
    groups = []
    for members in classes.values():
        k0, anchor = min(members, key=lambda member: canonical_key(member[1]))
        offsets = [k - k0 if ell is INFINITE else (k - k0) % ell for k, _ in members]
        groups.append((anchor, offsets))
    groups.sort(key=lambda g: canonical_key(g[0]))
    chains = []
    for anchor, offsets in groups:
        mult = {}
        for t in offsets:
            mult[t] = mult.get(t, 0) + 1
        while mult:
            best = None
            for t in mult:
                length = 0
                if ell is INFINITE:
                    while (t - length) in mult:
                        length += 1
                else:
                    while length < ell and ((t - length) % ell) in mult:
                        length += 1
                if best is None or length > best[0] or (length == best[0] and t < best[1]):
                    best = (length, t)
            length, t = best
            chains.append((anchor * ctx.q_power(t), length))
            for k in range(length):
                off = (t - k) % ell if ell is not INFINITE else t - k
                mult[off] -= 1
                if mult[off] == 0:
                    del mult[off]
    longest = max(length for _, length in chains) if ell is INFINITE else ell
    length_counts = [0] * longest
    for _, length in chains:
        length_counts[length - 1] += 1
    return ChainDecomposition(chains=tuple(chains), length_counts=tuple(length_counts))


def is_maximal(decomposition, ell):
    """No pair of chains may merge into a run longer than both."""
    chains = [chain for chain, mult in decomposition for _ in range(mult)]
    for (t1, k1), (t2, k2) in combinations(chains, 2):
        union = set()
        for k in range(k1):
            union.add((t1 - k) % ell)
        for k in range(k2):
            union.add((t2 - k) % ell)
        longest = 0
        for start in union:
            run = 0
            while run < ell and ((start - run) % ell) in union:
                run += 1
            longest = max(longest, run)
        if longest > max(k1, k2):
            return False
    return True


# ---------------------------------------------------------------------------
# partition counting
# ---------------------------------------------------------------------------

def test_restricted_partition_count_examples():
    assert restricted_partition_count(2, 2) == 2
    for k in range(1, 8):
        assert restricted_partition_count(1, k) == 1
    assert restricted_partition_count(0, 3) == 0
    for s in range(6):
        assert restricted_partition_count(s, 0) == 1


def test_partition_count_of_five():
    assert partition_count(5) == len(list(all_partitions(5)))
    assert partition_count(5) == 7


def test_partition_counts_against_enumeration():
    for t in range(9):
        for s in range(t + 2):
            expected = sum(1 for p in all_partitions(t) if not p or p[0] <= s)
            assert restricted_partition_count(s, t) == expected


def test_restricted_partition_count_far_past_the_recursion_limit():
    # closed forms: p_2(i) = i // 2 + 1, p_3(j) = round((j + 3)^2 / 12)
    for t in (0, 1, 7, 3000, 5000):
        assert restricted_partition_count(2, t) == t // 2 + 1
        assert restricted_partition_count(3, t) == ((t + 3) ** 2 + 6) // 12


def test_partition_count_rejects_negative():
    with pytest.raises(ValueError):
        restricted_partition_count(-1, 2)


# ---------------------------------------------------------------------------
# associated_sequence
# ---------------------------------------------------------------------------

def test_associated_sequence_width_four_example():
    assert associated_sequence((3, 2, 3, 1), 4) == (2, 0, 1, 1)


def test_associated_sequence_zero_counts():
    assert associated_sequence((0, 0, 0), 3) == (0, 0, 0)


def test_associated_sequence_two_cycle():
    # oracle: the only maximal decomposition of {a, a, a/q} is one chain of
    # length 2 and one of length 1 (two singleton a's could merge with a/q)
    decs = brute_force_decompositions([0, 0, 1], 2)
    maximal = [d for d in decs if is_maximal(d, 2)]
    assert len(maximal) == 1
    assert associated_sequence((2, 1), 2) == (1, 1)


def test_associated_sequence_uniform_counts_give_full_cycles():
    for ell in (2, 3, 4, 5):
        assert associated_sequence((2,) * ell, ell) == (0,) * (ell - 1) + (2,)


def test_associated_sequence_rotation_invariance():
    rng = random.Random(1)
    for _ in range(50):
        ell = rng.choice([2, 3, 4, 5])
        counts = tuple(rng.randint(0, 5) for _ in range(ell))
        base = associated_sequence(counts, ell)
        for r in range(1, ell):
            rotated = counts[r:] + counts[:r]
            assert associated_sequence(rotated, ell) == base


def test_window_min_identity_random():
    rng = random.Random(2)
    for _ in range(150):
        ell = rng.randint(1, 12)
        counts = tuple(rng.randint(0, 6) for _ in range(ell))
        assert window_min_identity_holds(counts, ell)


def test_associated_sequence_rejects_counts_that_are_not_ints():
    # int() once read 2.7 as 2 and True as 1
    for counts in ((2.7, 1), (True, 1), ("2", 1)):
        with pytest.raises(ValueError):
            associated_sequence(counts, 2)


@pytest.mark.parametrize("counts, ell", [
    ((1,), 1.0),   # once a bare TypeError from indexing a list with a float
    ((), 0),       # once "min() arg is an empty sequence"
    ((1,), True),  # once read as ell = 1
    ((1, 1), "2"),
])
def test_associated_sequence_rejects_an_order_that_is_not_one(counts, ell):
    with pytest.raises(BadIndex, match="the order must be a positive integer or INFINITE"):
        associated_sequence(counts, ell)


def test_size_conservation():
    rng = random.Random(3)
    for _ in range(100):
        ell = rng.randint(1, 6)
        counts = tuple(rng.randint(0, 6) for _ in range(ell))
        m = associated_sequence(counts, ell)
        assert sum((i + 1) * m[i] for i in range(ell)) == sum(counts)


# ---------------------------------------------------------------------------
# chain_decompose
# ---------------------------------------------------------------------------

def test_single_element_chain():
    a = C4.rational(2)
    dec = chain_decompose([a])
    assert dec.chains == ((a, 1),)
    assert dec.length_counts == (1, 0, 0, 0)


def test_adjacent_pair_merges():
    a = C4.rational(2)
    dec = chain_decompose([a, a / C4.q()])
    assert len(dec.chains) == 1
    assert dec.chains[0][1] == 2


def test_three_class_example():
    q = C4.q()
    a1, a2, a3 = C4.rational(2), C4.rational(3), C4.rational(5)
    S = [a1, a2, a3,
         a1 / q, a2 / q,
         a1 / q ** 2, a2 / q ** 2, a3 / q ** 2,
         a1 / q ** 3]
    dec = chain_decompose(S)
    assert dec.length_counts == (2, 0, 1, 1)
    by_length = sorted(dec.chains, key=lambda chain: -chain[1])
    # the length-4 chain is a full cycle, so its base is only pinned up to
    # rotation: compare the covered multiset instead
    base4 = by_length[0][0]
    covered4 = sorted(repr(base4 / q ** k) for k in range(4))
    assert covered4 == sorted(repr(a1 / q ** k) for k in range(4))
    assert by_length[1] == (a2, 3)
    assert sorted(c[1] for c in dec.chains) == [1, 1, 3, 4]
    singleton_bases = {c[0] for c in dec.chains if c[1] == 1}
    assert singleton_bases == {a3, a3 / q ** 2}


def test_one_class_with_multiplicities():
    # same counts as the width-four associated_sequence example, one base
    q = C4.q()
    a = C4.rational(2)
    S = [a] * 3 + [a / q] * 2 + [a / q ** 2] * 3 + [a / q ** 3]
    dec = chain_decompose(S)
    assert dec.length_counts == (2, 0, 1, 1)
    assert dec.size == 9


def test_zero_element_rejected():
    with pytest.raises(ZeroElement):
        chain_decompose([C4.one(), C4.zero()])


def test_empty_and_mixed_input():
    assert chain_decompose([]) == ChainDecomposition(chains=(), length_counts=())
    with pytest.raises(MixedContext):
        chain_decompose([C4.one(), GEN.one()])


def test_decomposition_covers_input():
    rng = random.Random(4)
    for _ in range(40):
        ell = rng.choice([2, 3, 4])
        ctx = FieldContext.root_of_unity(ell)
        q = ctx.q()
        S = []
        for _ in range(rng.randint(1, 7)):
            base = ctx.rational(rng.choice([2, 3]))
            S.append(base * q ** rng.randint(0, ell - 1))
        dec = chain_decompose(S)
        covered = []
        for base, length in dec.chains:
            for k in range(length):
                covered.append(base / q ** k)
        assert sorted(map(repr, covered)) == sorted(map(repr, S))


def test_greedy_matches_brute_force_uniqueness():
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        ell = rng.choice([2, 3, 4])
        size = rng.randint(1, 6)
        offsets = [rng.randint(0, ell - 1) for _ in range(size)]
        decs = brute_force_decompositions(offsets, ell)
        maximal = [d for d in decs if is_maximal(d, ell)]
        assert len(maximal) == 1
        ctx = FieldContext.root_of_unity(ell)
        S = [ctx.rational(2) * ctx.q() ** off for off in offsets]
        dec = chain_decompose(S)
        greedy_counts = {}
        for _, length in dec.chains:
            greedy_counts[length] = greedy_counts.get(length, 0) + 1
        oracle_counts = {}
        for (_, length), mult in maximal[0]:
            oracle_counts[length] = oracle_counts.get(length, 0) + mult
        assert greedy_counts == oracle_counts
        checked += 1


def test_greedy_counts_equal_associated_sequence():
    rng = random.Random(6)
    for _ in range(80):
        ell = rng.randint(2, 6)
        ctx = FieldContext.root_of_unity(ell)
        q = ctx.q()
        counts = [rng.randint(0, 4) for _ in range(ell)]
        a = ctx.rational(3)
        S = []
        for i, c in enumerate(counts):
            S.extend([a / q ** i] * c)
        if not S:
            continue
        dec = chain_decompose(S)
        assert dec.length_counts == associated_sequence(counts, ell)


def test_generic_regime_linear_chains():
    q = GEN.q()
    a = GEN.rational(2)
    b = GEN.rational(3)
    S = [a, a / q, a / q ** 2, b]
    dec = chain_decompose(S)
    lengths = sorted(length for _, length in dec.chains)
    assert lengths == [1, 3]
    assert dec.length_counts == (1, 0, 1)


def linear_associated_sequence(counts):
    """Reference for ell = INFINITE: second differences of the sums of window
    minima over the linear vector, windows that leave it counting as 0."""
    s = len(counts)
    if s == 0:
        return ()
    f = [sum(min(counts[j:j + i + 1]) for j in range(s - i)) for i in range(s + 1)]
    f.append(0)
    m = [f[i - 1] - 2 * f[i] + f[i + 1] for i in range(1, s)]
    return tuple(m) + (min(counts),)


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=9))
def test_linear_sequence_is_the_cyclic_one_with_an_empty_slot(counts):
    assert associated_sequence(counts, INFINITE) == linear_associated_sequence(counts)


def test_generic_gap_stays_split():
    q = GEN.q()
    a = GEN.rational(2)
    dec = chain_decompose([a, a / q ** 3])
    assert sorted(length for _, length in dec.chains) == [1, 1]


@given(st.integers(min_value=1, max_value=6),
       st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_chain_counts_conserve_size(ell, raw, pyrandom):
    counts = tuple((raw + [0] * ell)[:ell])
    m = associated_sequence(counts, ell)
    assert len(m) == ell
    assert all(c >= 0 for c in m)
    assert sum((i + 1) * c for i, c in enumerate(m)) == sum(counts)
    # rotating the count vector never changes the answer
    shift = pyrandom.randrange(ell)
    rotated = counts[shift:] + counts[:shift]
    assert associated_sequence(rotated, ell) == m


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, INFINITE]), st.data())
def test_chain_decompose_matches_the_greedy_extraction(ell, data):
    ctx = FieldContext.for_order(ell)
    span = 6 if ell is INFINITE else ell
    # 2 + q is never zero; -1, 2 and -2 share a q-orbit with 1 or 2 when
    # some power of q is -1
    bases = [ctx.one(), ctx.rational(-1), ctx.rational(2), ctx.rational(-2),
             ctx.rational(2) + ctx.q()]
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(bases) - 1),
                                         st.integers(-span, span),
                                         st.integers(1, 3)),
                               min_size=1, max_size=10))
    S = [bases[i] * ctx.q_power(e) for i, e, times in picks for _ in range(times)]
    if ell is not INFINITE:
        for _ in range(data.draw(st.integers(0, 2))):  # full cycles
            i = data.draw(st.integers(0, len(bases) - 1))
            S.extend(bases[i] * ctx.q_power(e) for e in range(ell))
    S = data.draw(st.permutations(S))
    assert chain_decompose(S) == greedy_chain_decompose(S)


def test_a_thousand_member_class_over_q_of_q_answers_in_time():
    # {q^(2k) : k < 1000} is a thousand chains of length 1; rescanning every
    # offset per chain and building each base as a q-power product took
    # about 39 s on a 2-core VM
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from qplane import FieldContext, chain_decompose; "
            "q = FieldContext.generic().q(); "
            "d = chain_decompose([q ** (2 * k) for k in range(1000)]); "
            "print(len(d.chains), d.length_counts)")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=10, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1000", "(1000,)"]


@pytest.mark.parametrize("counts, expected", [
    ((1,) + (0,) * 8008, (1,) + (0,) * 8008),
    # one chain across the wrap point: slots 4005..8008, then 0..4003
    ((1,) * 4004 + (0,) + (1,) * 4004, (0,) * 8007 + (1, 0)),
])
def test_associated_sequence_at_ell_8009_answers_in_time(counts, expected):
    # sums of cyclic window minima kept one running minimum per start
    # position: 15-19 s for each on a 2-core VM
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from qplane import associated_sequence; "
            "counts = tuple(map(int, sys.stdin.read().split(','))); "
            "print(','.join(map(str, associated_sequence(counts, 8009))))")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        input=",".join(map(str, counts)),
        timeout=10, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
    assert done.returncode == 0, done.stderr
    assert tuple(map(int, done.stdout.split(","))) == expected


@pytest.mark.parametrize("call, error, message", [
    (lambda: chain_decompose([1]), TypeError, "chain_decompose expects QScalar elements"),
    (lambda: chain_decompose([GEN.q(), "q"]), TypeError,
     "chain_decompose expects QScalar elements"),
])
def test_chain_calls_raise_their_documented_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
