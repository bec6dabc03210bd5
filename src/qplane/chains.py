"""Chain decomposition of q-orbits and partition counting.

A q-chain with base a and length k is the multiset {a, a/q, ..., a/q^(k-1)}.
Every finite multiset of nonzero scalars splits uniquely into q-chains that
are maximal (no two chains could be merged into a longer one); each level of
a q-class's multiplicities, the exponents held at least h times, splits into
runs of consecutive exponents, and those runs are that decomposition.  One
stack pass over the sorted exponents of a class finds the runs of every
level together; ``chain_decompose`` assembles the chains from it, and
``associated_sequence`` counts them by length for one multiplicity vector.
"""

from dataclasses import dataclass

from .errors import LengthMismatch, MixedContext, ZeroElement
from .scalars import INFINITE, QScalar, _order, canonical_key, q_orbit


def _partition_table(s: int, t: int) -> list:
    """[p_s(0), ..., p_s(t)], filled one allowed part size at a time."""
    table = [1] + [0] * t
    for part in range(1, min(s, t) + 1):
        for total in range(part, t + 1):
            table[total] += table[total - part]
    return table


def restricted_partition_count(s: int, t: int) -> int:
    """Number of partitions of t with every part at most s.

    Conventions: p_s(0) = 1 for all s >= 0, and p_0(t) = 0 for t > 0.
    """
    if s < 0 or t < 0:
        raise ValueError("partition counts need nonnegative arguments")
    return _partition_table(s, t)[t]


def partition_count(t: int) -> int:
    """Number of partitions of t (no restriction on parts)."""
    return restricted_partition_count(t, t)


def _maximal_chains(mult, ell):
    """The maximal chains of the offset multiset {offset: multiplicity > 0}
    as (top, length, count) triples: count chains cover top, top - 1, ...,
    top - length + 1 (mod ell when ell is finite).

    A multiset that fills the cycle first gives min(mult) full cycles,
    topped at 0.  The rest is one stack pass over the sorted offsets, with
    the run through ell - 1 that goes on at 0 unrolled past its first gap:
    the stack holds the first offset and height of each open run, heights
    rising, and an offset lower than the stack top, or a gap, closes each
    run above it, as many chains as its height exceeds the next one down.
    """
    cyclic = ell is not INFINITE
    chains = []
    if cyclic and len(mult) == ell:
        low = min(mult.values())
        chains.append((0, ell, low))
        mult = {t: c - low for t, c in mult.items() if c > low}
    line = sorted(mult.items())
    if cyclic and line and line[0][0] == 0 and line[-1][0] == ell - 1:
        gap = next(i for i, (t, _) in enumerate(line) if t != i)
        line = line[gap:] + [(t + ell, c) for t, c in line[:gap]]
    stack, prev = [], None
    for t, c in line + [(INFINITE, 0)]:
        level = c if t - 1 == prev else 0  # a gap, or the end, closes every run
        first = t
        while stack and stack[-1][1] > level:
            first, height = stack.pop()
            below = max(level, stack[-1][1]) if stack else level
            chains.append((prev % ell if cyclic else prev, prev - first + 1, height - below))
        if not stack or stack[-1][1] < c:
            stack.append((first if level else t, c))
        prev = t
    return chains


def associated_sequence(counts, ell):
    """Per-length chain counts (m_1, ..., m_L) of one q-equivalence class.

    ``counts`` lists the multiplicities of base*q^0, base*q^(-1), ... for a
    fixed base; cyclically when ell is finite (the vector must then have
    length ell), linearly when ell is INFINITE.  Entry m_i is the number of
    chains of length i in the maximal decomposition; for finite ell the last
    slot counts full cycles.
    """
    ell = _order(ell)
    counts = tuple(counts)
    if any(type(c) is not int or c < 0 for c in counts):
        raise ValueError("multiplicities must be nonnegative integers")
    if ell is not INFINITE and len(counts) != ell:
        raise LengthMismatch(
            f"cyclic count vector must have length {ell}, got {len(counts)}"
        )
    m = [0] * len(counts)
    for _, length, count in _maximal_chains({i: c for i, c in enumerate(counts) if c}, ell):
        m[length - 1] += count
    return tuple(m)


@dataclass(frozen=True)
class ChainDecomposition:
    """Maximal q-chain decomposition of a multiset of nonzero scalars.

    chains holds (base, length) pairs; the chain with base a and length k
    covers a, a/q, ..., a/q^(k-1).  length_counts[i-1] is the number of
    chains of length i (padded to length ell when ell is finite, trimmed to
    the longest chain otherwise).
    """

    chains: tuple
    length_counts: tuple

    @property
    def size(self) -> int:
        return sum(length for _, length in self.chains)


def chain_decompose(elements) -> ChainDecomposition:
    """Decompose a multiset of nonzero scalars into maximal q-chains.

    The classes come in the canonical order of their smallest members, and
    each class's chains longest first, then by top exponent; a chain's base
    is the input member at its top.  Raises ZeroElement if the multiset
    contains zero.
    """
    elements = list(elements)
    for x in elements:
        if not isinstance(x, QScalar):
            raise TypeError("chain_decompose expects QScalar elements")
        if x.is_zero():
            raise ZeroElement("q-chains are made of nonzero scalars")
    if not elements:
        return ChainDecomposition(chains=(), length_counts=())
    ctx = elements[0].ctx
    ell = ctx.ell

    classes = {}  # q-orbit key -> [(exponent over the keyed member, x), ...]
    for x in elements:
        if x.ctx is not ctx:
            raise MixedContext(f"cannot combine {ctx!r} with {x.ctx!r}")
        key, k = q_orbit(x)
        classes.setdefault(key, []).append((k, x))
    # Anchor each class at its canonically smallest member so the output
    # does not depend on the input order.  The member at offset t is
    # anchor * q^t, so it is the base of every chain topped at t.
    groups = []
    for members in classes.values():
        k0, anchor = min(members, key=lambda member: canonical_key(member[1]))
        at, mult = {}, {}
        for k, x in members:
            t = k - k0 if ell is INFINITE else (k - k0) % ell
            at[t] = x
            mult[t] = mult.get(t, 0) + 1
        groups.append((anchor, at, mult))
    groups.sort(key=lambda g: canonical_key(g[0]))

    chains = []
    for _, at, mult in groups:
        for top, length, count in sorted(_maximal_chains(mult, ell),
                                         key=lambda chain: (-chain[1], chain[0])):
            chains += [(at[top], length)] * count

    if ell is INFINITE:
        longest = max((length for _, length in chains), default=0)
    else:
        longest = ell
    length_counts = [0] * longest
    for _, length in chains:
        length_counts[length - 1] += 1
    return ChainDecomposition(chains=tuple(chains), length_counts=tuple(length_counts))
