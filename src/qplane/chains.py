"""Chain decomposition of q-orbits and partition counting.

A q-chain with base a and length k is the multiset {a, a/q, ..., a/q^(k-1)}.
Every finite multiset of nonzero scalars splits uniquely into q-chains that
are maximal (no two chains could be merged into a longer one); each level of
a q-class's multiplicities, the exponents held at least h times, splits into
runs of consecutive exponents, and those runs are that decomposition.  The
per-length chain counts of a single q-equivalence class depend only on the
multiplicity vector of the class and are also computed in closed form by
``associated_sequence``.
"""

from dataclasses import dataclass

from .errors import LengthMismatch, MixedContext, ZeroElement
from .scalars import INFINITE, QScalar, canonical_key, q_orbit


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


def _window_min_sums(counts):
    """f(i) = sum over the ell = len(counts) start positions of the minimum
    of the cyclic width-(i+1) window, for i < ell, then f(ell) = ell * min."""
    ell = len(counts)
    f = [0] * ell
    for j in range(ell):
        # one running minimum per start position: windows grow by one slot
        low = counts[j]
        for i in range(ell):
            low = min(low, counts[(j + i) % ell])
            f[i] += low
    f.append(ell * min(counts))
    return f


def associated_sequence(counts, ell):
    """Per-length chain counts (m_1, ..., m_L) of one q-equivalence class.

    ``counts`` lists the multiplicities of base*q^0, base*q^(-1), ... for a
    fixed base; cyclically when ell is finite (the vector must then have
    length ell), linearly when ell is INFINITE.  Entry m_i is the number of
    chains of length i in the maximal decomposition; for finite ell the last
    slot counts full cycles.
    """
    counts = tuple(int(c) for c in counts)
    if any(c < 0 for c in counts):
        raise ValueError("multiplicities must be nonnegative")
    cut = len(counts)
    if ell is INFINITE:
        # a linear class is a cyclic one with one empty slot, which no chain
        # crosses; its full-cycle count (0) is dropped
        counts += (0,)
    elif len(counts) != ell:
        raise LengthMismatch(
            f"cyclic count vector must have length {ell}, got {len(counts)}"
        )
    top = len(counts)
    f = _window_min_sums(counts)
    m = [0] * top
    m[top - 1] = min(counts)
    for i in range(1, top):
        m[i - 1] = f[i - 1] - 2 * f[i] + f[i + 1]
    return tuple(m[:cut])


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


def _extract_chains(offsets, ell):
    """The maximal chains of an offset multiset as (top offset, length)
    pairs, longest first, then by top.

    Offsets are exponents relative to the class anchor (residues mod ell
    in the cyclic case).  Level h, the offsets held at least h times,
    splits into runs t, t-1, ...: each offset whose successor is not in the
    level tops one.  A level that fills the cycle is one run topped at 0.
    """
    cyclic = ell is not INFINITE
    mult = {}
    for t in offsets:
        mult[t] = mult.get(t, 0) + 1
    out = []
    while mult:  # its keys are level h = 1, 2, ... in turn
        if cyclic and len(mult) == ell:
            out.append((0, ell))
        else:
            for top in mult:
                if ((top + 1) % ell if cyclic else top + 1) not in mult:
                    length = 1
                    while ((top - length) % ell if cyclic else top - length) in mult:
                        length += 1
                    out.append((top, length))
        mult = {t: c - 1 for t, c in mult.items() if c > 1}
    out.sort(key=lambda chain: (-chain[1], chain[0]))
    return out


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
        offsets = [k - k0 if ell is INFINITE else (k - k0) % ell for k, _ in members]
        at = {t: x for t, (_, x) in zip(offsets, members)}
        groups.append((anchor, at, offsets))
    groups.sort(key=lambda g: canonical_key(g[0]))

    chains = []
    for _, at, offsets in groups:
        for top, length in _extract_chains(offsets, ell):
            chains.append((at[top], length))

    if ell is INFINITE:
        longest = max((length for _, length in chains), default=0)
    else:
        longest = ell
    length_counts = [0] * longest
    for _, length in chains:
        length_counts[length - 1] += 1
    return ChainDecomposition(chains=tuple(chains), length_counts=tuple(length_counts))
