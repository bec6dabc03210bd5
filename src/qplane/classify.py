"""Locate the component that provably contains a given q-commuting pair.

Only A matters: for every matrix in the q-commutant of A the pair lands in
the same component, so the classifier works from A's Jordan data.  It
counts straight into one index: a class is a ``q_orbit`` key and an
eigenvalue's offset is its ``q_orbit`` exponent; each column of a class's
transposed partitions is one multiplicity vector over those offsets, and
every maximal q-chain of it adds one block of its length to m; a nilpotent
Jordan block of size s = k*ell + t adds k full cycles to the last m-slot
and one size-t entry to r (all of s goes to r when ell is INFINITE).
"""

from collections import Counter

from .chains import _maximal_chains
from .commutant import MatrixPair
from .components import ComponentIndex
from .jordan import JordanSpec, jordan_data, transpose_partition
from .scalars import INFINITE, q_orbit


def classify(pair_or_spec) -> ComponentIndex:
    """The component index certified to contain the given pair.

    Accepts a MatrixPair (classifying through A's Jordan data, which must be
    computable in the coefficient field) or a JordanSpec of A directly.  The
    output satisfies ||m|| + ||r|| = n and is a membership certificate: the
    pair lies in the closure of that component's dense stratum.
    """
    if isinstance(pair_or_spec, MatrixPair):
        spec = jordan_data(pair_or_spec.A)
    elif isinstance(pair_or_spec, JordanSpec):
        spec = pair_or_spec
    else:
        raise TypeError("classify expects a MatrixPair or a JordanSpec")
    ell = spec.ctx.ell
    m, r = Counter(), Counter()  # block size -> number of blocks
    columns = {}  # (q-orbit key, column j) -> {offset: height of column j}
    for eigenvalue, partition in spec.blocks:
        if eigenvalue.is_zero():
            for s in partition:
                k, t = (0, s) if ell is INFINITE else divmod(s, ell)
                if k:
                    m[ell] += k
                if t:
                    r[t] += 1
            continue
        key, k = q_orbit(eigenvalue)
        for j, height in enumerate(transpose_partition(partition)):
            columns.setdefault((key, j), {})[k] = height
    for mult in columns.values():
        for _, length, count in _maximal_chains(mult, ell):
            m[length] += count
    return ComponentIndex(ell, [m[i] for i in range(1, max(m, default=0) + 1)],
                          [r[i] for i in range(1, max(r, default=0) + 1)])
