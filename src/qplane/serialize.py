"""JSON encoding of the library's domain objects.

Scalars travel as canonical strings of the scalar grammar, matrices as
{"rows", "cols", "entries"} with a string per entry, pairs as
{"field", "A", "B"} with the context stated once at the top.  Component
indices are dense lists for a finite order and sparse {size: count} maps in
the infinite regime.

Both directions cost what the nonzeros cost: writing fills the entry grid
with one zero string and formats only the stored entries; reading parses
each distinct entry string of a matrix, or of a pair document, once, in
row-major order so that the first bad entry is the one reported, and builds
the matrix from its nonzero entries.
"""

from .commutant import MatrixPair
from .components import ComponentIndex
from .errors import ParseError
from .git_quotient import GitIndex, TraceFingerprint
from .matrices import QMatrix
from .scalars import FieldContext, INFINITE, _order, format_scalar, parse_scalar


def ell_to_obj(ell):
    return "inf" if ell is INFINITE else ell


def ell_from_obj(value):
    if value in ("inf", "infinity", "oo"):
        return INFINITE
    if type(value) is int and value >= 1:
        return value
    raise ParseError(f"not a valid order: {value!r}")


def matrix_to_obj(M: QMatrix, with_field=False):
    zero = format_scalar(M.ctx.zero())
    entries = [[zero] * M.ncols for _ in range(M.nrows)]
    for r, c, x in M.nonzeros():
        entries[r][c] = format_scalar(x)
    obj = {"rows": M.nrows, "cols": M.ncols, "entries": entries}
    if with_field:
        obj["field"] = M.ctx.to_obj()
    return obj


def matrix_from_obj(obj, ctx=None) -> QMatrix:
    return _matrix_from_obj(obj, ctx, {})


def _matrix_from_obj(obj, ctx, parsed) -> QMatrix:
    """matrix_from_obj, with parsed mapping each entry string met so far in
    the document to its scalar."""
    if not isinstance(obj, dict):
        raise ParseError("matrix must be a JSON object")
    if ctx is None:
        if "field" not in obj:
            raise ParseError("matrix object needs a 'field' key")
        ctx = FieldContext.from_obj(obj["field"])
    try:
        nrows, ncols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as missing:
        raise ParseError(f"matrix object lacks key {missing}") from None
    if type(nrows) is not int or type(ncols) is not int or nrows < 0 or ncols < 0:
        raise ParseError("matrix sides must be nonnegative integers")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ParseError("entry grid must be a list of lists")
    if len(entries) != nrows or any(len(row) != ncols for row in entries):
        raise ParseError("entry grid does not match the declared shape")
    triples = []
    for r, row in enumerate(entries):
        for c, text in enumerate(row):
            # a non-string is never looked up: it may be unhashable
            x = parsed.get(text) if isinstance(text, str) else None
            if x is None:
                x = parsed[text] = parse_scalar(text, ctx)
            if x:
                triples.append((r, c, x))
    return QMatrix.sparse(ctx, nrows, ncols, triples)


def pair_to_obj(pair: MatrixPair):
    return {
        "field": pair.ctx.to_obj(),
        "A": matrix_to_obj(pair.A),
        "B": matrix_to_obj(pair.B),
    }


def pair_from_obj(obj) -> MatrixPair:
    if not isinstance(obj, dict):
        raise ParseError("pair must be a JSON object")
    for key in ("field", "A", "B"):
        if key not in obj:
            raise ParseError(f"pair object lacks the '{key}' key")
    ctx = FieldContext.from_obj(obj["field"])
    parsed = {}
    A = _matrix_from_obj(obj["A"], ctx, parsed)
    B = _matrix_from_obj(obj["B"], ctx, parsed)
    return MatrixPair(A, B)


def _counts_to_obj(counts, dense):
    if dense:
        return list(counts)
    return {str(i + 1): c for i, c in enumerate(counts) if c}


def _counts_from_obj(value, what, largest):
    """The count tuple of a dense list or a sparse {size: count} object,
    whose keys must read as index_to_obj writes them; a size above the
    largest the order allows is refused before any tuple is built."""
    if isinstance(value, list):
        if not all(type(c) is int for c in value):
            raise ParseError(f"'{what}' entries must be integers")
        return tuple(value)
    if isinstance(value, dict):
        counts = {}
        for key, c in value.items():
            try:
                size = int(key)
            except (TypeError, ValueError):
                size = 0
            if size < 1 or key != str(size):
                raise ParseError(f"'{what}' keys must be block sizes >= 1 in decimal, got {key!r}")
            if type(c) is not int:
                raise ParseError(f"'{what}' must map sizes >= 1 to integer counts")
            if size > largest:
                raise ParseError(f"'{what}' has a block size {size} above {largest}, "
                                 "the largest at this order")
            counts[size] = c
        top = max(counts, default=0)
        return tuple(counts.get(i, 0) for i in range(1, top + 1))
    raise ParseError(f"'{what}' must be a list or a sparse object")


def index_to_obj(idx: ComponentIndex):
    dense = idx.ell is not INFINITE
    return {
        "m": _counts_to_obj(idx.m, dense),
        "r": _counts_to_obj(idx.r, dense),
    }


def index_from_obj(obj, ell) -> ComponentIndex:
    if not isinstance(obj, dict):
        raise ParseError("component index must be a JSON object")
    for key in ("m", "r"):
        if key not in obj:
            raise ParseError(f"component index lacks the '{key}' key")
    ell = _order(ell)  # INFINITE - 1 is INFINITE
    return ComponentIndex(ell, _counts_from_obj(obj["m"], "m", ell),
                          _counts_from_obj(obj["r"], "r", ell - 1))


def git_index_to_obj(idx: GitIndex):
    return {"p": idx.p, "m": idx.m, "r": idx.r}


def fingerprint_to_obj(fp: TraceFingerprint):
    return {
        "N": fp.max_degree,
        "T": [[format_scalar(x) for x in row] for row in fp.grid],
    }
