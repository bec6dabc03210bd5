import json
import random
from fractions import Fraction

import pytest

from qplane import (ComponentIndex, DivisionByZero, FieldContext, INFINITE,
                    MatrixPair, ParseError, QMatrix, RelationViolated, format_scalar,
                    jordan_block, parse_scalar, q_layered, sample_point,
                    trace_fingerprint)
from qplane.cli import MAX_SAMPLE_N
from qplane.serialize import (ell_from_obj, ell_to_obj, fingerprint_to_obj,
                              git_index_to_obj, index_from_obj, index_to_obj,
                              matrix_from_obj, matrix_to_obj, pair_from_obj,
                              pair_to_obj)

GEN = FieldContext.generic()
C3 = FieldContext.root_of_unity(3)


def test_ell_round_trip():
    assert ell_from_obj(ell_to_obj(4)) == 4
    assert ell_from_obj(ell_to_obj(INFINITE)) is INFINITE
    assert ell_from_obj("oo") is INFINITE
    with pytest.raises(ParseError):
        ell_from_obj(0)
    with pytest.raises(ParseError):
        ell_from_obj("four")


def test_matrix_round_trip_is_json_safe():
    rng = random.Random(0)
    for ctx in (C3, GEN):
        rows = [[ctx.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 * ctx.q() ** rng.randint(0, 2)
                 for _ in range(3)] for _ in range(2)]
        M = QMatrix(ctx, rows)
        text = json.dumps(matrix_to_obj(M, with_field=True))
        back = matrix_from_obj(json.loads(text))
        assert back == M


def test_matrix_shape_validation():
    obj = {"rows": 2, "cols": 2, "entries": [["1", "0"]]}
    with pytest.raises(ParseError):
        matrix_from_obj(obj, C3)


def test_matrix_needs_field_or_context():
    with pytest.raises(ParseError):
        matrix_from_obj({"rows": 0, "cols": 0, "entries": []})


def test_empty_matrix_round_trip():
    M = QMatrix.zero(GEN, 0, 0)
    assert matrix_from_obj(matrix_to_obj(M), GEN) == M


def test_pair_round_trip():
    A = jordan_block(C3, 3, C3.zero())
    B = q_layered(3, 3, [C3.rational(2), C3.one(), C3.zero()])
    pair = MatrixPair(A, B)
    back = pair_from_obj(json.loads(json.dumps(pair_to_obj(pair))))
    assert back == pair


def test_pair_relation_checked_on_load():
    I2 = QMatrix.identity(GEN, 2)
    obj = {
        "field": GEN.to_obj(),
        "A": matrix_to_obj(I2),
        "B": matrix_to_obj(I2),
    }
    with pytest.raises(RelationViolated):
        pair_from_obj(obj)


def test_index_dense_round_trip():
    idx = ComponentIndex(3, m=(1, 0, 2), r=(0, 1))
    obj = index_to_obj(idx)
    assert obj == {"m": [1, 0, 2], "r": [0, 1]}
    assert index_from_obj(obj, 3, MAX_SAMPLE_N) == idx


def test_index_sparse_round_trip():
    idx = ComponentIndex(INFINITE, m=(0, 1), r=(3,))
    obj = index_to_obj(idx)
    assert obj == {"m": {"2": 1}, "r": {"1": 3}}
    assert index_from_obj(obj, INFINITE, MAX_SAMPLE_N) == idx


def test_index_sparse_accepted_for_finite_order():
    idx = index_from_obj({"m": {"2": 1}, "r": {}}, 2, MAX_SAMPLE_N)
    assert idx == ComponentIndex(2, m=(0, 1), r=(0,))


def test_index_bad_keys_rejected():
    with pytest.raises(ParseError):
        index_from_obj({"m": "nope", "r": []}, 2, MAX_SAMPLE_N)
    # a key must read as index_to_obj writes it: int() read each of these,
    # so "01" overwrote "1" and "1_0" was size 10
    for key in ("01", "+1", " 2", "1_0", "0", "-1", "zero", 1):
        with pytest.raises(ParseError, match="^'m' keys must be block sizes >= 1 in decimal, got"):
            index_from_obj({"m": {"1": 1, key: 2}, "r": {}}, INFINITE, MAX_SAMPLE_N)
    assert index_from_obj({"m": {"10": 1}, "r": {}}, INFINITE, MAX_SAMPLE_N).m == (0,) * 9 + (1,)
    # at a finite order a size above it is refused before any counts are built
    for obj, what, size, largest in (({"m": {"4": 1}, "r": {}}, "m", 4, 3),
                                     ({"m": {}, "r": {"3": 1}}, "r", 3, 2),
                                     ({"m": {str(10 ** 13): 1}, "r": {}}, "m", 10 ** 13, 3)):
        with pytest.raises(ParseError, match=f"^'{what}' has a block size {size} above {largest}, "
                                             "the largest at this order$"):
            index_from_obj(obj, 3, MAX_SAMPLE_N)
    idx = index_from_obj({"m": {"3": 1}, "r": {"2": 1}}, 3, MAX_SAMPLE_N)
    assert idx == ComponentIndex(3, (0, 0, 1), (0, 1))


def test_a_negative_count_is_refused_whatever_its_size():
    for obj, what in (({"m": [1, -1], "r": [0]}, "m"), ({"m": {}, "r": {"2": -1}}, "r"),
                      ({"m": {"1000000000": -1}, "r": {}}, "m")):
        with pytest.raises(ParseError, match=f"^'{what}' counts must be nonnegative$"):
            index_from_obj(obj, INFINITE if isinstance(obj["m"], dict) else 2, MAX_SAMPLE_N)


def test_an_index_without_m_or_r_is_refused():
    # both keys were read as empty counts, so {} was the empty index
    for obj, key in (({}, "m"), ({"M": [1, 0, 0], "r": [0, 0]}, "m"), ({"m": [1, 0, 0]}, "r")):
        with pytest.raises(ParseError, match=f"^component index lacks the '{key}' key$"):
            index_from_obj(obj, 3, MAX_SAMPLE_N)


def test_git_index_to_obj():
    from qplane import GitIndex
    assert git_index_to_obj(GitIndex(1, 2, 0)) == {"p": 1, "m": 2, "r": 0}


def test_a_boolean_is_not_an_integer():
    # isinstance(True, int) holds, so each of these once read true as 1
    with pytest.raises(ParseError):
        ell_from_obj(True)
    with pytest.raises(ParseError, match="^matrix sides must be nonnegative integers$"):
        matrix_from_obj({"rows": True, "cols": 1, "entries": [["1"]]}, C3)
    with pytest.raises(ParseError, match="^cyclotomic context needs a positive integer 'ell'$"):
        FieldContext.from_obj({"type": "cyclotomic", "ell": True})
    with pytest.raises(ParseError, match="^'m' entries must be integers$"):
        index_from_obj({"m": [True, 0], "r": [0]}, 2, MAX_SAMPLE_N)
    with pytest.raises(ParseError, match="^'r' must map sizes >= 1 to integer counts$"):
        index_from_obj({"m": {}, "r": {"1": True}}, INFINITE, MAX_SAMPLE_N)


def test_fingerprint_shape():
    pair = sample_point(ComponentIndex(2, m=(0, 1), r=(0,)), seed=0)
    fp = trace_fingerprint(pair, N=2)
    obj = fingerprint_to_obj(fp)
    assert obj["N"] == 2
    assert len(obj["T"]) == 3
    assert all(len(row) == 3 for row in obj["T"])
    assert obj["T"][0][0] == "2"
    json.dumps(obj)  # must be JSON-clean


# ---------------------------------------------------------------------------
# ingest: one parse per distinct entry, errors in row-major order
# ---------------------------------------------------------------------------

def counting_parser(monkeypatch):
    """Count the parse_scalar calls serialize makes, by entry string."""
    import qplane.serialize as serialize
    calls = []
    parse = serialize.parse_scalar

    def counted(text, ctx):
        calls.append(text)
        return parse(text, ctx)

    monkeypatch.setattr(serialize, "parse_scalar", counted)
    return calls


def test_each_distinct_entry_of_a_pair_document_is_parsed_once(monkeypatch):
    calls = counting_parser(monkeypatch)
    for idx in (ComponentIndex(3, m=(1, 1, 0), r=(1, 0)),
                ComponentIndex(INFINITE, m=(1, 1), r=(1,))):
        obj = json.loads(json.dumps(pair_to_obj(sample_point(idx, seed=4))))
        texts = [t for key in ("A", "B") for row in obj[key]["entries"] for t in row]
        del calls[:]
        pair = pair_from_obj(obj)
        assert sorted(calls) == sorted(set(texts))
        assert len(calls) < len(texts)
        assert pair == sample_point(idx, seed=4)


def test_a_non_string_entry_keeps_its_error(monkeypatch):
    calls = counting_parser(monkeypatch)
    for bad in (7, None, ["1"], {"q": 1}):
        obj = {"rows": 2, "cols": 2, "entries": [["1", "q"], ["1", bad]]}
        del calls[:]
        with pytest.raises(ParseError, match="^scalar input must be a string$"):
            matrix_from_obj(obj, C3)
        assert calls == ["1", "q", bad]


def test_a_bad_entry_after_a_valid_repeat_keeps_its_message_and_position():
    obj = {"rows": 2, "cols": 2, "entries": [["2*q", "1"], ["2*q", "2*x"]]}
    with pytest.raises(ParseError) as caught:
        matrix_from_obj(obj, C3)
    with pytest.raises(ParseError) as direct:
        parse_scalar("2*x", C3)
    assert str(caught.value) == str(direct.value) == "expected 'q' after '*' (at position 2)"
    assert caught.value.position == direct.value.position == 2


def test_the_first_bad_entry_in_row_major_order_is_reported():
    # "q^" is the first bad string met row by row; "1/0" comes later in the
    # rows although it is in an earlier column
    entries = [["1", "0", "0"], ["0", "q^", "0"], ["1/0", "0", "q^"]]
    with pytest.raises(ParseError) as caught:
        matrix_from_obj({"rows": 3, "cols": 3, "entries": entries}, C3)
    with pytest.raises(ParseError) as direct:
        parse_scalar("q^", C3)
    assert str(caught.value) == str(direct.value)
    entries[1][1] = "q"
    with pytest.raises(DivisionByZero):
        matrix_from_obj({"rows": 3, "cols": 3, "entries": entries}, C3)


def test_a_matrix_of_zero_entries_is_the_zero_matrix():
    zeros = ["0", " 0 ", "0*q", "q - q"]
    for ctx in (C3, GEN):
        for rows, cols in ((1, 1), (2, 3), (4, 5)):
            obj = {"rows": rows, "cols": cols,
                   "entries": [[zeros[(r + c) % 4] for c in range(cols)] for r in range(rows)]}
            M = matrix_from_obj(obj, ctx)
            assert M == QMatrix.zero(ctx, rows, cols)
            assert M.nonzeros() == []
            assert matrix_to_obj(M) == {"rows": rows, "cols": cols,
                                        "entries": [["0"] * cols for _ in range(rows)]}


def test_matrix_json_formats_only_the_nonzeros():
    rng = random.Random(1)
    for ctx in (C3, GEN):
        for _ in range(20):
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            M = QMatrix.sparse(ctx, rows, cols, [
                (rng.randrange(rows), rng.randrange(cols), ctx.q() ** rng.randint(-2, 2))
                for _ in range(rng.randint(0, 6))] if rows and cols else [])
            dense = {"rows": rows, "cols": cols,
                     "entries": [[format_scalar(x) for x in row] for row in M.rows]}
            assert matrix_to_obj(M) == dense
