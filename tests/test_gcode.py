import random
import tracemalloc

import numpy as np
import pytest

from groupalg.algebra import AlgebraElem, random_element
from groupalg.dimension import IdealSpec
from groupalg.errors import BudgetExceededError, DomainError, SpecError
from groupalg import gcode
from groupalg.field import parse_field_spec
from groupalg.gcode import build_code, code_to_text, encode, is_codeword, min_distance
from groupalg.groups import make_group
from groupalg.linalg import FMatrix, rank

import oracles


def _ctx(fspec, gspec):
    return parse_field_spec(fspec), make_group(gspec)


def _code(fspec, gspec, coeffs, side="left"):
    f, g = _ctx(fspec, gspec)
    return build_code(IdealSpec(side, (AlgebraElem(f, g, coeffs),)))


def test_repetition_style_cyclic_code():
    # 1 + g^3 in F_2[C_6]: three disjoint doubled coordinates
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))
    assert (code.n, code.k) == (6, 3)
    assert code.genmat.data.tolist() == [[1, 0, 0, 1, 0, 0],
                                         [0, 1, 0, 0, 1, 0],
                                         [0, 0, 1, 0, 0, 1]]
    assert code.paritymat.data.tolist() == code.genmat.data.tolist()  # self-dual
    assert min_distance(code) == 2


def test_full_support_cyclic_code():
    code = _code("gf:2", "cyclic:6", (1, 1, 1, 1, 1, 1))
    assert (code.n, code.k) == (6, 1)
    assert min_distance(code) == 6


def test_encode_and_membership():
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))
    word = encode(code, [1, 0, 1])
    assert word.tolist() == [1, 0, 1, 1, 0, 1]
    assert is_codeword(code, word)
    assert not is_codeword(code, [1, 0, 0, 0, 0, 0])
    assert is_codeword(code, np.zeros(6, dtype=np.int64))
    with pytest.raises(SpecError):
        encode(code, [1, 0])
    with pytest.raises(SpecError):
        encode(code, [1, 0, 2])
    with pytest.raises(SpecError):
        is_codeword(code, [1, 0, 0])


def test_encode_and_membership_refuse_non_integral_input():
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))
    with pytest.raises(SpecError, match="integers"):
        encode(code, [1.7, 0, 0])
    with pytest.raises(SpecError, match="integers"):
        is_codeword(code, [0.9] * 6)
    assert encode(code, [1.0, 0.0, 0.0]).tolist() == [1, 0, 0, 1, 0, 0]


def test_all_messages_give_codewords():
    rng = random.Random(51)
    for fspec, gspec in (("gf:3", "dihedral:3"), ("gf:2^2", "cyclic:4")):
        f, g = _ctx(fspec, gspec)
        a = random_element(f, g, rng)
        while a.is_zero:
            a = random_element(f, g, rng)
        code = build_code(IdealSpec("left", (a,)))
        for _ in range(10):
            msg = [rng.randrange(f.q) for _ in range(code.k)]
            assert is_codeword(code, encode(code, msg))


def test_genmat_times_parity_transpose_vanishes():
    rng = random.Random(52)
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:5", "cyclic:6"),
                         ("gf:2^2", "product:cyclic:2,cyclic:2")):
        f, g = _ctx(fspec, gspec)
        a = random_element(f, g, rng)
        while a.is_zero:
            a = random_element(f, g, rng)
        code = build_code(IdealSpec("left", (a,)))
        assert code.k + code.paritymat.rows == code.n
        if code.paritymat.rows:
            prod = code.genmat @ code.paritymat.transpose()
            assert not prod.data.any()


def test_min_distance_matches_oracle():
    rng = random.Random(53)
    for fspec, gspec in (("gf:2", "dihedral:4"), ("gf:3", "cyclic:6"),
                         ("gf:2^2", "cyclic:4")):
        f, g = _ctx(fspec, gspec)
        for _ in range(4):
            a = random_element(f, g, rng)
            if a.is_zero:
                continue
            code = build_code(IdealSpec("left", (a,)))
            want = oracles.min_weight(f.q, code.genmat.data.tolist())
            assert min_distance(code) == want, (fspec, gspec)


def _trace_code(rng, fspec, gspec, step):
    # r * (sum of the subgroup generated by y^step): a left ideal of dimension at most step
    f, g = _ctx(fspec, gspec)
    trace = AlgebraElem(f, g, [int(i % step == 0) for i in range(g.n)])
    r = random_element(f, g, rng)
    while r.is_zero:
        r = random_element(f, g, rng)
    return build_code(IdealSpec("left", (r * trace,)))


def _random_codes(rng, f, n, count):
    # random full-rank k x n generator matrices, k = 1..4 while q^k stays small: their
    # lightest codewords are combinations of rows, so each walk step has to be right
    codes = []
    while len(codes) < count:
        k = rng.randint(1, min(4, 10 // f.q.bit_length()))
        g = FMatrix(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)])
        if rank(g) == k:
            codes.append(gcode.GroupCode(n, k, f, g, None, None))
    return codes


# (field, group, step): extension and odd prime fields, and n > 64, so that binary
# codewords span two packed words and GF(4) ones two words in each of two digit planes
ORACLE_CODES = (("gf:2^3", "cyclic:9", 3), ("gf:3^2", "cyclic:6", 3), ("gf:5", "cyclic:15", 3),
                ("gf:7", "cyclic:6", 3), ("gf:2", "cyclic:70", 7), ("gf:2^2", "cyclic:66", 3))


@pytest.mark.parametrize("fspec,gspec,step", ORACLE_CODES)
def test_min_distance_matches_oracle_beyond_one_word(fspec, gspec, step):
    rng = random.Random(f"{fspec} {gspec}")
    codes = [_trace_code(rng, fspec, gspec, step) for _ in range(2)]
    codes += _random_codes(rng, codes[0].field, codes[0].n, 12)
    for code in codes:
        want = oracles.min_weight(code.field.q, code.genmat.data.tolist())
        assert min_distance(code) == want, code.genmat.data.tolist()


@pytest.mark.parametrize("entries", [1, 7, 60])
def test_min_distance_walks_across_block_boundaries(monkeypatch, entries):
    # shrunken blocks split every walk into many, each carrying the last codeword on
    monkeypatch.setattr(gcode, "_BLOCK_ENTRIES", entries)
    rng = random.Random(entries)
    for fspec, n in (("gf:2", 70), ("gf:3", 12), ("gf:2^2", 66), ("gf:2", 9), ("gf:5", 8)):
        for code in _random_codes(rng, parse_field_spec(fspec), n, 6):
            want = oracles.min_weight(code.field.q, code.genmat.data.tolist())
            assert min_distance(code) == want, (fspec, code.genmat.data.tolist())


def test_min_distance_crosses_a_default_block():
    # (1+y)^1008 = sum_{i<64} y^(16i) in F_2[C_1024]: every codeword repeats a length-16
    # block 64 times, so d = 64; 2^15 walk steps over 16 words span two full blocks
    code = _code("gf:2", "cyclic:1024", [int(i % 16 == 0) for i in range(1024)])
    assert code.k == 16
    assert 2 ** (code.k - 1) * 16 > gcode._BLOCK_ENTRIES
    assert min_distance(code) == 64


def test_min_distance_of_one_message_over_a_large_prime():
    # 1 + y + y^2 spans a [3, 1, 3] code over F_p: one projective message
    code = _code("gf:2147483647", "cyclic:3", (1, 1, 1))
    assert code.k == 1
    assert min_distance(code, budget=code.field.q) == 3


def test_min_distance_holds_one_block_of_codewords():
    # (1+y)^1012 in F_2[C_1024] spans a [1024, 12] code with d = 128; enumerating
    # its 4096 codewords must not build a messages x k x n product
    coeffs = [1 if i & 1012 == i else 0 for i in range(1024)]  # Lucas: C(1012, i) mod 2
    code = _code("gf:2", "cyclic:1024", coeffs)
    assert code.k == 12
    tracemalloc.start()
    try:
        d = min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 128
    assert peak < 128 << 20


def test_min_distance_budget():
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))  # k = 3, 8 messages
    assert min_distance(code, budget=8) == 2
    with pytest.raises(BudgetExceededError):
        min_distance(code, budget=7)
    # BudgetExceededError is a DomainError, so callers can catch either
    with pytest.raises(DomainError):
        min_distance(code, budget=1)


def test_min_distance_refuses_a_negative_budget():
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))
    with pytest.raises(SpecError, match="budget must be >= 0"):
        min_distance(code, budget=-5)
    with pytest.raises(BudgetExceededError):
        min_distance(code, budget=0)


@pytest.mark.parametrize("budget", [True, 8.5, 8.0, "8", None])
def test_min_distance_refuses_a_budget_that_is_not_an_int(budget):
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))
    with pytest.raises(SpecError, match="budget must be an int"):
        min_distance(code, budget=budget)


def test_zero_ideal_has_no_code():
    f, g = _ctx("gf:2", "cyclic:4")
    with pytest.raises(DomainError):
        build_code(IdealSpec("left", (AlgebraElem.zero(f, g),)))


def test_full_ideal_code():
    f, g = _ctx("gf:5", "symmetric:3")
    code = build_code(IdealSpec("left", (AlgebraElem.one(f, g),)))
    assert (code.n, code.k) == (6, 6)
    assert code.genmat.data.tolist() == np.eye(6, dtype=int).tolist()
    assert code.paritymat.rows == 0
    assert min_distance(code) == 1
    assert is_codeword(code, [4, 0, 0, 0, 0, 1])


def test_equal_ideals_export_identically():
    # different generators of one ideal produce the same canonical matrices
    f, g = _ctx("gf:5", "cayley:src/groupalg/data/s3_paper.cayley")
    a = AlgebraElem(f, g, (1, 1, 0, 0, 0, 0))
    e = AlgebraElem(f, g, (3, 3, 0, 0, 0, 0))  # idempotent generator, same ideal
    ca = build_code(IdealSpec("left", (a,)))
    ce = build_code(IdealSpec("left", (e,)))
    assert ca.genmat.data.tolist() == ce.genmat.data.tolist()
    assert ca.paritymat.data.tolist() == ce.paritymat.data.tolist()
    assert code_to_text(ca) == code_to_text(ce)


def test_code_text_format():
    code = _code("gf:2", "cyclic:6", (1, 0, 0, 1, 0, 0))
    text = code_to_text(code)
    lines = text.splitlines()
    assert lines[0] == "6 3 2"
    assert lines[1] == "1 0 0 1 0 0"
    assert len(lines) == 1 + 3 + 3
    ext = _code("gf:2^2", "cyclic:4", (1, 2, 0, 0))
    first = code_to_text(ext).splitlines()
    assert first[0] == "4 4 4"  # x + g is invertible in GF(4)[C_4]


def test_right_sided_code():
    rng = random.Random(54)
    f, g = _ctx("gf:2", "symmetric:3")
    a = random_element(f, g, rng)
    while a.is_zero:
        a = random_element(f, g, rng)
    code = build_code(IdealSpec("right", (a,)))
    word = encode(code, [1] + [0] * (code.k - 1))
    assert is_codeword(code, word)
