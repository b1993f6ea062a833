import random
import tracemalloc

import numpy as np
import pytest

from groupalg.algebra import AlgebraElem, random_element
from groupalg.dimension import IdealSpec
from groupalg.errors import BudgetExceededError, DomainError, SpecError
from groupalg.field import parse_field_spec
from groupalg.gcode import build_code, code_to_text, encode, is_codeword, min_distance
from groupalg.groups import make_group

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
