import random
import tracemalloc

import numpy as np
import pytest

from groupalg.algebra import AlgebraElem, element_from_text, element_to_text, \
    parse_element_inline, random_element, read_element_file
from groupalg.errors import DomainError, SpecError
from groupalg.field import make_field, parse_field_spec
from groupalg.groups import make_group

import oracles

CONTEXTS = (("gf:5", "symmetric:3"), ("gf:2^2", "cyclic:6"),
            ("gf:2", "dihedral:4"), ("gf:3", "product:cyclic:2,cyclic:2"),
            ("gf:3^2", "symmetric:3"))


def _ctx(fspec, gspec):
    return parse_field_spec(fspec), make_group(gspec)


def test_ring_axioms_random():
    rng = random.Random(21)
    for fspec, gspec in CONTEXTS:
        f, g = _ctx(fspec, gspec)
        for _ in range(8):
            a = random_element(f, g, rng)
            b = random_element(f, g, rng)
            c = random_element(f, g, rng)
            one = AlgebraElem.one(f, g)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a - a == AlgebraElem.zero(f, g)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * one == a and one * a == a
            assert (-a) + a == AlgebraElem.zero(f, g)


def test_basis_products_follow_group_table():
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:7", "dihedral:3")):
        f, g = _ctx(fspec, gspec)
        for i in range(g.n):
            for j in range(g.n):
                prod = AlgebraElem.basis(f, g, i) * AlgebraElem.basis(f, g, j)
                assert prod == AlgebraElem.basis(f, g, int(g.mul[i, j]))


def test_convolution_matches_oracle():
    rng = random.Random(22)
    for fspec, gspec in CONTEXTS:
        f, g = _ctx(fspec, gspec)
        for _ in range(6):
            a = random_element(f, g, rng)
            b = random_element(f, g, rng)
            want = oracles.convolve(f.q, g.mul.tolist(),
                                    a.coeffs.tolist(), b.coeffs.tolist())
            assert (a * b).coeffs.tolist() == want


def test_scale_and_scalar_distribution():
    f, g = _ctx("gf:5", "cyclic:4")
    rng = random.Random(23)
    a = random_element(f, g, rng)
    b = random_element(f, g, rng)
    assert a.scale(0).is_zero
    assert a.scale(1) == a
    assert (a + b).scale(3) == a.scale(3) + b.scale(3)
    assert (a.scale(2) + a.scale(3)).is_zero  # 2+3 = 0 mod 5
    with pytest.raises(SpecError):
        a.scale(5)
    with pytest.raises(SpecError, match="integers"):
        a.scale(1.9)  # was a scale by 1
    assert a.scale(3.0) == a.scale(3)


def test_elements_refuse_non_integral_coefficients():
    f, g = _ctx("gf:3", "cyclic:3")
    with pytest.raises(SpecError, match="integers"):
        AlgebraElem(f, g, [0.5, 1.9, 2.2])
    assert AlgebraElem(f, g, [0.0, 1.0, 2.0]).coeffs.tolist() == [0, 1, 2]


def test_star_is_an_involution_and_antihomomorphism():
    rng = random.Random(24)
    for fspec, gspec in (("gf:5", "symmetric:3"), ("gf:2^2", "dihedral:4")):
        f, g = _ctx(fspec, gspec)
        for _ in range(10):
            a = random_element(f, g, rng)
            b = random_element(f, g, rng)
            assert a.star().star() == a
            assert (a + b).star() == a.star() + b.star()
            assert (a * b).star() == b.star() * a.star()
    # on a commutative group with an inversion-stable support, star fixes f
    f, g = _ctx("gf:2", "cyclic:5")
    sym = AlgebraElem(f, g, (0, 1, 0, 0, 1))  # g and g^4 swap under inversion
    assert sym.star() == sym


def test_star_permutes_by_inverse():
    f, g = _ctx("gf:7", "symmetric:3")
    a = AlgebraElem(f, g, (1, 2, 3, 4, 5, 6))
    assert a.star().coeffs.tolist() == [a.coeffs[g.inv[i]] for i in range(6)]


def test_is_idempotent():
    f, g = _ctx("gf:5", "symmetric:3")
    assert AlgebraElem.one(f, g).is_idempotent()
    assert AlgebraElem.zero(f, g).is_idempotent()
    e = AlgebraElem(f, g, (3, 3, 0, 0, 0, 0))
    assert e.is_idempotent()
    assert not AlgebraElem(f, g, (1, 1, 0, 0, 0, 0)).is_idempotent()


def test_repr_uses_labels():
    f, g = _ctx("gf:5", "cayley:src/groupalg/data/s3_paper.cayley")
    e = AlgebraElem(f, g, (3, 3, 0, 0, 0, 0))
    assert repr(e) == "3 + 3*(12)"
    assert repr(AlgebraElem.zero(f, g)) == "0"
    assert repr(AlgebraElem.basis(f, g, 4)) == "(123)"


def test_element_text_roundtrip():
    rng = random.Random(25)
    for fspec, gspec in CONTEXTS:
        f, g = _ctx(fspec, gspec)
        for _ in range(5):
            a = random_element(f, g, rng)
            assert element_from_text(f, g, element_to_text(a)) == a
    f, g = _ctx("gf:5", "cyclic:3")
    text = element_to_text(AlgebraElem(f, g, (0, 4, 0)))
    assert text == "2:4\n"  # sparse, 1-based


def test_element_text_extension_coeffs():
    f, g = _ctx("gf:2^2", "cyclic:3")
    a = AlgebraElem(f, g, (0, 3, 1))
    text = element_to_text(a)
    assert "1,1" in text  # value 3 = x+1 prints as coefficient list
    assert element_from_text(f, g, text) == a


def test_element_text_errors():
    f, g = _ctx("gf:5", "cyclic:3")
    with pytest.raises(SpecError):
        element_from_text(f, g, "1:1\n1:2\n")  # duplicate index
    with pytest.raises(SpecError):
        element_from_text(f, g, "4:1\n")  # index out of range
    with pytest.raises(SpecError):
        element_from_text(f, g, "0:1\n")
    with pytest.raises(SpecError):
        element_from_text(f, g, "1:7\n")  # coefficient out of range
    with pytest.raises(SpecError):
        element_from_text(f, g, "11\n")  # no colon
    assert element_from_text(f, g, "").is_zero


def test_parse_element_inline():
    f, g = _ctx("gf:5", "cyclic:6")
    a = parse_element_inline(f, g, "1:1,4:3")
    assert a.coeffs.tolist() == [1, 0, 0, 3, 0, 0]
    assert parse_element_inline(f, g, "").is_zero
    with pytest.raises(SpecError):
        parse_element_inline(f, g, "1:1,1:2")
    fx, _ = _ctx("gf:2^2", "cyclic:6")
    with pytest.raises(SpecError):
        parse_element_inline(fx, g, "1:1,1")  # ambiguous commas for gf(4)


def test_read_element_file(tmp_path):
    f, g = _ctx("gf:5", "cyclic:3")
    path = str(tmp_path / "elem.txt")
    with open(path, "w") as fh:
        fh.write("1:2\n3:4\n")
    a = read_element_file(f, g, path)
    assert a.coeffs.tolist() == [2, 0, 4]
    with pytest.raises(SpecError):
        read_element_file(f, g, str(tmp_path / "missing.txt"))


def test_context_mismatch_raises():
    f5, s3 = _ctx("gf:5", "symmetric:3")
    f7, c6 = _ctx("gf:7", "cyclic:6")
    a = AlgebraElem.one(f5, s3)
    with pytest.raises(DomainError):
        a + AlgebraElem.one(f7, s3)
    with pytest.raises(DomainError):
        a * AlgebraElem.one(f5, c6)


def test_coeff_validation():
    f, g = _ctx("gf:3", "cyclic:4")
    with pytest.raises(SpecError):
        AlgebraElem(f, g, (0, 1, 3, 0))
    with pytest.raises(SpecError):
        AlgebraElem(f, g, (0, 1))  # wrong length


def test_product_past_the_dot_block_gathers_columns_in_blocks():
    # rho(b) of cyclic:4096 is 4096^2 int64, 128 MiB; blocks stay near 32 MiB
    f, g = make_field(2), make_group("cyclic:4096")
    rng = np.random.default_rng(4096)
    a = AlgebraElem(f, g, rng.integers(0, 2, 4096))
    b = AlgebraElem(f, g, rng.integers(0, 2, 4096))
    tracemalloc.start()
    try:
        prod = a * b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    full = np.convolve(a.coeffs, b.coeffs)
    assert np.array_equal(prod.coeffs, (full[:4096] + np.append(full[4096:], 0)) % 2)
