import random
import tracemalloc

import numpy as np
import pytest

from groupalg import groups
from groupalg.algebra import AlgebraElem, random_element
from groupalg.errors import SpecError
from groupalg.field import parse_field_spec
from groupalg.groups import ORDER_CAP, Group, cayley_to_text, closure_from_generators, \
    compose_perms, group_from_cayley_text, load_cayley_file, load_perm_file, \
    make_group, save_cayley_file, validate_group, validate_table
from groupalg.representation import lambda_matrix, rho_matrix

import oracles

# order-5 Latin square with identity and two-sided inverses that is not
# associative: (g1 g2) g2 = g4 but g1 (g2 g2) = g1
NONASSOC_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_builtin_orders_and_commutativity():
    for n in range(1, 9):
        g = make_group(f"cyclic:{n}")
        assert g.n == n and g.is_commutative
    assert make_group("dihedral:2").is_commutative  # = Klein four-group
    for n in (3, 4, 5):
        g = make_group(f"dihedral:{n}")
        assert g.n == 2 * n and not g.is_commutative
    assert make_group("symmetric:2").n == 2
    s3 = make_group("symmetric:3")
    assert s3.n == 6 and not s3.is_commutative
    assert make_group("symmetric:4").n == 24


def test_builtin_labels():
    assert make_group("cyclic:4").labels == ("1", "g", "g^2", "g^3")
    assert make_group("dihedral:4").labels == (
        "1", "r", "r^2", "r^3", "s", "sr", "sr^2", "sr^3")
    assert make_group("symmetric:3").labels[0] == "[1,2,3]"


def test_klein_product_table():
    g = make_group("product:cyclic:2,cyclic:2")
    assert g.n == 4 and g.is_commutative
    assert g.labels == ("(1,1)", "(g,1)", "(1,g)", "(g,g)")
    assert g.mul.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2],
                              [2, 3, 0, 1], [3, 2, 1, 0]]
    assert g.inv.tolist() == [0, 1, 2, 3]  # every element self-inverse


def test_symmetric3_composition_order():
    # one-line notations in lex order; product applies the left factor first
    g = make_group("symmetric:3")
    assert g.labels == ("[1,2,3]", "[1,3,2]", "[2,1,3]",
                        "[2,3,1]", "[3,1,2]", "[3,2,1]")
    assert g.mul[1, 2] == 3  # [1,3,2] then [2,1,3] sends 1,2,3 to 2,3,1


def test_compose_perms_is_left_to_right():
    p = (1, 0, 2)
    q = (2, 1, 0)
    assert compose_perms(p, q) == (1, 2, 0)
    assert compose_perms(q, p) == (2, 0, 1)


def test_regular_matrices_and_products_read_mul_and_inv():
    # rho(f), lambda(f) and a*b are gathers through mul and inv alone; check
    # them against the oracle's triple-loop convolution
    rng = random.Random(91)
    for spec in ("cyclic:5", "dihedral:3", "symmetric:3", "product:symmetric:3,cyclic:2"):
        g = make_group(spec)
        table = g.mul.tolist()
        for fspec in ("gf:3", "gf:2^2"):
            f = parse_field_spec(fspec)
            for _ in range(3):
                a = random_element(f, g, rng)
                b = random_element(f, g, rng)
                x = a.coeffs.tolist()
                basis = [AlgebraElem.basis(f, g, i).coeffs.tolist() for i in range(g.n)]
                assert rho_matrix(a).data.tolist() == \
                    [oracles.convolve(f.q, table, e, x) for e in basis], (spec, fspec)
                assert lambda_matrix(a).data.tolist() == \
                    [oracles.convolve(f.q, table, x, e) for e in basis], (spec, fspec)
                assert (a * b).coeffs.tolist() == \
                    oracles.convolve(f.q, table, x, b.coeffs.tolist()), (spec, fspec)


def test_validate_table_full_catches_nonassociative():
    rep = validate_table(NONASSOC_5, "fast")
    assert rep.ok
    rep = validate_table(NONASSOC_5, "full")
    assert not rep.ok
    assert any("associativity" in v for v in rep.violations)
    # the constructor only runs the fast level, so this table is accepted
    g = Group("eabcd", NONASSOC_5, "loop5")
    assert not validate_group(g, "full").ok


def test_validate_table_reports_latin_violation():
    mul = make_group("cyclic:4").mul.copy()
    mul[2, 3] = mul[2, 2]
    rep = validate_table(mul, "fast")
    assert not rep.ok
    assert any("row 3 is not a permutation" in v for v in rep.violations)
    with pytest.raises(SpecError):
        Group(["a", "b", "c", "d"], mul, "broken")


def test_validate_table_reports_identity_violation():
    mul = make_group("cyclic:3").mul.copy()
    mul[[0, 1]] = mul[[1, 0]]  # identity no longer first
    rep = validate_table(mul, "fast")
    assert not rep.ok
    assert any(v.startswith("identity row") for v in rep.violations)


def test_validate_group_full_on_builtins():
    for spec in ("cyclic:7", "dihedral:4", "symmetric:3",
                 "product:cyclic:2,cyclic:3"):
        assert validate_group(make_group(spec), "full").ok, spec


def test_validation_level_checked():
    with pytest.raises(SpecError):
        validate_table([[0]], "paranoid")


def test_cayley_text_roundtrip():
    for spec in ("cyclic:6", "symmetric:3"):
        g = make_group(spec)
        text = cayley_to_text(g)
        g2 = group_from_cayley_text(text, g.name)
        assert cayley_to_text(g2) == text
        assert g2.labels == g.labels
        assert np.array_equal(g2.mul, g.mul)


def test_cayley_file_roundtrip(tmp_path):
    g = make_group("dihedral:3")
    path = str(tmp_path / "d3.cayley")
    save_cayley_file(g, path)
    g2 = load_cayley_file(path)
    assert g2.name == f"cayley:{path}"
    assert np.array_equal(g2.mul, g.mul)
    g3 = make_group(f"cayley:{path}")
    assert np.array_equal(g3.mul, g.mul)


def test_cayley_text_errors():
    with pytest.raises(SpecError):
        group_from_cayley_text("", "x")
    with pytest.raises(SpecError):
        group_from_cayley_text("x\na\n1\n", "x")
    with pytest.raises(SpecError):
        group_from_cayley_text("2\na\n1 2\n2 1\n", "x")  # one label short
    with pytest.raises(SpecError):
        group_from_cayley_text("2\na b\n1 2\n", "x")  # one row short
    with pytest.raises(SpecError):
        group_from_cayley_text("2\na b\n1 2\n2 3\n", "x")  # entry out of range
    with pytest.raises(SpecError):
        group_from_cayley_text("2\na b\n1 2\n2 q\n", "x")
    with pytest.raises(SpecError):
        load_cayley_file("/no/such/file.cayley")


def test_closure_from_generators():
    # (12) and (123) generate all six permutations of three points
    g = closure_from_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert g.n == 6
    assert g.labels[0] == "[1,2,3]"
    assert validate_group(g, "full").ok
    ident_only = closure_from_generators(3, [(0, 1, 2)])
    assert ident_only.n == 1
    single = closure_from_generators(4, [(1, 2, 3, 0)])
    assert single.n == 4 and single.is_commutative


def test_closure_errors(monkeypatch):
    with pytest.raises(SpecError):
        closure_from_generators(3, [(0, 1, 1)])
    with pytest.raises(SpecError):
        closure_from_generators(3, [])
    with pytest.raises(SpecError):
        closure_from_generators(0, [()])
    with pytest.raises(SpecError):
        closure_from_generators(6, [(1, 2, 3, 4, 5, 0)], cap=5)
    # S_8 (order 40320) under a cap outside 1..ORDER_CAP, or not an int: refused before the search
    calls = []

    def counting(p, q):
        calls.append(1)
        return compose_perms(p, q)

    monkeypatch.setattr(groups, "compose_perms", counting)
    s8 = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]
    for cap in (ORDER_CAP + 1, 0, -5, float(ORDER_CAP), True, "5", None):
        with pytest.raises(SpecError, match="cap"):
            closure_from_generators(8, s8, cap=cap)
    assert not calls
    # the patch is live: a small closure goes through it
    assert closure_from_generators(3, [(1, 0, 2), (1, 2, 0)], cap=6).n == 6 and calls


def test_perm_file(tmp_path):
    path = str(tmp_path / "s3.perms")
    path_text = "3\n2 1 3\n2 3 1\n"
    with open(path, "w") as fh:
        fh.write(path_text)
    g = load_perm_file(path)
    assert g.n == 6
    g2 = make_group(f"perm:{path}")
    assert np.array_equal(g2.mul, g.mul)
    bad = str(tmp_path / "bad.perms")
    with open(bad, "w") as fh:
        fh.write("3\n2 1 x\n")
    with pytest.raises(SpecError):
        load_perm_file(bad)
    empty = str(tmp_path / "empty.perms")
    with open(empty, "w") as fh:
        fh.write("3\n")
    with pytest.raises(SpecError):
        load_perm_file(empty)


def test_order_cap():
    with pytest.raises(SpecError):
        make_group("cyclic:10001")
    with pytest.raises(SpecError):
        make_group("symmetric:8")  # 40320 elements
    with pytest.raises(SpecError):
        make_group("symmetric:9")
    assert make_group("cyclic:10000").n == 10000


def test_order_cap_refuses_before_allocating():
    # the n x n table of cyclic:10001 alone would be 763 MiB
    for spec in ("cyclic:10001", "dihedral:5001", "product:cyclic:101,cyclic:100"):
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="exceeds the cap"):
                make_group(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (spec, peak)
    text = "10001\n" + " ".join(["x"] * 10001) + "\n" + "1\n" * 10001
    with pytest.raises(SpecError, match="exceeds the cap"):
        group_from_cayley_text(text, "big")


def test_make_group_errors():
    for bad in ("nope", "cyclic:x", "cyclic:0", "dihedral:1", "symmetric:1",
                "wedge:3", "product:cyclic:2", "product:cyclic:2,nope"):
        with pytest.raises(SpecError):
            make_group(bad)


def test_make_group_nested_products():
    g = make_group("product:cyclic:2,product:cyclic:2,cyclic:2")
    assert g.n == 8 and g.is_commutative
    assert all(g.inv == np.arange(8))
    g = make_group("product:product:cyclic:2,cyclic:2,cyclic:3")
    assert g.n == 12 and g.is_commutative
    g = make_group("product:symmetric:3,cyclic:2")
    assert g.n == 12 and not g.is_commutative


def test_group_constructor_errors():
    with pytest.raises(SpecError):
        Group(["a"], [[0, 0], [0, 0]], "x")  # label count
    with pytest.raises(SpecError):
        Group([], np.zeros((0, 0), dtype=np.int64), "x")
    with pytest.raises(SpecError):
        Group(["a", "b"], [[0, 1], [1, 1]], "x")  # not a Latin square


def test_compatible():
    a = make_group("cyclic:4")
    b = make_group("cyclic:4")
    c = make_group("dihedral:2")
    assert a.compatible(a) and a.compatible(b)
    assert not a.compatible(c)  # same order, different table
    assert not a.compatible(make_group("cyclic:5"))
