"""The polynomial routes against elimination.

Every route answer (dimension, membership, idempotent generator, code
export, annihilator) must equal the private rank path it replaces, on cyclic
groups in catalogue order, in a shuffled Cayley file and as a coprime
product.  The coset route (Hermite form over F[y] on the cosets of a largest
cyclic subgroup) must equal elimination on every group, called directly below
the gate and through dim_ideal above it.  The charpoly (cyclotomic blocks over the
same cosets) must equal the Hessenberg charpoly of the representation matrix on both
sides, on cyclic and non-cyclic groups.
"""

import functools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupalg import cli, dimension, linalg, representation
from groupalg.algebra import AlgebraElem
from groupalg.dimension import IdealSpec, _coset_dim, _coset_index, _dim_rank, \
    _idempotent_rank, _largest_cycle, _route, _route_dim, \
    annihilator_basis, dim_bound_charpoly, dim_ideal, element_charpoly, ideal_membership, \
    idempotent_generator
from groupalg.errors import SpecError
from groupalg.field import parse_field_spec
from groupalg.gcode import _code, build_code, code_to_text
from groupalg.groups import cayley_to_text, group_from_cayley_text, make_group
from groupalg.linalg import kernel_basis, rank, rref
from groupalg.representation import rho_matrix, side_matrix, stack

FIELDS = ("gf:2", "gf:3", "gf:5", "gf:7", "gf:2^2", "gf:3^2")
CYCLIC = ("cyclic:1", "cyclic:2", "cyclic:6", "cyclic:8", "cyclic:9", "cyclic:15", "cyclic:24",
          "product:cyclic:3,cyclic:4", "shuffled:12")
# catalogue groups up to order 48 below the gate; dihedral:m with p | m is drawn over
# every field, and cyclic:9 and shuffled:12 check the route at s = 1
COSETS = tuple(f"dihedral:{m}" for m in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24)) + (
    "symmetric:3", "symmetric:4", "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4",
    "product:cyclic:3,cyclic:3", "product:cyclic:4,cyclic:4", "product:cyclic:2,cyclic:24",
    "product:cyclic:2,symmetric:3", "product:symmetric:3,cyclic:3", "product:cyclic:2,dihedral:4",
    "product:symmetric:3,symmetric:3", "product:symmetric:4,cyclic:2",
    "product:cyclic:2,product:cyclic:2,cyclic:2", "cyclic:9", "shuffled:12")
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)
# the cyclic charpoly: p | n and p not dividing n, prime powers, and two non-catalogue orders
CHARPOLY_GROUPS = tuple(f"cyclic:{n}" for n in (1, 2, 6, 8, 9, 12, 15, 16, 24, 25, 27, 30)) + (
    "shuffled:12", "product:cyclic:3,cyclic:4")
CHARPOLY_FIELDS = FIELDS + ("gf:2^4", "gf:2147483647")
# the charpoly on s > 1 cosets: o from 2 to 48, past the gate, and a relabelled table
COSET_CHARPOLY_GROUPS = tuple(g for g in COSETS if g not in ("cyclic:9", "shuffled:12")) + (
    "dihedral:32", "product:symmetric:3,cyclic:16", "relabelled:product:symmetric:3,cyclic:4")


@functools.lru_cache(maxsize=None)
def _group(spec):
    if spec.startswith("relabelled:"):  # a catalogue group in a shuffled basis order
        g = make_group(spec.split(":", 1)[1])
        order = [0] + random.Random(g.n).sample(range(1, g.n), g.n - 1)
        pos = np.argsort(order)
        rows = [" ".join(str(pos[g.mul[a, b]] + 1) for b in order) for a in order]
        text = f"{g.n}\n" + " ".join(g.labels[e] for e in order) + "\n" + "\n".join(rows) + "\n"
        return group_from_cayley_text(text, spec)
    if not spec.startswith("shuffled:"):
        return make_group(spec)
    # C_n with basis element i = g^order[i], read back through the Cayley file format
    n = int(spec.split(":")[1])
    order = [0] + random.Random(n).sample(range(1, n), n - 1)
    pos = {e: i for i, e in enumerate(order)}
    rows = [" ".join(str(pos[(a + b) % n] + 1) for b in order) for a in order]
    text = f"{n}\n" + " ".join(f"g^{e}" for e in order) + "\n" + "\n".join(rows) + "\n"
    return group_from_cayley_text(text, spec)


@st.composite
def _elements(draw, gspec, count, fields=FIELDS):
    """`count` elements of one (group, field): random, (1 - t) r or sum(<t>) r."""
    g = _group(gspec)
    f = parse_field_spec(draw(st.sampled_from(fields)))
    out = []
    for _ in range(count):
        r = AlgebraElem(f, g, draw(st.lists(st.integers(0, f.q - 1), min_size=g.n,
                                            max_size=g.n)))
        kind = draw(st.sampled_from(("random", "difference", "subgroup sum")))
        if kind != "random" and g.n > 1:
            t = draw(st.integers(1, g.n - 1))
            if kind == "difference":
                a = AlgebraElem.one(f, g) - AlgebraElem.basis(f, g, t)
            else:
                powers, x = [0], t
                while x != 0:
                    powers.append(x)
                    x = int(g.mul[x, t])
                a = AlgebraElem(f, g, np.isin(np.arange(g.n), powers).astype(np.int64))
            r = a * r
        out.append(r)
    return out


def _annihilator_elim(f, side):
    """The elimination reference: kernel of rho(f), starred, or kernel of rho(f*)."""
    target = f if side == "right" else f.star()
    vecs = [AlgebraElem(f.field, f.group, v) for v in kernel_basis(rho_matrix(target))]
    return [v.star() for v in vecs] if side == "right" else vecs


def _membership_rank(h, spec):
    """The elimination reference: h is a member when adding it keeps the rank."""
    return rank(stack(spec.generators, spec.side)) == rank(stack(spec.generators + (h,), spec.side))


def _build_code_rank(spec):
    """The elimination reference: the code read off the RREF of the stacked matrices."""
    return _code(spec, rref(stack(spec.generators, spec.side)))


def _agree(gens, side, member):
    """Every route answer equals the rank path's; returns the dimension."""
    spec = IdealSpec(side, tuple(gens))
    d = dim_ideal(spec)
    assert d == _dim_rank(spec)
    for h in (member, member + AlgebraElem.one(member.field, member.group)):
        assert ideal_membership(h, spec) == _membership_rank(h, spec)
    f = gens[0]
    if not f.is_zero:
        assert idempotent_generator(f, side) == _idempotent_rank(f, side)
    if d:
        assert code_to_text(build_code(spec)) == code_to_text(_build_code_rank(spec))
    for f in gens:
        for s in ("left", "right"):
            assert annihilator_basis(f, s) == _annihilator_elim(f, s)
    return d


@SETTINGS
@given(st.data())
def test_cyclic_routes_match_rank(data):
    gspec = data.draw(st.sampled_from(CYCLIC))
    gens = data.draw(_elements(gspec, data.draw(st.integers(1, 3))))
    side = data.draw(st.sampled_from(("left", "right")))
    assert _route(gens[0].group)[0] == "cyclic"
    assert _route_dim(IdealSpec(side, tuple(gens))) is not None
    x = gens[0] * gens[-1]  # a member on both sides, the group is commutative
    _agree(gens, side, x)


@SETTINGS
@given(st.data())
def test_coset_route_matches_rank(data):
    gspec = data.draw(st.sampled_from(COSETS))
    gens = data.draw(_elements(gspec, data.draw(st.integers(1, 3))))
    side = data.draw(st.sampled_from(("left", "right")))
    g = gens[0].group
    spec = IdealSpec(side, tuple(gens))
    # the route itself, past the gate: every group here is below it or cyclic
    assert _coset_dim(spec, _coset_index(g, _largest_cycle(g.mul))) == _dim_rank(spec)
    member = gens[0] * gens[-1] if side == "left" else gens[-1] * gens[0]
    _agree(gens, side, member)


def test_every_listed_group_agrees():
    # the derandomized draws above leave some groups out; one fixed case for each
    rng = random.Random(18)
    for gspec in dict.fromkeys(CYCLIC + COSETS):
        g, f = _group(gspec), parse_field_spec(rng.choice(FIELDS))
        r = AlgebraElem(f, g, [rng.randrange(f.q) for _ in range(g.n)])
        a = (AlgebraElem.one(f, g) - AlgebraElem.basis(f, g, min(1, g.n - 1))) * r
        for side in ("left", "right"):
            _agree([a, AlgebraElem.zero(f, g)], side, r * a if side == "left" else a * r)


def test_coset_route_above_the_gate():
    rng = random.Random(16)
    for gspec, fspec in (("dihedral:64", "gf:2"), ("product:symmetric:3,cyclic:32", "gf:3")):
        g, f = make_group(gspec), parse_field_spec(fspec)
        assert _route(g)[0] == "cosets", gspec
        one = AlgebraElem.one(f, g)
        a, b = (AlgebraElem(f, g, [rng.randrange(f.q) for _ in range(g.n)]) for _ in "ab")
        u = one - AlgebraElem.basis(f, g, int(_largest_cycle(g.mul)[1]))
        dims = set()
        for gens in ((a,), (u * a,), (u * a, u * u * b)):
            for side in ("left", "right"):
                spec = IdealSpec(side, gens)
                dims.add(dim_ideal(spec))
                assert dim_ideal(spec) == _dim_rank(spec), (gspec, side, len(gens))
                for h in (a * gens[0] if side == "left" else gens[0] * a, b):
                    assert ideal_membership(h, spec) == _membership_rank(h, spec)
        assert len(dims) > 1 and min(dims) > 0, dims  # proper ideals were drawn too


def test_route_detection_reads_the_table():
    for gspec, kind in (("cyclic:12", "cyclic"), ("product:cyclic:3,cyclic:4", "cyclic"),
                        ("shuffled:12", "cyclic"), ("dihedral:6", None), ("symmetric:4", None),
                        ("product:cyclic:2,cyclic:4", None), ("dihedral:24", None),
                        ("dihedral:32", "cosets"), ("product:cyclic:2,cyclic:32", "cosets"),
                        ("product:symmetric:4,cyclic:32", "cosets")):
        assert _route(_group(gspec))[0] == kind, gspec
    for gspec, o in (("symmetric:4", 4), ("dihedral:24", 24), ("product:cyclic:2,cyclic:4", 4),
                     ("product:symmetric:4,cyclic:32", 96)):
        pw = _largest_cycle(_group(gspec).mul)
        assert pw.size == o and len(set(pw.tolist())) == o, gspec
    # catalogue order is exponent order, so codes of cyclic:n skip elimination
    assert np.array_equal(_route(make_group("cyclic:9"))[1], np.arange(9))
    assert not np.array_equal(_route(_group("product:cyclic:3,cyclic:4"))[1], np.arange(12))
    # t_i x = r^e t_j for exactly one x: each s x o slice of the index is a permutation
    g = make_group("product:symmetric:3,cyclic:32")
    idx = _route(g)[1]
    assert idx.shape == (2, 2, 96)
    for block in idx:
        assert np.array_equal(np.sort(block.ravel()), np.arange(g.n))
    assert np.array_equal(idx[0, 0], _largest_cycle(g.mul))


def test_make_group_does_no_detection():
    for gspec in ("cyclic:8", "dihedral:4", "product:cyclic:3,cyclic:4", "symmetric:3"):
        g = make_group(gspec)
        assert g._route is None
        _route(g)
        assert g._route is not None
    g = group_from_cayley_text(cayley_to_text(make_group("cyclic:5")), "c5")
    assert g._route is None


def test_detection_is_fast_on_a_large_noncyclic_group():
    g = make_group("product:symmetric:4,cyclic:32")
    best = float("inf")
    for _ in range(7):
        g._route = g._commutative = None
        started = time.perf_counter()
        assert _route(g)[0] == "cosets"
        best = min(best, time.perf_counter() - started)
    assert best < 0.005, best


def test_cyclic_dim_allocates_no_square_matrix():
    f, g = parse_field_spec("gf:2"), make_group("cyclic:1024")
    rng = random.Random(15)
    spec = IdealSpec("left", (AlgebraElem(f, g, [rng.randrange(2) for _ in range(1024)]),))
    want = dim_ideal(spec)  # the first call detects the route and caches it on g
    tracemalloc.start()
    try:
        assert dim_ideal(spec) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cyclic_annihilators_and_codes_do_not_eliminate(monkeypatch):
    def refuse(field, a, reduced):
        raise AssertionError("elimination reached")

    rng = random.Random(18)
    cases = []
    for gspec, fspec in (("cyclic:1", "gf:2"), ("cyclic:8", "gf:2"), ("cyclic:12", "gf:3"),
                         ("cyclic:15", "gf:2^2"), ("cyclic:64", "gf:5")):
        f, g = parse_field_spec(fspec), make_group(gspec)
        u = AlgebraElem.one(f, g) - AlgebraElem.basis(f, g, min(1, g.n - 1))
        r = AlgebraElem(f, g, [rng.randrange(f.q) for _ in range(g.n)])
        for a in (AlgebraElem.zero(f, g), AlgebraElem.one(f, g), r, u * r, u * u * u * r):
            cases.append((a, {s: _annihilator_elim(a, s) for s in ("left", "right")},
                          None if a.is_zero else code_to_text(_build_code_rank(
                              IdealSpec("left", (a,))))))
    monkeypatch.setattr(linalg, "_eliminate", refuse)  # under rank, rref and kernel_basis
    for a, ann, code in cases:
        for side in ("left", "right"):
            assert annihilator_basis(a, side) == ann[side]
            if code is not None:  # commutative: both sides span the same code
                assert code_to_text(build_code(IdealSpec(side, (a,)))) == code
    # the patch is live: a group outside catalogue cyclic order still eliminates
    f = parse_field_spec("gf:2")
    for g in (make_group("dihedral:3"), _group("shuffled:12")):
        with pytest.raises(AssertionError, match="elimination reached"):
            annihilator_basis(AlgebraElem.one(f, g))


def test_modular_cyclic_idempotents():
    # y^8 - 1 = (y - 1)^8 over gf:2: only the trivial ideals have idempotent generators
    f, g = parse_field_spec("gf:2"), make_group("cyclic:8")
    one = AlgebraElem.one(f, g)
    assert idempotent_generator(one) == one
    assert idempotent_generator(one + AlgebraElem.basis(f, g, 1)) is None
    # over gf:3, y^6 - 1 = (y - 1)^3 (y + 1)^3 and 1 + y^3 = (y + 1)^3: coprime halves
    f3, g6 = parse_field_spec("gf:3"), make_group("cyclic:6")
    a = AlgebraElem(f3, g6, [1, 0, 0, 1, 0, 0])  # 1 + y^3
    e = idempotent_generator(a)
    assert e == _idempotent_rank(a, "left") and e is not None and e * e == e


def _hessenberg_charpoly(f, side):
    return tuple(linalg._charpoly_data(f.field, side_matrix(f, side).data).tolist())


@SETTINGS
@given(st.data())
def test_cyclic_charpoly_matches_hessenberg(data):
    gspec = data.draw(st.sampled_from(CHARPOLY_GROUPS))
    f = data.draw(_elements(gspec, 1, CHARPOLY_FIELDS))[0]
    kind = data.draw(st.sampled_from(("zero", "one", "drawn")))
    if kind != "drawn":
        f = getattr(AlgebraElem, kind)(f.field, f.group)
    assert _route(f.group)[0] == "cyclic"
    for side in ("left", "right"):
        assert element_charpoly(f, side).coeffs == _hessenberg_charpoly(f, side), (gspec, side)


@SETTINGS
@given(st.data())
def test_coset_charpoly_matches_hessenberg(data):
    gspec = data.draw(st.sampled_from(COSET_CHARPOLY_GROUPS))
    f = data.draw(_elements(gspec, 1, CHARPOLY_FIELDS))[0]
    kind = data.draw(st.sampled_from(("zero", "one", "drawn", "difference")))
    if kind in ("zero", "one"):
        f = getattr(AlgebraElem, kind)(f.field, f.group)
    elif kind == "difference":  # (1 - x) f, x a drawn group element
        x = AlgebraElem.basis(f.field, f.group, data.draw(st.integers(0, f.group.n - 1)))
        f = (AlgebraElem.one(f.field, f.group) - x) * f
    assert _route(f.group)[0] != "cyclic"
    for side in ("left", "right"):
        assert element_charpoly(f, side).coeffs == _hessenberg_charpoly(f, side), (gspec, side)


def test_cyclic_charpoly_in_characteristic_dividing_n():
    # chi = (prod over d | m of the blocks)^(p^v): over an extension field the power
    # raises each coefficient to p^v, which a prime field would not notice
    rng = random.Random(21)
    for gspec, fspec in (("cyclic:8", "gf:2^2"), ("cyclic:12", "gf:2^2"), ("cyclic:9", "gf:3^2"),
                         ("cyclic:18", "gf:3^2"), ("cyclic:16", "gf:2^4"),
                         ("shuffled:12", "gf:2^2")):
        g, f = _group(gspec), parse_field_spec(fspec)
        u = AlgebraElem.one(f, g) - AlgebraElem.basis(f, g, 1)
        for _ in range(4):
            r = AlgebraElem(f, g, [rng.randrange(f.q) for _ in range(g.n)])
            for a in (r, u * r, r + AlgebraElem.one(f, g)):
                for side in ("left", "right"):
                    want = _hessenberg_charpoly(a, side)
                    assert element_charpoly(a, side).coeffs == want, (gspec, fspec, side)
                    assert dim_bound_charpoly(a, side).charpoly.coeffs == want


def _record_kernel_calls(monkeypatch):
    """Sizes of the matrices that reach _charpoly_data, and the sides side_matrix builds."""
    sizes, built = [], []

    def kernel(field, a, real=linalg._charpoly_data):
        sizes.append(a.shape[0])
        return real(field, a)

    def matrix(f, side, real=representation.side_matrix):
        built.append(side)
        return real(f, side)

    for mod in (linalg, dimension):
        monkeypatch.setattr(mod, "_charpoly_data", kernel)
    for mod in (representation, dimension):
        monkeypatch.setattr(mod, "side_matrix", matrix)
    return sizes, built


def test_cyclic_charpoly_reduces_only_the_blocks(monkeypatch, capsys):
    rng = random.Random(21)
    cases = []
    for gspec, fspec in (("cyclic:512", "gf:5"), ("cyclic:1024", "gf:2"), ("shuffled:12", "gf:7"),
                         ("product:symmetric:4,cyclic:32", "gf:5"), ("symmetric:5", "gf:3^2")):
        g, f = _group(gspec), parse_field_spec(fspec)
        a = AlgebraElem(f, g, [rng.randrange(f.q) for _ in range(g.n)])
        _route(g)
        cases.append((gspec, a, a.coeffs))
    sizes, built = _record_kernel_calls(monkeypatch)
    for gspec, a, _ in cases:
        for side in ("left", "right"):
            del sizes[:]
            dim_bound_charpoly(a, side)
            if gspec == "cyclic:512":  # gf:5: one block Phi_d for each d = 4, 8, ..., 512
                assert max(sizes) == 256 and sum(sizes) == 510, sizes
            elif gspec == "cyclic:1024":  # y^1024 - 1 = (y - 1)^1024 over gf:2: no block
                assert sizes == [], sizes
            elif gspec == "shuffled:12":  # 12 = 2^2 3: Phi_3, Phi_4, Phi_6 and Phi_12
                assert sorted(sizes) == [2, 2, 2, 4], sizes
            elif gspec == "symmetric:5":  # o = 6 = 2 3 over gf:3^2: s = 20 cosets, phi(d) = 1
                assert sizes == [20, 20], sizes
            else:  # o = 96 over gf:5: s = 8 cosets, blocks of 8 phi(d) <= 8 phi(96) = 256
                assert max(sizes) == 256 and sum(sizes) == 8 * 96, sizes
    assert built == []
    # the CLI command takes the same route and builds the matrix only to dump it
    argv = ["charpoly", "--group", "cyclic:1024", "--field", "gf:2", "--elem", "1:1,2:1", "--json"]
    del sizes[:]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 1024
    assert sizes == [] and built == []
    assert cli.main(argv[:-1] + ["--dump-matrix"]) == 0
    assert built == ["left"] and sizes == []
    # dihedral:3 over gf:3: y^3 - 1 = (y - 1)^3 on s = 2 cosets, one 2 x 2 block
    f3 = parse_field_spec("gf:3")
    del sizes[:], built[:]
    b = AlgebraElem.basis(f3, make_group("dihedral:3"), 1)
    dim_bound_charpoly(b, "right")
    assert sizes == [2] and built == []
    # the patches are live: the matrix charpoly still reduces the 6 x 6 matrix
    linalg.charpoly(rho_matrix(b))
    assert sizes == [2, 6]
    with pytest.raises(SpecError):
        dim_bound_charpoly(cases[0][1], "bogus")


def test_cyclic_charpoly_allocates_no_square_matrix():
    f, g = parse_field_spec("gf:2"), make_group("cyclic:1024")
    one, y = AlgebraElem.one(f, g), AlgebraElem.basis(f, g, 1)
    # k = 1024 with the idempotency check (1 + y), and k = 0 (1 + y + y^2)
    for a in (one + y, one + y + y * y):
        want = dim_bound_charpoly(a)  # the first call detects the route and caches it on g
        tracemalloc.start()
        try:
            assert dim_bound_charpoly(a) == want
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
    assert want.k == 0 and dim_bound_charpoly(one + y).k == 1024
