"""The polynomial routes for cyclic and dihedral groups against elimination.

Every route answer (dimension, membership, idempotent generator, code
export) must equal the private rank path it replaces, on cyclic groups in
catalogue order, in a shuffled Cayley file and as a coprime product, and on
dihedral groups; dihedral groups with p | m and dihedral ideals with two
generators must fall back.
"""

import functools
import random
import time
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from groupalg.algebra import AlgebraElem
from groupalg.dimension import IdealSpec, _dim_rank, _idempotent_rank, _membership_rank, \
    _route, _route_dim, dim_ideal, ideal_membership, idempotent_generator
from groupalg.field import parse_field_spec
from groupalg.gcode import _build_code_rank, build_code, code_to_text
from groupalg.groups import cayley_to_text, group_from_cayley_text, make_group

FIELDS = ("gf:2", "gf:3", "gf:5", "gf:7", "gf:2^2", "gf:3^2")
CYCLIC = ("cyclic:1", "cyclic:2", "cyclic:6", "cyclic:8", "cyclic:9", "cyclic:15", "cyclic:24",
          "product:cyclic:3,cyclic:4", "shuffled:12")
DIHEDRAL = ("dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:9", "dihedral:10",
            "symmetric:3", "product:cyclic:2,cyclic:2", "product:cyclic:2,symmetric:3")
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)


@functools.lru_cache(maxsize=None)
def _group(spec):
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
def _elements(draw, gspec, count):
    """`count` elements of one (group, field): random, (1 - t) r or sum(<t>) r."""
    g = _group(gspec)
    f = parse_field_spec(draw(st.sampled_from(FIELDS)))
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
def test_dihedral_route_matches_rank(data):
    gspec = data.draw(st.sampled_from(DIHEDRAL))
    count = data.draw(st.sampled_from((1, 1, 2)))
    gens = data.draw(_elements(gspec, count))
    side = data.draw(st.sampled_from(("left", "right")))
    g, f = gens[0].group, gens[0].field
    assert _route(g)[0] == "dihedral"
    spec = IdealSpec(side, tuple(gens))
    falls_back = count > 1 or (g.n // 2) % f.p == 0
    assert (_route_dim(spec) is None) == falls_back
    member = gens[0] * gens[-1] if side == "left" else gens[-1] * gens[0]
    _agree(gens, side, member)


def test_route_detection_reads_the_table():
    for gspec, kind in (("cyclic:12", "cyclic"), ("product:cyclic:3,cyclic:4", "cyclic"),
                        ("shuffled:12", "cyclic"), ("dihedral:6", "dihedral"),
                        ("symmetric:3", "dihedral"), ("product:cyclic:2,cyclic:4", None),
                        ("product:cyclic:2,dihedral:4", None), ("symmetric:4", None)):
        assert _route(_group(gspec))[0] == kind, gspec
    # catalogue order is exponent order, so codes of cyclic:n skip elimination
    assert np.array_equal(_route(make_group("cyclic:9"))[1], np.arange(9))
    assert np.array_equal(_route(make_group("dihedral:5"))[1], np.arange(10))
    assert not np.array_equal(_route(_group("product:cyclic:3,cyclic:4"))[1], np.arange(12))


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
        assert _route(g) == (None, None)
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
