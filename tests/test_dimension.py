import random
import tracemalloc

import numpy as np
import pytest

from groupalg import dimension, field as field_module, linalg
from groupalg.algebra import AlgebraElem, random_element
from groupalg.dimension import DimBound, IdealSpec, annihilator_basis, \
    dim_bound_charpoly, dim_ideal, dim_mulmuley_exact, dim_mulmuley_random, \
    ideal_membership, idempotent_generator, mulmuley_charpoly
from groupalg.errors import DomainError, SpecError
from groupalg.field import parse_field_spec
from groupalg.groups import make_group
from groupalg.selftest import S3_I3_CHAR3, S3_I3_PARTS, paper_s3_group

import oracles


def _ctx(fspec, gspec):
    return parse_field_spec(fspec), make_group(gspec)


def _left(*gens):
    return IdealSpec("left", tuple(gens))


def test_ideal_spec_validation():
    f, g = _ctx("gf:5", "cyclic:4")
    a = AlgebraElem.one(f, g)
    spec = _left(a)
    assert spec.field is f and spec.group is g
    with pytest.raises(SpecError):
        IdealSpec("left", ())
    with pytest.raises(SpecError):
        IdealSpec("middle", (a,))
    with pytest.raises(SpecError):
        IdealSpec("left", (a, 7))
    f2, c6 = _ctx("gf:2", "cyclic:6")
    with pytest.raises(DomainError):
        IdealSpec("left", (a, AlgebraElem.one(f2, c6)))


def test_dim_matches_cyclic_gcd_oracle():
    rng = random.Random(41)
    for n in (4, 6, 8):
        g = make_group(f"cyclic:{n}")
        for q in (2, 3, 4, 5):
            f = parse_field_spec(f"gf:{q}" if q != 4 else "gf:2^2")
            for _ in range(10):
                coeffs = [rng.randrange(q) for _ in range(n)]
                a = AlgebraElem(f, g, coeffs)
                want = oracles.cyclic_ideal_dim(q, coeffs)
                assert dim_ideal(_left(a)) == want
                assert dim_ideal(IdealSpec("right", (a,))) == want


def test_four_generator_span_every_characteristic():
    # the four listed spanning elements stay independent mod every prime,
    # including 3; the order-2 ideal in characteristic 3 is a subideal
    g = paper_s3_group()
    for q in (2, 3, 5, 7):
        f = parse_field_spec(f"gf:{q}")
        gens = [AlgebraElem(f, g, [c % q for c in part]) for part in S3_I3_PARTS]
        spec = _left(*gens)
        assert dim_ideal(spec) == 4, q
        ch = AlgebraElem(f, g, [c % q for c in S3_I3_CHAR3])
        assert dim_ideal(_left(ch)) == 2
        assert ideal_membership(ch, spec) == (q == 3)
        for gen in gens:
            assert ideal_membership(gen, spec)


def test_dim_bound_unit_and_zero():
    f, g = _ctx("gf:5", "symmetric:3")
    b = dim_bound_charpoly(AlgebraElem.one(f, g))
    assert b == DimBound(lower=6, upper=6, exact=True, k=0, charpoly=b.charpoly)
    assert b.charpoly.coeffs[-1] == 1 and b.charpoly.degree == 6
    z = dim_bound_charpoly(AlgebraElem.zero(f, g))
    assert (z.lower, z.upper, z.exact, z.k) == (0, 5, True, 6)
    assert z.charpoly.valuation() == 6


def test_dim_bound_idempotent_is_exact():
    f, g = _ctx("gf:5", "cayley:src/groupalg/data/s3_paper.cayley")
    e = AlgebraElem(f, g, (3, 3, 0, 0, 0, 0))
    b = dim_bound_charpoly(e)
    assert b.exact and b.lower == 3 and b.k == 3
    assert dim_ideal(_left(e)) == 3


def test_dim_bound_is_exact_when_the_bounds_meet():
    # 1 + g on C_4 over GF(3): charpoly valuation k = 1, so [n-k, n-1] = [3, 3]
    f, g = _ctx("gf:3", "cyclic:4")
    a = AlgebraElem(f, g, (1, 1, 0, 0))
    assert not a.is_idempotent()
    b = dim_bound_charpoly(a)
    assert (b.lower, b.upper, b.exact, b.k) == (3, 3, True, 1)
    assert dim_ideal(_left(a)) == 3


def test_dim_bound_brackets_dim():
    rng = random.Random(42)
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:5", "dihedral:4"),
                         ("gf:3", "cyclic:6"), ("gf:2^2", "cyclic:4")):
        f, g = _ctx(fspec, gspec)
        for _ in range(10):
            a = random_element(f, g, rng)
            for side in ("left", "right"):
                b = dim_bound_charpoly(a, side)
                d = dim_ideal(IdealSpec(side, (a,)))
                assert b.lower <= d <= b.upper, (fspec, gspec, side)
                if b.exact:
                    assert d == b.lower
                assert b.k == b.charpoly.valuation()


def test_ideal_membership_basics():
    f, g = _ctx("gf:5", "symmetric:3")
    rng = random.Random(43)
    a = random_element(f, g, rng)
    while a.is_zero:
        a = random_element(f, g, rng)
    spec = _left(a)
    assert ideal_membership(a, spec)
    assert ideal_membership(AlgebraElem.zero(f, g), spec)
    # b*a is in A*a for any b
    b = random_element(f, g, rng)
    assert ideal_membership(b * a, spec)
    if dim_ideal(spec) < g.n:
        assert not ideal_membership(AlgebraElem.one(f, g), spec)
    f2, c6 = _ctx("gf:2", "cyclic:6")
    with pytest.raises(DomainError):
        ideal_membership(AlgebraElem.one(f2, c6), spec)


def test_annihilator_kills_and_counts():
    rng = random.Random(44)
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:5", "dihedral:3"),
                         ("gf:2^2", "cyclic:6")):
        f, g = _ctx(fspec, gspec)
        zero = AlgebraElem.zero(f, g)
        for _ in range(6):
            a = random_element(f, g, rng)
            right = annihilator_basis(a, "right")
            left = annihilator_basis(a, "left")
            # annihilator dimension complements the same-sided ideal of f
            assert len(right) == g.n - dim_ideal(IdealSpec("right", (a,)))
            assert len(left) == g.n - dim_ideal(IdealSpec("left", (a,)))
            for v in right:
                assert a * v == zero
            for v in left:
                assert v * a == zero
            if len(right) >= 2:
                combo = right[0].scale(f.q - 1) + right[1]
                assert a * combo == zero


def test_annihilator_of_zero_and_unit():
    f, g = _ctx("gf:3", "cyclic:4")
    assert annihilator_basis(AlgebraElem.one(f, g)) == []
    assert len(annihilator_basis(AlgebraElem.zero(f, g))) == 4


def test_idempotent_generator_known_case():
    f, g = _ctx("gf:5", "cayley:src/groupalg/data/s3_paper.cayley")
    a = AlgebraElem(f, g, (1, 1, 0, 0, 0, 0))
    e = idempotent_generator(a, "left")
    assert e.coeffs.tolist() == [3, 3, 0, 0, 0, 0]
    assert e.is_idempotent()
    assert a * e == a
    # deterministic: same answer on a second call
    assert idempotent_generator(a, "left") == e


def test_idempotent_generator_properties():
    rng = random.Random(45)
    for fspec, gspec in (("gf:5", "symmetric:3"), ("gf:7", "dihedral:3"),
                         ("gf:5", "cyclic:6"), ("gf:7", "product:cyclic:2,cyclic:2")):
        f, g = _ctx(fspec, gspec)
        for _ in range(6):
            a = random_element(f, g, rng)
            if a.is_zero:
                continue
            for side in ("left", "right"):
                e = idempotent_generator(a, side)
                # char does not divide |G| here, so e always exists
                assert e is not None, (fspec, gspec, side)
                assert e.is_idempotent()
                spec_a = IdealSpec(side, (a,))
                assert ideal_membership(e, spec_a)
                assert ideal_membership(a, IdealSpec(side, (e,)))
                assert dim_ideal(IdealSpec(side, (e,))) == dim_ideal(spec_a)
                if side == "left":
                    assert a * e == a
                else:
                    assert e * a == a


def test_idempotent_generator_matches_exhaustive_search():
    # modular case: char 2 divides |K_4|, so some ideals have no idempotent
    f, g = _ctx("gf:2", "product:cyclic:2,cyclic:2")
    for bits in range(1, 16):
        coeffs = [(bits >> i) & 1 for i in range(4)]
        a = AlgebraElem(f, g, coeffs)
        found = oracles.idempotent_generators_exhaustive(2, g.mul.tolist(), coeffs)
        e = idempotent_generator(a, "left")
        if e is None:
            assert found == []
        else:
            assert e.coeffs.tolist() in found


def test_idempotent_generator_none_case():
    f, g = _ctx("gf:2", "product:cyclic:2,cyclic:2")
    a = AlgebraElem(f, g, (1, 1, 0, 0))
    assert idempotent_generator(a, "left") is None
    assert idempotent_generator(a, "right") is None
    with pytest.raises(DomainError):
        idempotent_generator(AlgebraElem.zero(f, g))


def test_mulmuley_exact_matches_rank():
    rng = random.Random(46)
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:3", "cyclic:6"),
                         ("gf:5", "product:cyclic:2,cyclic:2")):
        f, g = _ctx(fspec, gspec)
        for _ in range(5):
            a = random_element(f, g, rng)
            for side in ("left", "right"):
                d = dim_ideal(IdealSpec(side, (a,)))
                xc = mulmuley_charpoly(a, side)  # the interpolated symbolic path
                assert dim_mulmuley_exact(a, side) == d, (fspec, gspec, side)
                assert (xc.size - xc.k) // 2 == d, (fspec, gspec, side)
                if g.is_commutative:
                    flat = mulmuley_charpoly(a, side, symmetrize=False)
                    assert dim_mulmuley_exact(a, side, shortcut="commutative") == d
                    assert flat.size - flat.k == d


def _modular_elements(f, g, rng):
    """(1 - t)*r and (sum of <t>)*r for t = g_1 and a random r: zero divisors."""
    t = 1
    orbit, cur = [0], t
    while cur != 0:
        orbit.append(cur)
        cur = int(g.mul[cur, t])
    one_minus_t = [0] * g.n
    one_minus_t[0], one_minus_t[t] = 1, f.neg(1)
    orbit_sum = [1 if i in orbit else 0 for i in range(g.n)]
    r = random_element(f, g, rng)
    return [AlgebraElem(f, g, one_minus_t) * r, AlgebraElem(f, g, orbit_sum) * r]


def test_mulmuley_on_modular_elements():
    rng = random.Random(50)
    for gspec in ("cyclic:8", "cyclic:9", "dihedral:4", "symmetric:3"):
        for fspec in ("gf:2", "gf:3", "gf:2^2"):
            f, g = _ctx(fspec, gspec)
            for a in _modular_elements(f, g, rng):
                for side in ("left", "right"):
                    d = dim_ideal(IdealSpec(side, (a,)))
                    assert d < g.n
                    assert dim_mulmuley_exact(a, side) == d, (fspec, gspec, side)
                    assert dim_mulmuley_random(a, side) <= d, (fspec, gspec, side)
                if gspec == "symmetric:3":
                    # the unhalved symbolic reference; 0.1-0.5 s a call on the larger groups
                    xc = mulmuley_charpoly(a, "left")
                    assert (xc.size - xc.k) // 2 == dim_ideal(_left(a)), fspec


def test_mulmuley_exact_on_modular_s4_elements():
    f, g = _ctx("gf:2", "symmetric:4")
    one_minus_t, orbit_sum = _modular_elements(f, g, random.Random(52))
    assert dim_mulmuley_exact(one_minus_t, "left") == dim_ideal(_left(one_minus_t))
    assert dim_mulmuley_exact(orbit_sum, "right") == dim_ideal(IdealSpec("right", (orbit_sum,)))


def test_mulmuley_in_gf1031_stays_in_the_base_field():
    # W = 24^2 // 2 = 288 needs at least 290 (exact) and 578 (random) elements,
    # so both routes run in GF(1031) itself; a doubled 48 x 48 matrix would
    # need 1031^2 > 2^20 elements
    f, g = _ctx("gf:1031", "cyclic:24")
    coeffs = [0] * 24
    coeffs[0], coeffs[6] = 1, f.neg(1)
    a = AlgebraElem(f, g, coeffs) * random_element(f, g, random.Random(51))
    d = dim_ideal(_left(a))
    assert d < 24
    assert dim_mulmuley_exact(a, "left") == d
    assert dim_mulmuley_random(a, "left") == d


def test_mulmuley_at_the_largest_prime_runs_in_the_base_field():
    # the matrix enters gf:2147483647, its own node field, by identity: an embedding
    # table over the source field's elements would need about 76 GiB here
    f, g = _ctx("gf:2147483647", "symmetric:3")
    rng = random.Random(52)
    dims = []
    for a in _modular_elements(f, g, rng) + [random_element(f, g, rng)]:
        d = dim_ideal(_left(a))
        dims.append(d)
        tracemalloc.start()
        try:
            got = (dim_mulmuley_exact(a, "left"), dim_mulmuley_random(a, "left"))
            xc = mulmuley_charpoly(a, "left")  # charpoly_xm on the doubled matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (d, d) and (xc.size - xc.k) // 2 == d and xc.field == f
        assert peak < 1 << 20, peak
    assert dims[0] < 6 and dims[1] < 6 and dims[2] == 6, dims


def test_mulmuley_exact_does_not_interpolate(monkeypatch):
    def refuse(*args):
        raise AssertionError("dim_mulmuley_exact interpolated")

    monkeypatch.setattr(linalg, "_interp_many", refuse)
    monkeypatch.setattr(dimension, "charpoly_xm", refuse)
    rng = random.Random(49)
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:3", "cyclic:6")):
        f, g = _ctx(fspec, gspec)
        for _ in range(3):
            a = random_element(f, g, rng)
            assert dim_mulmuley_exact(a, "left") == dim_ideal(_left(a)), (fspec, gspec)


def test_mulmuley_commutative_shortcut():
    rng = random.Random(47)
    f, g = _ctx("gf:3", "cyclic:6")
    for _ in range(5):
        a = random_element(f, g, rng)
        d = dim_ideal(_left(a))
        assert dim_mulmuley_exact(a, "left", shortcut="commutative") == d
        assert dim_mulmuley_exact(a, "left", shortcut="symmetrize") == d
    fs, s3 = _ctx("gf:5", "symmetric:3")
    b = AlgebraElem.one(fs, s3)
    with pytest.raises(DomainError):
        dim_mulmuley_exact(b, "left", shortcut="commutative")
    with pytest.raises(SpecError):
        dim_mulmuley_exact(b, "left", shortcut="fast")


def test_mulmuley_charpoly_shape():
    f, g = _ctx("gf:2", "cyclic:4")
    a = AlgebraElem(f, g, (1, 1, 0, 0))
    xc = mulmuley_charpoly(a, "left", symmetrize=True)
    assert xc.size == 8
    assert xc.size - xc.k == 2 * dim_ideal(_left(a))
    flat = mulmuley_charpoly(a, "left", symmetrize=False)
    assert flat.size == 4
    assert flat.k == 4 - dim_ideal(_left(a))


def test_mulmuley_random_agrees_and_is_deterministic():
    rng = random.Random(48)
    for fspec, gspec in (("gf:2", "symmetric:3"), ("gf:5", "cyclic:4")):
        f, g = _ctx(fspec, gspec)
        for _ in range(4):
            a = random_element(f, g, rng)
            d = dim_ideal(_left(a))
            got = dim_mulmuley_random(a, "left", trials=3, seed=7)
            assert got == dim_mulmuley_random(a, "left", trials=3, seed=7)
            assert got <= d  # every specialization is a lower bound
            assert got == d  # and the seeded draws land on the true value
    a = AlgebraElem.one(*_ctx("gf:2", "cyclic:4"))
    with pytest.raises(SpecError):
        dim_mulmuley_random(a, trials=0)
    for bad in (2.5, True, "3", None):
        with pytest.raises(SpecError, match="trials must be an int"):
            dim_mulmuley_random(a, trials=bad)


def test_mulmuley_beyond_the_extension_limit_is_a_domain_error():
    # n = 1024 has W = n^2 // 2 = 524288, and q - 1 > 2W needs GF(2^21), past 2^20
    f, g = _ctx("gf:2", "cyclic:1024")
    a = AlgebraElem(f, g, [1, 1] + [0] * 1022)  # 1 + y, as `--elem 1:1,2:1`
    with pytest.raises(DomainError, match=r"2\^21 elements, beyond the table limit 2\^20"):
        dim_mulmuley_random(a)


def test_dim_multiple_generators_monotone():
    rng = random.Random(49)
    f, g = _ctx("gf:5", "dihedral:3")
    a = random_element(f, g, rng)
    b = random_element(f, g, rng)
    da = dim_ideal(_left(a))
    dab = dim_ideal(_left(a, b))
    assert da <= dab <= min(g.n, da + dim_ideal(_left(b)))
    assert dim_ideal(_left(a, a)) == da


def _record_stacks(monkeypatch):
    shapes = []

    def kernel(field, a, real=linalg._charpoly_data):
        shapes.append(a.shape)
        return real(field, a)

    monkeypatch.setattr(linalg, "_charpoly_data", kernel)
    return shapes


def test_mulmuley_exact_reduces_its_nodes_in_bounded_stacks(monkeypatch):
    f, g = _ctx("gf:2", "symmetric:4")
    a = _modular_elements(f, g, random.Random(52))[0]
    d = dim_ideal(_left(a))
    shapes = _record_stacks(monkeypatch)
    assert dim_mulmuley_exact(a, "left") == d < 24
    per_stack = max(1, field_module._NODE_STACK // 24 ** 3)
    assert per_stack > 1 and len(shapes) <= -(-289 // per_stack), shapes
    assert sum(s[0] for s in shapes) == 289  # W + 1 nodes, W = 24^2 // 2
    assert all(s[1:] == (24, 24) and s[0] * 24 ** 3 <= 1 << 18 for s in shapes), shapes
    # an invertible element proves dim = n in its first stack and stops there
    del shapes[:]
    assert dim_mulmuley_exact(AlgebraElem.one(f, g), "left") == 24
    assert len(shapes) == 1, shapes


def test_mulmuley_random_draws_its_nodes_a_stack_at_a_time(monkeypatch):
    f, g = _ctx("gf:3", "cyclic:3")
    one, y = AlgebraElem.one(f, g), AlgebraElem.basis(f, g, 1)
    shapes = _record_stacks(monkeypatch)
    assert dim_mulmuley_random(one - y, "left", trials=1000) == 2  # 1 - y is a zero divisor
    assert sum(s[0] for s in shapes) == 1000
    assert all(s[0] * 3 ** 3 <= field_module._NODE_STACK for s in shapes), shapes
    # the search ends at the first stack with valuation 0, before later nodes are drawn
    del shapes[:]
    assert dim_mulmuley_random(one + y, "left", trials=10 ** 12) == 3
    assert len(shapes) == 1 and shapes[0][0] * 27 <= field_module._NODE_STACK, shapes
    # over GF(3^6) a summed product takes its 6 digits: stacks of 2^18 // (24^3 * 6) = 3
    f3, s4 = _ctx("gf:3", "symmetric:4")
    a = _modular_elements(f3, s4, random.Random(54))[0]
    del shapes[:]
    assert dim_mulmuley_random(a, "left", trials=7) <= dim_ideal(_left(a)) < 24
    assert [s[0] for s in shapes] == [3, 3, 1], shapes


def test_mulmuley_exact_memory_on_s4():
    f, g = _ctx("gf:2", "symmetric:4")
    a = random_element(f, g, random.Random(53))
    dim_mulmuley_exact(a, "left")  # tables and caches are built outside the measurement
    tracemalloc.start()
    try:
        dim_mulmuley_exact(a, "left")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_mulmuley_random_refuses_a_seed_that_is_not_an_int():
    a = AlgebraElem.one(*_ctx("gf:2", "cyclic:4"))
    for bad in (None, 1.5, "1", True):
        with pytest.raises(SpecError, match="seed must be an int"):
            dim_mulmuley_random(a, seed=bad)
    assert dim_mulmuley_random(a, seed=-3) == dim_mulmuley_random(a, seed=1 << 80) == 4
