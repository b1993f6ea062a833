"""Acceptance gate: thirteen end-to-end criteria, one test and one
pass/fail line apiece.  Tolerances are exact equality throughout; the
stated wall-clock limits are asserted where a criterion carries one."""

import random
import time

import numpy as np

from groupalg.algebra import AlgebraElem, random_element
from groupalg.dimension import IdealSpec, dim_bound_charpoly, dim_ideal, \
    dim_mulmuley_exact, dim_mulmuley_random, ideal_membership, idempotent_generator
from groupalg.field import parse_field_spec
from groupalg.gcode import build_code, min_distance
from groupalg.groups import load_cayley_file, make_group
from groupalg.linalg import FPoly, charpoly, rank
from groupalg.representation import lambda_matrix, rho_matrix
from groupalg.selftest import S3_I1, S3_I2, S3_I3_CHAR3, S3_I3_PARTS, S3_J1, \
    S3_J2, paper_s3_group, run_selftest
from groupalg import cli

import oracles

# rho(1 + (12)) over the fixture ordering 1,(12),(13),(23),(123),(132):
# all-ones 2x2 blocks on the index pairs {1,2}, {4,5}, {3,6}
RHO_ONE_PLUS_T = [
    [1, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 1, 0, 0, 1],
]


def _pass(num, desc, started=None, limit=None):
    elapsed = None if started is None else time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"
    timing = "" if elapsed is None else (
        f" ({elapsed:.2f}s" + (f" < {limit}s)" if limit else ")"))
    print(f"criterion {num:2d} PASS{timing}: {desc}")


def _elem(field, group, coeffs):
    return AlgebraElem(field, group, [c % field.p for c in coeffs])


def _s3_over(q):
    return parse_field_spec(f"gf:{q}"), paper_s3_group()


def _klein():
    return make_group("product:cyclic:2,cyclic:2")


def test_criterion_01_s3_gf5_worked_example():
    started = time.perf_counter()
    f, g = _s3_over(5)
    a = _elem(f, g, (1, 1, 0, 0, 0, 0))
    assert rho_matrix(a).data.tolist() == RHO_ONE_PLUS_T
    cp = charpoly(rho_matrix(a))
    assert cp == FPoly(f, (0, 0, 0, 2, 2, 4, 1))  # z^3 (z-2)^3
    assert dim_ideal(IdealSpec("left", (a,))) == 3
    e = idempotent_generator(a, "left")
    assert e.coeffs.tolist() == [3, 3, 0, 0, 0, 0]
    b = dim_bound_charpoly(a.scale(3))
    assert b.exact and b.lower == 3
    _pass(1, "matrix, charpoly z^3(z-2)^3, dim 3, idempotent 3+3*(12)",
          started, limit=1.0)


def test_criterion_02_s3_gf5_ideal_dimensions():
    started = time.perf_counter()
    f, g = _s3_over(5)
    dims = []
    for coeffs in (S3_I1, S3_I2):
        dims.append(dim_ideal(IdealSpec("left", (_elem(f, g, coeffs),))))
    parts = tuple(_elem(f, g, c) for c in S3_I3_PARTS)
    dims.append(dim_ideal(IdealSpec("left", parts)))
    for coeffs in (S3_J1, S3_J2):
        dims.append(dim_ideal(IdealSpec("left", (_elem(f, g, coeffs),))))
    assert dims == [1, 1, 4, 2, 2]
    assert dims[0] + dims[1] + dims[2] == g.n
    _pass(2, "gf:5 dims 1, 1, 4, 2, 2 and 1+1+4 = |G|", started, limit=1.0)


def test_criterion_03_s3_gf2_ideal_dimensions():
    f, g = _s3_over(2)
    i1 = _elem(f, g, S3_I1)
    i2 = _elem(f, g, S3_I2)
    assert dim_ideal(IdealSpec("left", (i1,))) == 1
    assert ideal_membership(i1, IdealSpec("left", (i2,)))
    assert ideal_membership(i2, IdealSpec("left", (i1,)))
    parts = tuple(_elem(f, g, c) for c in S3_I3_PARTS)
    assert dim_ideal(IdealSpec("left", parts)) == 4
    assert dim_ideal(IdealSpec("left", (_elem(f, g, S3_J1),))) == 2
    assert dim_ideal(IdealSpec("left", (_elem(f, g, S3_J2),))) == 2
    _pass(3, "gf:2 dims 1, 4, 2, 2 with the two order-1 ideals equal")


def test_criterion_04_s3_gf3_subideals():
    f, g = _s3_over(3)
    i1 = _elem(f, g, S3_I1)
    i2 = _elem(f, g, S3_I2)
    i3 = _elem(f, g, S3_I3_CHAR3)
    assert dim_ideal(IdealSpec("left", (i1,))) == 1
    assert dim_ideal(IdealSpec("left", (i2,))) == 1
    spec3 = IdealSpec("left", (i3,))
    assert dim_ideal(spec3) == 2
    assert ideal_membership(i1, spec3)
    assert ideal_membership(i2, spec3)
    _pass(4, "gf:3 dims 1, 1, 2 with both order-1 ideals inside the third")


def test_criterion_05_klein_gf2_charpoly_and_ranks():
    f = parse_field_spec("gf:2")
    g = _klein()
    rng = random.Random(805)
    for _ in range(20):
        coeffs = [rng.randrange(2) for _ in range(4)]
        a = AlgebraElem(f, g, coeffs)
        s = sum(coeffs) % 2
        zs = FPoly(f, (s, 1))
        want = zs.mul(zs).mul(zs).mul(zs)  # (z + a+b+c+d)^4
        assert charpoly(rho_matrix(a)) == want
        r = rank(rho_matrix(a))
        if not any(coeffs):
            assert r == 0
        elif s == 1:
            assert r == 4
        elif all(coeffs):
            assert r == 1
        else:
            assert r == 2
    _pass(5, "gf:2 Klein charpoly (z+s)^4 and rank classes 0/1/2/4, 20 random f")


def test_criterion_06_klein_gf5_diagonal_form():
    f = parse_field_spec("gf:5")
    g = _klein()
    rng = random.Random(806)
    for _ in range(50):
        a_, b_, c_, d_ = (rng.randrange(5) for _ in range(4))
        elem = AlgebraElem(f, g, (a_, b_, c_, d_))
        forms = ((a_ + b_ + c_ + d_) % 5, (a_ - b_ - c_ + d_) % 5,
                 (a_ + b_ - c_ - d_) % 5, (a_ - b_ + c_ - d_) % 5)
        want = sum(1 for v in forms if v)
        assert dim_ideal(IdealSpec("left", (elem,))) == want
    _pass(6, "gf:5 Klein dim = nonzero count among a+-b+-c+-d, 50 random f")


def test_criterion_07_cyclic_block_generator():
    f = parse_field_spec("gf:2")
    g = make_group("cyclic:6")
    a = AlgebraElem(f, g, (1, 0, 0, 1, 0, 0))
    cp = charpoly(rho_matrix(a))
    assert cp == FPoly(f, (0, 0, 0, 0, 0, 0, 1))  # z^6
    b = dim_bound_charpoly(a)
    assert b.k == 6 and b.lower == 0 and not b.exact
    assert dim_ideal(IdealSpec("left", (a,))) == 3
    _pass(7, "C_6 over gf:2, f = 1+g^3: charpoly z^6, bound 0 yet dim 3")


def test_criterion_08_cyclic_gcd_oracle_sweep():
    started = time.perf_counter()
    rng = random.Random(808)
    checked = 0
    for n in (4, 6, 8, 12, 24, 48):
        g = make_group(f"cyclic:{n}")
        for q, fspec in ((2, "gf:2"), (3, "gf:3"), (4, "gf:2^2"), (5, "gf:5")):
            f = parse_field_spec(fspec)
            for _ in range(25):
                coeffs = [rng.randrange(q) for _ in range(n)]
                a = AlgebraElem(f, g, coeffs)
                want = oracles.cyclic_ideal_dim(q, coeffs)
                assert dim_ideal(IdealSpec("left", (a,))) == want, (n, q, coeffs)
                checked += 1
    assert checked == 600
    _pass(8, "600/600 cyclic dims match the independent gcd oracle",
          started, limit=30.0)


def test_criterion_09_method_agreement_100_instances():
    started = time.perf_counter()
    rng = random.Random(809)
    plan = [("cyclic:3", 12), ("cyclic:4", 12), ("cyclic:6", 12),
            ("cyclic:8", 12), ("product:cyclic:2,cyclic:2", 16),
            ("dihedral:4", 16), ("symmetric:3", 18), ("symmetric:4", 2)]
    fields = ("gf:2", "gf:3", "gf:5")
    count = 0
    retried = 0
    for gspec, reps in plan:
        g = make_group(gspec)
        for i in range(reps):
            f = parse_field_spec("gf:2" if gspec == "symmetric:4"
                                 else fields[i % 3])
            a = random_element(f, g, rng)
            d = dim_ideal(IdealSpec("left", (a,)))
            assert dim_mulmuley_exact(a, "left") == d, (gspec, f.q)
            got = dim_mulmuley_random(a, "left", trials=3, seed=809)
            if got != d:
                retried += 1
                got = dim_mulmuley_random(a, "left", trials=6, seed=809)
            assert got == d, (gspec, f.q)
            count += 1
    assert count == 100
    _pass(9, f"exact and randomized paths match rank on 100 instances "
             f"({retried} needed the trials = 6 retry)", started, limit=15.0)


def test_criterion_10_idempotent_property_suite():
    rng = random.Random(810)
    contexts = [(fs, gs) for fs in ("gf:5", "gf:7")
                for gs in ("symmetric:3", "dihedral:4",
                           "product:cyclic:2,cyclic:2", "cyclic:6")]
    done = 0
    while done < 50:
        fspec, gspec = contexts[done % len(contexts)]
        f = parse_field_spec(fspec)
        g = make_group(gspec)
        a = random_element(f, g, rng)
        if a.is_zero:
            continue
        e = idempotent_generator(a, "left")
        assert e is not None, (fspec, gspec)
        assert e.is_idempotent()
        assert a * e == a
        assert dim_ideal(IdealSpec("left", (e,))) == \
            dim_ideal(IdealSpec("left", (a,)))
        done += 1
    # modular case: no idempotent generator exists, and brute force agrees
    f2 = parse_field_spec("gf:2")
    k4 = _klein()
    a = AlgebraElem(f2, k4, (1, 1, 0, 0))
    assert idempotent_generator(a, "left") is None
    assert oracles.idempotent_generators_exhaustive(
        2, k4.mul.tolist(), [1, 1, 0, 0]) == []
    _pass(10, "50 semisimple idempotent generators verified; modular case none")


def test_criterion_11_representation_laws():
    rng = random.Random(811)
    for gspec in ("symmetric:3", "dihedral:4",
                  "product:cyclic:2,cyclic:2", "cyclic:6"):
        g = make_group(gspec)
        for i in range(100):
            f = parse_field_spec(("gf:2", "gf:3", "gf:5", "gf:2^2")[i % 4])
            a = random_element(f, g, rng)
            b = random_element(f, g, rng)
            assert rho_matrix(a * b) == rho_matrix(a) @ rho_matrix(b)
            assert lambda_matrix(a * b) == lambda_matrix(b) @ lambda_matrix(a)
            assert rho_matrix(a).transpose() == rho_matrix(a.star())
    _pass(11, "product, reversal, and transpose laws on 100 pairs per group")


def test_criterion_12_cyclic_512_performance():
    started = time.perf_counter()
    f = parse_field_spec("gf:2")
    g = make_group("cyclic:512")
    rng = random.Random(812)
    a = random_element(f, g, rng)
    d = dim_ideal(IdealSpec("left", (a,)))
    assert 0 <= d <= 512
    assert d == oracles.cyclic_ideal_dim(2, a.coeffs.tolist())
    _pass(12, f"dim over C_512 / gf:2 (dim = {d})", started, limit=10.0)


def test_criterion_13_selftest_green():
    results = run_selftest()
    assert results and all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    for expected in ("klein-char2", "klein-char5", "s3-gf5-remark",
                     "s3-gf5-idempotent", "s3-gf5-ideals", "s3-gf2",
                     "s3-gf3", "cyclic-block", "s3-cayley-file"):
        assert expected in names
    assert cli.main(["selftest"]) == 0
    _pass(13, "built-in selftest covers every fixture and exits 0")
