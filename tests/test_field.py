import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from groupalg import field as field_module
from groupalg.errors import DomainError, SpecError
from groupalg.field import Field, embedding, format_field_spec, make_field, \
    parse_field_spec

import oracles
from oracles import OracleField


def test_prime_field_matches_int_arithmetic():
    for p in (2, 3, 5, 7, 13):
        f = make_field(p)
        for a in range(p):
            for b in range(p):
                assert f.add(a, b) == (a + b) % p
                assert f.sub(a, b) == (a - b) % p
                assert f.mul(a, b) == (a * b) % p
            assert f.neg(a) == (-a) % p
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_default_moduli_are_lex_smallest_irreducible():
    assert make_field(2).modulus == (0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert make_field(5, 2).modulus == (1, 1, 1)


def test_extension_field_matches_oracle():
    for q in (4, 8, 9, 16, 25, 27):
        f = parse_field_spec(f"gf:{OracleField(q).p}^{OracleField(q).m}")
        o = OracleField(q)
        assert f.modulus == o.modulus
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == o.add(a, b), (q, a, b)
                assert f.mul(a, b) == o.mul(a, b), (q, a, b)
            assert f.neg(a) == o.neg(a)
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_extension_mul_all_pairs_match_oracle():
    # every pair, zeros included: the zero sentinel in the log table must
    # land in the zero half of the antilog table
    for q in (4, 9, 125, 512):
        o = OracleField(q)
        f = make_field(o.p, o.m)
        assert f.modulus == o.modulus
        if q == 512:
            # bilinearity over F_2: a*b is the XOR of a*x^i over the set bits i of b
            basis = np.array([[o.mul(a, 1 << i) for i in range(o.m)] for a in range(q)])
            bits = (np.arange(q)[:, None] >> np.arange(o.m)) & 1
            table = np.bitwise_xor.reduce(basis[:, None, :] * bits[None, :, :], axis=2)
        else:
            table = np.array([[o.mul(a, b) for b in range(q)] for a in range(q)])
        xs = np.arange(q, dtype=np.int64)
        assert np.array_equal(f.mul(xs[:, None], xs[None, :]), table), q
        assert np.array_equal(f.mul(xs, xs), np.diag(table)), q
        for a in (0, 1, 2, q - 1):
            assert np.array_equal(f.mul(a, xs), table[a]), (q, a)
            for b in (0, 1, q - 2, q - 1):
                got = f.mul(a, b)
                assert type(got) is int and got == table[a, b], (q, a, b)


def test_explicit_modulus_accepted():
    f = parse_field_spec("gf:2^3:1,1,0,1")
    assert f.modulus == (1, 1, 0, 1)
    # x^3 = x + 1 for this modulus: x -> 2, x^2 -> 4, x^3 -> 3
    assert f.mul(2, 4) == 3


def test_bad_specs_rejected():
    for spec in ("gf", "gf:", "gf:4^2", "foo:5", "gf:2^3:1,1,1,1", "gf:6",
                 "gf:2^0", "gf:5:xyz", "gf:2^2:1,1,1,1,1"):
        with pytest.raises(SpecError):
            parse_field_spec(spec)
    with pytest.raises(SpecError):
        make_field(4)  # not prime
    with pytest.raises(SpecError):
        make_field(2, 2, (1, 0, 1))  # x^2+1 reducible over F_2


def test_spec_roundtrip():
    for spec in ("gf:2", "gf:7", "gf:2^3:1,0,1,1", "gf:3^2:1,0,1"):
        f = parse_field_spec(spec)
        assert format_field_spec(f) == spec
        assert parse_field_spec(format_field_spec(f)) == f


def test_field_caching_and_equality():
    assert make_field(5) is make_field(5)
    assert make_field(2, 3) is make_field(2, 3)
    assert make_field(2, 3, (1, 1, 0, 1)) != make_field(2, 3, (1, 0, 1, 1))


def test_coeff_encoding_roundtrip():
    f = make_field(3, 3)
    for a in range(f.q):
        assert f.from_coeffs(f.to_coeffs(a)) == a
        assert f.parse_value(f.format_value(a)) == a
    assert f.from_coeffs((2, 1)) == 2 + 1 * 3
    with pytest.raises(SpecError):
        f.from_coeffs((3, 0, 0))
    with pytest.raises(SpecError):
        f.from_coeffs((0,) * 4)


def test_from_coeffs_and_modulus_refuse_non_integral_values():
    f = make_field(5)
    with pytest.raises(SpecError, match="integers"):
        f.from_coeffs([1.5])  # was 1
    assert f.from_coeffs([3]) == f.from_coeffs([3.0]) == f.from_coeffs([np.int64(3)]) == 3
    with pytest.raises(SpecError, match="integers"):
        make_field(5, 2, [2.7, 0, 1])  # was the field with modulus (2, 0, 1)
    with pytest.raises(SpecError, match="integers"):
        Field(5, 2, [2.7, 0, 1])
    assert make_field(5, 2, [2, 0, 1]).modulus == (2, 0, 1)


def test_vector_ops_match_scalar_loops():
    rng = random.Random(11)
    for spec in ("gf:5", "gf:2^3", "gf:3^2"):
        f = parse_field_spec(spec)
        a = np.array([rng.randrange(f.q) for _ in range(40)])
        b = np.array([rng.randrange(f.q) for _ in range(40)])
        add = f.add(a, b)
        mul = f.mul(a, b)
        sub = f.sub(a, b)
        for i in range(40):
            assert add[i] == f.add(int(a[i]), int(b[i]))
            assert mul[i] == f.mul(int(a[i]), int(b[i]))
            assert sub[i] == f.sub(int(a[i]), int(b[i]))
        mask = b != 0
        div = f.div(a[mask], b[mask])
        assert np.array_equal(f.mul(div, b[mask]), a[mask])


def test_sum_matches_repeated_add():
    rng = random.Random(7)
    for spec in ("gf:7", "gf:2^4", "gf:3^2", "gf:2"):
        f = parse_field_spec(spec)
        v = np.array([rng.randrange(f.q) for _ in range(25)])
        total = 0
        for x in v.tolist():
            total = f.add(total, x)
        assert f.sum(v) == total
        m = np.array([[rng.randrange(f.q) for _ in range(4)] for _ in range(3)])
        rows = f.sum(m, axis=1)
        for i in range(3):
            assert rows[i] == f.sum(m[i])


def test_sum_over_gf2m_matches_repeated_add():
    # GF(2^m) sums are one XOR reduction at every size, GF(2^17) included
    rng = random.Random(8)
    for spec in ("gf:2^2", "gf:2^11", "gf:2^17"):
        f = parse_field_spec(spec)

        def fold(xs):
            total = 0
            for x in xs:
                total = f.add(total, int(x))
            return total

        m = np.array([[rng.randrange(f.q) for _ in range(5)] for _ in range(4)])
        whole = f.sum(m)
        assert isinstance(whole, int) and whole == fold(m.ravel()), spec
        assert f.sum(m, axis=0).tolist() == [fold(col) for col in m.T], spec
        for axis in (1, -1):
            assert f.sum(m, axis=axis).tolist() == [fold(row) for row in m], spec
        assert f.sum(np.zeros(0, dtype=np.int64)) == 0
        assert f.sum(np.zeros((0, 3), dtype=np.int64), axis=0).tolist() == [0, 0, 0]
        assert f.sum(np.zeros((3, 0), dtype=np.int64), axis=1).tolist() == [0, 0, 0]
        assert f.sum(np.zeros((0, 3), dtype=np.int64), axis=1).shape == (0,)


def test_dot_over_gf2_11_matches_oracle():
    rng = random.Random(9)
    f = parse_field_spec("gf:2^11")
    a = np.array([[rng.randrange(f.q) for _ in range(4)] for _ in range(3)])
    b = np.array([[rng.randrange(f.q) for _ in range(5)] for _ in range(4)])
    assert f.dot(a, b).tolist() == oracles.matrix_mul(f.q, a.tolist(), b.tolist())
    assert f.dot(a[0], b[:, 0]) == oracles.matrix_mul(f.q, a[:1].tolist(), b[:, :1].tolist())[0][0]


def _as_rows(x):
    return [x] if x.ndim == 1 else x.tolist()


def test_dot_matches_oracle_on_every_shape_pair():
    rng = random.Random(11)
    for spec in ("gf:2", "gf:5", "gf:2^2", "gf:3^2"):
        f = parse_field_spec(spec)
        for _ in range(6):
            mat_a = np.array([[rng.randrange(f.q) for _ in range(4)] for _ in range(3)])
            mat_b = np.array([[rng.randrange(f.q) for _ in range(5)] for _ in range(4)])
            vec_a = np.array([rng.randrange(f.q) for _ in range(4)])
            vec_b = np.array([rng.randrange(f.q) for _ in range(4)])
            for a, b in ((vec_a, mat_b), (mat_a, vec_b), (vec_a, vec_b), (mat_a, mat_b)):
                rows_b = [[int(v)] for v in b] if b.ndim == 1 else b.tolist()
                want = oracles.matrix_mul(f.q, _as_rows(a), rows_b)
                got = f.dot(a, b)
                if a.ndim == 1 and b.ndim == 1:
                    assert got == want[0][0], spec
                elif a.ndim == 1:
                    assert got.tolist() == want[0], spec
                elif b.ndim == 1:
                    assert got.tolist() == [row[0] for row in want], spec
                else:
                    assert got.tolist() == want, spec


def test_dot_empty_dimensions():
    for spec in ("gf:5", "gf:2^2", "gf:3^2"):
        f = parse_field_spec(spec)
        for sa, sb, shape in (((3, 0), (0, 2), (3, 2)), ((0, 4), (4, 2), (0, 2)),
                              ((2, 3), (3, 0), (2, 0)), ((0,), (0, 2), (2,)),
                              ((3, 0), (0,), (3,)), ((0, 4), (4,), (0,))):
            got = f.dot(np.zeros(sa, dtype=np.int64), np.ones(sb, dtype=np.int64))
            assert got.shape == shape and not got.any(), (spec, sa, sb)
        assert f.dot(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == 0


def test_dot_at_the_int64_edge_of_the_largest_prime():
    p = (1 << 31) - 1
    f = make_field(p)
    for inner in (2, 7):  # 2 * (p-1)^2 < 2^63 still fits int64; 7 does not
        a = np.full((3, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 2), p - 1, dtype=np.int64)
        want = inner * (p - 1) ** 2 % p
        assert f.dot(a, b).tolist() == [[want] * 2] * 3
        assert f.dot(a[0], b).tolist() == [want] * 2
        assert f.dot(a, b[:, 0]).tolist() == [want] * 3
        assert f.dot(a[0], b[:, 0]) == want


def test_dot_blocks_large_products(monkeypatch):
    rng = random.Random(12)
    for spec in ("gf:2^2", "gf:3^2"):
        f = parse_field_spec(spec)
        a = np.array([[rng.randrange(f.q) for _ in range(6)] for _ in range(9)])
        b = np.array([[rng.randrange(f.q) for _ in range(5)] for _ in range(6)])
        whole = (f.dot(a, b), f.dot(a, b[:, 0]), f.dot(a[0], b))
        monkeypatch.setattr(field_module, "_DOT_BLOCK", 7)
        blocked = (f.dot(a, b), f.dot(a, b[:, 0]), f.dot(a[0], b))
        monkeypatch.undo()
        for w, g in zip(whole, blocked):
            assert np.array_equal(w, g), spec
        assert whole[0].tolist() == oracles.matrix_mul(f.q, a.tolist(), b.tolist())


def test_dot_shape_mismatch():
    for spec in ("gf:5", "gf:2^2"):
        f = parse_field_spec(spec)
        with pytest.raises(ValueError):
            f.dot(np.zeros((2, 3), dtype=np.int64), np.zeros(1, dtype=np.int64))


def test_pow():
    for spec in ("gf:7", "gf:2^3"):
        f = parse_field_spec(spec)
        for a in range(1, f.q):
            assert f.pow(a, 0) == 1
            assert f.pow(a, f.q - 1) == 1  # Lagrange
            acc = 1
            for e in range(1, 6):
                acc = f.mul(acc, a)
                assert f.pow(a, e) == acc
        assert f.pow(0, 0) == 1
        assert f.pow(0, 3) == 0


def test_large_prime_array_inv_and_pow_match_python_pow():
    # one square-and-multiply serves every field; e is never reduced mod p - 1
    rng = random.Random(20)
    for p in (65521, 2147483647):
        f = make_field(p)
        xs = [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(60)]
        a = np.array(xs, dtype=np.int64)
        assert f.inv(a).tolist() == [pow(x, -1, p) for x in xs]
        for e in (0, 1, 2, 3, p - 2, p - 1, p, p + 5, 3 * p + 1, -1, -7, -(p + 2)):
            assert f.pow(a, e).tolist() == [pow(x, e, p) for x in xs], (p, e)
        z = np.zeros(3, dtype=np.int64)
        for e in (0, 1, p - 1, p):
            assert f.pow(z, e).tolist() == [pow(0, e, p)] * 3, (p, e)
        with pytest.raises(ZeroDivisionError):
            f.pow(z, -1)


def test_prime_fields_keep_no_tables():
    for p in (2, 5, 65521, 2147483647):
        f = make_field(p)
        assert [k for k, v in vars(f).items() if isinstance(v, np.ndarray) and v.size > 1] \
            == [], p


def test_scalar_results_are_plain_ints():
    # numpy integer scalars (np.int64) must not leak out of scalar arithmetic
    for spec in ("gf:5", "gf:2^2", "gf:3^2", "gf:2147483647"):
        f = parse_field_spec(spec)
        a, b = 1, f.q - 1
        vec = np.array([a, b, 1], dtype=np.int64)
        results = {"add": f.add(a, b), "sub": f.sub(a, b), "neg": f.neg(a),
                   "mul": f.mul(a, b), "inv": f.inv(b), "div": f.div(a, b),
                   "pow": f.pow(b, 3), "sum": f.sum(vec), "dot": f.dot(vec, vec)}
        for name, got in results.items():
            assert type(got) is int, (spec, name, type(got))


def test_zero_division():
    f = make_field(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    g = make_field(2, 3)
    with pytest.raises(ZeroDivisionError):
        g.inv(0)
    with pytest.raises(ZeroDivisionError):
        make_field(2147483647).inv(0)
    with pytest.raises(ZeroDivisionError):
        g.inv(np.array([1, 0]))


def test_scalar_inv_agrees_with_array_inv():
    # a Python int takes the scalar fast path, an array the vectorized one
    rng = random.Random(16)
    for spec in ("gf:5", "gf:2^2", "gf:3^2", "gf:2147483647"):
        f = parse_field_spec(spec)
        xs = list(range(1, f.q)) if f.q < 100 else [rng.randrange(1, f.q) for _ in range(200)]
        want = f.inv(np.array(xs, dtype=np.int64)).tolist()
        got = [f.inv(x) for x in xs]
        assert got == want, spec
        assert all(type(v) is int and f.mul(x, v) == 1 for x, v in zip(xs, got)), spec


def test_check_range():
    f = make_field(3)
    with pytest.raises(SpecError):
        f.check_range(np.array([0, 3]))
    with pytest.raises(SpecError):
        f.check_range(np.array([-1]))
    f.check_range(np.array([0, 1, 2]))


def test_encodings_refuse_non_integral_values():
    f = make_field(3)
    for bad in ([0.5, 1.9, 2.2], [float("nan")], [float("inf")], [2 ** 70], ["1"], [1j], [3],
                [-1.0]):
        with pytest.raises(SpecError):
            f.encodings(bad)
    for good in ([0.0, 1.0, 2.0], [True, False], np.array([2, 1], dtype=np.uint8), [[1, 2]]):
        out = f.encodings(good)
        assert out.dtype == np.int64 and out.tolist() == np.asarray(good).astype(int).tolist()
    src = np.array([1, 2], dtype=np.int64)
    out = f.encodings(src)
    out[0] = 0
    assert src[0] == 1  # a fresh array, never a view of the input


def test_elements_order():
    f = make_field(2, 2)
    assert list(f.elements()) == [0, 1, 2, 3]
    assert list(f.elements(2)) == [0, 1]


def test_embedding_is_field_hom():
    for src_spec, dst_spec in (("gf:2", "gf:2^2"), ("gf:2^2", "gf:2^4"),
                               ("gf:3", "gf:3^2"), ("gf:5", "gf:5^2")):
        src = parse_field_spec(src_spec)
        dst = parse_field_spec(dst_spec)
        emb = embedding(src, dst)
        assert emb(0) == 0 and emb(1) == 1
        imgs = [emb(a) for a in range(src.q)]
        assert len(set(imgs)) == src.q  # injective
        for a in range(src.q):
            for b in range(src.q):
                assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
                assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))


def test_embedding_root_satisfies_modulus():
    src = make_field(2, 2)
    dst = make_field(2, 4)
    emb = embedding(src, dst)
    val = 0
    for c in reversed(src.modulus):
        val = dst.add(dst.mul(val, emb.root), c)
    assert val == 0


def test_identity_embedding():
    f = make_field(2, 3)
    emb = embedding(f, f)
    assert all(emb(a) == a for a in range(f.q))


def test_prime_field_embeds_by_identity_with_no_table():
    # gf:p -> gf:p^2 and gf:p -> gf:p; a table would hold all p elements (38 MiB to build
    # at p = 1000003 when prime sources had one)
    for p, m in ((1021, 2), (1000003, 1), (2, 1), (3, 2)):
        src, dst = make_field(p), make_field(p, m)
        tracemalloc.start()
        try:
            emb = field_module.Embedding(src, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (p, m, peak)
        assert emb._table is None and emb.root == 0, (p, m)
        xs = np.array([0, 1, p - 1, p // 2], dtype=np.int64)
        assert emb(xs).tolist() == xs.tolist() and emb(p - 1) == p - 1
        assert emb(xs) is not xs


def test_larger_extension_tables():
    # antilogs well past the first 1024 powers, against the oracle: a product
    # by a fixed c reads every log entry and every antilog entry
    rng = random.Random(3)
    for q in (2048, 2187, 3125):
        o = OracleField(q)
        f = make_field(o.p, o.m)
        assert f.modulus == o.modulus
        xs = np.arange(q, dtype=np.int64)
        c = q - 2
        assert f.mul(xs, c).tolist() == [o.mul(a, c) for a in range(q)], q
        assert f.add(xs, c).tolist() == [o.add(a, c) for a in range(q)], q
        assert f.neg(xs).tolist() == [o.neg(a) for a in range(q)], q
        assert all(o.mul(a, b) == 1 for a, b in enumerate(f.inv(xs[1:]).tolist(), 1)), q
        for _ in range(200):
            a, b = rng.randrange(q), rng.randrange(q)
            assert (f.mul(a, b), f.sub(a, b)) == (o.mul(a, b), o.sub(a, b)), (q, a, b)


def test_default_modulus_is_the_plain_lex_first_irreducible():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = 2
        while p ** m <= 1 << 10:
            assert field_module._default_modulus(p, m) == oracles.lex_first_irreducible(p, m), \
                (p, m)
            m += 1


def _mobius(n: int) -> int:
    out, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return out


def _power_test_passes(p: int, f: tuple) -> bool:
    """x^(p^m) = x mod f, by m p-th powers with the oracle's plain-list arithmetic."""
    o, m = OracleField(p), len(f) - 1
    t = [0, 1]
    for _ in range(m):
        u = [1]
        for _ in range(p):
            u = oracles.poly_mod(o, oracles.poly_mul(o, u, t), list(f))
        t = u
    return t == [0, 1]


def test_rabin_test_classifies_every_small_monic_polynomial():
    # every monic f of degree m >= 2 over F_p with p^m <= 2^8, c_0 = 0 included,
    # against trial division; the irreducibles number (1/m) sum_{d | m} mu(d) p^(m/d)
    for p in (2, 3, 5, 7, 11, 13):
        m = 2
        while p ** m <= 1 << 8:
            count = 0
            for low in itertools.product(range(p), repeat=m):
                f = low + (1,)
                irreducible = oracles.is_irreducible(p, f)
                assert field_module._is_irreducible(f, p) == irreducible, (p, f)
                count += irreducible
                if not irreducible:
                    with pytest.raises(SpecError, match="reducible"):
                        Field(p, m, f)
            gauss = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
            assert count * m == gauss, (p, m)
            m += 1


def test_rabin_gcd_step_catches_squarefree_products_of_small_degree_factors():
    # a squarefree f whose irreducible factors all have degrees dividing m passes
    # x^(p^m) = x mod f; only gcd(x^(p^(m/l)) - x, f) = 1 rejects it.  A square
    # fails the power test already, as x^(p^m) - x is squarefree.
    o2, o3 = OracleField(2), OracleField(3)
    mul = oracles.poly_mul
    gcd_only = [
        (2, [0, 1, 1]),                                    # x (x + 1): c_0 = 0
        (2, mul(o2, [0, 1], [1, 0, 0, 1])),                # x (x + 1)(x^2 + x + 1)
        (2, mul(o2, mul(o2, [1, 1], [1, 1, 1]), [1, 1, 0, 1])),  # degrees 1, 2, 3 | 6
        (3, mul(o3, [1, 1], [2, 1])),                      # (x + 1)(x + 2)
        (3, mul(o3, [1, 0, 1], [2, 1, 1])),                # two quadratics, m = 4
    ]
    for p, f in gcd_only:
        f = tuple(f)
        assert not oracles.is_irreducible(p, f) and _power_test_passes(p, f), (p, f)
        assert not field_module._is_irreducible(f, p), (p, f)
        with pytest.raises(SpecError, match="reducible"):
            Field(p, len(f) - 1, f)
    square = tuple(mul(o2, [1, 1, 1], [1, 1, 1]))          # (x^2 + x + 1)^2
    assert not _power_test_passes(2, square) and not field_module._is_irreducible(square, 2)


def test_extension_is_the_smallest_field_with_enough_elements():
    f4 = make_field(2, 2)
    assert f4.extension(1) is f4 and f4.extension(4) is f4
    assert f4.extension(5) == make_field(2, 4)
    assert make_field(3).extension(10) == make_field(3, 3)
    assert make_field(2).extension(9218) == make_field(2, 14)
    big = make_field((1 << 31) - 1)
    assert big.extension(1 << 30) is big


def test_extension_past_the_table_limit_refuses_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"2\^21 elements, beyond the table limit 2\^20"):
            make_field(2).extension((1 << 20) + 1)
        with pytest.raises(DomainError, match=r"3\^14 elements"):
            make_field(3, 7).extension(3 ** 7 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# SHA-256 prefixes of the little-endian int64 bytes of _exp, _log and _inv_table, as
# the digit matmul made them for every field before GF(2^m), q > 2^16, took XOR doubling
EXT_TABLE_DIGESTS = {
    "2^2": "18bf138960103319", "2^3": "299ad9eb35ee61b2", "2^4": "4f119db81506e035",
    "2^5": "20177a83660f2e82", "2^6": "22e60b65c7cf237a", "2^7": "77a18fcc8bbcc910",
    "2^8": "b97ec249ca9781ff", "2^9": "c7629064e3a40068", "2^10": "23b61d6a4627e110",
    "2^11": "c5c078c0cc279b4e", "2^12": "a35ba3f04cc52393", "2^13": "aecc51a7d28ea8c0",
    "2^14": "f35af9d65775d64e", "2^15": "556183f0b738b989", "2^16": "054e9f01adcafc25",
    "2^17": "223875c537e1cadb", "2^18": "ee673182f26b971a", "2^19": "2215b833f389720d",
    "2^20": "7ef426f1182d363d", "3^2": "883324bda5b2680c", "3^7": "c3dbdc6f0871625b",
    "3^12": "60bb4dc414d3b493", "5^2": "23b31ff4f6244730", "5^8": "000f1758ac843767",
    "7^3": "81e7be5bce5f494e", "7^7": "89b769e577175734", "31^4": "4665a3482cccc240",
    "1021^2": "fa992eba234fa6d3",
}


def test_extension_tables_are_byte_stable():
    for key, digest in EXT_TABLE_DIGESTS.items():
        p, m = map(int, key.split("^"))
        f = Field(p, m)  # uncached: the largest tables are dropped after use
        h = hashlib.sha256()
        for table in (f._exp, f._log, f._inv_table):
            h.update(table.astype("<i8").tobytes())
        assert h.hexdigest()[:16] == digest, key


def test_gf2_20_tables_build_without_a_digit_array():
    # the digit form alone was (2^20 - 1) x 20 int64, 160 MiB
    tracemalloc.start()
    try:
        f = Field(2, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 << 20, peak
    assert f.mul(f._exp[12345], f._exp[(1 << 20) - 1 - 12345]) == 1
