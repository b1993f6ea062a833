import random

import numpy as np
import pytest

from groupalg import field as field_module, linalg
from groupalg.errors import SpecError
from groupalg.field import Field, make_field, parse_field_spec
from groupalg.linalg import FMatrix, FPoly, charpoly, charpoly_xm, kernel_basis, \
    lagrange_interpolate, rank, rref, solve, stack_matrices, xm_charpoly_values

import oracles


def _rand_matrix(rng, f, rows, cols):
    return FMatrix(f, [[rng.randrange(f.q) for _ in range(cols)]
                       for _ in range(rows)])


def test_matmul_matches_oracle():
    rng = random.Random(5)
    for spec in ("gf:2", "gf:5", "gf:2^2", "gf:3^2"):
        f = parse_field_spec(spec)
        for _ in range(10):
            a = _rand_matrix(rng, f, 3, 4)
            b = _rand_matrix(rng, f, 4, 2)
            want = oracles.matrix_mul(f.q, a.data.tolist(), b.data.tolist())
            assert (a @ b).data.tolist() == want


def test_rank_matches_oracle():
    rng = random.Random(6)
    for spec in ("gf:2", "gf:3", "gf:5", "gf:2^2"):
        f = parse_field_spec(spec)
        for _ in range(20):
            a = _rand_matrix(rng, f, rng.randrange(1, 6), rng.randrange(1, 6))
            assert rank(a) == oracles.matrix_rank(f.q, a.data.tolist())


def test_rref_canonical_form():
    f = make_field(5)
    a = FMatrix(f, [[0, 2, 4], [0, 1, 2], [3, 1, 1]])
    res = rref(a)
    assert res.rank == 2
    assert res.pivots == (0, 1)
    # reduced form: pivot columns carry unit vectors, zero rows sink
    assert res.matrix.data.tolist() == [[1, 0, 3], [0, 1, 2], [0, 0, 0]]


def test_rref_identity_on_pivots():
    rng = random.Random(9)
    f = make_field(3)
    for _ in range(20):
        a = _rand_matrix(rng, f, 4, 5)
        res = rref(a)
        for i, pc in enumerate(res.pivots):
            col = res.matrix.data[:, pc]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_kernel_basis_annihilates():
    rng = random.Random(10)
    for spec in ("gf:2", "gf:7", "gf:2^3"):
        f = parse_field_spec(spec)
        for _ in range(15):
            a = _rand_matrix(rng, f, 4, 6)
            kern = kernel_basis(a)
            assert len(kern) == 6 - rank(a)
            for v in kern:
                out = f.sum(f.mul(a.data, v[None, :]), axis=1)
                assert not np.asarray(out).any()
            if len(kern) > 1:
                stacked = FMatrix(f, np.array(kern))
                assert rank(stacked) == len(kern)  # independent


def test_solve_consistent_and_inconsistent():
    rng = random.Random(12)
    f = make_field(7)
    for _ in range(20):
        a = _rand_matrix(rng, f, 4, 5)
        x0 = np.array([rng.randrange(7) for _ in range(5)])
        b = f.sum(f.mul(a.data, x0[None, :]), axis=1)
        res = solve(a, b)
        assert res is not None
        out = f.sum(f.mul(a.data, res.solution[None, :]), axis=1)
        assert np.array_equal(np.asarray(out), np.asarray(b))
        assert len(res.kernel) == 5 - rank(a)
    bad = FMatrix(f, [[1, 0], [1, 0]])
    assert solve(bad, np.array([1, 2])) is None
    assert solve(bad, np.array([3, 3])) is not None


def test_solve_canonical_free_vars_zero():
    f = make_field(5)
    a = FMatrix(f, [[1, 1, 0], [0, 0, 0]])
    res = solve(a, np.array([4, 0]))
    assert res.solution.tolist() == [4, 0, 0]


def test_stack_matrices():
    f = make_field(3)
    a = FMatrix(f, [[1, 2]])
    b = FMatrix(f, [[0, 1], [2, 2]])
    s = stack_matrices([a, b])
    assert s.data.tolist() == [[1, 2], [0, 1], [2, 2]]
    with pytest.raises(SpecError):
        stack_matrices([])
    with pytest.raises(SpecError):
        stack_matrices([a, FMatrix(f, [[1], [2]])])


def test_matrix_refuses_non_integral_entries():
    f = make_field(5)
    with pytest.raises(SpecError, match="integers"):
        FMatrix(f, [[1, 2.5], [0, 1]])
    assert FMatrix(f, [[1.0, 4.0]]).data.tolist() == [[1, 4]]


def test_matrix_text_roundtrip():
    rng = random.Random(13)
    for spec in ("gf:5", "gf:2^3"):
        f = parse_field_spec(spec)
        a = _rand_matrix(rng, f, 3, 4)
        text = a.to_text()
        assert text.splitlines()[0] == "3 4"
        back = FMatrix.from_text(f, text)
        assert back == a
    with pytest.raises(SpecError):
        FMatrix.from_text(make_field(2), "2 2\n1 0\n1\n")


def test_charpoly_basic_shapes():
    f = make_field(5)
    # identity: (z - 1)^4
    want = FPoly(f, (1,))
    for _ in range(4):
        want = want.mul(FPoly(f, (4, 1)))
    assert charpoly(FMatrix.identity(f, 4)) == want
    assert charpoly(FMatrix.zeros(f, 3, 3)) == FPoly(f, (0, 0, 0, 1))


def test_charpoly_diagonal():
    f = make_field(7)
    d = (2, 5, 0, 3)
    mat = FMatrix(f, np.diag(d))
    want = FPoly(f, (1,))
    for x in d:
        want = want.mul(FPoly(f, (f.neg(x), 1)))
    assert charpoly(mat) == want


def test_charpoly_companion():
    # companion matrix of a monic polynomial has it as charpoly
    f = make_field(5)
    coeffs = (2, 0, 3, 1)  # z^3 + 3z^2 + 2
    comp = FMatrix(f, [[0, 0, f.neg(2)], [1, 0, f.neg(0)], [0, 1, f.neg(3)]])
    assert charpoly(comp) == FPoly(f, coeffs)


def test_charpoly_matches_oracle():
    rng = random.Random(14)
    for spec in ("gf:2", "gf:3", "gf:5", "gf:7", "gf:2^2", "gf:3^2"):
        f = parse_field_spec(spec)
        for n in (1, 2, 3, 4, 5):
            a = _rand_matrix(rng, f, n, n)
            want = oracles.charpoly_coeffs(f.q, a.data.tolist())
            assert charpoly(a).coeffs == tuple(want), (spec, n)


def test_charpoly_cayley_hamilton_at_the_largest_prime():
    # the oracle cannot reach p = 2^31 - 1; check sum_i c_i A^i == 0 instead.
    # On Hessenberg inputs with a nonzero subdiagonal the reduction is a no-op,
    # so every running product of subdiagonal entries is nonzero and used.
    rng = random.Random(18)
    p = (1 << 31) - 1
    f = make_field(p)
    for hessenberg in (True, False):
        for _ in range(3):
            data = [[rng.randrange(p) if i <= j + 1 or not hessenberg else 0
                     for j in range(6)] for i in range(6)]
            for i in range(1, 6):
                data[i][i - 1] = rng.randrange(1, p)
            a = FMatrix(f, data)
            acc = np.zeros((6, 6), dtype=np.int64)
            power = FMatrix.identity(f, 6)
            for c in charpoly(a).coeffs:
                acc = f.add(acc, f.mul(c, power.data))
                power = power @ a
            assert not acc.any(), hessenberg


def test_charpoly_similarity_invariant():
    rng = random.Random(15)
    f = make_field(5)
    a = _rand_matrix(rng, f, 4, 4)
    perm = np.eye(4, dtype=np.int64)[[2, 0, 3, 1]]
    p = FMatrix(f, perm)
    pinv = FMatrix(f, perm.T.copy())
    assert charpoly(p @ a @ pinv) == charpoly(a)


def test_fpoly_arithmetic():
    f = make_field(3)
    a = FPoly(f, (1, 2, 1))
    b = FPoly(f, (2, 1))
    assert a.add(b).coeffs == (0, 0, 1)
    assert a.sub(b).coeffs == (2, 1, 1)
    want = oracles.poly_mul(oracles.OracleField(3), [1, 2, 1], [2, 1])
    assert a.mul(b).coeffs == tuple(want)
    assert a.eval(1) == (1 + 2 + 1) % 3
    assert FPoly.zero(f).is_zero
    assert FPoly.zero(f).valuation() is None
    assert FPoly(f, (0, 0, 2, 1)).valuation() == 2
    assert a.degree == 2 and FPoly.zero(f).degree == -1


def test_fpoly_text_roundtrip():
    f = make_field(2, 2)
    p = FPoly(f, (3, 0, 1, 2))
    assert FPoly.from_text(f, p.to_text()) == p
    assert FPoly(f, ()).to_text() == "0"


def test_lagrange_interpolate():
    f = make_field(7)
    target = FPoly(f, (3, 0, 2, 1))
    pts = [(x, target.eval(x)) for x in range(4)]
    assert lagrange_interpolate(f, pts) == target
    with pytest.raises(SpecError):
        lagrange_interpolate(f, [(1, 2), (1, 3)])
    assert lagrange_interpolate(f, [(4, 6)]) == FPoly(f, (6,))
    g = make_field(5)
    for bad in ([(1.5, 2), (2, 3.7)], [(1.5, 2), (2, 3)], [(1, 2), (2, 3.7)]):
        with pytest.raises(SpecError, match="integers"):
            lagrange_interpolate(g, bad)  # the first was FPoly([1, 1])
    assert lagrange_interpolate(g, [(1, 2), (2, 3)]) == FPoly(g, (1, 1))


def test_charpoly_xm_specialization_consistency():
    # the symbolic-x result evaluated at x0 equals charpoly(X(x0) . M)
    rng = random.Random(16)
    for spec in ("gf:2", "gf:5"):
        f = parse_field_spec(spec)
        a = _rand_matrix(rng, f, 4, 4)
        xc = charpoly_xm(a)
        ext = xc.field
        from groupalg.field import embedding
        md = embedding(f, ext)(a.data)
        for x0 in range(min(6, ext.q)):
            dpow = np.array([ext.pow(x0, j) for j in range(4)], dtype=np.int64)
            xm = FMatrix(ext, ext.mul(md, dpow[:, None]), validate=False)
            assert xc.specialize(x0) == charpoly(xm)


def test_charpoly_xm_reads_rank_of_symmetrized():
    rng = random.Random(17)
    for spec in ("gf:2", "gf:3", "gf:5"):
        f = parse_field_spec(spec)
        for _ in range(6):
            a = _rand_matrix(rng, f, 4, 4)
            r = rank(a)
            m = np.zeros((8, 8), dtype=np.int64)
            m[:4, 4:] = a.data
            m[4:, :4] = a.data.T
            xc = charpoly_xm(FMatrix(f, m))
            assert xc.size - xc.k == 2 * r, spec



def test_fmatrix_never_aliases_its_input():
    f = make_field(5)
    data = np.arange(6, dtype=np.int64).reshape(2, 3) % 5
    assert not np.shares_memory(FMatrix(f, data, validate=False).data, data)
    m = FMatrix(f, data)
    assert not np.shares_memory(m.data, data)
    assert not np.shares_memory(m.copy().data, m.data)
    assert not np.shares_memory(m.transpose().data, m.data)
    assert m.transpose().data.tolist() == data.T.tolist()

def test_halved_node_charpolys_match_the_doubled_matrix():
    # M = [[0, A], [A^T, 0]] and C = (X_1 A)(X_1 A^T) give det(zI - X M) = det(z^2 I - x^n C),
    # and n minus the least valuation over W+1 = n^2 // 2 + 1 nonzero nodes is rank A
    rng = random.Random(18)
    shift = FMatrix(make_field(2), np.eye(4, k=1, dtype=np.int64))  # nilpotent: X . A is too
    cases = [shift]
    for spec in ("gf:2", "gf:3", "gf:2^2"):
        f = parse_field_spec(spec)
        cases += [_rand_matrix(rng, f, 4, r) @ _rand_matrix(rng, f, r, 4) for r in (1, 2, 3, 4)]
    for a in cases:
        m = np.zeros((8, 8), dtype=np.int64)
        m[:4, 4:] = a.data
        m[4:, :4] = a.data.T
        nodes = lambda ext: ext.elements(10)[1:]
        ext = a.field.extension(10)
        half = xm_charpoly_values((a, a.transpose()), ext, nodes(ext))
        full = xm_charpoly_values((FMatrix(a.field, m),), ext, nodes(ext))
        for x0, h, d in zip(nodes(ext).tolist(), half, full):
            xn = ext.pow(x0, 4)
            assert not d[1::2].any()
            assert d[0::2].tolist() == [ext.mul(ext.pow(xn, 4 - i), int(h[i])) for i in range(5)]
        assert 4 - min(int(np.flatnonzero(v)[0]) for v in half) == rank(a), a.field


def test_charpoly_xm_text_format():
    f = make_field(2)
    xc = charpoly_xm(FMatrix(f, [[1, 0], [0, 0]]))
    text = xc.to_text()
    lines = text.strip().splitlines()
    assert lines[-1] == f"k={xc.k}"
    assert lines[0].startswith("z^0:")
    assert len(lines) == xc.size + 2  # z^0..z^size plus the k line


def test_charpoly_xm_identity():
    # X . I has charpoly prod (z - x^i): k = 0, top coefficient 1
    f = make_field(3)
    xc = charpoly_xm(FMatrix.identity(f, 3))
    assert xc.k == 0
    assert xc.zcoeffs[3].coeffs == (1,)
    # constant z-term is -x^0 * -x^1 * -x^2 = -x^3
    const = xc.zcoeffs[0]
    assert const.eval(2) == xc.field.neg(xc.field.pow(2, 3))


def test_matmul_large_prime_blocked_path():
    # inner * (p-1)^2 reaches 2^63, so Field.dot sums reduced products blockwise
    p = 2147483629
    f = make_field(p)
    a = FMatrix(f, [[p - 1, p - 2], [1, 0]])
    b = FMatrix(f, [[p - 1, 1], [2, p - 5]])
    got = (a @ b).data.tolist()
    want = oracles_matmul_bigp(p, a.data.tolist(), b.data.tolist())
    assert got == want


def oracles_matmul_bigp(p, a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


STACK_FIELDS = ("gf:2", "gf:5", "gf:2^4", "gf:3^2", "gf:2147483647")


def _stack_members(rng, f, s):
    """Five s x s matrices that take different paths at the first Hessenberg step
    (s >= 3): a nonzero pivot in place (every entry is nonzero), a pivot found by a
    row swap, an all-zero subcolumn (the step is skipped), a scaled cyclic shift
    and a sparse matrix."""
    def rand(density=1.0):
        return np.array([[rng.randrange(1, f.q) if rng.random() < density else 0
                          for _ in range(s)] for _ in range(s)], dtype=np.int64).reshape(s, s)
    in_place, swap, zero_col = rand(), rand(), rand()
    shift = np.roll(np.eye(s, dtype=np.int64), 1, axis=0) * rng.randrange(1, f.q)
    if s >= 3:
        swap[1, 0] = 0  # the first nonzero below the subdiagonal sits in row 2 or lower
        zero_col[1:, 0] = 0
    return [in_place, swap, zero_col, shift, rand(0.3)]


def test_stacked_charpoly_matches_the_oracle_and_single_members(monkeypatch):
    calls = []
    real = Field._dot_stack
    monkeypatch.setattr(Field, "_dot_stack",
                        lambda self, a, b: calls.append(self.q) or real(self, a, b))
    rng = random.Random(23)
    for spec in STACK_FIELDS:
        f = parse_field_spec(spec)
        for s in (0, 1, 2, 3, 7):
            members = _stack_members(rng, f, s)
            want = [oracles.charpoly_coeffs(f.q, m.tolist()) for m in members]
            for idx in ([0], [0, 1], [1, 2, 0, 3, 4], [2, 4]):
                stack = np.stack([members[i] for i in idx])
                got = linalg._charpoly_data(f, stack)
                assert got.shape == (len(idx), s + 1)
                for pos, (row, i) in enumerate(zip(got.tolist(), idx)):
                    assert row == want[i], (spec, s, idx, i)
                    assert row == linalg._charpoly_data(f, stack[pos:pos + 1])[0].tolist()
                    assert row == linalg._charpoly_data(f, members[i]).tolist()
    # inner * (p-1)^2 reaches 2^63 from inner = 3 on: the largest prime sums blockwise
    assert (1 << 31) - 1 in calls


def test_stacked_dot_equals_a_loop_of_2d_dots(monkeypatch):
    rng = random.Random(24)
    # gf:5 stays below the int64 bound; gf:2147483647 passes it at inner 3
    for spec in ("gf:5", "gf:2147483647", "gf:2^4", "gf:3^2"):
        f = parse_field_spec(spec)

        def rand(*shape):
            return np.array(rng.choices(range(f.q), k=int(np.prod(shape))),
                            dtype=np.int64).reshape(shape)

        a, b = rand(4, 3, 5), rand(4, 5, 2)
        want = np.stack([f.dot(a[i], b[i]) for i in range(4)])
        # the whole stack at once, then (a 7-product block) member by member, row by row
        for block in (None, 7):
            if block is not None:
                monkeypatch.setattr(field_module, "_DOT_BLOCK", block)
            assert np.array_equal(f.dot(a, b), want), (spec, block)
            assert np.array_equal(f.dot(a[0], b), np.stack([f.dot(a[0], m) for m in b]))
            assert np.array_equal(f.dot(a, b[0]), np.stack([f.dot(m, b[0]) for m in a]))
            assert np.array_equal(f.dot(a, b[0, :, 0]), np.stack([f.dot(m, b[0, :, 0]) for m in a]))
            assert np.array_equal(f.dot(a[0, 0], b), np.stack([f.dot(a[0, 0], m) for m in b]))
            c = rand(2, 1, 3, 5)  # stack axes broadcast as numpy's @ does: (2, 4, 3, 2)
            assert np.array_equal(f.dot(c, b), np.stack(
                [[f.dot(c[i, 0], b[j]) for j in range(4)] for i in range(2)]))
            monkeypatch.undo()
        with pytest.raises(ValueError):
            f.dot(a, rand(4, 3, 2))
