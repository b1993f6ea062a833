"""Independent references for checking groupalg's answers.

Nothing here imports groupalg.  Field arithmetic, polynomials, group
tables, convolution, rank and codeword enumeration are written from scratch
on plain Python ints and bare numpy, so a fault in the library's arithmetic
cannot hide in the reference as well.

Encodings follow groupalg's documented convention: an element sum c_i x^i of
GF(p^m) is the integer sum c_i p^i, reduced modulo the smallest monic
irreducible polynomial in lexicographic order (constant term first).
Group elements are 0-based indices with the identity at 0; cyclic groups
index g^i by i, dihedral groups by flip*n + rotation, symmetric groups by
permutations in lexicographic order composed left to right, and product
groups by a + |A|*b with the left factor varying fastest.
"""

from __future__ import annotations

import itertools

import numpy as np

# default moduli (low-to-high) of the extension fields the benchmark uses
MODULI = {(2, 2): (1, 1, 1), (3, 2): (1, 0, 1), (2, 4): (1, 0, 0, 1, 1)}


class RefField:
    """GF(p^m) on integer encodings; table driven when m > 1."""

    def __init__(self, p: int, m: int = 1):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = MODULI[(p, m)] if m > 1 else (0, 1)
        if m > 1:
            q = self.q
            self.digit_tab = np.array([[(a // p ** i) % p for i in range(m)]
                                       for a in range(q)], dtype=np.int64)
            self.pow_vec = p ** np.arange(m, dtype=np.int64)
            self.mul_tab = np.array([[self._poly_mul(a, b) for b in range(q)]
                                     for a in range(q)], dtype=np.int64)
            d = self.digit_tab
            self.add_tab = ((d[:, None, :] + d[None, :, :]) % p) @ self.pow_vec
            self.neg_tab = ((p - d) % p) @ self.pow_vec
            self.inv_tab = np.zeros(q, dtype=np.int64)
            for a in range(1, q):
                self.inv_tab[a] = int(np.nonzero(self.mul_tab[a] == 1)[0][0])

    def _poly_mul(self, a: int, b: int) -> int:
        p, m, f = self.p, self.m, self.modulus
        da = [(a // p ** i) % p for i in range(m)]
        db = [(b // p ** i) % p for i in range(m)]
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top]
            if c:
                for i in range(m + 1):
                    prod[top - m + i] = (prod[top - m + i] - c * f[i]) % p
        return sum(c * p ** i for i, c in enumerate(prod[:m]))

    def add(self, a, b):
        if self.m == 1:
            return (np.asarray(a, dtype=np.int64) + b) % self.p
        return self.add_tab[a, b]

    def neg(self, a):
        if self.m == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        return self.neg_tab[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.m == 1:
            a = np.asarray(a, dtype=np.int64)
            if self.p < (1 << 31):
                return (a * b) % self.p
        return self.mul_tab[a, b]

    def inv(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return int(self.inv_tab[a])

    def scatter_sum(self, values, index, size: int):
        """out[k] = field sum of values[t] over all t with index[t] == k."""
        values = np.asarray(values, dtype=np.int64).ravel()
        index = np.asarray(index).ravel()
        if self.m == 1:
            acc = np.zeros(size, dtype=np.int64)
            np.add.at(acc, index, values)  # < size * p stays in int64 for p < 2^31
            return acc % self.p
        digits = self.digit_tab[values]
        acc = np.zeros((size, self.m), dtype=np.int64)
        for i in range(self.m):
            np.add.at(acc[:, i], index, digits[:, i])
        return (acc % self.p) @ self.pow_vec

    def vec_mat(self, v, mat):
        """Row vector times matrix."""
        v = np.asarray(v, dtype=np.int64)
        if self.m == 1 and mat.shape[0] * (self.p - 1) ** 2 < (1 << 62):
            return (v @ mat) % self.p
        if self.m == 1:
            prod = (v.astype(object) @ mat.astype(object)) % self.p
            return prod.astype(np.int64)
        terms = self.mul(v[:, None], mat)
        cols = np.broadcast_to(np.arange(mat.shape[1]), terms.shape)
        return self.scatter_sum(terms, cols, mat.shape[1])

    def mat_mul(self, a, b):
        if self.m == 1 and a.shape[1] * (self.p - 1) ** 2 < (1 << 62):
            return (a @ b) % self.p
        return np.array([self.vec_mat(row, b) for row in a], dtype=np.int64).reshape(
            a.shape[0], b.shape[1])


# -- polynomials over a RefField: int64 coefficient arrays, low to high --

def ptrim(a):
    a = np.asarray(a, dtype=np.int64)
    nz = np.nonzero(a)[0]
    return a[:nz[-1] + 1].copy() if nz.size else a[:0].copy()


def pmul(F: RefField, a, b):
    a, b = ptrim(a), ptrim(b)
    if not a.size or not b.size:
        return a[:0]
    idx = np.arange(a.size)[:, None] + np.arange(b.size)[None, :]
    terms = F.mul(a[:, None], b[None, :])
    return ptrim(F.scatter_sum(terms, idx, a.size + b.size - 1))


def pmod(F: RefField, a, b):
    a, b = ptrim(a).copy(), ptrim(b)
    if not b.size:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = F.inv(b[-1])
    db = b.size - 1
    for top in range(a.size - 1, db - 1, -1):
        c = int(a[top])
        if c:
            c = int(F.mul(c, lead_inv))
            a[top - db:top + 1] = F.sub(a[top - db:top + 1], F.mul(c, b))
    return ptrim(a[:db])


def pgcd(F: RefField, a, b):
    """Monic gcd."""
    a, b = ptrim(a), ptrim(b)
    while b.size:
        a, b = b, pmod(F, a, b)
    if a.size:
        a = F.mul(a, F.inv(a[-1]))
    return ptrim(a)


def ydiv(F: RefField, a, b):
    """Exact quotient a / b (raises if b does not divide a)."""
    a, b = ptrim(a).copy(), ptrim(b)
    db = b.size - 1
    quo = np.zeros(max(a.size - db, 1), dtype=np.int64)
    lead_inv = F.inv(b[-1])
    for top in range(a.size - 1, db - 1, -1):
        c = int(a[top])
        if c:
            c = int(F.mul(c, lead_inv))
            quo[top - db] = c
            a[top - db:top + 1] = F.sub(a[top - db:top + 1], F.mul(c, b))
    if ptrim(a).size:
        raise ValueError("polynomial does not divide")
    return ptrim(quo)


def xn_minus_1(F: RefField, n: int):
    out = np.zeros(n + 1, dtype=np.int64)
    out[0] = int(F.neg(1))
    out[n] = 1
    return out


def cyclic_mul(F: RefField, a, b, n: int):
    """Product in F[C_n] = F[y]/(y^n - 1) of two length-n coefficient vectors."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if F.m == 1 and n * (F.p - 1) ** 2 < (1 << 62):
        full = np.convolve(a, b)  # length 2n - 1
        out = full[:n].copy()
        out[:n - 1] += full[n:]
        return out % F.p
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return F.scatter_sum(F.mul(a[:, None], b[None, :]), idx, n)


def cyclic_dim(F: RefField, coeffs) -> int:
    """dim of the ideal of f in F[C_n]: n - deg gcd(f, y^n - 1)."""
    n = len(coeffs)
    g = pgcd(F, coeffs, xn_minus_1(F, n))
    return 0 if not g.size else n - (g.size - 1)


def cyclic_ideal_gcd(F: RefField, gens, n: int):
    g = xn_minus_1(F, n)
    for f in gens:
        g = pgcd(F, g, f)
    return g


def cyclotomic_pow2(F: RefField, k: int):
    """Phi_{2^k}(y) over F: y - 1 for k = 0, y^(2^(k-1)) + 1 otherwise."""
    if k == 0:
        return np.array([int(F.neg(1)), 1], dtype=np.int64)
    out = np.zeros(2 ** (k - 1) + 1, dtype=np.int64)
    out[0] = 1
    out[-1] = 1
    return out


def pow2_divisor(F: RefField, n: int, degree: int, rng):
    """A divisor of y^n - 1 (n a power of two) of the given degree.

    The factors y^(2^j) + 1 of degree 2^j, j >= 1, plus y - 1 and y + 1 of
    degree 1, have degrees whose subset sums cover every value 0..n.
    """
    logn = n.bit_length() - 1
    if n != 1 << logn or not 0 <= degree <= n:
        raise ValueError("need n a power of two and 0 <= degree <= n")
    if degree == n:
        return xn_minus_1(F, n)
    out = np.array([1], dtype=np.int64)
    if degree & 1:
        out = pmul(F, out, cyclotomic_pow2(F, rng.choice((0, 1))))
    for j in range(1, logn):
        if degree >> j & 1:
            out = pmul(F, out, cyclotomic_pow2(F, j + 1))
    return out


def cyclic_unit(F: RefField, n: int, rng):
    """A random unit of F[C_n] (coprime to y^n - 1), drawn from rng."""
    modulus = xn_minus_1(F, n)
    while True:
        u = np.array([rng.randrange(F.q) for _ in range(n)], dtype=np.int64)
        g = pgcd(F, u, modulus)
        if g.size == 1:
            return u


def cyclic_element(F: RefField, n: int, dim: int, rng):
    """Random element of F[C_n] (n a power of two) whose ideal has dimension dim."""
    g = pow2_divisor(F, n, n - dim, rng)
    full = np.zeros(n, dtype=np.int64)
    if g.size == n + 1:  # the whole of y^n - 1: the zero element
        return full
    full[:g.size] = g
    return cyclic_mul(F, full, cyclic_unit(F, n, rng), n)


# -- group tables (0-based, identity at index 0) --

def cyclic_table(n: int):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def dihedral_table(n: int):
    """Order 2n: index flip*n + rot; (a,i)(b,j) = (a^b, (i*(-1)^b + j) mod n)."""
    flips, rots = np.arange(2 * n) // n, np.arange(2 * n) % n
    a, i = flips[:, None], rots[:, None]
    b, j = flips[None, :], rots[None, :]
    return (a ^ b) * n + (i * (1 - 2 * b) + j) % n


def symmetric_table(k: int):
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    # g_i g_j applies g_i first, then g_j
    return np.array([[index[tuple(q[x] for x in p)] for q in perms] for p in perms],
                    dtype=np.int64)


def product_table(ta, tb):
    na, nb = ta.shape[0], tb.shape[0]
    flat = np.arange(na * nb)
    ia, jb = flat % na, flat // na
    return ta[ia[:, None], ia[None, :]] + na * tb[jb[:, None], jb[None, :]]


def table_for(spec: str):
    """Multiplication table for a groupalg group spec built here from scratch."""
    kind, rest = spec.split(":", 1)
    if kind == "cyclic":
        return cyclic_table(int(rest))
    if kind == "dihedral":
        return dihedral_table(int(rest))
    if kind == "symmetric":
        return symmetric_table(int(rest))
    if kind == "product":
        # split at the first comma whose two sides both parse
        for pos in [i for i, ch in enumerate(rest) if ch == ","]:
            try:
                return product_table(table_for(rest[:pos]), table_for(rest[pos + 1:]))
            except (ValueError, KeyError):
                continue
    raise ValueError(f"unsupported group spec {spec!r}")


class RefGroup:
    def __init__(self, spec: str):
        self.mul = table_for(spec)
        self.n = self.mul.shape[0]
        self.commutative = bool(np.array_equal(self.mul, self.mul.T))

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = int(self.mul[x, i])
            k += 1
        return k

    def elements_of_order(self, order: int) -> list:
        return [i for i in range(self.n) if self.element_order(i) == order]

    def cyclic_subgroup(self, i: int) -> list:
        out, x = [0], i
        while x != 0:
            out.append(x)
            x = int(self.mul[x, i])
        return out


def convolve(F: RefField, G: RefGroup, a, b):
    """Group algebra product a*b by the defining double sum."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    return F.scatter_sum(F.mul(a[:, None], b[None, :]), G.mul, G.n)


def rho(G: RefGroup, f):
    """Row i holds g_i * f (spans the left ideal A f)."""
    f = np.asarray(f, dtype=np.int64)
    out = np.zeros((G.n, G.n), dtype=np.int64)
    rows = np.arange(G.n)[:, None]
    out[rows, G.mul] = f[None, :]
    return out


def lam(G: RefGroup, f):
    """Row i holds f * g_i (spans the right ideal f A)."""
    f = np.asarray(f, dtype=np.int64)
    out = np.zeros((G.n, G.n), dtype=np.int64)
    rows = np.arange(G.n)[:, None]
    out[rows, G.mul.T] = f[None, :]
    return out


def side_matrix(G: RefGroup, f, side: str):
    return rho(G, f) if side == "left" else lam(G, f)


# -- elimination --

def rref(F: RefField, mat):
    """Reduced row echelon form; returns (matrix, rank, pivot columns)."""
    a = np.array(mat, dtype=np.int64, copy=True)
    rows, cols = a.shape
    r, pivots = 0, []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = F.mul(a[r], F.inv(a[r, c]))
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = F.sub(a[others], F.mul(a[others, c][:, None], a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, r, pivots


def rank(F: RefField, mat) -> int:
    mat = np.asarray(mat, dtype=np.int64)
    if mat.size == 0:
        return 0
    return rref(F, mat)[1]


def ideal_dim(F: RefField, G: RefGroup, gens, side: str) -> int:
    return rank(F, np.vstack([side_matrix(G, f, side) for f in gens]))


def idempotent_exists(F: RefField, G: RefGroup, f) -> bool:
    """A f (and f A) has an idempotent generator exactly when f lies in f A f:
    e = y f is idempotent when f y f = f, and f = f e when A f = A e."""
    base = F.mat_mul(lam(G, f), rho(G, f))  # row i: (f g_i) f
    return rank(F, base) == rank(F, np.vstack([base, np.asarray(f)[None, :]]))


def is_rref(mat, pivots_expected: int) -> bool:
    """Leading ones, zeros above and below them, and no zero rows."""
    a = np.asarray(mat)
    if a.shape[0] != pivots_expected:
        return False
    last = -1
    for row in a:
        nz = np.nonzero(row)[0]
        if not nz.size or nz[0] <= last or row[nz[0]] != 1:
            return False
        last = int(nz[0])
        if np.count_nonzero(a[:, last]) != 1:
            return False
    return True


# -- charpoly properties --

def charpoly_ok(F: RefField, mat, coeffs, rng) -> bool:
    """Monic of degree n, -trace in degree n-1, and Cayley-Hamilton on a
    random vector: v * p(M) = 0 by Horner's rule."""
    n = mat.shape[0]
    c = np.asarray(coeffs, dtype=np.int64)
    if c.size != n + 1 or c[n] != 1:
        return False
    tr = F.scatter_sum(np.diagonal(mat), np.zeros(n, dtype=np.int64), 1)[0]
    if n and c[n - 1] != F.neg(tr):
        return False
    v = np.array([rng.randrange(F.q) for _ in range(n)], dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for ci in c[::-1]:
        acc = F.add(F.vec_mat(acc, mat), F.mul(v, int(ci)))
    return not np.any(acc)


# -- codes --

def min_weight(F: RefField, basis) -> int:
    """Minimum nonzero weight of the row space of basis (q^k words)."""
    basis = np.asarray(basis, dtype=np.int64)
    k, n = basis.shape
    best = n
    total = F.q ** k
    block = 1 << 12
    powers = F.q ** np.arange(k, dtype=np.int64)
    for start in range(1, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        msgs = (idx[:, None] // powers[None, :]) % F.q
        words = np.zeros((idx.size, n), dtype=np.int64)
        for i in range(k):
            words = F.add(words, F.mul(msgs[:, i:i + 1], basis[i][None, :]))
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def ideal_basis(F: RefField, G: RefGroup, gens, side: str):
    a, r, _ = rref(F, np.vstack([side_matrix(G, f, side) for f in gens]))
    return a[:r]
