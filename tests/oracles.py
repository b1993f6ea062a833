"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch with plain Python data
structures (ints, lists, dicts) and brute-force algorithms, so a bug in the
library's vectorized arithmetic cannot hide in the oracle as well.
"""

from __future__ import annotations

import itertools

# hardcoded irreducible moduli (low-to-high coefficients), matching the
# library's documented defaults so encodings line up
ORACLE_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1 over F_2
    8: (1, 0, 1, 1),      # x^3 + x^2 + 1 over F_2
    9: (1, 0, 1),         # x^2 + 1 over F_3
    16: (1, 0, 0, 1, 1),  # x^4 + x^3 + 1 over F_2
    25: (1, 1, 1),        # x^2 + x + 1 over F_5
    27: (1, 0, 2, 1),     # x^3 + 2x^2 + 1 over F_3
    125: (1, 0, 1, 1),    # x^3 + x^2 + 1 over F_5
    512: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),  # x^9 + x^8 + 1 over F_2
    2048: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),  # x^11 + x^9 + 1 over F_2
    2187: (1, 0, 0, 0, 0, 1, 2, 1),  # x^7 + 2x^6 + x^5 + 1 over F_3
    3125: (1, 0, 0, 0, 4, 1),  # x^5 + 4x^4 + 1 over F_5
}


class OracleField:
    """Finite field arithmetic on integer encodings sum(c_i p^i)."""

    def __init__(self, q: int):
        p = None
        for cand in (2, 3, 5, 7, 11, 13):
            m = 0
            t = q
            while t % cand == 0:
                t //= cand
                m += 1
            if t == 1 and m >= 1:
                p, self.m = cand, m
                break
        if p is None and q > 1 and all(q % d for d in range(2, int(q ** 0.5) + 1)):
            p, self.m = q, 1  # a large prime field, such as GF(2^31 - 1)
        if p is None:
            raise ValueError(f"unsupported oracle field order {q}")
        self.p = p
        self.q = q
        if self.m == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = ORACLE_MODULI[q]

    def digits(self, a: int) -> list:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def undigits(self, ds) -> int:
        val = 0
        for c in reversed(list(ds)):
            val = val * self.p + (c % self.p)
        return val

    def add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.undigits((x + y) % self.p for x, y in zip(da, db))

    def neg(self, a: int) -> int:
        return self.undigits((-x) % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the modulus, highest powers first
        for top in range(len(prod) - 1, self.m - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i in range(self.m):
                    prod[top - self.m + i] = (prod[top - self.m + i]
                                              - c * self.modulus[i]) % self.p
        return self.undigits(prod[:self.m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        if self.m == 1:
            return pow(a, self.p - 2, self.p)  # Fermat
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("no inverse found")



def is_irreducible(p: int, cand: tuple) -> bool:
    """Whether the monic cand (low-to-high, degree m >= 1) is irreducible over F_p,
    p prime, by trial division by every monic polynomial of degree 1..m//2."""
    def rem_is_zero(a, b):  # b monic
        a = list(a)
        for top in range(len(a) - 1, len(b) - 2, -1):
            c = a[top]
            for i, y in enumerate(b):
                a[top - len(b) + 1 + i] = (a[top - len(b) + 1 + i] - c * y) % p
        return not any(a)

    m = len(cand) - 1
    return not any(rem_is_zero(cand, low + (1,)) for deg in range(1, m // 2 + 1)
                   for low in itertools.product(range(p), repeat=deg))


def lex_first_irreducible(p: int, m: int) -> tuple:
    """Monic irreducible of degree m over F_p, p prime, whose coefficient
    list (c_0, ..., c_{m-1}) is lexicographically smallest (low-to-high tuples)."""
    for low in itertools.product(range(p), repeat=m):
        if is_irreducible(p, low + (1,)):
            return low + (1,)
    raise AssertionError("no irreducible polynomial found")

def poly_trim(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(f: OracleField, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return poly_trim(out)


def poly_mod(f: OracleField, a: list, b: list) -> list:
    a = poly_trim(a)
    b = poly_trim(b)
    assert b, "division by zero polynomial"
    binv = f.inv(b[-1])
    while len(a) >= len(b):
        coef = f.mul(a[-1], binv)
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = f.sub(a[shift + i], f.mul(coef, y))
        a = poly_trim(a)
        if not a:
            break
    return a


def poly_gcd(f: OracleField, a: list, b: list) -> list:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(f, a, b)
    if a:
        lead_inv = f.inv(a[-1])
        a = [f.mul(c, lead_inv) for c in a]
    return a


def cyclic_ideal_dim(q: int, coeffs: list) -> int:
    """Dimension of the ideal of f in F_q[C_n]: n - deg gcd(f(y), y^n - 1)."""
    f = OracleField(q)
    n = len(coeffs)
    modulus = [f.neg(1)] + [0] * (n - 1) + [1]
    g = poly_gcd(f, list(coeffs), modulus)
    if not g:
        return 0
    return n - (len(g) - 1)


def matrix_rank(q: int, rows: list) -> int:
    """Row reduction with plain loops."""
    f = OracleField(q)
    a = [list(r) for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pinv = f.inv(a[rank][col])
        a[rank] = [f.mul(pinv, v) for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                c = a[r][col]
                a[r] = [f.sub(v, f.mul(c, w)) for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def matrix_mul(q: int, a: list, b: list) -> list:
    f = OracleField(q)
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k] == 0:
                continue
            for j in range(cols):
                out[i][j] = f.add(out[i][j], f.mul(a[i][k], b[k][j]))
    return out


def _det(f: OracleField, a: list) -> int:
    """Cofactor expansion; fine for the tiny minors used below."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [[a[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = f.mul(a[0][j], _det(f, minor))
        total = f.add(total, term if j % 2 == 0 else f.neg(term))
    return total


def charpoly_coeffs(q: int, a: list) -> list:
    """det(zI - A) low-to-high via sums of principal minors.

    The z^(n-j) coefficient is (-1)^j times the sum of all j x j principal
    minors of A.
    """
    f = OracleField(q)
    n = len(a)
    out = [0] * (n + 1)
    out[n] = 1
    for j in range(1, n + 1):
        total = 0
        for subset in itertools.combinations(range(n), j):
            minor = [[a[r][c] for c in subset] for r in subset]
            total = f.add(total, _det(f, minor))
        out[n - j] = total if j % 2 == 0 else f.neg(total)
    return out


def convolve(q: int, mul_table: list, a: list, b: list) -> list:
    """Group algebra product by the defining triple loop."""
    f = OracleField(q)
    n = len(a)
    out = [0] * n
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(n):
            if b[j] == 0:
                continue
            k = mul_table[i][j]
            out[k] = f.add(out[k], f.mul(a[i], b[j]))
    return out


def min_weight(q: int, genmat: list) -> int:
    """Minimum nonzero-codeword weight by enumerating all messages."""
    f = OracleField(q)
    k = len(genmat)
    n = len(genmat[0])
    best = n
    for msg in itertools.product(range(q), repeat=k):
        if not any(msg):
            continue
        word = [0] * n
        for i, m in enumerate(msg):
            if m:
                for j in range(n):
                    word[j] = f.add(word[j], f.mul(m, genmat[i][j]))
        best = min(best, sum(1 for v in word if v))
    return best


def idempotent_generators_exhaustive(q: int, mul_table: list, f_coeffs: list) -> list:
    """All e with e*e = e generating the same span as f (brute force).

    Spans are compared through the stacked right-regular matrices; only
    usable for tiny q^n.
    """
    n = len(f_coeffs)
    inv = [row.index(0) for row in mul_table]
    mc = [mul_table[inv[i]] for i in range(n)]

    def rho_rows(coeffs):
        return [[coeffs[mc[i][j]] for j in range(n)] for i in range(n)]

    base = rho_rows(f_coeffs)
    base_rank = matrix_rank(q, base)
    found = []
    for cand in itertools.product(range(q), repeat=n):
        e = list(cand)
        if convolve(q, mul_table, e, e) != e:
            continue
        stacked = base + rho_rows(e)
        if matrix_rank(q, stacked) != base_rank:
            continue
        if matrix_rank(q, rho_rows(e)) != base_rank:
            continue
        found.append(e)
    return found
