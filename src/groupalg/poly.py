"""Polynomials over a finite field, as int64 coefficient arrays, low to high.

This module is the one home of polynomial arithmetic.  Every function takes the
Field whose element encodings the coefficients are, and the module imports no
other groupalg module except errors, so field.py and linalg.py can both build
on it:
- products, division with remainder, gcd with a cofactor, and products mod
  y^n - 1, for the polynomial routes of dimension.py;
- the integer cyclotomic polynomials, whose blocks give the charpoly of an
  element of F[y]/(y^n - 1) in dimension.py;
- the Hermite-form dimension of a batch of polynomial rows mod y^o - 1;
- multiplication matrices mod a monic f over a prime field, on which field.py
  tests irreducibility (Rabin 1980) and primitivity and doubles its antilog
  tables;
- FPoly, the public polynomial type (charpolys, interpolation).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, SpecError


def _poly_mul(F, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of nonempty a and b (low-to-high), in O(len) memory."""
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    for i in np.flatnonzero(a):
        out[i:i + b.size] = F.add(out[i:i + b.size], F.mul(b, int(a[i])))
    return out


def _trim(a):  # a copy without the leading zeros
    return np.array(a[:np.flatnonzero(a)[-1] + 1] if a.any() else a[:0], dtype=np.int64)


def _divmod(F, v, g):
    """(q, r) with v = q g + r and deg r < deg g, for g monic; v is trimmed and reused."""
    r = v
    q = np.zeros(max(r.size - g.size + 1, 0), dtype=np.int64)
    while r.size >= g.size:
        sh, c = r.size - g.size, int(r[-1])
        q[sh] = c
        r[sh:] = F.sub(r[sh:], g if c == 1 else F.mul(g, c))
        k = r.size - 1  # the top is now zero; drop it and the zeros below it
        while k and not r[k - 1]:
            k -= 1
        r = r[:k]
    return q, r


def _cmul(F, a, b):
    """a b mod y^n - 1 for two arrays of n coefficients."""
    ab = _poly_mul(F, a, b)
    return F.add(ab[:a.size], np.append(ab[a.size:], 0))


def _gcd(F, a, b, cofactor: bool = False):
    """(monic gcd(a, b), s), b nonzero; with cofactor, s a = gcd mod b, deg s < deg b."""
    r0, r1 = _trim(a), _trim(b)
    s0, s1 = np.zeros((2, r1.size), dtype=np.int64)
    s0[:1] = 1
    while r1.size:
        c = F.inv(int(r1[-1]))
        if c != 1:  # make r1 monic
            r1 = np.atleast_1d(F.mul(r1, c))
        q, r = _divmod(F, r0, r1)
        if cofactor:
            s1 = F.mul(s1, c)
            s0 = F.sub(s0, _poly_mul(F, q, s1)[:s0.size]) if q.size else s0
        r0, r1, s0, s1 = r1, r, s1, s0
    return r0, s0


def _ideal_gcd(F, polys, n: int):
    """Monic gcd(polys..., y^n - 1)."""
    g = np.zeros(n + 1, dtype=np.int64)
    g[0], g[n] = F.neg(1), 1
    for v in polys:
        g = _gcd(F, v, g)[0] if g.size > 1 else g
    return g


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=256)  # an order below ORDER_CAP has at most 64 divisors
def _cyclotomic(d: int) -> tuple:
    """Integer coefficients of the cyclotomic polynomial Phi_d, low to high.

    Phi_d = prod over e | d of (y^e - 1)^mu(d/e), and mu(d/e) != 0 only when d/e is
    a product of distinct primes of d.  The product is taken as a power series mod
    y^(phi(d) + 1) in the factors 1 - y^e, equal to y^e - 1 up to a sign that the
    monic top coefficient fixes: first multiply by the factors with mu = 1, then
    divide by the others, each a prefix sum with stride e.  Every intermediate is
    the low part of Phi_d times at most 2^(w-1) factors 1 - y^e, w the number of
    primes of d, so int64 is exact far past ORDER_CAP.
    """
    phi, pairs = d, [(d, 1)]  # pairs (e, mu(d/e))
    for l in _prime_factors(d):
        phi = phi // l * (l - 1)
        pairs += [(e // l, -mu) for e, mu in pairs]
    c = np.zeros(phi + 1, dtype=np.int64)
    c[0] = 1
    for e, mu in sorted(pairs, key=lambda t: -t[1]):
        if e > phi:  # 1 - y^e = 1 mod y^(phi + 1)
            continue
        if mu == 1:
            c[e:] = c[e:] - c[:-e]
        else:
            c = np.append(c, np.zeros(-c.size % e, dtype=np.int64)).reshape(-1, e)
            c = c.cumsum(axis=0).ravel()[:phi + 1]
    return tuple((c * c[-1]).tolist())


def _hermite_dim(F, rows) -> int:
    """dim over F of the F[y]-span of rows (r x s x o coefficients) mod y^o - 1.

    Column k takes Euclid row operations over F[y] on the rows and (y^o - 1) e_k
    until one row, with the gcd d_k, is left nonzero there; the span has dimension
    s o - sum deg d_k, the Hermite diagonal (Howell 1986; Storjohann and Mulders
    1998).  The rows (y^o - 1) e_j, j > k, stay implicit: later columns are kept
    reduced mod y^o - 1, and each update q * (pivot row) is one Field.dot.
    """
    s, o = rows.shape[1:]
    shift = (np.arange(o) - np.arange(o + 1)[:, None]) % o  # row t: the index map of y^t
    lost = 0
    for k in range(s):
        col = np.zeros((rows.shape[0] + 1, o + 1), dtype=np.int64)
        col[:-1, :o], col[-1, 0], col[-1, o] = rows[:, 0], F.neg(1), 1
        rest = np.concatenate([rows[:, 1:], np.zeros((1, s - k - 1, o), dtype=np.int64)])
        while True:
            live = np.flatnonzero(col.any(axis=1))
            deg = o - np.argmax(col[live, ::-1] != 0, axis=1)
            if live.size == 1:
                break
            i = int(np.argmin(deg))
            p, dp = live[i], int(deg[i])
            c = F.inv(int(col[p, dp]))
            col[p], rest[p] = F.mul(col[p], c), F.mul(rest[p], c)
            oth = np.delete(live, i)
            a, q = col[oth], np.zeros((oth.size, int(deg.max()) - dp + 1), dtype=np.int64)
            for sh in range(q.shape[1] - 1, -1, -1):  # long division by the monic pivot
                q[:, sh] = a[:, sh + dp]
                a[:, sh:sh + dp + 1] = F.sub(a[:, sh:sh + dp + 1],
                                             F.mul(q[:, sh, None], col[p, :dp + 1]))
            col[oth] = a
            if k < s - 1:  # rest[oth] -= q * rest[p] mod y^o - 1
                ys = rest[p][:, shift[:q.shape[1]]].swapaxes(0, 1).reshape(q.shape[1], -1)
                rest[oth] = F.sub(rest[oth], F.dot(q, ys).reshape(oth.size, s - k - 1, o))
        lost += int(deg[0])
        rows = np.delete(rest, live[0], axis=0)
        rows = rows[rows.any(axis=(1, 2))]
    return s * o - lost


# -- multiplication matrices mod a monic f of degree m >= 2, over a prime field F --
# Rows are coefficient vectors of residues < p, so a row times a matrix sums m
# products below (p - 1)^2: m (p - 1)^2 < 2^63 is exact in int64, since the field
# orders built on these are at most 2^20, which bounds p by 2^10 and m by 20.

def _xmat(F, f):
    """The matrix of a -> a x mod f: row i holds x^(i+1) mod f."""
    m = f.size - 1
    x = np.zeros((m, m), dtype=np.int64)
    x.ravel()[1::m + 1] = 1  # x^i -> x^(i+1) for i < m - 1
    x[-1] = -f[:m] % F.p  # x^m = -(f_0 + ... + f_(m-1) x^(m-1))
    return x


def _orbit(F, v, a, k: int):
    """Rows v, v a, ..., v a^(k-1), by doubling: the first j rows times a^j are the next j.

    With a = _xmat(F, f) and k = m, row i is x^i v mod f: the matrix of a -> a v mod f.
    """
    out = np.zeros((k, v.size), dtype=np.int64)
    out[0] = v
    j = 1
    while j < k:
        step = min(j, k - j)
        blk = out[j:j + step]
        np.remainder(np.matmul(out[:step], a, out=blk), F.p, out=blk)
        j += step
        if j < k:
            a = a @ a % F.p
    return out


def _vecpow(F, v, a, e: int):
    """v a^e, by repeated squaring of a."""
    while e:
        if e & 1:
            v = v @ a % F.p
        e >>= 1
        if e:
            a = a @ a % F.p
    return v


class FPoly:
    """Dense univariate polynomial over a finite field.

    Coefficients are stored low-to-high with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = field.encodings(coeffs)
        if cs.ndim != 1:
            raise SpecError("polynomial coefficients must be a flat sequence")
        nz = np.flatnonzero(cs)
        self.coeffs = tuple(cs[:nz[-1] + 1].tolist()) if nz.size else ()

    @classmethod
    def zero(cls, field) -> "FPoly":
        return cls(field, ())

    @classmethod
    def const(cls, field, c) -> "FPoly":
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """Multiplicity of the root 0 (index of first nonzero coefficient);
        None for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def _padded(self, other: "FPoly"):
        """(field, a, b): both coefficient lists zero-padded to one length."""
        f = self._same_field(other)
        ab = np.zeros((2, max(len(self.coeffs), len(other.coeffs))), dtype=np.int64)
        ab[0, :len(self.coeffs)] = self.coeffs
        ab[1, :len(other.coeffs)] = other.coeffs
        return f, ab[0], ab[1]

    def add(self, other: "FPoly") -> "FPoly":
        f, a, b = self._padded(other)
        return FPoly(f, np.atleast_1d(f.add(a, b)))

    def sub(self, other: "FPoly") -> "FPoly":
        f, a, b = self._padded(other)
        return FPoly(f, np.atleast_1d(f.sub(a, b)))

    def mul(self, other: "FPoly") -> "FPoly":
        f = self._same_field(other)
        if self.is_zero or other.is_zero:
            return FPoly.zero(f)
        return FPoly(f, _poly_mul(f, np.array(self.coeffs), np.array(other.coeffs)))

    def scale(self, c) -> "FPoly":
        f, c = self.field, int(self.field.encodings(c))
        if not self.coeffs:
            return self
        return FPoly(f, np.atleast_1d(f.mul(np.asarray(self.coeffs, np.int64), c)))

    def eval(self, x):
        """Horner evaluation; x may be a scalar or an array."""
        f = self.field
        x = np.asarray(x, dtype=np.int64)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        if isinstance(acc, int) or acc.ndim == 0:
            return int(acc)
        return acc

    def _same_field(self, other: "FPoly"):
        if self.field != other.field:
            raise DomainError("polynomial arithmetic across different fields")
        return self.field

    def __eq__(self, other):
        return (isinstance(other, FPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FPoly({list(self.coeffs)})"

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return " ".join(self.field.format_value(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, field, text: str) -> "FPoly":
        toks = text.split()
        return cls(field, [field.parse_value(t) for t in toks])
