"""Exact dense linear algebra over finite fields.

Matrices are numpy int64 grids of field-element encodings bundled with their
Field.  Elimination uses first-nonzero pivoting in column order, so every
result is deterministic; there is no floating point and no pivots are chosen
for numerical reasons.

The characteristic polynomial is computed by similarity reduction to upper
Hessenberg form (divisions only, valid over any field) followed by the
standard recurrence on leading principal minors of zI - H.  The symbolic
variant charpoly_xm evaluates at extension-field nodes and interpolates each
z-coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SpecError
from .field import Field, embedding

class FMatrix:
    """A rows x cols matrix over a finite field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data, validate: bool = True):
        self.field = field
        # a private copy even when validate=False: adopting internal arrays saved no
        # peak memory and slowed rank in a fresh process (malloc's heap trimming)
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            raise SpecError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if validate:
            field.check_range(arr)
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64), validate=False)

    @classmethod
    def identity(cls, field: Field, n: int) -> "FMatrix":
        return cls(field, np.eye(n, dtype=np.int64), validate=False)

    def copy(self) -> "FMatrix":
        return FMatrix(self.field, self.data.copy(), validate=False)

    def transpose(self) -> "FMatrix":
        return FMatrix(self.field, self.data.T.copy(), validate=False)

    def __eq__(self, other):
        return (isinstance(other, FMatrix) and self.field == other.field
                and np.array_equal(self.data, other.data))

    def __matmul__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.field != other.field:
            raise DomainError("matrix product across different fields")
        if self.cols != other.rows:
            raise SpecError(
                f"matrix product shape mismatch: {self.data.shape} @ {other.data.shape}")
        return FMatrix(self.field, self.field.dot(self.data, other.data), validate=False)

    def __repr__(self):
        return f"FMatrix({self.field!r}, {self.rows}x{self.cols})"

    def to_text(self) -> str:
        f = self.field
        lines = [f"{self.rows} {self.cols}"]
        for row in self.data:
            lines.append(" ".join(f.format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, field: Field, text: str) -> "FMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise SpecError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise SpecError(f"bad matrix header {lines[0]!r}")
        try:
            rows, cols = int(head[0]), int(head[1])
        except ValueError:
            raise SpecError(f"bad matrix header {lines[0]!r}") from None
        if len(lines) - 1 != rows:
            raise SpecError(f"expected {rows} matrix rows, got {len(lines) - 1}")
        data = np.zeros((rows, cols), dtype=np.int64)
        for i, ln in enumerate(lines[1:]):
            entries = ln.split()
            if len(entries) != cols:
                raise SpecError(f"row {i + 1} has {len(entries)} entries, expected {cols}")
            for j, tok in enumerate(entries):
                data[i, j] = field.parse_value(tok)
        return cls(field, data)


def stack_matrices(mats) -> FMatrix:
    """Vertical stack of matrices over the same field."""
    mats = list(mats)
    if not mats:
        raise SpecError("cannot stack an empty matrix list")
    f = mats[0].field
    if any(m.field != f for m in mats):
        raise DomainError("stacking matrices over different fields")
    if any(m.cols != mats[0].cols for m in mats):
        raise SpecError("stacking matrices with different column counts")
    return FMatrix(f, np.vstack([m.data for m in mats]), validate=False)


# -- elimination --

class RrefResult(NamedTuple):
    matrix: FMatrix
    rank: int
    pivots: tuple


class SolveResult(NamedTuple):
    solution: np.ndarray
    kernel: list


def _eliminate(field: Field, a: np.ndarray, reduced: bool):
    """Row-reduce a in place (first-nonzero pivoting). Returns (rank, pivots)."""
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = field.mul(a[r], field.inv(piv))
        if reduced:
            others = np.nonzero(a[:, c])[0]
            others = others[others != r]
        else:
            others = r + 1 + np.nonzero(a[r + 1:, c])[0]
        if others.size:
            factors = a[others, c]
            a[others] = field.sub(a[others], field.mul(factors[:, None], a[r][None, :]))
        pivots.append(c)
        r += 1
    return r, tuple(pivots)


def rref(mat: FMatrix) -> RrefResult:
    """Reduced row-echelon form, rank, and pivot columns (deterministic)."""
    a = mat.data.copy()
    rank_, pivots = _eliminate(mat.field, a, reduced=True)
    return RrefResult(FMatrix(mat.field, a, validate=False), rank_, pivots)


def rank(mat: FMatrix) -> int:
    a = mat.data.copy()
    r, _ = _eliminate(mat.field, a, reduced=False)
    return r


def _kernel_vectors(res: RrefResult, cols: int) -> np.ndarray:
    """Kernel basis read off an RREF: one row per free column among the first cols."""
    pivots = list(res.pivots)
    free = np.setdiff1d(np.arange(cols), pivots)
    out = np.zeros((free.size, cols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    if pivots:
        out[:, pivots] = res.matrix.field.neg(res.matrix.data[:len(pivots)][:, free]).T
    return out


def kernel_basis(mat: FMatrix) -> list:
    """Basis of the right null space {v : mat . v = 0}, one vector per free column."""
    return list(_kernel_vectors(rref(mat), mat.cols))


def solve(a: FMatrix, b) -> SolveResult | None:
    """Solve a . x = b.

    Returns:
        SolveResult (particular solution, kernel basis of a) if consistent,
        otherwise None.
    """
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (a.rows,):
        raise SpecError(f"right-hand side length {b.shape} does not match {a.rows} rows")
    f = a.field
    aug = FMatrix(f, np.hstack([a.data, b[:, None]]), validate=False)
    res = rref(aug)
    if a.cols in res.pivots:
        return None
    x = np.zeros(a.cols, dtype=np.int64)
    for i, pc in enumerate(res.pivots):
        x[pc] = res.matrix.data[i, a.cols]
    # the first cols columns of the augmented RREF are exactly rref(a)
    return SolveResult(x, list(_kernel_vectors(res, a.cols)))


# -- polynomials --
# int64 coefficient arrays, low to high: FPoly and the routes of dimension.py build on these

def _poly_mul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of nonempty a and b (low-to-high), in O(len) memory."""
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    for i in np.flatnonzero(a):
        out[i:i + b.size] = field.add(out[i:i + b.size], field.mul(b, int(a[i])))
    return out


def _trim(a):  # a copy without the leading zeros
    return np.array(a[:np.flatnonzero(a)[-1] + 1] if a.any() else a[:0], dtype=np.int64)


def _divmod(F, v, g):
    """(q, r) with v = q g + r and deg r < deg g, for g monic; v is trimmed and reused."""
    r = v
    q = np.zeros(max(r.size - g.size + 1, 0), dtype=np.int64)
    while r.size >= g.size:
        sh = r.size - g.size
        q[sh] = r[-1]
        r[sh:] = F.sub(r[sh:], F.mul(g, int(r[-1])))
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
    s0, s1 = np.eye(1, r1.size, dtype=np.int64)[0], np.zeros(r1.size, dtype=np.int64)
    while r1.size:
        c = F.inv(int(r1[-1]))
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


class FPoly:
    """Dense univariate polynomial over a finite field.

    Coefficients are stored low-to-high with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        field.check_range(np.asarray(cs, dtype=np.int64))
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "FPoly":
        return cls(field, ())

    @classmethod
    def const(cls, field: Field, c) -> "FPoly":
        return cls(field, (int(c),))

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
        f = self.field
        if not self.coeffs:
            return self
        return FPoly(f, np.atleast_1d(f.mul(np.asarray(self.coeffs, np.int64), int(c))))

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

    def _same_field(self, other: "FPoly") -> Field:
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
    def from_text(cls, field: Field, text: str) -> "FPoly":
        toks = text.split()
        return cls(field, [field.parse_value(t) for t in toks])


# -- characteristic polynomials --

def _charpoly_data(field: Field, a: np.ndarray) -> np.ndarray:
    """Coefficients (low-to-high, length s+1) of det(zI - a)."""
    h = a.copy()
    s = h.shape[0]
    for j in range(s - 2):
        nz = np.nonzero(h[j + 1:, j])[0]
        if nz.size == 0:
            continue
        pr = j + 1 + int(nz[0])
        if pr != j + 1:
            h[[j + 1, pr]] = h[[pr, j + 1]]
            h[:, [j + 1, pr]] = h[:, [pr, j + 1]]
        pivinv = field.inv(int(h[j + 1, j]))
        lower = j + 2 + np.nonzero(h[j + 2:, j])[0]
        if lower.size:
            t = np.atleast_1d(field.mul(h[lower, j], pivinv))
            h[lower] = field.sub(h[lower], field.mul(t[:, None], h[j + 1][None, :]))
            # inverse similarity: column j+1 absorbs the same combination
            h[:, j + 1] = field.add(h[:, j + 1], field.dot(h[:, lower], t))
    # leading principal minors D_k of (zI - h), by the Hessenberg recurrence
    P = np.zeros((s + 1, s + 1), dtype=np.int64)
    P[0, 0] = 1
    cum = np.empty(0, dtype=np.int64)
    for k in range(1, s + 1):
        prev = P[k - 1, :k]
        pk = np.zeros(s + 1, dtype=np.int64)
        pk[1:k + 1] = prev
        hkk = int(h[k - 1, k - 1])
        if hkk:
            pk[:k] = field.sub(pk[:k], field.mul(hkk, prev))
        if k > 1:
            # subdiagonal products beta_{k-1}, beta_{k-1}beta_{k-2}, ...,
            # each step extending the previous step's products by beta_{k-1}
            cum = field.mul(int(h[k - 1, k - 2]), np.concatenate(([1], cum)))
            hcol = h[np.arange(k - 2, -1, -1), k - 1]
            w = np.atleast_1d(field.mul(hcol, cum))
            nzw = np.nonzero(w)[0]
            if nzw.size:
                pk[:k] = field.sub(pk[:k], field.dot(w[nzw], P[(k - 2) - nzw, :k]))
        P[k] = pk
    return P[s]


def charpoly(mat: FMatrix) -> FPoly:
    """Monic characteristic polynomial det(zI - mat), exact over the field."""
    if mat.rows != mat.cols:
        raise SpecError(f"charpoly needs a square matrix, got {mat.data.shape}")
    return FPoly(mat.field, _charpoly_data(mat.field, mat.data))


def _interp_many(field: Field, xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Interpolate several value rows sharing the nodes xs.

    Args:
        xs: distinct nodes, shape (n,).
        vals: values, shape (r, n); row i holds the values of polynomial i.

    Returns:
        Coefficient rows, shape (r, n), low-to-high (trailing zeros kept).
    """
    n = xs.size
    newton = np.empty_like(vals)
    newton[:, 0] = vals[:, 0]
    cur = vals
    for j in range(1, n):
        dinv = np.atleast_1d(field.inv(field.sub(xs[j:], xs[:n - j])))
        cur = field.mul(field.sub(cur[:, 1:], cur[:, :-1]), dinv[None, :])
        newton[:, j] = cur[:, 0]
    out = np.zeros_like(vals)
    out[:, 0] = newton[:, n - 1]
    for i in range(n - 2, -1, -1):
        # p <- p*(x - xs[i]) + c_i
        shifted = np.zeros_like(out)
        shifted[:, 1:] = out[:, :-1]
        out = np.atleast_2d(field.sub(shifted, field.mul(out, int(xs[i]))))
        out[:, 0] = field.add(out[:, 0], newton[:, i])
    return out


def lagrange_interpolate(field: Field, points) -> FPoly:
    """The unique polynomial of degree < len(points) through the given points.

    Args:
        field: coefficient field.
        points: iterable of (node, value) pairs with pairwise-distinct nodes.
    """
    pts = list(points)
    if not pts:
        raise SpecError("interpolation needs at least one point")
    xs = np.array([int(x) for x, _ in pts], dtype=np.int64)
    if len(set(xs.tolist())) != xs.size:
        raise SpecError("duplicate interpolation node")
    ys = np.array([[int(v) for _, v in pts]], dtype=np.int64)
    field.check_range(xs)
    field.check_range(ys)
    return FPoly(field, _interp_many(field, xs, ys)[0])


@dataclass(frozen=True)
class XCharPoly:
    """Characteristic polynomial of diag(1, x, ..., x^{s-1}) . M with x symbolic.

    zcoeffs[j] is the z^j coefficient as a polynomial in x over the extension
    field; k is the multiplicity of the factor z.
    """

    size: int
    k: int
    zcoeffs: tuple
    field: Field
    base: Field

    def specialize(self, x0) -> FPoly:
        """Substitute a concrete x value; returns a polynomial in z."""
        return FPoly(self.field, [zp.eval(x0) for zp in self.zcoeffs])

    def to_text(self) -> str:
        lines = []
        for j, zp in enumerate(self.zcoeffs):
            lines.append(f"z^{j}: {zp.to_text()}")
        lines.append(f"k={self.k}")
        return "\n".join(lines) + "\n"


def xm_charpoly_values(factors, ext: Field, xs) -> np.ndarray:
    """Charpoly coefficients of the product of X . m over m in factors, at nodes x.

    X = diag(1, x, ..., x^{n-1}) scales the rows of each n x n factor, so one
    factor M gives X . M and two factors F, F^T give (X . F)(X . F^T).  The
    nodes xs lie in ext, an extension of the matrix field (Field.extension
    picks it).

    Returns:
        vals: vals[i] holds the low-to-high coefficients (length n+1) at xs[i].
    """
    f = factors[0].field
    n = factors[0].rows
    mds = [embedding(f, ext)(m.data) for m in factors]
    xs = np.asarray(xs, dtype=np.int64)
    # row i holds 1, x_i, ..., x_i^{n-1}: the diagonal of X at node x_i
    xpow = np.ones((xs.size, n), dtype=np.int64)
    for j in range(1, n):
        xpow[:, j] = ext.mul(xpow[:, j - 1], xs)
    vals = np.empty((xs.size, n + 1), dtype=np.int64)
    for idx, row in enumerate(xpow):
        node = ext.mul(mds[0], row[:, None])
        for md in mds[1:]:
            node = ext.dot(node, ext.mul(md, row[:, None]))
        vals[idx] = _charpoly_data(ext, node)
    return vals


def charpoly_xm(mat: FMatrix) -> XCharPoly:
    """Symbolic-x characteristic polynomial of X . mat, X = diag(1, x, ..., x^{s-1}).

    Every x-degree is bounded by D = s(s-1)/2, so the char poly is pinned by
    its values at D+1 distinct nodes; the nodes are the first D+1 elements of
    the smallest extension F_{q^t} with q^t >= D+2, and each z-coefficient is
    interpolated from the evaluations.
    """
    if mat.rows != mat.cols:
        raise SpecError(f"charpoly_xm needs a square matrix, got {mat.data.shape}")
    s = mat.rows
    D = s * (s - 1) // 2
    ext = mat.field.extension(D + 2)
    xs = ext.elements(D + 1)
    vals = xm_charpoly_values((mat,), ext, xs)
    coeff_rows = _interp_many(ext, xs, vals.T.copy())
    zc = tuple(FPoly(ext, row) for row in coeff_rows)
    if zc[-1].coeffs != (1,):
        raise AssertionError("charpoly_xm lost monicity; interpolation is broken")
    k = next(j for j, zp in enumerate(zc) if not zp.is_zero)
    return XCharPoly(size=s, k=k, zcoeffs=zc, field=ext, base=mat.field)
