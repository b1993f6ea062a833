"""Exact dense linear algebra over finite fields.

Matrices are numpy int64 grids of field-element encodings bundled with their
Field.  Elimination uses first-nonzero pivoting in column order, so every
result is deterministic; there is no floating point and no pivots are chosen
for numerical reasons.

The characteristic polynomial is computed by similarity reduction to upper
Hessenberg form (divisions only, valid over any field) followed by the
standard recurrence on leading principal minors of zI - H.  The symbolic
variant charpoly_xm evaluates at extension-field nodes and interpolates each
z-coefficient by Newton's divided differences.  Polynomial arithmetic and
FPoly, the polynomial type charpoly returns, live in poly.py.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, SpecError
from .field import Field, embedding
from .poly import FPoly


class FMatrix:
    """A rows x cols matrix over a finite field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data, validate: bool = True):
        self.field = field
        # a private copy even when validate=False: adopting internal arrays saved no
        # peak memory and slowed rank in a fresh process (malloc's heap trimming)
        arr = field.encodings(data) if validate else np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            raise SpecError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
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
    xs = field.encodings([x for x, _ in pts])
    if len(set(xs.tolist())) != xs.size:
        raise SpecError("duplicate interpolation node")
    ys = field.encodings([[v for _, v in pts]])
    return FPoly(field, _interp_many(field, xs, ys)[0])


class XCharPoly(NamedTuple):
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
