"""Exact dense linear algebra over finite fields.

Matrices are numpy int64 grids of field-element encodings bundled with their
Field.  Elimination uses first-nonzero pivoting in column order, so every
result is deterministic; there is no floating point and no pivots are chosen
for numerical reasons.

The characteristic polynomial is computed by similarity reduction to upper
Hessenberg form (divisions only, valid over any field) followed by the
standard recurrence on leading principal minors of zI - H.  One kernel,
_charpoly_data, does this for a single matrix or for a stack of them, each
step once over the whole stack; charpoly, the cyclotomic blocks of
dimension.py and every node charpoly run through it.  The node charpolys of
X . M, X = diag(1, x, ..., x^{n-1}), come a stack of nodes at a time
(xm_charpoly_stacks): a stack holds max(1, _NODE_STACK // n^3) nodes, so the
node products of a stack stay within field._NODE_STACK (Field.dot forms them a
block of its inner axis at a time), and a caller that has its answer stops
before later nodes are built or drawn (Mulmuley's routes stop at valuation 0).  The
symbolic variant charpoly_xm evaluates at extension-field nodes and
interpolates each z-coefficient by Newton's divided differences.  Polynomial
arithmetic and FPoly, the polynomial type charpoly returns, live in poly.py.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SpecError
from .field import _NODE_STACK, Field, embedding
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
    """Coefficients (low-to-high, length s+1) of det(zI - a), for one s x s matrix,
    or one row each (shape (N, s+1)) for a stack a of N such matrices.

    Every step of the reduction and of the recurrence runs once over the whole
    stack.  Each member pivots on its own first nonzero entry below the
    subdiagonal, a member whose subcolumn is zero skips the step, and only the
    rows whose multiplier is nonzero in some member are updated.  A charpoly is
    unique, so the stack a matrix shares changes none of its coefficients.
    Callers size the stacks: xm_charpoly_stacks keeps N n^3 within
    _NODE_STACK and may stop after any stack; the other callers pass one matrix.
    """
    single = a.ndim == 2
    h = (a[None] if single else a).copy()
    N, s = h.shape[:2]
    for j in range(s - 2):
        col = h[:, j + 1:, j]
        if not np.count_nonzero(col):  # every member skips the step
            continue
        first = col.astype(bool).argmax(axis=1)  # 0 also when the subcolumn is zero
        swap = first.nonzero()[0]  # members whose first nonzero lies below row j+1
        if swap.size:
            pr = j + 1 + first[swap]
            h[swap, j + 1], h[swap, pr] = h[swap, pr], h[swap, j + 1]
            h[swap, :, j + 1], h[swap, :, pr] = h[swap, :, pr], h[swap, :, j + 1]
        below = col[:, 1:]  # a view: the swaps above show through it
        rel = (below.any(axis=0) if N > 1 else below[0]).nonzero()[0]  # nonzero multipliers
        if rel.size:
            lower, piv = j + 2 + rel, h[:, j + 1, j]
            # a member with a zero subcolumn has zero multipliers: any pivot serves it
            pivinv = field.inv(int(piv[0])) if N == 1 else field.inv(np.where(piv, piv, 1))[:, None]
            t = field.mul(below[:, rel], pivinv)
            # row j+1 is zero left of column j, so the rows change from column j on
            h[:, lower, j:] = field.sub(h[:, lower, j:],
                                        field.mul(t[:, :, None], h[:, j + 1, None, j:]))
            # inverse similarity: column j+1 absorbs the same combination
            h[:, :, j + 1] = field.add(h[:, :, j + 1],
                                       field.dot(h[:, :, lower], t[:, :, None])[:, :, 0])
    # leading principal minors D_k of (zI - h), by the Hessenberg recurrence
    # D_k = z D_{k-1} - sum_{i<k} w[k, i] D_{k-1-i}, w[k, i] = h[k-1-i, k-1] c[k, i] with
    # c[k, i] = beta_{k-1} ... beta_{k-i} the product of i subdiagonal entries h[m, m-1];
    # column i of w pairs the i-th superdiagonal of h with c[k, i], k = i+1..s
    w = np.zeros((N, s + 1, s), dtype=np.int64)
    w[:, 1:, :1] = h.diagonal(0, 1, 2)[:, :, None]
    c = beta = h.diagonal(-1, 1, 2)  # c[k, 1] = beta_{k-1}
    for i in range(1, s):
        if i > 1:  # c[k, i] = beta_{k-1} c[k-1, i-1]
            c = field.mul(beta[:, i - 1:], c[:, :-1])
        w[:, i + 1:, i] = field.mul(h.diagonal(i, 1, 2), c)
    P = np.zeros((N, s + 1, s + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    for k in range(1, s + 1):
        P[:, k, 1:k + 1] = P[:, k - 1, :k]
        if np.count_nonzero(w[:, k]):
            P[:, k, :k] = field.sub(P[:, k, :k],
                                    field.dot(w[:, k, None, :k], P[:, k - 1::-1, :k])[:, 0])
    return P[0, s] if single else P[:, s]


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


def xm_charpoly_stacks(factors, ext: Field, nodes):
    """Charpoly coefficients of the product of X . m over m in factors, a stack of
    nodes at a time.

    X = diag(1, x, ..., x^{n-1}) scales the rows of each n x n factor, so one
    factor M gives X . M and two factors F, F^T give (X . F)(X . F^T).  The
    nodes lie in ext, an extension of the matrix field (Field.extension picks
    it), and are read from the iterable nodes one stack at a time: a stack holds
    max(1, _NODE_STACK // n^3) nodes, so the N n^3 products of its node
    matrices stay within that cap, and _charpoly_data reduces the whole stack
    in one call.
    A caller that has its answer stops iterating, and later nodes are then
    never drawn.

    Yields:
        vals: (N, n+1) arrays, vals[i] the low-to-high coefficients at the i-th
        node of the stack.
    """
    f = factors[0].field
    n = factors[0].rows
    mds = [embedding(f, ext)(m.data) for m in factors]
    nodes, size = iter(nodes), max(1, _NODE_STACK // n ** 3)
    while (xs := np.fromiter(itertools.islice(nodes, size), dtype=np.int64)).size:
        # row i holds 1, x_i, ..., x_i^{n-1}: the diagonal of X at node x_i, by doubling
        xpow, xh, h = np.ones((xs.size, n), dtype=np.int64), xs, 1
        while h < n:
            xpow[:, h:2 * h] = ext.mul(xpow[:, :min(h, n - h)], xh[:, None])
            xh, h = ext.mul(xh, xh), 2 * h
        node = ext.mul(mds[0], xpow[:, :, None])
        for md in mds[1:]:
            node = ext.dot(node, ext.mul(md, xpow[:, :, None]))
        yield _charpoly_data(ext, node)


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
    vals = np.concatenate(list(xm_charpoly_stacks((mat,), ext, xs)))
    coeff_rows = _interp_many(ext, xs, vals.T.copy())
    zc = tuple(FPoly(ext, row) for row in coeff_rows)
    if zc[-1].coeffs != (1,):
        raise AssertionError("charpoly_xm lost monicity; interpolation is broken")
    k = next(j for j, zp in enumerate(zc) if not zp.is_zero)
    return XCharPoly(size=s, k=k, zcoeffs=zc, field=ext, base=mat.field)
