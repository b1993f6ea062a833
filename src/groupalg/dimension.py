"""Dimension computations for one-sided ideals of a group algebra.

The dimension of the ideal generated by f_1..f_r (left: sum A*f_j, right:
sum f_j*A) equals the rank of the stacked representation matrices of the
generators.  For a single generator f with representation matrix F and
characteristic polynomial z^k * g(z), g(0) != 0, the dimension lies in
[n - k, n - 1] when k >= 1 and equals n when k = 0; the lower bound is
attained when k = 1 (the bounds meet) and whenever f is idempotent.

Two further routes avoid computing the rank directly.  Both follow Mulmuley:
with M the symmetrized block matrix [[0, F], [F^T, 0]] of size 2n and
X = diag(1, x, ..., x^{2n-1}), the z-adic valuation of det(zI - X*M) with x
symbolic is 2n - 2*rank(F), and specializing x to a field value can only
raise it.  X*M is block anti-diagonal, so det(zI - X*M) = det(z^2 I - x^n C)
with the n x n matrix C(x) = (X_1 F)(X_1 F^T), X_1 = diag(1, x, ..., x^{n-1}),
and at a nonzero node rank(F) = n - (z-valuation of charpoly C(x0)).  By
Cauchy-Binet the z-coefficient e_j(C) = sum over |S| = |T| = j of
x^{sum S + sum T} det(F_{S,T})^2 has its x-exponents in a window of width at
most W = n^2 // 2, so a nonzero one cannot vanish at W+1 distinct nonzero
nodes.  The exact route evaluates at W+1 nonzero nodes and takes the least
valuation, which is the symbolic one.  The randomized route takes a few
random nonzero nodes from a field with q - 1 > 2W instead: a lower bound on
the dimension that is exact with probability at least 1 - (W / (q-1))^trials.
Both routes reduce their node matrices a stack at a time, one charpoly kernel
call a stack (linalg.xm_charpoly_stacks).  A stack holds
max(1, _NODE_STACK // n^3) nodes, _NODE_STACK = 2^18 in field.py, and the
random route draws a stack's nodes only when it reaches that stack.  Both routes
stop after the first stack with valuation 0, where dim = n is proven.
Only mulmuley_charpoly interpolates the symbolic polynomial itself, and it
keeps the unhalved 2n x 2n form.

The polynomial routes need no n x n matrix (README, method notes).  Over C_n the
ideal of f_1..f_r is generated by g = gcd(f_1, ..., f_r, y^n - 1), dim = n - deg g.
In catalogue order its RREF basis is built from g.  Codes and annihilators read that
one RREF: build_code its rows and null space, annihilator_basis the null space,
which is ker rho(f) (starred: the right annihilator) or ker rho(f*) (the left).
Otherwise let N = <r> be a largest cyclic subgroup, of order o, with s = n/o right
cosets N t_j.  a -> a f is left F[N]-linear on the free module sum F[N] t_j, with
an s x s matrix over F[y]/(y^o - 1): t_i g = r^e t_j puts f_g y^e at (i, j).  Stack
the generators' matrices (f* for right ideals) on (y^o - 1) I; with d_1..d_s the
diagonal of its Hermite form over F[y], dim = s o - sum deg d_j (Howell 1986;
Storjohann and Mulders 1998).  Non-cyclic groups take this route when
o >= _HERMITE_MIN_ORDER = 32, the measured crossover with elimination.

The charpoly takes the same matrix M (of f* for the right side: lambda(f) is
permutation-similar to rho(f*)) on every group, C_n being s = 1, with no n x n matrix
(element_charpoly).  Write o = m p^v, p the characteristic, p not dividing m.  Then
chi(z) = (prod over d | m of det(zI - B_d))^(p^v), B_d the s phi(d) x s phi(d) matrix
of M mod the cyclotomic polynomial Phi_d, by three facts:
- y^o - 1 = (y^m - 1)^(p^v), and M on (F[y]/(g^e))^s has the charpoly of M mod g to
  the power e (filter by the submodules g^i (F[y]/(g^e))^s);
- y^m - 1 = prod over d | m of Phi_d, pairwise coprime since p does not divide m (CRT);
- in characteristic p, (sum c_i z^i)^(p^v) = sum c_i^(p^v) z^(i p^v).
(Lidl and Niederreiter, Finite Fields, 2.3, charpolys as norms; Bourbaki, Algebra,
III 9, over a commutative algebra; MacWilliams and Sloane, ch. 7, 5, y^n - 1.)
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElem, _check_context
from .errors import DomainError, SpecError
from .linalg import FMatrix, RrefResult, XCharPoly, _charpoly_data, _kernel_vectors, charpoly_xm, \
    rank, rref, solve, xm_charpoly_stacks
from .poly import FPoly, _cmul, _cyclotomic, _divmod, _gcd, _hermite_dim, _ideal_gcd, \
    _poly_mul, _prime_factors, _trim
from .representation import check_side, side_matrix, stack

DEFAULT_SEED = 0
DEFAULT_TRIALS = 3


class IdealSpec:
    """A one-sided ideal given by its side and a tuple of generators."""

    __slots__ = ("side", "generators")

    def __init__(self, side: str, generators):
        check_side(side)
        gens = tuple(generators)
        if not gens:
            raise SpecError("ideal needs at least one generator")
        for g in gens:
            if not isinstance(g, AlgebraElem):
                raise SpecError(f"generator {g!r} is not an algebra element")
        for g in gens[1:]:
            _check_context(gens[0], g)
        self.side = side
        self.generators = gens

    @property
    def field(self):
        return self.generators[0].field

    @property
    def group(self):
        return self.generators[0].group


class DimBound(NamedTuple):
    """Charpoly-derived dimension bounds for a single-generator ideal."""

    lower: int
    upper: int
    exact: bool
    k: int
    charpoly: FPoly


# -- polynomial routes: the cosets of a largest cyclic subgroup --

# non-cyclic groups whose largest cyclic subgroup has at least this order take the
# coset route; below it elimination is faster (measured crossover, BENCH_16.json)
_HERMITE_MIN_ORDER = 32


def _powers(mul, k: int):
    """x^k for every element x, by square-and-multiply on index arrays."""
    x, out = np.arange(mul.shape[0]), np.zeros(mul.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            out = mul[out, x]
        x, k = mul[x, x], k >> 1
    return out


def _largest_cycle(mul):
    """Indices of r^0, ..., r^(o-1) for the first element r of largest order o."""
    n = mul.shape[0]
    order = np.ones(n, dtype=np.int64)
    for l in _prime_factors(n):  # the l-part of each order: raise x^(n / l^a) to l until 1
        m = n
        while m % l == 0:
            m //= l
        z, pl = _powers(mul, m), _powers(mul, l)
        while (live := z != 0).any():
            order[live] *= l
            z = pl[z]
    o, step = int(order.max()), int(np.argmax(order))
    pw = np.zeros(1, dtype=np.int64)
    while pw.size < o:  # doubling: r^k..r^(2k-1) = (r^0..r^(k-1)) r^k
        pw, step = np.concatenate([pw, mul[pw, step]])[:o], mul[step, step]
    return pw


def _coset_index(g, pw):
    """idx[i, j, e] = the element x with t_i x = r^e t_j, t_j the least element of
    the j-th right coset of <r>; a vector f of coefficients gathers to f[idx]."""
    orbit = g.mul[pw]  # column x lists the coset <r> x
    reps = np.unique(orbit.min(axis=0))
    return g.mul[g.inv[reps][:, None, None], orbit[:, reps].T[None]]


def _detect(g):
    pw = _largest_cycle(g.mul)
    if pw.size == g.n:
        return "cyclic", pw
    return "cosets" if pw.size >= _HERMITE_MIN_ORDER else None, _coset_index(g, pw)


def _route(group):
    """('cyclic', order[k] = y^k), else (kind, _coset_index) with kind 'cosets' when
    the largest cyclic subgroup reaches the gate of the dimension route and None
    below it; read off the table on first use and cached on the group."""
    if group._route is None:
        group._route = _detect(group)
    return group._route


def _cyclic_gcd(gens):
    """(order, g) with g the gcd of the generators' ideal over a cyclic group, else None."""
    kind, order = _route(gens[0].group)
    if kind != "cyclic":
        return None
    return order, _ideal_gcd(gens[0].field, [f.coeffs[order] for f in gens], order.size)


def _coset_dim(spec, idx):
    """dim of the ideal from the s x s matrices over F[y]/(y^o - 1) of a -> a f (left)."""
    return _hermite_dim(spec.field, np.concatenate(
        [(f.star() if spec.side == "right" else f).coeffs[idx] for f in spec.generators]))


def _route_dim(spec):
    """The ideal's dimension by a polynomial route, or None when none applies."""
    kind, data = _route(spec.group)
    if kind == "cyclic":
        return data.size + 1 - _cyclic_gcd(spec.generators)[1].size
    return None if kind is None else _coset_dim(spec, data)


def _coset_charpoly(F, a):
    """Coefficients of det(zI - rho(f)) from the s x s matrix a = f[idx] over
    F[y]/(y^o - 1) (module docstring).  Block (i, j) of B_d multiplies by a_ij mod
    Phi_d: its row u is y^u a_ij mod Phi_d, the u-th row of the circulant of a_ij
    mod y^d - 1, its columns w >= phi(d) folded back by the rows y^w mod Phi_d."""
    s, o, p = a.shape[0], a.shape[2], F.p
    m, pv = o, 1
    while m % p == 0:
        m, pv = m // p, pv * p
    b = F.sum(a.reshape(s, s, pv, m), axis=2) if pv > 1 else a
    cp = np.ones(1, dtype=np.int64)
    for d in (d for d in range(1, m + 1) if m % d == 0):
        c = F.sum(b.reshape(s, s, m // d, d), axis=2) if d < m else b
        phi = np.array(_cyclotomic(d), dtype=np.int64) % p  # F_p embeds by identity
        k = phi.size - 1
        if k == 1:  # d = 1 or 2: M(1) or M(-1)
            blk = c[..., 0] if d == 1 else F.sub(c[..., 0], c[..., 1])
        else:
            fold = np.zeros((d - k, k), dtype=np.int64)  # row j: y^(k+j) mod Phi_d
            fold[0] = -phi[:k] % p
            for j in range(1, d - k):
                fold[j, 1:] = fold[j - 1, :-1]
                fold[j] = (fold[j] - fold[j - 1, -1] * phi[:k]) % p
            circ = c[..., (np.arange(d) - np.arange(k)[:, None]) % d]
            blk = F.add(circ[..., :k], F.dot(circ[..., k:], fold))
            blk = blk.transpose(0, 2, 1, 3).reshape(s * k, s * k)
        # a 1 x 1 block is z - f(1) or z - f(-1)
        block = np.array([F.neg(int(blk[0, 0])), 1]) if blk.size == 1 else _charpoly_data(F, blk)
        cp = _poly_mul(F, *sorted((block, cp), key=len))  # loops over the smaller factor
    if pv == 1:
        return cp
    # in characteristic p, (sum c_i z^i)^(p^v) = sum c_i^(p^v) z^(i p^v)
    out = np.zeros((cp.size - 1) * pv + 1, dtype=np.int64)
    out[::pv] = F.pow(cp, pv)
    return out


def element_charpoly(f: AlgebraElem, side: str = "left") -> FPoly:
    """det(zI - F) for F = side_matrix(f, side), never built: a product of cyclotomic
    blocks over the cosets of a largest cyclic subgroup (_coset_charpoly)."""
    check_side(side)
    kind, idx = _route(f.group)
    a = (f.star() if side == "right" else f).coeffs[idx[None, None] if kind == "cyclic" else idx]
    return FPoly(f.field, _coset_charpoly(f.field, a))


def _cyclic_idempotent(F, g, n: int):
    """The idempotent generator of the nonzero ideal (g) of F[y]/(y^n - 1), or
    None when gcd(g, h) != 1; e^2 = e and gcd(e, y^n - 1) = g are verified."""
    one, s = _gcd(F, g, _divmod(F, _ideal_gcd(F, [], n), g)[0], cofactor=True)  # h = (y^n-1)/g
    if one.size != 1:
        return None
    s, e = _trim(s), np.zeros(n, dtype=np.int64)
    e[:s.size + g.size - 1] = _poly_mul(F, s, g)  # deg s < deg h, so deg s g < n
    if not np.array_equal(_cmul(F, e, e), e):
        raise AssertionError("solved generator is not idempotent")
    if not np.array_equal(_ideal_gcd(F, [e], n), g):
        raise AssertionError("solved idempotent does not span the ideal")
    return e


def _cyclic_code_rref(F, g, n: int) -> RrefResult:
    """RREF of the code of (g): row i < k = n - deg g is y^i - y^k (y^(i-k) mod g), a
    multiple of g with pivot i; g(0) != 0 lets y^(i+1-k) mod g be divided by y."""
    d, k, g1 = g.size - 1, n + 1 - g.size, F.mul(g, F.inv(int(g[0])))
    rows, r = np.eye(k, n, dtype=np.int64), np.eye(1, d + 1, dtype=np.int64)[0]
    for i in range(k - 1, -1, -1):
        if r[0]:
            r = F.sub(r, F.mul(g1, int(r[0])))
        r = np.append(r[1:], 0)
        rows[i, k:] = r[:d]
    rows[:, k:] = F.neg(rows[:, k:])
    return RrefResult(FMatrix(F, rows, validate=False), k, tuple(range(k)))


def _ideal_rref(spec: IdealSpec) -> RrefResult:
    """The ideal's RREF basis: built from g on cyclic:n in catalogue order, where
    basis element i is y^i, else by eliminating the stacked matrices."""
    cyclic = _cyclic_gcd(spec.generators)
    if cyclic is not None and np.array_equal(cyclic[0], np.arange(spec.group.n)):
        return _cyclic_code_rref(spec.field, cyclic[1], spec.group.n)
    return rref(stack(spec.generators, spec.side))


def dim_ideal(spec: IdealSpec) -> int:
    """Dimension over F of the ideal: a polynomial route, else the rank of the stacked matrices."""
    d = _route_dim(spec)
    return _dim_rank(spec) if d is None else d


def _dim_rank(spec: IdealSpec) -> int:
    return rank(stack(spec.generators, spec.side))


def dim_bound_charpoly(f: AlgebraElem, side: str = "left") -> DimBound:
    """Bounds on dim of the one-sided ideal of f from its charpoly alone.

    With z^k the exact power of z dividing the characteristic polynomial of
    the representation matrix: k = 0 means the matrix is invertible and the
    ideal is all of A (dim n, exact); otherwise n - k <= dim <= n - 1, and
    the lower bound is the dimension when k = 1 (the bounds meet) and
    whenever f is idempotent.  The charpoly is element_charpoly's, from
    cyclotomic blocks over the cosets of a largest cyclic subgroup.
    """
    cp = element_charpoly(f, side)
    k = cp.valuation()
    n = f.group.n
    if k == 0:
        return DimBound(lower=n, upper=n, exact=True, k=0, charpoly=cp)
    exact = k == 1 or _is_idempotent(f)
    return DimBound(lower=n - k, upper=n - 1, exact=exact, k=k, charpoly=cp)


def _is_idempotent(f: AlgebraElem) -> bool:
    """f * f == f; on a cyclic group as a product mod y^n - 1, with no n x n gather."""
    kind, order = _route(f.group)
    if kind != "cyclic":
        return f.is_idempotent()
    a = f.coeffs[order]
    return np.array_equal(_cmul(f.field, a, a), a)


def ideal_membership(h: AlgebraElem, spec: IdealSpec) -> bool:
    """Whether h lies in the ideal: g | h over a cyclic group, else no dimension increase."""
    _check_context(h, spec.generators[0])
    cyclic = _cyclic_gcd(spec.generators)
    if cyclic is None:
        return dim_ideal(spec) == dim_ideal(IdealSpec(spec.side, spec.generators + (h,)))
    return not _divmod(spec.field, _trim(h.coeffs[cyclic[0]]), cyclic[1])[1].size


def annihilator_basis(f: AlgebraElem, side: str = "right") -> list:
    """Basis of the one-sided annihilator of f.

    side='right' is {a : f*a = 0}; its coefficient vectors are the starred
    kernel vectors of the right-regular matrix of f (v is in the kernel
    exactly when v* kills f from the right).  side='left' is {a : a*f = 0},
    the kernel of the right-regular matrix of f* taken directly.  The kernel
    is the null space of the left ideal's RREF, as for build_code's parity rows.
    """
    check_side(side)
    target = f if side == "right" else f.star()
    vecs = _kernel_vectors(_ideal_rref(IdealSpec("left", (target,))), f.group.n)
    out = []
    for v in vecs:
        elem = AlgebraElem(f.field, f.group, v, validate=False)
        out.append(elem.star() if side == "right" else elem)
    return out


def idempotent_generator(f: AlgebraElem, side: str = "left"):
    """Idempotent generator of the one-sided ideal of f, or None.

    Cyclic groups use cyclic_idempotent (a Bezout identity); otherwise this
    solves f * (sum_i c_i g_i f) = f for the c_i (left ideal A*f).  Any solution
    e is idempotent and generates the same ideal (both facts are verified before
    returning).  The solver picks the canonical solution with free variables
    zero, so the output is deterministic.  Returns None when none exists, which
    only happens when the characteristic divides the group order; raises on the
    zero element, which generates the zero ideal.
    """
    check_side(side)
    if f.is_zero:
        raise DomainError("zero element: the zero ideal has no idempotent generator")
    cyclic = _cyclic_gcd((f,))
    if cyclic is None:
        return _idempotent_rank(f, side)
    e = _cyclic_idempotent(f.field, cyclic[1], f.group.n)
    return None if e is None else AlgebraElem(f.field, f.group, e[np.argsort(cyclic[0])])


def _idempotent_rank(f: AlgebraElem, side: str):
    # columns of `span` are the candidate generators g_i*f (resp. f*g_i)
    span = side_matrix(f, side).transpose()
    # applying f on the ideal side maps coefficient columns through the
    # matrix of the other side
    act = side_matrix(f, "right" if side == "left" else "left").transpose()
    sol = solve(act @ span, f.coeffs)
    if sol is None:
        return None
    e = AlgebraElem(f.field, f.group,
                    (span @ FMatrix(f.field, sol.solution[:, None], validate=False)).data[:, 0],
                    validate=False)
    if not e.is_idempotent():
        raise AssertionError("solved generator is not idempotent")
    if dim_ideal(IdealSpec(side, (e,))) != dim_ideal(IdealSpec(side, (f,))):
        raise AssertionError("solved idempotent does not span the ideal")
    return e


def mulmuley_charpoly(f: AlgebraElem, side: str = "left") -> XCharPoly:
    """Symbolic-x charpoly of X*M for the generator f, M = [[0, F], [F^T, 0]] of
    size 2n; the undoubled one of X_1 F is charpoly_xm(side_matrix(f, side))."""
    mat = side_matrix(f, side)
    n = mat.rows
    data = np.zeros((2 * n, 2 * n), dtype=np.int64)
    data[:n, n:] = mat.data
    data[n:, :n] = mat.data.T
    return charpoly_xm(FMatrix(f.field, data, validate=False))


def _mulmuley_dim(f: AlgebraElem, side: str, min_order, nodes) -> int:
    """rank(F) = n - k, k the least z-valuation of the node charpolys.

    The node matrix is C(x0) = (X_1 F)(X_1 F^T), the halved form of the
    doubled X*M.  Its z-coefficients have x-exponents in a window of width
    W = n^2 // 2, so the nodes must be nonzero: they lie in
    ext = f.field.extension(min_order(W)), chosen before F is built, and
    nodes(ext, W) lists them.  Specializing x can only raise the valuation,
    so the least one over the nodes is the best available.  The node
    charpolys come a stack at a time (xm_charpoly_stacks), and a stack with
    valuation 0 ends the search: dim = n.
    """
    n = f.group.n
    W = n * n // 2
    ext = f.field.extension(min_order(W))
    mat = side_matrix(f, side)
    k = n
    for vals in xm_charpoly_stacks((mat, mat.transpose()), ext, nodes(ext, W)):
        # charpolys are monic, so every row has a first nonzero coefficient
        k = min(k, int(vals.astype(bool).argmax(axis=1).min()))
        if k == 0:
            break
    return n - k


def dim_mulmuley_exact(f: AlgebraElem, side: str = "left") -> int:
    """Dimension of the one-sided ideal of f via Mulmuley's z-adic valuation.

    The nodes are the first W+1 nonzero elements of the smallest extension
    with at least W+2 elements, W = n^2 // 2 the width of the x-exponent
    window of every z-coefficient of charpoly C(x), C = (X_1 F)(X_1 F^T), the
    n x n halving of the doubled matrix [[0, F], [F^T, 0]].  A nonzero
    coefficient cannot vanish at all W+1 nodes, so the least valuation over
    the nodes is the symbolic one and dim = n - k; no interpolation is needed.
    """
    check_side(side)
    return _mulmuley_dim(f, side, lambda W: W + 2, lambda ext, W: ext.elements(W + 2)[1:])


def dim_mulmuley_random(f: AlgebraElem, side: str = "left",
                        trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> int:
    """Randomized dimension estimate: specialize x before the charpoly.

    Each trial draws a nonzero x0 from the smallest extension with q - 1 > 2W
    (W = n^2 // 2) and computes the z-adic valuation k of charpoly C(x0),
    C = (X_1 F)(X_1 F^T), giving n - k.  Specializing can only raise the
    valuation, so every trial yields a lower bound on the dimension and the
    maximum over trials is reported.  Trials are seeded independently as
    `{seed}:{trial}`, so results are reproducible and adding trials never
    changes earlier draws.  seed and trials must be ints (not bools): seed=True
    would silently key other draws than seed=1, and seed='1' the same ones.
    Each trial is exact with probability at least 1 - W/(q-1), so the failure
    odds decay as (W/(q-1))^trials < 2^-trials.
    Raises DomainError when that extension exceeds the 2^20 table limit of
    extension fields (over GF(2): groups of order 1024 and more).
    """
    check_side(side)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise SpecError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise SpecError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecError(f"seed must be an int, got {seed!r}")
    return _mulmuley_dim(
        f, side, lambda W: 2 * W + 2,
        lambda ext, W: (1 + random.Random(f"{seed}:{trial}").randrange(ext.q - 1)
                        for trial in range(trials)))
