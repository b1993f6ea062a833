"""Regular-representation matrices of group algebra elements.

For f in F[G] with basis order g_1..g_n, row i of the right-regular matrix
holds the coefficients of g_i * f, so right-multiplying a coefficient row
vector by it multiplies the element by f on the right.  The left-regular
matrix does the same for f * g_i.  Right multiplication maps products to
matrix products in order; left multiplication reverses the order.

Both matrices are read off one gather B = f[mul], B[i, j] = f(g_i g_j):
the right-regular matrix is B[inv] (entry f(g_i^{-1} g_j)) and the
left-regular one is B^T[inv] (entry f(g_j g_i^{-1})).

Stacking the matrices of several generators on top of each other gives a
matrix whose row space is the one- or two-sided span, so its rank is the
dimension of the ideal the generators produce.
"""

from __future__ import annotations

from .algebra import AlgebraElem, _check_context
from .errors import SpecError
from .linalg import FMatrix, stack_matrices


def check_side(side: str) -> str:
    if side not in ("left", "right"):
        raise SpecError(f"side must be 'left' or 'right', got {side!r}")
    return side


def rho_matrix(f: AlgebraElem) -> FMatrix:
    """Matrix of right multiplication by f; row i is g_i * f."""
    return FMatrix(f.field, f.coeffs[f.group.mul][f.group.inv], validate=False)


def lambda_matrix(f: AlgebraElem) -> FMatrix:
    """Matrix of left multiplication by f; row i is f * g_i."""
    return FMatrix(f.field, f.coeffs[f.group.mul].T[f.group.inv], validate=False)


def side_matrix(f: AlgebraElem, side: str) -> FMatrix:
    """The matrix whose row space is f's ideal on `side`: rho(f) spans the
    left ideal A*f, lambda(f) the right ideal f*A."""
    return rho_matrix(f) if check_side(side) == "left" else lambda_matrix(f)


def stack(generators, side: str = "left") -> FMatrix:
    """Stack the representation matrices of all generators for one side.

    side='left' spans the left ideal sum A*f_j (right-regular matrices);
    side='right' spans the right ideal sum f_j*A (left-regular matrices).
    """
    gens = list(generators)
    if not gens:
        raise SpecError("need at least one generator")
    for g in gens[1:]:
        _check_context(gens[0], g)
    return stack_matrices([side_matrix(f, side) for f in gens])
