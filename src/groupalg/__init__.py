"""Exact linear algebra over finite fields for group algebra ideals.

Compute dimensions of one-sided ideals of F[G] (rank of stacked regular
representation matrices, characteristic polynomial bounds, and the
symbolic/randomized diagonal-rescaling method), idempotent generators,
annihilators, and the linear codes the ideals define.
"""

__version__ = "0.1.0"

from .algebra import AlgebraElem, element_from_text, element_to_text, \
    parse_element_inline, random_element, read_element_file
from .dimension import DimBound, IdealSpec, annihilator_basis, dim_bound_charpoly, \
    dim_ideal, dim_mulmuley_exact, dim_mulmuley_random, element_charpoly, ideal_membership, \
    idempotent_generator, mulmuley_charpoly
from .errors import BudgetExceededError, DomainError, GroupAlgError, SpecError
from .field import Field, embed, embedding, format_field_spec, make_field, \
    parse_field_spec
from .gcode import GroupCode, build_code, code_to_text, encode, is_codeword, \
    min_distance
from .groups import Group, ORDER_CAP, closure_from_generators, group_from_cayley_text, \
    load_cayley_file, load_perm_file, make_group, save_cayley_file, validate_group
from .linalg import FMatrix, XCharPoly, charpoly, charpoly_xm, kernel_basis, \
    lagrange_interpolate, rank, rref, solve, stack_matrices
from .poly import FPoly
from .representation import lambda_matrix, rho_matrix, stack

__all__ = [
    "AlgebraElem", "BudgetExceededError", "DimBound", "DomainError", "FMatrix",
    "FPoly", "Field", "Group", "GroupAlgError", "GroupCode", "IdealSpec",
    "ORDER_CAP", "SpecError", "XCharPoly", "annihilator_basis", "build_code",
    "charpoly", "charpoly_xm", "closure_from_generators", "code_to_text",
    "dim_bound_charpoly", "dim_ideal", "dim_mulmuley_exact", "dim_mulmuley_random",
    "element_charpoly", "element_from_text", "element_to_text", "embed", "embedding", "encode",
    "format_field_spec", "group_from_cayley_text", "ideal_membership",
    "idempotent_generator", "is_codeword", "kernel_basis", "lagrange_interpolate",
    "lambda_matrix", "load_cayley_file", "load_perm_file", "make_field",
    "make_group", "min_distance", "mulmuley_charpoly", "parse_element_inline",
    "parse_field_spec", "random_element", "rank", "read_element_file",
    "rho_matrix", "rref", "save_cayley_file", "solve", "stack", "stack_matrices",
    "validate_group",
]
