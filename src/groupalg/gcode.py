"""Linear codes cut out by one-sided group algebra ideals.

Identifying F[G] with F^n through the coefficient map turns an ideal into a
linear [n, k] code over F.  The generator matrix is the reduced row echelon
basis of the ideal (dimension._ideal_rref: built from its gcd over cyclic:n, else
by elimination), so equal ideals always yield byte-identical exports; the parity
rows come from the same RREF, and so does annihilator_basis.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dimension import IdealSpec, _ideal_rref
from .errors import BudgetExceededError, DomainError, SpecError
from .field import Field
from .linalg import FMatrix, RrefResult, _kernel_vectors, rref
from .representation import stack

DEFAULT_BUDGET = 1 << 20


class GroupCode(NamedTuple):
    """An [n, k] linear code arising from a group algebra ideal."""

    n: int
    k: int
    field: Field
    genmat: FMatrix
    paritymat: FMatrix
    source: IdealSpec


def build_code(spec: IdealSpec) -> GroupCode:
    """Code of the ideal; raises on the zero ideal (no code to build)."""
    return _code(spec, _ideal_rref(spec))


def _build_code_rank(spec: IdealSpec) -> GroupCode:
    return _code(spec, rref(stack(spec.generators, spec.side)))


def _code(spec: IdealSpec, res: RrefResult) -> GroupCode:
    """The code whose generator rows are the nonzero rows of an RREF of the ideal."""
    k = res.rank
    if k == 0:
        raise DomainError("zero ideal: all generators are zero, no code to build")
    field, n = spec.field, spec.group.n
    genmat = FMatrix(field, res.matrix.data[:k], validate=False)
    paritymat = FMatrix(field, _kernel_vectors(res, n), validate=False)
    return GroupCode(n=n, k=k, field=field, genmat=genmat, paritymat=paritymat, source=spec)


def encode(code: GroupCode, message) -> np.ndarray:
    """Map a length-k message to its length-n codeword (message @ genmat)."""
    message = np.asarray(message, dtype=np.int64)
    if message.shape != (code.k,):
        raise SpecError(f"message length {message.size} does not match k = {code.k}")
    code.field.check_range(message)
    return code.field.dot(message, code.genmat.data)


def is_codeword(code: GroupCode, word) -> bool:
    """Whether the word satisfies every parity check."""
    word = np.asarray(word, dtype=np.int64)
    if word.shape != (code.n,):
        raise SpecError(f"word length {word.size} does not match n = {code.n}")
    code.field.check_range(word)
    return not code.field.dot(code.paritymat.data, word).any()


def min_distance(code: GroupCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over all nonzero codewords, by full enumeration.

    Refuses when q^k exceeds the budget; the caller can raise it explicitly
    for a deliberate long run.  A negative budget is malformed (SpecError).
    """
    if budget < 0:
        raise SpecError(f"budget must be >= 0, got {budget}")
    f = code.field
    total = f.q ** code.k
    if total > budget:
        raise BudgetExceededError(
            f"q^k = {total} codewords exceeds the enumeration budget {budget}")
    # mixed-radix digits of 1..total-1 enumerate every nonzero message
    best = code.n
    # block x n temporaries of at most 2^18 entries (2 MiB): bigger ones are mapped and
    # faulted in afresh on each call unless an earlier free raised malloc's threshold
    block = max(1, min(1 << 12, (1 << 18) // code.n))
    powers = f.q ** np.arange(code.k, dtype=np.int64)
    for start in range(1, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        msgs = (idx[:, None] // powers[None, :]) % f.q
        weights = np.count_nonzero(f.dot(msgs, code.genmat.data), axis=1)
        best = min(best, int(weights.min()))
    return best


def code_to_text(code: GroupCode) -> str:
    """Export format: header `n k q`, then generator rows, then parity rows."""
    lines = [f"{code.n} {code.k} {code.field.q}"]
    for row in code.genmat.data:
        lines.append(" ".join(code.field.format_value(v) for v in row))
    for row in code.paritymat.data:
        lines.append(" ".join(code.field.format_value(v) for v in row))
    return "\n".join(lines) + "\n"
