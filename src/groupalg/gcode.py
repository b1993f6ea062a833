"""Linear codes cut out by one-sided group algebra ideals.

Identifying F[G] with F^n through the coefficient map turns an ideal into a
linear [n, k] code over F.  The generator matrix is the reduced row echelon
basis of the ideal (dimension._ideal_rref: built from its gcd over cyclic:n, else
by elimination), so equal ideals always yield byte-identical exports; the parity
rows come from the same RREF, and so does annihilator_basis.  min_distance walks
the projective messages (first nonzero entry 1) in Gray order over the code's
F_p-basis, one added row per codeword: XORs of bit-packed rows for p = 2,
cumulative sums mod p otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dimension import IdealSpec, _ideal_rref
from .errors import BudgetExceededError, DomainError, SpecError
from .field import Field
from .linalg import FMatrix, RrefResult, _kernel_vectors

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
    message = code.field.encodings(message)
    if message.shape != (code.k,):
        raise SpecError(f"message length {message.size} does not match k = {code.k}")
    return code.field.dot(message, code.genmat.data)


def is_codeword(code: GroupCode, word) -> bool:
    """Whether the word satisfies every parity check."""
    word = code.field.encodings(word)
    if word.shape != (code.n,):
        raise SpecError(f"word length {word.size} does not match n = {code.n}")
    return not code.field.dot(code.paritymat.data, word).any()


# A Gray block holds at most this many uint64 words (p = 2) or int64 digits (odd p)
# per temporary, 2 MiB: bigger ones are mapped and faulted in afresh on each call
# unless an earlier free raised malloc's threshold.  An odd-p block's cumulative sum
# stays below block*(p-1) + p < 2^18 * 2^31 + 2^31 < 2^63, so int64 is exact.
_BLOCK_ENTRIES = 1 << 18


def _valuation(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def min_distance(code: GroupCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over all nonzero codewords.

    Scaling by F_q* keeps the weight, so only the (q^k - 1)/(q - 1) codewords
    g_i + sum_{l > i} a_l g_l are walked, over the F_p-basis rows x^j g_l in
    modular p-ary Gray order (Knuth, TAOCP 4A, 7.2.1.1): step t adds the row
    whose index is the p-adic valuation of t.  Refuses when q^k exceeds the
    budget; the caller can raise it for a deliberate long run.  A budget that
    is not an int, or is negative, is malformed (SpecError).
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise SpecError(f"budget must be an int, got {budget!r}")
    if budget < 0:
        raise SpecError(f"budget must be >= 0, got {budget}")
    f, n, k = code.field, code.n, code.k
    total = f.q ** k
    if total > budget:
        raise BudgetExceededError(
            f"q^k = {total} codewords exceeds the enumeration budget {budget}")
    p, m = f.p, f.m
    # row (k-1-i)*m + j is x^j g_i as m digit planes: the walk led by g_i (row r =
    # (k-1-i)*m) starts at row r and steps through rows[:r], the basis of g_{i+1..}
    basis = f.mul(p ** np.arange(m)[:, None], code.genmat.data[::-1, None, :])
    planes = basis.reshape(k * m, 1, n) // p ** np.arange(m)[:, None] % p
    if p == 2:
        width = -(-n // 64)
        bits = np.zeros((k * m, m, 64 * width), dtype=np.uint8)
        bits[..., :n] = planes
        rows, add = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64), np.bitwise_xor
    else:
        width, rows, add = n, planes, np.add
    rows = rows.reshape(k * m, m * width)
    top = 0  # blocks of p^top steps, aligned so that step c*p^top + u adds row v_p(u)
    while top < (k - 1) * m and p ** (top + 1) * m * width <= _BLOCK_ENTRIES:
        top += 1
    ruler = np.zeros(p ** top, dtype=np.intp)  # ruler[u] = v_p(u) for 0 < u < p^top
    for j in range(1, top):
        ruler[p ** j::p ** j] += 1
    best = n
    for r in range(0, k * m, m):
        b = min(r, top)
        idx = ruler[:p ** b].copy()
        for c in range(p ** (r - b)):
            idx[0] = b + _valuation(c, p) if c else r  # step c*p^b, or state 0: g_i
            acc = rows[idx]
            add.accumulate(acc, axis=0, out=acc)
            if c:
                add(acc, carry, out=acc)
            if p > 2:
                acc %= p
            carry = acc[-1].copy()
            nz = np.bitwise_or.reduce(acc.reshape(-1, m, width), axis=1)
            w = np.bitwise_count(nz).sum(axis=1) if p == 2 else np.count_nonzero(nz, axis=1)
            best = min(best, int(w.min()))
    return best


def code_to_text(code: GroupCode) -> str:
    """Export format: header `n k q`, then generator rows, then parity rows."""
    lines = [f"{code.n} {code.k} {code.field.q}"]
    for row in code.genmat.data:
        lines.append(" ".join(code.field.format_value(v) for v in row))
    for row in code.paritymat.data:
        lines.append(" ".join(code.field.format_value(v) for v in row))
    return "\n".join(lines) + "\n"
