"""Elements of a group algebra F[G] as coefficient vectors.

An AlgebraElem pairs a Field and a Group with a length-n coefficient array
(index i = coefficient of group element i).  Multiplication is the group
convolution; star is the involution sending each group element to its
inverse.

Text formats (1-based indices): files carry one `index:coeff` line per
nonzero coefficient, where coeff is an integer for prime fields or a
comma-separated coefficient list for extension fields.  The CLI inline
shorthand `1:1,2:1` packs several index:coeff pairs with commas and is
limited to prime fields (extension coefficients would collide with the
separator).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SpecError
from .field import _DOT_BLOCK, Field
from .groups import Group


def _check_context(a: "AlgebraElem", b: "AlgebraElem") -> None:
    if a.field != b.field:
        raise DomainError(f"elements live in different fields: {a.field!r} vs {b.field!r}")
    if not a.group.compatible(b.group):
        raise DomainError(f"elements live in different groups: {a.group!r} vs {b.group!r}")


class AlgebraElem:
    """An element sum_i coeffs[i] * g_i of F[G]."""

    __slots__ = ("field", "group", "coeffs")

    def __init__(self, field: Field, group: Group, coeffs, validate: bool = True):
        self.field = field
        self.group = group
        arr = field.encodings(coeffs) if validate else np.array(coeffs, dtype=np.int64)
        arr = arr.reshape(-1)
        if arr.shape != (group.n,):
            raise SpecError(
                f"coefficient vector has length {arr.size}, group order is {group.n}")
        self.coeffs = arr

    @classmethod
    def zero(cls, field: Field, group: Group) -> "AlgebraElem":
        return cls(field, group, np.zeros(group.n, dtype=np.int64), validate=False)

    @classmethod
    def one(cls, field: Field, group: Group) -> "AlgebraElem":
        c = np.zeros(group.n, dtype=np.int64)
        c[0] = 1
        return cls(field, group, c, validate=False)

    @classmethod
    def basis(cls, field: Field, group: Group, index: int) -> "AlgebraElem":
        c = np.zeros(group.n, dtype=np.int64)
        c[index] = 1
        return cls(field, group, c, validate=False)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        _check_context(self, other)
        return AlgebraElem(self.field, self.group,
                           self.field.add(self.coeffs, other.coeffs), validate=False)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        _check_context(self, other)
        return AlgebraElem(self.field, self.group,
                           self.field.sub(self.coeffs, other.coeffs), validate=False)

    def __neg__(self):
        return AlgebraElem(self.field, self.group,
                           self.field.neg(self.coeffs), validate=False)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        _check_context(self, other)
        # a*b = a[inv] . b[mul], k-th entry sum_i a(g_i^-1) b(g_i g_k), in column blocks
        g, a, b = self.group, self.coeffs[self.group.inv], other.coeffs
        step = _DOT_BLOCK // g.n
        prod = np.empty(g.n, dtype=np.int64)
        for c in range(0, g.n, step):
            prod[c:c + step] = self.field.dot(a, b[g.mul[:, c:c + step]])
        return AlgebraElem(self.field, self.group, prod, validate=False)

    def scale(self, c) -> "AlgebraElem":
        c = int(self.field.encodings(c))
        return AlgebraElem(self.field, self.group,
                           self.field.mul(self.coeffs, c), validate=False)

    def star(self) -> "AlgebraElem":
        """The involution sum a_i g_i -> sum a_i g_i^{-1}."""
        return AlgebraElem(self.field, self.group,
                           self.coeffs[self.group.inv], validate=False)

    def is_idempotent(self) -> bool:
        return (self * self) == self

    def __eq__(self, other):
        return (isinstance(other, AlgebraElem) and self.field == other.field
                and self.group.compatible(other.group)
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        terms = []
        for i in np.nonzero(self.coeffs)[0]:
            c = self.field.format_value(self.coeffs[i])
            label = self.group.labels[i]
            if c == "1" and i != 0:
                terms.append(label)
            elif i == 0:
                terms.append(c)
            else:
                terms.append(f"{c}*{label}")
        return " + ".join(terms) if terms else "0"


def random_element(field: Field, group: Group, rng) -> AlgebraElem:
    """Uniform random element, driven by a random.Random instance."""
    coeffs = [rng.randrange(field.q) for _ in range(group.n)]
    return AlgebraElem(field, group, coeffs, validate=False)


# -- text formats --

def element_to_text(elem: AlgebraElem) -> str:
    """File format: one 1-based `index:coeff` line per nonzero coefficient."""
    lines = []
    for i in np.nonzero(elem.coeffs)[0]:
        lines.append(f"{int(i) + 1}:{elem.field.format_value(elem.coeffs[i])}")
    return "\n".join(lines) + ("\n" if lines else "")


def element_from_text(field: Field, group: Group, text: str) -> AlgebraElem:
    coeffs = np.zeros(group.n, dtype=np.int64)
    seen = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError(f"bad element line {line!r} (expected index:coeff)")
        idx_text, coeff_text = line.split(":", 1)
        try:
            idx = int(idx_text)
        except ValueError:
            raise SpecError(f"bad element index {idx_text!r}") from None
        if not 1 <= idx <= group.n:
            raise SpecError(f"element index {idx} outside 1..{group.n}")
        if idx in seen:
            raise SpecError(f"duplicate element index {idx}")
        seen.add(idx)
        coeffs[idx - 1] = field.parse_value(coeff_text)
    return AlgebraElem(field, group, coeffs, validate=False)


def read_element_file(field: Field, group: Group, path: str) -> AlgebraElem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError(f"cannot read element file {path!r}: {e}") from None
    return element_from_text(field, group, text)


def parse_element_inline(field: Field, group: Group, text: str) -> AlgebraElem:
    """CLI shorthand `1:1,2:1` (prime fields only); empty string is zero."""
    text = text.strip()
    if not text:
        return AlgebraElem.zero(field, group)
    if field.m > 1:
        raise SpecError(
            "inline elements support prime fields only; use an element file "
            "for extension-field coefficients")
    return element_from_text(field, group, text.replace(",", "\n"))
