"""Finite groups as dense multiplication tables.

A Group stores the full n x n table of element indices (0-based internally,
identity at index 0) plus display labels.  All file formats and reports use
1-based indices; the conversion happens only at the parse/format boundary.

Permutations compose left-to-right: (p * q)(x) = q(p(x)).  Product groups
order pairs with the left factor varying fastest, so
product:cyclic:2,cyclic:2 enumerates e, a, b, ab.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import SpecError

ORDER_CAP = 10_000  # dense tables and cubic scans stay desk-scale

_MAX_VIOLATIONS = 25  # messages kept per report; the total count stays exact


def _check_order(n: int) -> None:
    """Refuse a group order above ORDER_CAP before its n x n table exists."""
    if n > ORDER_CAP:
        raise SpecError(f"group order {n} exceeds the cap {ORDER_CAP}")


class ValidationReport(NamedTuple):
    level: str
    violations: list
    total: int

    @property
    def ok(self) -> bool:
        return self.total == 0


def validate_table(mul, level: str = "fast") -> ValidationReport:
    """Check the group axioms on a raw 0-based table.

    fast: identity position, Latin square, two-sided inverses.  full:
    additionally associativity over all n^3 triples.  Violations are
    reported with 1-based indices, never raised.
    """
    if level not in ("fast", "full"):
        raise SpecError(f"validation level must be fast or full, got {level!r}")
    mul = np.asarray(mul, dtype=np.int64)
    n = mul.shape[0]
    out: list[str] = []
    total = 0

    def report(msgs, count=None):
        nonlocal total
        total += len(msgs) if count is None else count
        out.extend(msgs[:max(0, _MAX_VIOLATIONS - len(out))])

    if mul.ndim != 2 or mul.shape != (n, n) or n < 1:
        report([f"table is not square: shape {mul.shape}"])
        return ValidationReport(level, out, total)
    if mul.min() < 0 or mul.max() >= n:
        report([f"table entries outside 1..{n}"])
        return ValidationReport(level, out, total)
    idx = np.arange(n)
    report([f"identity row: mul[1][{j + 1}] = {int(mul[0, j]) + 1}, expected {j + 1}"
            for j in np.nonzero(mul[0] != idx)[0]])
    report([f"identity column: mul[{i + 1}][1] = {int(mul[i, 0]) + 1}, expected {i + 1}"
            for i in np.nonzero(mul[:, 0] != idx)[0]])
    report([f"row {i + 1} is not a permutation of 1..{n}"
            for i in np.nonzero((np.sort(mul, axis=1) != idx).any(axis=1))[0]])
    report([f"column {j + 1} is not a permutation of 1..{n}"
            for j in np.nonzero((np.sort(mul, axis=0) != idx[:, None]).any(axis=0))[0]])
    is_id = mul == 0
    bad_inv = (is_id.sum(axis=1) != 1) | (is_id != is_id.T).any(axis=1)
    report([f"element {i + 1} has no two-sided inverse" for i in np.nonzero(bad_inv)[0]])
    if level == "full":
        for i in range(n):
            left = mul[mul[i], :]   # (g_i g_j) g_k
            right = mul[i, mul]     # g_i (g_j g_k)
            bad = np.argwhere(left != right)
            msgs = [f"associativity fails at ({i + 1},{int(j) + 1},{int(k) + 1})"
                    for j, k in bad[:_MAX_VIOLATIONS]]
            report(msgs, count=bad.shape[0])
    return ValidationReport(level, out, total)


class Group:
    """Finite group of order n: mul[i, j] indexes g_i g_j, inv[i] indexes g_i^{-1}."""

    __slots__ = ("n", "labels", "mul", "inv", "name", "_commutative", "_route")

    def __init__(self, labels, mul, name: str):
        mul = np.asarray(mul, dtype=np.int64)
        n = mul.shape[0] if mul.ndim == 2 else 0
        if mul.ndim != 2 or mul.shape != (n, n) or n < 1:
            raise SpecError(f"multiplication table must be square, got {mul.shape}")
        _check_order(n)
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise SpecError(f"expected {n} labels, got {len(labels)}")
        report = validate_table(mul, "fast")
        if not report.ok:
            raise SpecError("invalid group table:\n" + "\n".join(report.violations))
        self.n = n
        self.labels = labels
        self.mul = mul
        self.name = name
        self.inv = np.argmax(mul == 0, axis=1)
        self._commutative = None
        self._route = None  # largest cycle or coset index, detected on first use (dimension._route)

    @property
    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = bool(np.array_equal(self.mul, self.mul.T))
        return self._commutative

    def compatible(self, other: "Group") -> bool:
        return self is other or (self.n == other.n
                                 and np.array_equal(self.mul, other.mul))

    def __repr__(self):
        return f"Group({self.name!r}, n={self.n})"


def validate_group(g: Group, level: str = "fast") -> ValidationReport:
    return validate_table(g.mul, level)


# -- constructors --

def _cyclic(n: int) -> Group:
    if n < 1:
        raise SpecError(f"cyclic group order must be >= 1, got {n}")
    _check_order(n)
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return Group(labels, mul, f"cyclic:{n}")


def _dihedral(n: int) -> Group:
    # order 2n: index = flip*n + rot; (a,i)(b,j) = (a xor b, (i*(-1)^b + j) mod n)
    if n < 2:
        raise SpecError(f"dihedral parameter must be >= 2, got {n}")
    _check_order(2 * n)
    flips = np.arange(2 * n) // n
    rots = np.arange(2 * n) % n
    a, i = flips[:, None], rots[:, None]
    b, j = flips[None, :], rots[None, :]
    sign = 1 - 2 * b
    mul = (a ^ b) * n + (i * sign + j) % n
    rot_labels = ["1"] + [f"r^{k}" if k > 1 else "r" for k in range(1, n)]
    ref_labels = ["s"] + [f"sr^{k}" if k > 1 else "sr" for k in range(1, n)]
    return Group(rot_labels + ref_labels, mul, f"dihedral:{n}")


def _symmetric(k: int) -> Group:
    if not 2 <= k <= 7:  # 8! = 40320 is beyond ORDER_CAP
        raise SpecError(f"symmetric group parameter must be in 2..7, got {k}")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    n = len(perms)
    radix = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = perms @ radix  # ascending, since rows are in lex order
    mul = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        composed = perms[:, perms[i]]  # row j = perm_j(perm_i(x)): apply i then j
        mul[i] = np.searchsorted(codes, composed @ radix)
    labels = [_perm_label(p) for p in perms]
    return Group(labels, mul, f"symmetric:{k}")


def _perm_label(p) -> str:
    return "[" + ",".join(str(int(x) + 1) for x in p) + "]"


def _product_of(ga: Group, gb: Group) -> Group:
    n = ga.n * gb.n
    _check_order(n)
    flat = np.arange(n)
    ia = flat % ga.n
    jb = flat // ga.n
    mul = ga.mul[ia[:, None], ia[None, :]] + ga.n * gb.mul[jb[:, None], jb[None, :]]
    labels = [f"({ga.labels[a]},{gb.labels[b]})"
              for b in range(gb.n) for a in range(ga.n)]
    return Group(labels, mul, f"product:{ga.name},{gb.name}")


def compose_perms(p, q) -> tuple:
    """Left-to-right composition: apply p, then q."""
    return tuple(q[x] for x in p)


def closure_from_generators(n_points: int, generators, cap: int = ORDER_CAP) -> Group:
    """Breadth-first closure of 0-based permutation generators.

    Element order is BFS discovery order with the identity first, scanning
    generators in the given order; deterministic.  A cap that is not an int in
    1..ORDER_CAP is refused before the search starts.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or not 1 <= cap <= ORDER_CAP:
        raise SpecError(f"cap must be an int in 1..{ORDER_CAP}, got {cap!r}")
    if n_points < 1:
        raise SpecError(f"need at least one point, got {n_points}")
    gens = []
    for g in generators:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(n_points)):
            raise SpecError(f"not a permutation of 0..{n_points - 1}: {list(g)!r}")
        gens.append(t)
    if not gens:
        raise SpecError("at least one generator is required")
    ident = tuple(range(n_points))
    index = {ident: 0}
    elems = [ident]
    head = 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = compose_perms(x, g)
            if y not in index:
                if len(elems) >= cap:
                    raise SpecError(f"closure exceeds the order cap {cap}")
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)
    mul = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        mul[i] = [index[compose_perms(x, y)] for y in elems]
    labels = [_perm_label(p) for p in elems]
    return Group(labels, mul, f"perm-closure:{n_points}pts,{len(gens)}gens")


# -- file formats --

def cayley_to_text(g: Group) -> str:
    lines = [str(g.n), " ".join(g.labels)]
    for row in g.mul:
        lines.append(" ".join(str(int(x) + 1) for x in row))
    return "\n".join(lines) + "\n"


def group_from_cayley_text(text: str, name: str) -> Group:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SpecError("cayley text needs a size line and a label line")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise SpecError(f"bad group size line {lines[0]!r}") from None
    if n < 1:
        raise SpecError(f"group size must be >= 1, got {n}")
    _check_order(n)
    labels = lines[1].split()
    if len(labels) != n:
        raise SpecError(f"expected {n} labels, got {len(labels)}")
    if len(lines) != 2 + n:
        raise SpecError(f"expected {n} table rows, got {len(lines) - 2}")
    mul = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        toks = lines[2 + i].split()
        if len(toks) != n:
            raise SpecError(f"table row {i + 1} has {len(toks)} entries, expected {n}")
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise SpecError(f"non-integer entry in table row {i + 1}") from None
        if any(x < 1 or x > n for x in row):
            raise SpecError(f"table row {i + 1} has entries outside 1..{n}")
        mul[i] = np.array(row) - 1
    return Group(labels, mul, name)


def load_cayley_file(path: str) -> Group:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError(f"cannot read cayley file {path!r}: {e}") from None
    return group_from_cayley_text(text, f"cayley:{path}")


def save_cayley_file(g: Group, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cayley_to_text(g))


def load_perm_file(path: str) -> Group:
    """Permutation group from a file: line 1 n_points, then one permutation
    per line in 1-based one-line notation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as e:
        raise SpecError(f"cannot read perm file {path!r}: {e}") from None
    if not lines:
        raise SpecError(f"perm file {path!r} is empty")
    try:
        n_points = int(lines[0].strip())
    except ValueError:
        raise SpecError(f"bad point count line {lines[0]!r}") from None
    gens = []
    for ln in lines[1:]:
        toks = ln.split()
        try:
            images = [int(t) - 1 for t in toks]
        except ValueError:
            raise SpecError(f"non-integer image in permutation line {ln!r}") from None
        gens.append(images)
    if not gens:
        raise SpecError(f"perm file {path!r} lists no generators")
    return closure_from_generators(n_points, gens)


def make_group(spec: str) -> Group:
    """Build a group from a spec string.

    Accepted forms: cyclic:n, dihedral:n, symmetric:n, product:<spec>,<spec>,
    cayley:<path>, perm:<path>.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise SpecError(f"bad group spec {spec!r}")
    kind, rest = spec.split(":", 1)
    if kind in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(rest)
        except ValueError:
            raise SpecError(f"bad group parameter {rest!r} in spec {spec!r}") from None
        if kind == "cyclic":
            return _cyclic(n)
        if kind == "dihedral":
            return _dihedral(n)
        return _symmetric(n)
    if kind == "product":
        pos = -1
        while True:
            pos = rest.find(",", pos + 1)
            if pos < 0:
                break
            try:
                ga = make_group(rest[:pos])
                gb = make_group(rest[pos + 1:])
            except SpecError:
                continue
            return _product_of(ga, gb)
        raise SpecError(f"bad product spec {spec!r}: no valid factor split found")
    if kind == "cayley":
        return load_cayley_file(rest)
    if kind == "perm":
        return load_perm_file(rest)
    raise SpecError(f"unknown group kind {kind!r} in spec {spec!r}")
