"""Built-in fixture suite: the worked examples, checked end to end.

Each fixture pins published values (matrices, characteristic polynomials,
dimensions, idempotents) for small groups, so a fresh install can confirm
that conventions (element order, composition direction, canonical solving)
match the reference examples bit for bit.  Run via `groupalg selftest`.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .algebra import AlgebraElem
from .dimension import IdealSpec, dim_bound_charpoly, dim_ideal, ideal_membership, \
    idempotent_generator
from .field import make_field
from .groups import group_from_cayley_text, make_group, validate_group
from .linalg import charpoly, rank
from .poly import FPoly
from .representation import rho_matrix, stack

# S_3 in the reference order 1, (12), (13), (23), (123), (132); coefficient
# vectors of the named ideal generators (negatives are reduced per field)
S3_I1 = (1, 1, 1, 1, 1, 1)
S3_I2 = (1, -1, -1, -1, 1, 1)
S3_I3 = (2, 0, 0, 0, -1, -1)
S3_I3_CHAR3 = (1, 0, 0, 0, 1, 1)
S3_J1 = (1, 1, 0, -1, -1, 0)
S3_J2 = (1, -1, 0, 1, 0, -1)
S3_I3_PARTS = ((1, 0, 0, 0, -1, 0), (0, 1, 0, -1, 0, 0),
               (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1))


def _check(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _read_fixture_text() -> str:
    return resources.files("groupalg").joinpath("data/s3_paper.cayley") \
        .read_text(encoding="utf-8")


def paper_s3_group():
    """S_3 with the reference element order (from the packaged Cayley file)."""
    return group_from_cayley_text(_read_fixture_text(), name="s3-paper")


def _elem(field, group, coeffs) -> AlgebraElem:
    return AlgebraElem(field, group, [c % field.p for c in coeffs])


def _dim1(f: AlgebraElem) -> int:
    return dim_ideal(IdealSpec(side="left", generators=(f,)))


def fixture_klein_char2() -> None:
    """K_4 over F_2: rho pattern, charpoly (z+s)^4, rank classification."""
    f2 = make_field(2)
    k4 = make_group("product:cyclic:2,cyclic:2")
    for enc in range(16):
        a, b, c, d = ((enc >> i) & 1 for i in range(4))
        f = AlgebraElem(f2, k4, (a, b, c, d))
        mat = rho_matrix(f)
        want = np.array([[a, b, c, d], [b, a, d, c], [c, d, a, b], [d, c, b, a]])
        _check(np.array_equal(mat.data, want), f"rho pattern broken at {enc}")
        s = (a + b + c + d) % 2
        _check(charpoly(mat) == FPoly(f2, (s, 0, 0, 0, 1)),
               f"charpoly != (z+s)^4 at {enc}")
        weight = a + b + c + d
        if weight == 0:
            expect = 0
        elif s == 1:
            expect = 4
        elif a == b == c == d:
            expect = 1
        else:
            expect = 2
        _check(rank(mat) == expect, f"rank classification broken at {enc}")


def fixture_klein_char5() -> None:
    """K_4 over F_5: dim equals the number of nonzero diagonal forms."""
    f5 = make_field(5)
    k4 = make_group("product:cyclic:2,cyclic:2")
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    forms = ((a + b + c + d) % 5, (a - b - c + d) % 5,
                             (a + b - c - d) % 5, (a - b + c - d) % 5)
                    expect = sum(1 for v in forms if v)
                    f = AlgebraElem(f5, k4, (a, b, c, d))
                    _check(_dim1(f) == expect,
                           f"diagonal-form dim broken at {(a, b, c, d)}")


def fixture_s3_gf5_remark() -> None:
    """F_5[S_3], f = 1+(12): pinned matrix, charpoly z^3(z-2)^3, dim 3."""
    f5 = make_field(5)
    s3 = paper_s3_group()
    f = _elem(f5, s3, (1, 1, 0, 0, 0, 0))
    want = np.array([[1, 1, 0, 0, 0, 0],
                     [1, 1, 0, 0, 0, 0],
                     [0, 0, 1, 0, 0, 1],
                     [0, 0, 0, 1, 1, 0],
                     [0, 0, 0, 1, 1, 0],
                     [0, 0, 1, 0, 0, 1]])
    _check(np.array_equal(rho_matrix(f).data, want), "rho(1+(12)) mismatch")
    # z^3 (z-2)^3 = z^6 + 4z^5 + 2z^4 + 2z^3 over F_5
    _check(charpoly(rho_matrix(f)) == FPoly(f5, (0, 0, 0, 2, 2, 4, 1)),
           "charpoly != z^3(z-2)^3")
    _check(f * f == f.scale(2), "f^2 != 2f")
    _check(_dim1(f) == 3, "dim of A(1+(12)) != 3")


def fixture_s3_gf5_idempotent() -> None:
    """F_5[S_3], f = 1+(12): idempotent generator e = 3f, bounds exact."""
    f5 = make_field(5)
    s3 = paper_s3_group()
    f = _elem(f5, s3, (1, 1, 0, 0, 0, 0))
    e = idempotent_generator(f, side="left")
    _check(e is not None and np.array_equal(e.coeffs, [3, 3, 0, 0, 0, 0]),
           f"idempotent generator is {e!r}, expected 3+3(12)")
    _check(e.is_idempotent(), "e^2 != e")
    _check(f * e == f, "f*e != f")
    b = dim_bound_charpoly(e, side="left")
    _check((b.lower, b.exact) == (3, True), "bound on 3f not exact at 3")


def fixture_s3_gf5_ideals() -> None:
    """F_5[S_3]: dims of I_1, I_2, I_3, J_1, J_2 are 1, 1, 4, 2, 2."""
    f5 = make_field(5)
    s3 = paper_s3_group()
    dims = [_dim1(_elem(f5, s3, v)) for v in (S3_I1, S3_I2, S3_I3, S3_J1, S3_J2)]
    _check(dims == [1, 1, 4, 2, 2], f"ideal dims {dims} != [1, 1, 4, 2, 2]")
    _check(dims[0] + dims[1] + dims[2] == s3.n, "I_1+I_2+I_3 does not fill A")
    parts = [_elem(f5, s3, v) for v in S3_I3_PARTS]
    _check(rank(stack(parts, "left")) == 4, "four-generator form of I_3 not rank 4")
    halves = [_elem(f5, s3, v) for v in (S3_J1, S3_J2)]
    _check(rank(stack(halves, "left")) == 4, "J_1 + J_2 does not span I_3")


def fixture_s3_gf2() -> None:
    """F_2[S_3]: I_1 = I_2, dims 1, 4, 2, 2 for I_1, I_3, J_1, J_2."""
    f2 = make_field(2)
    s3 = paper_s3_group()
    i1 = _elem(f2, s3, S3_I1)
    i2 = _elem(f2, s3, S3_I2)
    _check(ideal_membership(i1, IdealSpec("left", (i2,))), "I_1 not inside I_2")
    _check(ideal_membership(i2, IdealSpec("left", (i1,))), "I_2 not inside I_1")
    dims = [_dim1(_elem(f2, s3, v)) for v in (S3_I1, S3_I3, S3_J1, S3_J2)]
    _check(dims == [1, 4, 2, 2], f"char-2 dims {dims} != [1, 4, 2, 2]")


def fixture_s3_gf3() -> None:
    """F_3[S_3]: dims 1, 1, 2 and I_1, I_2 inside I_3."""
    f3 = make_field(3)
    s3 = paper_s3_group()
    i1 = _elem(f3, s3, S3_I1)
    i2 = _elem(f3, s3, S3_I2)
    i3 = _elem(f3, s3, S3_I3_CHAR3)
    _check([_dim1(v) for v in (i1, i2, i3)] == [1, 1, 2],
           "char-3 dims != [1, 1, 2]")
    spec3 = IdealSpec("left", (i3,))
    _check(ideal_membership(i1, spec3), "I_1 not inside I_3")
    _check(ideal_membership(i2, spec3), "I_2 not inside I_3")


def fixture_cyclic_block() -> None:
    """C_6, f = 1+g^3: charpoly z^3(z-2)^3; over F_2 it is z^6 yet dim 3."""
    c6 = make_group("cyclic:6")
    f5 = make_field(5)
    f = AlgebraElem(f5, c6, (1, 0, 0, 1, 0, 0))
    b = dim_bound_charpoly(f, side="left")
    _check(b.charpoly == FPoly(f5, (0, 0, 0, 2, 2, 4, 1)),
           "gf:5 charpoly != z^3(z-2)^3")
    _check((b.k, b.lower) == (3, 3), "gf:5 k/lower mismatch")
    _check(_dim1(f) == 3, "gf:5 dim != 3")
    f2 = make_field(2)
    f = AlgebraElem(f2, c6, (1, 0, 0, 1, 0, 0))
    b = dim_bound_charpoly(f, side="left")
    _check(b.charpoly == FPoly(f2, (0, 0, 0, 0, 0, 0, 1)), "gf:2 charpoly != z^6")
    _check((b.k, b.lower) == (6, 0), "gf:2 k/lower mismatch")
    _check(_dim1(f) == 3, "gf:2 dim != 3 (rank exceeds the n-k bound)")


def fixture_cayley_file() -> None:
    """Packaged S_3 Cayley file: loads, validates fully, right order/labels."""
    s3 = paper_s3_group()
    _check(s3.n == 6, "order != 6")
    _check(s3.labels == ("1", "(12)", "(13)", "(23)", "(123)", "(132)"),
           f"labels {s3.labels} differ from the reference order")
    report = validate_group(s3, level="full")
    _check(report.ok, "full validation failed:\n" + "\n".join(report.violations))
    _check(not s3.is_commutative, "S_3 must not be commutative")
    # (12).(13) = (123) and (123).(132) = 1 pin the composition direction
    _check(int(s3.mul[1, 2]) == 4, "(12)(13) != (123)")
    _check(int(s3.mul[4, 5]) == 0, "(123)(132) != 1")


FIXTURES = (
    ("klein-char2", fixture_klein_char2),
    ("klein-char5", fixture_klein_char5),
    ("s3-gf5-remark", fixture_s3_gf5_remark),
    ("s3-gf5-idempotent", fixture_s3_gf5_idempotent),
    ("s3-gf5-ideals", fixture_s3_gf5_ideals),
    ("s3-gf2", fixture_s3_gf2),
    ("s3-gf3", fixture_s3_gf3),
    ("cyclic-block", fixture_cyclic_block),
    ("s3-cayley-file", fixture_cayley_file),
)


def run_selftest(name_filter: str | None = None) -> list:
    """Run (filtered) fixtures; returns (name, ok, detail) triples."""
    results = []
    for name, fn in FIXTURES:
        if name_filter and name_filter not in name:
            continue
        try:
            fn()
            results.append((name, True, ""))
        except Exception as e:  # report, never abort the suite
            results.append((name, False, f"{type(e).__name__}: {e}"))
    return results
