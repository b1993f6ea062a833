"""Properties of the dimension methods, checked on drawn ideals.

Hypothesis draws (group, field, element) from the catalogue up to order 24;
two of three elements are the zero divisors (1 - t) r and (sum of <t>) r,
whose ideals are proper.  Every method must agree with dim_ideal: exact
Mulmuley equals it, randomized Mulmuley never exceeds it, and the charpoly
bound's [lower, upper] contains it.  On a commutative group the undoubled
symbolic charpoly of X_1 F, X_1 = diag(1, x, ..., x^{n-1}), already has
z-valuation n - dim.
"""

from hypothesis import given, settings, strategies as st

from groupalg.dimension import IdealSpec, dim_bound_charpoly, dim_ideal, \
    dim_mulmuley_exact, dim_mulmuley_random
from groupalg.linalg import charpoly_xm
from groupalg.representation import side_matrix

from test_routes import _elements

GROUPS = tuple(f"cyclic:{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24)) + tuple(
    f"dihedral:{m}" for m in (2, 3, 4, 5, 6, 8, 12)) + (
    "symmetric:3", "symmetric:4", "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4",
    "product:cyclic:3,cyclic:3", "product:cyclic:2,cyclic:6", "product:cyclic:2,symmetric:3",
    "product:cyclic:2,cyclic:12", "product:cyclic:2,product:cyclic:2,cyclic:2")
# the symbolic charpoly interpolates at n(n-1)/2 + 1 nodes: 0.5-0.9 s at n = 24
COMMUTATIVE = tuple(g for g in GROUPS if g.startswith("cyclic:") and int(g[7:]) <= 16) + (
    "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4", "product:cyclic:3,cyclic:3",
    "product:cyclic:2,cyclic:6", "product:cyclic:2,product:cyclic:2,cyclic:2")
SIDES = st.sampled_from(("left", "right"))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.sampled_from(GROUPS).flatmap(lambda g: _elements(g, 1)), SIDES)
def test_mulmuley_and_bound_agree_with_the_dimension(elems, side):
    f, n = elems[0], elems[0].group.n
    d = dim_ideal(IdealSpec(side, (f,)))
    assert dim_mulmuley_exact(f, side) == d
    assert dim_mulmuley_random(f, side) <= d
    bound = dim_bound_charpoly(f, side)
    assert bound.lower <= d <= bound.upper <= n
    assert not bound.exact or bound.lower == d


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(st.sampled_from(COMMUTATIVE).flatmap(lambda g: _elements(g, 1)), SIDES)
def test_undoubled_valuation_reads_the_dimension_on_commutative_groups(elems, side):
    f = elems[0]
    assert f.group.is_commutative
    d = dim_ideal(IdealSpec(side, (f,)))
    xc = charpoly_xm(side_matrix(f, side))
    assert (xc.size, xc.k) == (f.group.n, f.group.n - d)
