"""Walk through the order-6 worked example from the self-test fixtures.

Everything here is exact arithmetic over GF(5); run it top to bottom with
`python3 demos/worked_example.py` from the repository root.
"""

from groupalg import (AlgebraElem, IdealSpec, charpoly, dim_bound_charpoly,
                      dim_ideal, idempotent_generator, load_cayley_file,
                      parse_field_spec, rho_matrix)

# the shipped Cayley file fixes the element order 1, (12), (13), (23), (123), (132)
group = load_cayley_file("src/groupalg/data/s3_paper.cayley")
field = parse_field_spec("gf:5")
print("group:", group.name, "order", group.n)
print("labels:", " ".join(group.labels))

# f = 1 + (12)
f = AlgebraElem(field, group, (1, 1, 0, 0, 0, 0))
print("\nf =", f)

# the right-regular matrix: row i holds the coefficients of g_i * f
mat = rho_matrix(f)
print("\nrho(f) =")
print(mat.to_text().rstrip())

# char poly z^3 (z-2)^3: the z-adic valuation k = 3 bounds the dimension
cp = charpoly(mat)
print("\ncharpoly coefficients (low to high):", cp.to_text())
bound = dim_bound_charpoly(f)
print(f"k = {bound.k}, so dim is between {bound.lower} and {bound.upper}")

# the rank path gives the exact dimension
dim = dim_ideal(IdealSpec("left", (f,)))
print("dim of the left ideal A*f =", dim)

# the ideal has an idempotent generator, and it is 3*f
e = idempotent_generator(f, "left")
print("\nidempotent generator e =", e)
print("e*e == e:", e * e == e)
print("f*e == f:", f * e == f)
print("same ideal:", dim_ideal(IdealSpec("left", (e,))) == dim)
