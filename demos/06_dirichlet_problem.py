"""
The Dirichlet problem on finite truncations
===========================================

Between horocycle levels -n and n the graph is a finite chain with two
absorbing boundary slabs.  Exit probabilities are exact rationals, factor
through the two tree coordinates, and split every harmonic function into
two one-sided summands.
"""

from fractions import Fraction

from dl_harmonics.dirichlet import (
    build_truncation,
    decompose,
    hitting_table,
    represent,
    verify_product_formula,
)
from dl_harmonics.dl_graph import DLParams, origin

p = DLParams(2, 2)
alpha = Fraction(1, 2)

chain = build_truncation(1, p, alpha, "dl")
print(
    "stage-1 chain: %d vertices = %d boundary + %d interior"
    % (len(chain.vertices), len(chain.boundary), len(chain.interior))
)

# the hitting table row at the origin is its harmonic measure
table = hitting_table(chain)
o = origin(p)
for y in chain.boundary:
    val = table.value(o, y)
    if val:
        print("exit mass", val, "at", y)

# every exit probability is a product of two one-tree factors
rep = verify_product_formula(chain)
print("product identities checked:", rep.checked, " discrepancies:", len(rep.discrepancies))

# solve with data 1 on the upper slab, 0 on the lower
data = {y: Fraction(int(y.x1.level == chain.n)) for y in chain.boundary}
sol = represent(chain, data)
print("harmonic measure of the upper slab at o:", sol[o])

# split a harmonic function into summands depending on one coordinate each
dec = decompose(lambda v: Fraction(1), 1, p, alpha)
print("the constant 1 splits at o as", dec.h1[o.x1], "+", dec.h2[o.x2])
