"""
Kernel approximation across truncation stages
=============================================

Ratios of truncated hitting probabilities approach the Martin kernel as
the truncation grows: geometrically under drift, like 1/n without it.
"""

from fractions import Fraction

from dl_harmonics.dirichlet import FiniteChain, kernel_approx
from dl_harmonics.dl_graph import DLParams
from dl_harmonics.kernels import martin_kernel_tree
from dl_harmonics.tree import TreeEnd, TreeVertex

p = DLParams(2, 2)
x = TreeVertex.make(1, {1: 1})
xi = TreeEnd.word({1: 1})

for alpha in (Fraction(1, 3), Fraction(1, 2)):
    limit = martin_kernel_tree(1, x, xi, alpha, p)
    print("alpha = %s   K(x, xi) = %s" % (alpha, limit))
    for n in (2, 4, 6, 8):
        approx = kernel_approx(FiniteChain("tree1", n, p, alpha), x, xi)
        print("  stage %d: %-12s error %.6f" % (n, approx, abs(float(approx - limit))))
