"""Exact harmonic analysis on horocyclic products of homogeneous trees.

The package models the Diestel-Leader graphs DL(q, r) (and their
sibling-augmented switch-walk-switch variant), the lamplighter groups
Z_q wr Z acting on DL(q, q), the drifted simple random walks on all of them,
their Martin kernels at the tree boundaries in closed rational form, and
exact Dirichlet solves on finite truncations, including the two-sided
splitting of harmonic functions.

All probabilistic quantities are exact ``fractions.Fraction`` values unless
a function is explicitly an estimator.
"""

from .tree import (
    OMEGA,
    ROOT,
    TreeEnd,
    TreeVertex,
    busemann_wrt_end,
    confluent_omega,
    confluent_omega_end,
    confluent_root,
    distance,
    geodesic,
    neighbours,
    predecessor,
    shift,
    successor,
)
from .dl_graph import (
    DLParams,
    DLVertex,
    dl_neighbours,
    dls_neighbours,
    factor_map,
    origin,
)
from .lamplighter import (
    BoundaryConfig,
    GeneratorModel,
    GroupElement,
    cayley_neighbours,
    decode,
    defect_minus,
    defect_oplus,
    defect_plus,
    encode,
    generators,
    inverse,
    multiply,
)
from .kernels import (
    HarmonicFunction,
    KernelSpec,
    combine,
    defect_kernel,
    drift_kernel,
    f_minus,
    f_plus,
    lift,
    martin_kernel_tree,
    minimal_kernel,
    rho_squared,
    tree_hitting_prob,
)
from .walks import (
    DLWalk,
    EstimateResult,
    SiblingWalk,
    Trajectory,
    TreeWalk,
    apply,
    conjugate,
    estimate_f,
    is_harmonic_at,
    p1_walk,
    p2_walk,
    project,
    simulate,
)
from .dirichlet import (
    Decomposition,
    FiniteChain,
    HittingTable,
    TruncationStage,
    build_truncation,
    decompose,
    hitting_table,
    kernel_approx,
    represent,
    restricted_hitting,
    verify_product_formula,
)

__version__ = "0.1.0"
