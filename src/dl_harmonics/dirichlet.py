"""Finite truncations, exact Dirichlet solves, and the two-sided splitting.

The stage-``n`` truncation of the product graph is the horocyclic product of
two rooted subtrees of height ``2n``: the first-tree part ``S1`` hangs below
the apex ``a1`` (the all-zero vertex at level ``-n``) and reaches up to its
leaves at level ``n``; ``S2`` mirrors it in the second tree.  The product
``S = {x1 x2 : x1 in S1, x2 in S2, level sum 0}`` has boundary

    (leaves of S1) x {a2}   union   {a1} x (leaves of S2),

which coincides (asserted at build time) with the one-step exit set of the
product walk.  Sizes: ``|S| = sum_{k=-n}^{n} q^{n+k} r^{n-k}`` and
``|bd S| = q^{2n} + r^{2n}``.

``hitting_table`` solves the boundary-hitting system exactly: unknowns are the
interior values of ``F(., y)`` for every boundary ``y`` at once.  Rows are
scaled to integers and eliminated modulo 31-bit primes (vectorised int64
Gauss-Jordan); the residues are combined by CRT and rational reconstruction
(Wang) turns them into fractions.  A table is accepted only when it passes
the exact integer check against the sparse defining equations (Kronecker
boundary rows, unit row sums, residual identically zero); otherwise another
prime is added, up to Hadamard's bound, beyond which the reconstruction is
unique.

On a single tree the same probabilities factor over geodesic edges.  The
per-level factors obey scalar recursions (``d_k``: reach the predecessor from
level ``k`` before the boundary, ``u_k``: reach one fixed successor)::

    d_n = 0,      d_k = (1-a) / (1 - a d_{k+1})
    u_{-n} = 0,   u_k = (a/q) / (1 - (1-a) u_{k-1} - a (q-1)/q d_{k+1})

so tree tables, the product-formula cross-check, the finite splitting
``h = h1 + h2``, and the stage-``n`` kernel approximants all come out in
closed form with no matrix solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import gcd, isqrt, lcm, prod
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .dl_graph import DLParams, DLVertex
from .tree import ROOT, TreeEnd, TreeVertex, confluent_omega, predecessor, successor
from .walks import DLWalk, TreeWalk, apply as _apply_op, p1_walk, p2_walk

__all__ = [
    "FiniteChain",
    "TruncationStage",
    "HittingTable",
    "ProductReport",
    "Decomposition",
    "build_truncation",
    "hitting_table",
    "closed_tree_table",
    "edge_factors",
    "restricted_hitting",
    "verify_product_formula",
    "represent",
    "decompose",
    "kernel_approx",
    "exact_rank",
]


@dataclass(frozen=True)
class FiniteChain:
    """A finite vertex set with marked boundary, ready for exact solves."""

    kind: str  # "dl", "tree1" or "tree2"
    n: int
    params: DLParams
    alpha: Fraction
    vertices: tuple
    boundary: tuple
    interior: tuple
    a1: TreeVertex
    a2: TreeVertex

    @property
    def index(self) -> dict:
        """Position of each vertex in ``vertices``, built on first use."""
        cache = self.__dict__
        if "_index" not in cache:
            cache["_index"] = {v: i for i, v in enumerate(self.vertices)}
        return cache["_index"]


@dataclass(frozen=True)
class TruncationStage:
    """Symbolic stage-``n`` tree truncation (no vertex enumeration).

    The closed-form route (``kernel_approx``, ``restricted_hitting``) only
    needs the stage parameters, so deep stages stay cheap even where the
    full vertex set would be astronomically large.
    """

    kind: str  # "tree1" or "tree2"
    n: int
    params: DLParams
    alpha: Fraction


def _tree_levels(n: int, branch: int) -> dict[int, list[TreeVertex]]:
    """Vertices of the height-2n rooted subtree, grouped by level."""
    levels = {-n: [TreeVertex(-n, ())]}
    for k in range(-n + 1, n + 1):
        layer = []
        for v in levels[k - 1]:
            for l in range(branch):
                layer.append(successor(v, l, branch))
        levels[k] = layer
    return levels


def default_operator(chain: FiniteChain):
    if chain.kind == "dl":
        return DLWalk(chain.params, chain.alpha)
    if chain.kind == "tree1":
        return p1_walk(chain.params, chain.alpha)
    if chain.kind == "tree2":
        return p2_walk(chain.params, chain.alpha)
    raise ValueError(f"unknown chain kind {chain.kind!r}")


def build_truncation(
    n: int,
    params: DLParams,
    alpha: Fraction,
    kind: str = "dl",
    max_size: int = 500_000,
) -> FiniteChain:
    """Enumerate the stage-``n`` truncation and mark its boundary.

    The boundary is computed from the walk (positive one-step exit
    probability) and asserted to coincide with the two-leaf-set description.
    """
    if n < 1:
        raise ValueError("truncation stage must be >= 1")
    alpha = Fraction(alpha)
    q, r = params.q, params.r
    a1 = TreeVertex(-n, ())
    a2 = TreeVertex(-n, ())

    if kind == "dl":
        size = sum(q ** (n + k) * r ** (n - k) for k in range(-n, n + 1))
    elif kind == "tree1":
        size = sum(q ** (n + k) for k in range(-n, n + 1))
    elif kind == "tree2":
        size = sum(r ** (n + k) for k in range(-n, n + 1))
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    if size > max_size:
        raise ValueError(f"truncation would have {size} vertices (cap {max_size})")

    if kind == "dl":
        lv1 = _tree_levels(n, q)
        lv2 = _tree_levels(n, r)
        vertices = []
        for k in range(-n, n + 1):
            for x1, x2 in _cartesian(lv1[k], lv2[-k]):
                vertices.append(DLVertex(x1, x2))
        in_set = set(vertices)
        formula_boundary = {
            DLVertex(x1, a2) for x1 in lv1[n]
        } | {DLVertex(a1, x2) for x2 in lv2[n]}
        op = DLWalk(params, alpha)
        level_of = lambda v: v.x1.level
    else:
        branch = q if kind == "tree1" else r
        lv = _tree_levels(n, branch)
        vertices = [v for k in range(-n, n + 1) for v in lv[k]]
        in_set = set(vertices)
        formula_boundary = {a1} | set(lv[n])
        op = p1_walk(params, alpha) if kind == "tree1" else p2_walk(params, alpha)
        level_of = lambda v: v.level

    walk_boundary = set()
    for v in vertices:
        if level_of(v) in (-n, n):
            if any(w not in in_set for w, _ in op.transitions(v)):
                walk_boundary.add(v)
        # interior levels never exit: their tree neighbours stay within range
    if walk_boundary != formula_boundary:
        raise AssertionError("walk exit set differs from the two-leaf-set boundary")

    boundary = tuple(v for v in vertices if v in formula_boundary)
    interior = tuple(v for v in vertices if v not in formula_boundary)
    return FiniteChain(
        kind, n, params, alpha, tuple(vertices), boundary, interior, a1, a2
    )


@dataclass(frozen=True)
class HittingTable:
    """Exact table ``F[x][y]`` of boundary-hitting probabilities."""

    chain: FiniteChain
    rows: tuple  # rows[i][b] over chain.vertices x chain.boundary

    @property
    def boundary_index(self) -> dict:
        """Column of each boundary vertex, built on first use."""
        cache = self.__dict__
        if "_boundary_index" not in cache:
            cache["_boundary_index"] = {y: b for b, y in enumerate(self.chain.boundary)}
        return cache["_boundary_index"]

    def value(self, x, y) -> Fraction:
        return self.rows[self.chain.index[x]][self.boundary_index[y]]


# Moduli of the multi-modular solve: the largest primes below 2**31, so that
# the product of two residues fits in an int64.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579,
    2147483563, 2147483549, 2147483543, 2147483497,
)


def _moduli():
    """The hard-coded primes, then ever smaller primes by trial division."""
    yield from _PRIMES
    p = _PRIMES[-1]
    while True:
        p -= 2
        if all(p % f for f in range(3, isqrt(p) + 1, 2)):
            yield p


def _eliminate(aug: np.ndarray, m: int, p: int):
    """Gauss-Jordan on ``[A | B]`` (residues mod ``p``, reduced in place).

    Returns ``A^-1 B mod p``, or None when a column has no nonzero pivot,
    i.e. when ``p`` divides ``det A``.  Products of two residues stay below
    2**62, so every step is exact in int64.
    """
    for k in range(m):
        nz = np.flatnonzero(aug[k:, k])
        if not nz.size:
            return None
        if nz[0]:
            aug[[k, k + nz[0]]] = aug[[k + nz[0], k]]
        aug[k, k:] = aug[k, k:] * pow(int(aug[k, k]), -1, p) % p
        below = k + 1 + np.flatnonzero(aug[k + 1 :, k])
        if below.size:
            aug[below, k:] = (aug[below, k:] - aug[below, k, None] * aug[k, k:]) % p
    # The left block is now unit upper triangular: clear it column by column
    # from the right, carrying only the right-hand sides.
    for k in range(m - 1, 0, -1):
        above = np.flatnonzero(aug[:k, k])
        if above.size:
            aug[above, m:] = (aug[above, m:] - aug[above, k, None] * aug[k, m:]) % p
    return aug[:, m:]


def _denominator(x: int, modulus: int, bound: int) -> int | None:
    """Rational reconstruction (Wang): the denominator ``d <= bound`` of the
    fraction ``n / d`` with ``|n| <= bound`` congruent to ``x``, or None."""
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return abs(t1)


def _reconstruct(residues: np.ndarray, modulus: int):
    """Rationals congruent to ``residues``, each column over one common
    denominator, with numerators and denominators at most
    ``isqrt(modulus // 2)``; None when no such candidate exists."""
    bound = isqrt(modulus // 2)
    half = modulus // 2
    dens = np.ones(residues.shape[1], dtype=object)
    while True:
        nums = residues * dens % modulus
        nums = np.where(nums > half, nums - modulus, nums)
        big = (nums > bound) | (nums < -bound)
        cols = np.flatnonzero(big.any(axis=0))
        if not cols.size:
            return [[Fraction(n, d) for n, d in zip(row, dens)] for row in nums.tolist()]
        for b in cols:
            i = int(np.argmax(big[:, b]))
            e = _denominator(int(nums[i, b]) % modulus, modulus, bound)
            if e is None or dens[b] * e > bound:
                return None
            dens[b] *= e


def _modular_solve(system: list[dict[int, int]], m: int, nb: int, accept: Callable):
    """Solve ``A X = B`` exactly for an integer system given row by row:
    ``system[i][j]`` is entry ``j`` of row ``i`` of ``A | B`` (``A`` in the
    first ``m`` columns, ``B`` in the last ``nb``).

    ``X`` is eliminated modulo one prime after another, combined by CRT and
    reconstructed as rationals.  Each candidate goes to ``accept``, which
    returns the certified result or raises AssertionError; a rejected
    candidate, or a failed reconstruction, adds a prime, and a prime that
    divides ``det A`` is skipped.  Hadamard's bound caps the work: once the
    skipped primes multiply past ``|det A| <= prod_i |A_i|``, ``A`` is
    singular; once the used primes multiply past ``2 prod_i |(A | B)_i|^2``,
    which bounds every minor and hence every numerator and denominator of
    ``X``, the reconstruction is unique and a rejection is final.
    """
    rows = np.array([i for i, eq in enumerate(system) for _ in eq], dtype=np.intp)
    cols = np.array([j for eq in system for j in eq], dtype=np.intp)
    vals = np.array([v for eq in system for v in eq.values()], dtype=object)
    det_bound_sq = prod(sum(v * v for j, v in eq.items() if j < m) for eq in system)
    minor_bound_sq = prod(sum(v * v for v in eq.values()) for eq in system)
    modulus, residues, skipped = 1, None, 1
    for p in _moduli():
        aug = np.zeros((m, m + nb), dtype=np.int64)
        aug[rows, cols] = (vals % p).astype(np.int64)
        x = _eliminate(aug, m, p)
        if x is None:
            skipped *= p
            if skipped * skipped > det_bound_sq:
                raise ValueError("singular system")
            continue
        if residues is None:
            residues = x.astype(object)
        else:
            lift = (x - (residues % p).astype(np.int64)) % p * pow(modulus, -1, p) % p
            residues = residues + modulus * lift.astype(object)
        modulus *= p
        final = modulus // 2 >= minor_bound_sq
        candidate = _reconstruct(residues, modulus)
        if candidate is None:
            if final:
                raise AssertionError("rational reconstruction failed within the Hadamard bound")
            continue
        try:
            return accept(candidate)
        except AssertionError:
            if final:
                raise


def hitting_table(chain: FiniteChain, op=None) -> HittingTable:
    """Solve for all boundary columns at once and certify the solution.

    A table is accepted only when these postconditions hold exactly:
    boundary rows are Kronecker deltas, every row sums to 1, and the
    defining sparse equations hold with residual zero.
    """
    if op is None:
        op = default_operator(chain)
    index = chain.index
    nb = len(chain.boundary)
    b_index = {y: b for b, y in enumerate(chain.boundary)}
    interior = chain.interior
    i_index = {v: i for i, v in enumerate(interior)}
    m = len(interior)

    # Each interior row scaled to integers, ``denom F(v, .) = sum_w s F(w, .)``
    # over vertex positions (kept for verification), and as a row of A | B.
    scaled_rows: list[tuple[int, int, list[tuple[int, int]]]] = []
    system: list[dict[int, int]] = []
    for v in interior:
        row = []
        for w, p in op.transitions(v):
            j = index.get(w)
            if j is None:
                raise ValueError("operator leaves the chain from an interior vertex")
            row.append((j, p))
        denom = lcm(*(p.denominator for _, p in row))
        terms = [(j, p.numerator * (denom // p.denominator)) for j, p in row]
        scaled_rows.append((index[v], denom, terms))
        eq = {i_index[v]: denom}
        for j, s in terms:
            w = chain.vertices[j]
            if w in i_index:
                eq[i_index[w]] = eq.get(i_index[w], 0) - s
            else:
                eq[m + b_index[w]] = eq.get(m + b_index[w], 0) + s
        system.append(eq)

    one, zero = Fraction(1), Fraction(0)
    delta = {y: tuple(one if c == b else zero for c in range(nb)) for y, b in b_index.items()}

    def accept(x: list[list[Fraction]]) -> HittingTable:
        rows = tuple(
            delta[v] if v in delta else tuple(x[i_index[v]]) for v in chain.vertices
        )
        table = HittingTable(chain, rows)
        _verify_table(table, scaled_rows)
        return table

    return _modular_solve(system, m, nb, accept)


def _verify_table(table: HittingTable, scaled_rows) -> None:
    """Check the postconditions exactly, in integers: each boundary column
    goes over one common denominator, and rows are compared entry by entry."""
    chain = table.chain
    index = chain.index
    nums = np.array([[x.numerator for x in row] for row in table.rows], dtype=object)
    dens = np.array([[x.denominator for x in row] for row in table.rows], dtype=object)
    common = np.lcm.reduce(dens, axis=0)
    ints = nums * (common // dens)  # entry (x, b) times common[b]
    at_boundary = ints[[index[y] for y in chain.boundary]]
    if not (at_boundary == np.diag(common)).all():
        raise AssertionError("boundary rows of the hitting table are not Kronecker deltas")
    total = np.lcm.reduce(common)
    if not ((ints * (total // common)).sum(axis=1) == total).all():
        raise AssertionError("hitting probabilities of a row do not sum to 1")
    for v, denom, terms in scaled_rows:
        if not (sum(s * ints[j] for j, s in terms) == denom * ints[v]).all():
            raise AssertionError("exact residual of the Dirichlet solve is nonzero")


# ---------------------------------------------------------------------------
# Closed-form route on a single tree.


def _chain_rate(chain: FiniteChain) -> tuple[Fraction, int]:
    if chain.kind == "tree1":
        return chain.alpha, chain.params.q
    if chain.kind == "tree2":
        return 1 - chain.alpha, chain.params.r
    raise ValueError("closed-form factors live on tree chains")


def edge_factors(n: int, branch: int, up: Fraction) -> tuple[Mapping[int, Fraction], Mapping[int, Fraction]]:
    """Per-level edge probabilities inside the stage-``n`` tree truncation.

    ``d[k]``: from a level-``k`` vertex, reach its predecessor before the
    boundary (defined for ``-n < k <= n``); ``u[k]``: reach one fixed
    successor (defined for ``-n <= k < n``).  Both are read-only views of
    one cached result per ``(n, branch, up)``; ``up`` is made a Fraction
    first, so that equal rates (``"1/2"``, ``Fraction(1, 2)``) share one.
    """
    return _edge_factors(n, branch, Fraction(up))


@lru_cache(maxsize=256)
def _edge_factors(n: int, branch: int, up: Fraction):
    d: dict[int, Fraction] = {n: Fraction(0)}
    for k in range(n - 1, -n, -1):
        d[k] = (1 - up) / (1 - up * d[k + 1])
    u: dict[int, Fraction] = {-n: Fraction(0)}
    for k in range(-n + 1, n):
        u[k] = (up / branch) / (1 - (1 - up) * u[k - 1] - up * (branch - 1) * d[k + 1] / branch)
    return MappingProxyType(d), MappingProxyType(u)


def _geodesic_product(d: Mapping, u: Mapping, x: TreeVertex, y: TreeVertex) -> Fraction:
    """Down factors from ``x`` to ``x ⋏ y``, then up factors from there to ``y``."""
    c = confluent_omega(x, y).level
    out = Fraction(1)
    for k in range(c + 1, x.level + 1):
        out *= d[k]
    for k in range(c, y.level):
        out *= u[k]
    return out


def _in_tree_chain(v: TreeVertex, n: int) -> bool:
    if not -n <= v.level <= n:
        return False
    return all(j > -n for j, _ in v.labels)


def restricted_hitting(n: int, branch: int, up: Fraction, x: TreeVertex, y: TreeVertex) -> Fraction:
    """``F(x, y)`` before the stage-``n`` boundary, by geodesic edge products."""
    if not (_in_tree_chain(x, n) and _in_tree_chain(y, n)):
        raise ValueError("both endpoints must lie in the truncation")
    d, u = edge_factors(n, branch, up)
    return _geodesic_product(d, u, x, y)


def closed_tree_table(chain: FiniteChain) -> HittingTable:
    """The full tree hitting table from the closed-form edge factors."""
    up, branch = _chain_rate(chain)
    d, u = edge_factors(chain.n, branch, up)
    bset = set(chain.boundary)
    zero = Fraction(0)
    rows = tuple(
        tuple(zero if x in bset and x != y else _geodesic_product(d, u, x, y) for y in chain.boundary)
        for x in chain.vertices
    )
    return HittingTable(chain, rows)


@dataclass(frozen=True)
class ProductReport:
    checked: int
    discrepancies: tuple


def verify_product_formula(
    chain: FiniteChain, op=None, table: HittingTable | None = None
) -> ProductReport:
    """Cross-check the product identity on the two boundary slabs.

    ``F(x1 x2, (y1, a2)) = F1(x1, y1)`` and ``F(x1 x2, (a1, y2)) = F2(x2, y2)``
    for every vertex and boundary leaf; the product side is an exact matrix
    solve, the tree side the independent closed-form route.
    """
    if chain.kind != "dl":
        raise ValueError("the product identity lives on the product chain")
    if table is None:
        table = hitting_table(chain, op)
    n, params, alpha = chain.n, chain.params, chain.alpha
    checked = 0
    bad = []
    for x, row in zip(chain.vertices, table.rows):
        for y, got in zip(chain.boundary, row):
            if y.x2 == chain.a2:
                want = restricted_hitting(n, params.q, alpha, x.x1, y.x1)
            else:
                want = restricted_hitting(n, params.r, 1 - alpha, x.x2, y.x2)
            checked += 1
            if got != want:
                bad.append((x, y, got, want))
    return ProductReport(checked, tuple(bad))


def represent(
    chain: FiniteChain,
    boundary_data: Mapping,
    op=None,
    table: HittingTable | None = None,
) -> dict:
    """Solve the Dirichlet problem: the unique harmonic extension of the data."""
    if table is None:
        table = hitting_table(chain, op)
    missing = [y for y in chain.boundary if y not in boundary_data]
    if missing:
        raise ValueError(f"boundary data missing at {len(missing)} vertices")
    values = {}
    for x in chain.vertices:
        row = table.rows[chain.index[x]]
        values[x] = sum(
            (row[b] * Fraction(boundary_data[y]) for b, y in enumerate(chain.boundary)),
            Fraction(0),
        )
    return values


@dataclass(frozen=True)
class Decomposition:
    """The two-sided splitting of a harmonic function on a truncation."""

    n: int
    params: DLParams
    alpha: Fraction
    h1: dict
    h2: dict
    lambda1: dict
    lambda2: dict


def decompose(h: Callable, n: int, params: DLParams, alpha: Fraction) -> Decomposition:
    """Split ``h`` (harmonic inside the stage-``n`` truncation) as
    ``h(x1 x2) = h1(x1) + h2(x2)`` exactly, via the boundary slabs.

    ``h`` must be a pure function of the vertex: it is evaluated exactly
    once per vertex of the truncation, and every check below reads those
    values.  ``lambda_i`` are the boundary weights normalised by the
    convention ``lambda_i(a_i) = 0``; the reconstruction is verified exactly
    on all of S.
    """
    alpha = Fraction(alpha)
    chain = build_truncation(n, params, alpha, "dl")
    hv = {v: h(v) for v in chain.vertices}
    # build_truncation checks that the walk exits only through the boundary,
    # so ``hv`` holds every neighbour of an interior vertex.
    op = DLWalk(params, alpha)
    for v in chain.interior:
        if _apply_op(op, hv.__getitem__, v) != hv[v]:
            raise ValueError(f"h is not harmonic on the interior; witness {v}")

    q, r = params.q, params.r
    a1, a2 = chain.a1, chain.a2
    slab1 = {y.x1: hv[y] for y in chain.boundary if y.x2 == a2}
    slab2 = {y.x2: hv[y] for y in chain.boundary if y.x1 == a1}

    side1 = sorted({v.x1 for v in chain.vertices}, key=lambda t: (t.level, t.labels))
    side2 = sorted({v.x2 for v in chain.vertices}, key=lambda t: (t.level, t.labels))
    h1 = {
        x: sum((restricted_hitting(n, q, alpha, x, y) * b for y, b in slab1.items()), Fraction(0))
        for x in side1
    }
    h2 = {
        x: sum((restricted_hitting(n, r, 1 - alpha, x, y) * b for y, b in slab2.items()), Fraction(0))
        for x in side2
    }

    # Normalised boundary weights.  Leaves separated from the root by the
    # apex carry zero harmonic measure from o, so they have no finite
    # normalised weight and are omitted.
    lambda1 = {a1: Fraction(0)}
    for y, b in slab1.items():
        f = restricted_hitting(n, q, alpha, ROOT, y)
        if f:
            lambda1[y] = b / f
    lambda2 = {a2: Fraction(0)}
    for y, b in slab2.items():
        f = restricted_hitting(n, r, 1 - alpha, ROOT, y)
        if f:
            lambda2[y] = b / f

    for v, value in hv.items():
        if h1[v.x1] + h2[v.x2] != value:
            raise AssertionError(f"splitting failed to reconstruct h at {v}")

    return Decomposition(n, params, alpha, h1, h2, lambda1, lambda2)


def kernel_approx(chain: FiniteChain | TruncationStage, x: TreeVertex, target) -> Fraction:
    """Stage-``n`` Martin kernel approximant ``F(x, y) / F(o, y)``.

    ``target`` may be a boundary vertex of the tree chain or an end: an end
    routes to the leaf whose cone contains it, and to the apex when its ray
    leaves through the bottom (in particular for the reference end).  A
    ``TruncationStage`` works as well as a materialized chain, and is the way
    to reach deep stages.
    """
    up, branch = _chain_rate(chain)
    n = chain.n
    if not _in_tree_chain(x, n) or abs(x.level) >= n or confluent_omega(x, ROOT).level <= -n:
        raise ValueError("x must lie in the interior of the truncation (n too small)")
    if isinstance(target, TreeEnd):
        if target.is_omega or any(j <= -n for j, _ in target.labels):
            # the ray leaves below the apex: apex cone
            y = TreeVertex(-n, ())
        elif any(j == 1 - n for j, _ in target.labels):
            # the ray grazes the apex exactly: its leaf has zero harmonic
            # measure from the root and the ratio is 0/0 at this stage
            raise ValueError("stage too small for this end (ray through the apex)")
        else:
            y = TreeVertex.make(n, {j: v for j, v in target.labels if j <= n})
    else:
        y = target
        if not _in_tree_chain(y, n) or abs(y.level) != n:
            raise ValueError("target vertex must belong to the chain boundary")
    denom = restricted_hitting(n, branch, up, ROOT, y)
    if denom == 0:
        raise ValueError("target has zero harmonic measure from the root at this stage")
    return restricted_hitting(n, branch, up, x, y) / denom


def exact_rank(rows: Iterable[Iterable[Fraction]]) -> int:
    """Rank over the rationals by plain exact elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                factor = mat[i][col] / pv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank
