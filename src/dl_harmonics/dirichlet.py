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
interior values of ``F(., y)`` for every boundary ``y`` at once.  Each
horocycle ``H_k`` is joined only to ``H_{k-1}`` and ``H_{k+1}``, so the system
is block tridiagonal, with level blocks of ``q^{n+k} r^{n-k}`` vertices.  Its
rows are scaled to integers and read off the order in which the truncation
lists its vertices (no vertex objects), then solved modulo primes below
2**31 level by level: each level's Schur complement is inverted (Gauss-Jordan
up to 64 rows, 2 x 2 block inversion above), and the block products run as
float64 ``matmul`` on 11-bit digits, exact below 2**53 (the delayed
reduction of Dumas, Giorgi and Pernet, FFLAS-FFPACK).  The residues are
combined by CRT (in int64 while the modulus fits) and rational
reconstruction (Wang) turns them into fractions, once per distinct residue:
a table holds few distinct values.  A table is accepted only when it passes
the exact integer check against the sparse defining equations (Kronecker
boundary rows, unit row sums, residual identically zero), run in int64 when
``max|nums|`` times the row weights provably stays below 2**63 and on Python
ints otherwise; a failed check adds another prime, up to Hadamard's bound,
beyond which the reconstruction is unique.

On a single tree the same probabilities factor over geodesic edges.  The
per-level factors obey scalar recursions (``d_k``: reach the predecessor from
level ``k`` before the boundary, ``u_k``: reach one fixed successor)::

    d_n = 0,      d_k = (1-a) / (1 - a d_{k+1})
    u_{-n} = 0,   u_k = (a/q) / (1 - (1-a) u_{k-1} - a (q-1)/q d_{k+1})

so tree tables, the product-formula cross-check, the finite splitting
``h = h1 + h2``, and the stage-``n`` kernel approximants all come out in
closed form with no matrix solve.  A geodesic product depends only on the
levels of ``x ⋏ y``, ``x`` and ``y``, and is computed once per such triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product as _cartesian
from math import gcd, isqrt, lcm, prod
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

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
    "check_solve_size",
    "hitting_table",
    "closed_tree_table",
    "edge_factors",
    "restricted_hitting",
    "verify_product_formula",
    "represent",
    "decompose",
    "kernel_approx",
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

    ups, downs = _walk_shape(kind, params)
    size = sum(ups ** (n + k) * downs ** (n - k) for k in range(-n, n + 1))
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


@dataclass(frozen=True, init=False, eq=False)
class HittingTable:
    """Exact table ``F[x][y]`` of boundary-hitting probabilities, kept as
    integer columns: ``nums[i, b] = F(vertices[i], boundary[b]) * dens[b]``,
    where ``dens[b]`` is the lcm of the reduced denominators in column ``b``.
    This form is canonical, so two tables are equal exactly when their
    entries are.  ``rows`` (tuples of Fractions) is built on first read.
    """

    chain: FiniteChain
    nums: np.ndarray  # read-only, object dtype (Python ints), |vertices| x |boundary|
    dens: tuple

    def __init__(self, chain: FiniteChain, rows) -> None:
        nums = np.array([[x.numerator for x in row] for row in rows], dtype=object)
        dens = np.array([[x.denominator for x in row] for row in rows], dtype=object)
        common = np.lcm.reduce(dens, axis=0)
        self._store(chain, nums * (common // dens), common)

    @classmethod
    def _from_columns(cls, chain: FiniteChain, nums: np.ndarray, dens) -> HittingTable:
        """The table ``nums[:, b] / dens[b]``; takes ownership of ``nums``."""
        table = object.__new__(cls)
        table._store(chain, nums, dens)
        return table

    def _store(self, chain, nums, dens) -> None:
        dens = list(dens)
        for b, d in enumerate(dens):
            g = gcd(d, *nums[:, b])  # what the column and its denominator still share
            if g > 1:
                nums[:, b] //= g
                dens[b] = d // g
        nums.flags.writeable = False
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "dens", tuple(dens))

    def __eq__(self, other):
        if not isinstance(other, HittingTable):
            return NotImplemented
        return (
            self.chain == other.chain
            and self.dens == other.dens
            and bool((self.nums == other.nums).all())
        )

    def __hash__(self):
        return hash((self.chain, self.dens))

    @property
    def rows(self) -> tuple:
        """``rows[i][b] = F(vertices[i], boundary[b])`` as Fractions, built on
        first use."""
        cache = self.__dict__
        if "_rows" not in cache:
            # Equal entries of a column share one Fraction: tables repeat
            # few distinct values, so most entries cost one dict lookup.
            seen = [{0: Fraction(0)} for _ in self.dens]
            rows = []
            for row in self.nums.tolist():
                out = []
                for x, d, known in zip(row, self.dens, seen):
                    f = known.get(x)
                    if f is None:
                        f = known[x] = Fraction(x, d)
                    out.append(f)
                rows.append(tuple(out))
            cache["_rows"] = tuple(rows)
        return cache["_rows"]

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


# Largest estimate ``check_solve_size`` lets through: DL(2,2) n=5 needs
# 0.6 GiB, n=6 12.4 GiB.
_MAX_SOLVE_BYTES = 2 << 30

# Largest pivot block ``_inverse`` inverts by Gauss-Jordan with row pivoting.
_BASE = 64


def _moduli():
    """The hard-coded primes, then ever smaller primes by trial division."""
    yield from _PRIMES
    p = _PRIMES[-1]
    while True:
        p -= 2
        if all(p % f for f in range(3, isqrt(p) + 1, 2)):
            yield p


def _walk_shape(kind: str, params: DLParams) -> tuple[int, int]:
    """``(ups, downs)``: a level-``k`` vertex of the stage-``n`` chain is a
    digit pair ``(i1, i2)`` with ``i1 < ups**(n+k)`` and ``i2 < downs**(n-k)``,
    and the walk moves from it to ``ups`` vertices above and ``downs`` below.
    A tree chain is the case ``downs = 1``; ``tree2`` counts its levels up
    the second tree."""
    if kind == "dl":
        return params.q, params.r
    if kind == "tree1":
        return params.q, 1
    if kind == "tree2":
        return params.r, 1
    raise ValueError(f"unknown chain kind {kind!r}")


def _geometric(a: int, b: int, steps: int) -> int:
    """``sum_{j=1}^{steps-1} a**j * b**(steps-j)``."""
    if a == b:
        return (steps - 1) * a**steps
    return a * b * (a ** (steps - 1) - b ** (steps - 1)) // (a - b)


def check_solve_size(n: int, params: DLParams, kind: str = "dl") -> int:
    """Bytes of the int64 arrays that ``hitting_table`` holds for the
    stage-``n`` chain, from the level sizes ``s_k`` alone: the level inverses
    (``8 sum s_k**2``) and four interior-by-boundary arrays (carried right
    sides, solution, CRT residues and lift).  Raises ValueError naming the
    estimate past ``_MAX_SOLVE_BYTES``; nothing is enumerated.
    """
    if n < 1:
        raise ValueError("truncation stage must be >= 1")
    ups, downs = _walk_shape(kind, params)
    interior = _geometric(ups, downs, 2 * n)
    need = 8 * (_geometric(ups * ups, downs * downs, 2 * n) + 4 * interior * (ups ** (2 * n) + downs ** (2 * n)))
    if need > _MAX_SOLVE_BYTES:
        tenths = (10 * need + (1 << 29)) >> 30
        raise ValueError(
            f"the exact solve needs {tenths // 10}.{tenths % 10} GiB "
            f"(cap {_MAX_SOLVE_BYTES >> 30} GiB)"
        )
    return need


class _Layout(NamedTuple):
    """The chain's level layout and the walk's moves, read off the order in
    which ``build_truncation`` lists the vertices.

    Level ``k`` is the product of level ``k`` of the first tree and level
    ``-k`` of the second, each in successor-label order, so ``(k, i1, i2)``
    sits at ``off[k] + i1 * downs**(n-k) + i2``.  A move up goes to
    ``(k+1, i1*ups + l, i2 // downs)``, a move down to
    ``(k-1, i1 // ups, i2*downs + m)``.  Row ``i`` of the interior reads
    ``denom F(at_i, .) = sum_t coeffs[t] F(slots[i, t], .)``, with the
    positions ``at`` of the interior contiguous and the slots in the order of
    the walk's ``transitions`` (``ups`` moves up, then the moves down).
    """

    size: list  # vertices per level, levels -n..n
    ups: int
    denom: int
    coeffs: tuple  # scaled weight of each slot
    slots: np.ndarray  # |interior| x len(coeffs) vertex positions

    @property
    def interior(self) -> slice:
        return slice(self.size[0], sum(self.size) - self.size[-1])

    @property
    def boundary(self) -> np.ndarray:
        """Positions of the boundary, levels ``-n`` and ``n``, in column order."""
        return np.concatenate((np.arange(self.size[0]), np.arange(self.interior.stop, sum(self.size))))


def _layout(chain: FiniteChain) -> _Layout:
    n = chain.n
    ups, downs = _walk_shape(chain.kind, chain.params)
    up = chain.alpha if chain.kind == "dl" else _chain_rate(chain)[0]
    w_up, w_down = up / ups, (1 - up) / downs
    denom = lcm(w_up.denominator, w_down.denominator)
    s_up = w_up.numerator * (denom // w_up.denominator)
    s_down = w_down.numerator * (denom // w_down.denominator)
    size = [ups ** (n + k) * downs ** (n - k) for k in range(-n, n + 1)]
    off = list(accumulate(size, initial=0))
    blocks = []
    for j in range(1, 2 * n):  # interior levels k = j - n
        i1, i2 = np.divmod(np.arange(size[j]), downs ** (2 * n - j))
        above = (i1 * ups) * downs ** (2 * n - j - 1) + i2 // downs + off[j + 1]
        below = (i1 // ups) * downs ** (2 * n - j + 1) + i2 * downs + off[j - 1]
        blocks.append(np.stack(
            [above + l * downs ** (2 * n - j - 1) for l in range(ups)]
            + [below + m for m in range(downs)],
            axis=1,
        ))
    return _Layout(size, ups, denom, (s_up,) * ups + (s_down,) * downs, np.concatenate(blocks))


def _block_system(lay: _Layout) -> list:
    """The interior system ``A X = B`` in the level blocks of ``_block_solve``:
    ``denom`` on the diagonal, ``-coeff`` towards an interior neighbour and
    ``+coeff`` in the column of a boundary one.  Boundary column ``b`` is
    position ``b`` on level ``-n`` and then position ``b - size[0]`` of
    level ``n``."""
    size, ups, denom, coeffs = lay.size, lay.ups, lay.denom, lay.coeffs
    s_up, s_down = coeffs[0], coeffs[-1]
    off = list(accumulate(size, initial=0))
    last = len(size) - 2  # index of the last interior level
    levels = []
    for j in range(1, last + 1):
        s = size[j]
        # positions relative to level j - 1, then within levels j - 1 and j + 1
        rows = lay.slots[off[j] - off[1] : off[j + 1] - off[1]] - off[j - 1]
        above, below = rows[:, :ups] - size[j - 1] - s, rows[:, ups:]
        cols, vals, down = [np.arange(s)[:, None]], [denom], None
        if j == 1:  # moves down reach level -n: boundary columns 0 .. size[0] - 1
            cols.append(s + below)
            vals += coeffs[ups:]
        else:
            down = (below, -s_down, -s_up)
        if j == last:  # moves up reach level n
            cols.append(s + size[0] + above)
            vals += coeffs[:ups]
        cols = np.concatenate(cols, axis=1)
        levels.append((cols, np.repeat(np.array([vals]), s, axis=0), down))
    return levels


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b mod p`` for int64 residues below 2**31, through float64
    ``matmul`` (delayed reduction): ``a`` is cut into 11-bit digits, so each
    product stays below 2**42 and a sum of up to 2**11 of them is exact."""
    s = len(a)
    out = None
    for j in range(0, a.shape[1], 1 << 11):
        part = a[:, j : j + (1 << 11)]
        digits = np.empty((3 * s, part.shape[1]))
        digits[:s] = part >> 22
        digits[s : 2 * s] = (part >> 11) & 2047
        digits[2 * s :] = part & 2047
        c = (digits @ b[j : j + (1 << 11)].astype(np.float64)).astype(np.int64)
        # Below 2**51 * 2**11 + 2**53 < 2**63, then below 2**42 + 2**53.
        c = (((c[:s] << 11) + c[s : 2 * s]) % p << 11) + c[2 * s :]
        out = c % p if out is None else (out + c) % p
    return out


def _inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    """``a^-1 mod p``, or None when a pivot block is singular mod ``p``.

    Up to ``_BASE`` rows: Gauss-Jordan with row pivoting, so None means
    ``p | det a``.  Larger: the inverse of the leading half, then of its
    Schur complement, recursively, with no pivoting across the halves.
    """
    s = len(a)
    if s <= _BASE:
        # In place: column k of the result takes the place of column k of a.
        a = a.copy()
        swaps = []
        for k in range(s):
            if not a[k, k]:
                nz = np.flatnonzero(a[k:, k])
                if not nz.size:
                    return None
                a[[k, k + nz[0]]] = a[[k + nz[0], k]]
                swaps.append((k, k + nz[0]))
            inv = pow(int(a[k, k]), -1, p)
            a[k, k] = 1
            a[k] = a[k] * inv % p
            f = a[:, k].copy()
            f[k] = 0
            if f.any():
                a[:, k] = 0
                a[k, k] = inv
                a -= f[:, None] * a[k]
                a %= p
        for k, j in reversed(swaps):  # undo the row swaps on the columns
            a[:, [k, j]] = a[:, [j, k]]
        return a
    h = s // 2
    i11 = _inverse(a[:h, :h], p)
    if i11 is None:
        return None
    if not (a[h:, :h].any() or a[:h, h:].any()):  # block diagonal, as a first level is
        i22 = _inverse(a[h:, h:], p)
        if i22 is None:
            return None
        out = np.zeros_like(a)
        out[:h, :h], out[h:, h:] = i11, i22
        return out
    left = _mulmod(a[h:, :h], i11, p)  # A21 A11^-1
    right = _mulmod(i11, a[:h, h:], p)  # A11^-1 A12
    i22 = _inverse((a[h:, h:] - _mulmod(left, a[:h, h:], p)) % p, p)
    if i22 is None:
        return None
    out = np.empty_like(a)
    out[h:, h:] = i22
    out[h:, :h] = -_mulmod(i22, left, p) % p
    out[:h, h:] = -_mulmod(right, i22, p) % p
    out[:h, :h] = (i11 - _mulmod(right, out[h:, :h], p)) % p
    return out


def _base_blocks(s: int) -> int:
    """How many ``_BASE``-sized pivot blocks ``_inverse`` splits ``s`` rows into."""
    return 1 if s <= _BASE else _base_blocks(s // 2) + _base_blocks(s - s // 2)


def _gather(x: np.ndarray, idx: np.ndarray, p: int, axis: int = 0) -> np.ndarray:
    """``sum_t x[idx[:, t]] mod p`` along ``axis``: ``x`` times a 0/1
    pattern with ``idx.shape[1]`` ones per row (``axis = 0``: from the left,
    ``axis = 1``: its transpose from the right)."""
    out = np.take(x, idx[:, 0], axis=axis)
    for t in range(1, idx.shape[1]):
        out += np.take(x, idx[:, t], axis=axis)
    return out % p


def _block_solve(levels: list, nb: int, p: int) -> np.ndarray | None:
    """``A^-1 B mod p`` (int64) for a block-tridiagonal integer system, or
    None when a pivot block is singular mod ``p``.

    ``levels[k] = (cols, coefs, down)`` gives block row ``k``: row ``i`` has
    entry ``coefs[i, t]`` in column ``cols[i, t]``, a column of block ``k``
    itself below ``len(cols)`` and column ``cols[i, t] - len(cols)`` of
    ``B`` above (no column twice in a row).  ``down = (idx, c_low, c_up)``,
    None for the first block, couples block ``k`` to block ``k - 1`` through
    a pattern ``G`` with distinct entries in each row of ``idx`` and its
    transpose: ``A[i, idx[i, t]] = c_low`` and ``A[idx[i, t], i] = c_up``.
    Forward, the Schur complements ``S_k = A_kk - c_low c_up G S_{k-1}^-1 G^T``
    are inverted and ``Y_k = S_k^-1 R_k`` is carried over the span of
    boundary columns reached so far; back-substitution then gives
    ``X_k = Y_k - S_k^-1 U_k X_{k+1}``.  One block is plain dense
    elimination of ``A^-1 B``.
    """
    inverses, carried = [], []  # per block: S_k^-1, and (lo, Y_k)
    for cols, coefs, down in levels:
        s = len(cols)
        vals = (coefs % p).astype(np.int64)
        own = cols < s
        a = np.zeros((s, s), dtype=np.int64)
        a[own.nonzero()[0], cols[own]] = vals[own]
        reach = cols[~own] - s
        spans = [(int(reach.min()), int(reach.max()) + 1)] if reach.size else []
        if down is not None:
            idx, c_low, c_up = down
            g = _gather(inverses[-1], idx, p)  # G S^-1, then G S^-1 G^T
            a = (a - c_low * c_up % p * _gather(g, idx, p, axis=1)) % p
            plo, prev = carried[-1]
            spans.append((plo, plo + prev.shape[1]))
        lo = min((l for l, _ in spans), default=0)
        r = np.zeros((s, max((h for _, h in spans), default=0) - lo), dtype=np.int64)
        r[(~own).nonzero()[0], reach - lo] = vals[~own]
        if down is not None:
            span = slice(plo - lo, plo - lo + prev.shape[1])
            r[:, span] = (r[:, span] - c_low % p * _gather(prev, idx, p)) % p
        inv = _inverse(a, p)
        if inv is None:
            return None
        inverses.append(inv)
        carried.append((lo, _mulmod(inv, r, p)))
    x = np.zeros((sum(len(cols) for cols, _, _ in levels), nb), dtype=np.int64)
    end = len(x)
    for k in range(len(levels) - 1, -1, -1):
        lo, y = carried[k]
        xk = x[end - len(y) : end]
        if k + 1 < len(levels) and levels[k + 1][2] is not None:
            idx, _, c_up = levels[k + 1][2]
            u = c_up % p * _gather(inverses[k], idx, p, axis=1) % p  # S_k^-1 U_k
            xk[:] = -_mulmod(u, x[end : end + len(idx)], p) % p
        xk[:, lo : lo + y.shape[1]] += y
        xk %= p
        end -= len(y)
    return x


def _hadamard(levels: list) -> tuple[int, int]:
    """``prod_i |A_i|^2`` and ``prod_i |(A | B)_i|^2`` over the rows."""
    det_sq = minor_sq = 1
    for k, (cols, coefs, down) in enumerate(levels):
        s = len(cols)
        sq = np.asarray(coefs, dtype=object) ** 2
        a_sq = np.where(cols < s, sq, 0).sum(axis=1)
        b_sq = sq.sum(axis=1) - a_sq
        if down is not None:
            a_sq += down[0].shape[1] * down[1] ** 2
        up = levels[k + 1][2] if k + 1 < len(levels) else None
        if up is not None:
            a_sq += np.bincount(up[0].ravel(), minlength=s).astype(object) * up[2] ** 2
        det_sq *= prod(a_sq.tolist())
        minor_sq *= prod((a_sq + b_sq).tolist())
    return det_sq, minor_sq


def _rational(x: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """Rational reconstruction (Wang): the fraction ``num / den`` with
    ``|num| <= bound`` and ``0 < den <= bound`` congruent to ``x``, or None."""
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues: np.ndarray, modulus: int):
    """Rationals congruent to ``residues`` as integer columns ``(nums, dens)``:
    entry ``(i, b)`` is ``nums[i, b] / dens[b]``, with every entry's
    numerator and denominator, and every ``dens[b]``, at most
    ``isqrt(modulus // 2)``; None when no such candidate exists.

    Wang reconstruction runs once per distinct residue, first on those of
    every 97th entry, so that a modulus too small for the table mostly fails
    before the whole matrix is sorted; the rest is numpy in the dtype of
    ``residues`` (``int64`` below a 2**63 modulus, where every product below
    stays under ``bound**2 < 2**62``, else object).
    """
    bound = isqrt(modulus // 2)
    if any(_rational(x, modulus, bound) is None for x in set(residues.ravel()[::97].tolist())):
        return None
    flat = np.sort(residues, axis=None)
    values = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    del flat
    inverse = np.searchsorted(values, residues)
    nums = np.empty(len(values), dtype=residues.dtype)
    dens = np.empty(len(values), dtype=residues.dtype)
    for k, x in enumerate(values.tolist()):
        fraction = _rational(x, modulus, bound)
        if fraction is None:
            return None
        nums[k], dens[k] = fraction
    den = dens[inverse]
    # In int64 the lcm can wrap only once it has passed ``bound``; a value in
    # [1, bound] that every denominator divides is a common multiple within
    # the bound, so it proves there was no wrap and that it is the lcm.
    common = np.lcm.reduce(den, axis=0)
    if not ((common >= 1) & (common <= bound)).all() or (common % den).any():
        return None
    np.floor_divide(common, den, out=den)  # in place: each entry's scale
    den *= nums[inverse]
    return den.astype(object), common.astype(object)


def _modular_solve(levels: list, nb: int, accept: Callable):
    """Solve ``A X = B`` exactly for an integer system given in the level
    blocks of ``_block_solve`` (``A`` has ``m`` rows, ``B`` has ``nb``
    columns).

    ``X`` is solved modulo one prime after another, combined by CRT and
    reconstructed as rationals.  Each candidate, in the integer column form
    ``(nums, dens)`` of ``_reconstruct``, goes to ``accept``, which
    returns the certified result or raises AssertionError; a rejected
    candidate, or a failed reconstruction, adds a prime, and a prime at
    which a pivot block is singular is skipped.  Hadamard's bound caps the
    work.  A skipped prime divides the leading principal minor of ``A`` that
    ends with its pivot block, one of ``blocks`` minors each at most
    ``prod_i |A_i|``; once the skipped primes multiply past their product,
    one of those minors is zero (with one block, ``A`` is singular).  Once
    the used primes multiply past ``2 prod_i |(A | B)_i|^2``, which bounds
    every minor and hence every numerator and denominator of ``X``, the
    reconstruction is unique and a rejection is final.
    """
    det_bound_sq, minor_bound_sq = _hadamard(levels)
    blocks = sum(_base_blocks(len(cols)) for cols, _, _ in levels)
    modulus, residues, skipped = 1, None, 1
    for p in _moduli():
        x = _block_solve(levels, nb, p)
        if x is None:
            skipped *= p
            if (skipped * skipped).bit_length() > blocks * det_bound_sq.bit_length():
                raise ValueError("singular system")
            continue
        # CRT residues stay int64 while the modulus fits in one.
        dtype = np.int64 if modulus * p < 2**63 else object
        if residues is None:
            residues = x.astype(dtype)
        else:
            lift = (x - (residues % p).astype(np.int64)) % p * pow(modulus, -1, p) % p
            residues = residues.astype(dtype) + modulus * lift.astype(dtype)
        del x  # free the solution mod p before reconstructing
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


def hitting_table(chain: FiniteChain) -> HittingTable:
    """Solve for all boundary columns at once and certify the solution.

    The system is assembled from the level layout in which
    ``build_truncation`` lists the vertices, and eliminated level by level.
    A table is accepted only when these postconditions hold exactly:
    boundary rows are Kronecker deltas, every row sums to 1, and the
    defining sparse equations hold with residual zero.  A chain past
    ``check_solve_size`` raises ValueError before any of it is built.
    """
    check_solve_size(chain.n, chain.params, chain.kind)
    lay = _layout(chain)
    nb = len(chain.boundary)

    def accept(candidate) -> HittingTable:
        nums, dens = candidate
        full = np.zeros((len(chain.vertices), nb), dtype=object)
        full[lay.interior] = nums
        full[lay.boundary, range(nb)] = dens  # Kronecker boundary rows
        table = HittingTable._from_columns(chain, full, dens)
        _verify_table(table, lay)
        return table

    return _modular_solve(_block_system(lay), nb, accept)


def _verify_table(table: HittingTable, lay: _Layout) -> None:
    """Check the postconditions exactly on the table's integer columns,
    against the scaled rows of the layout.

    The checks run in int64 when bounds prove that no sum can overflow:
    ``max|nums| * sum_b (lcm(dens) // dens[b])`` for the row sums and
    ``max|nums| * (denom + sum|coeffs|)`` for the residual of each row.
    Otherwise the same expressions run on Python ints.
    """
    total = lcm(*table.dens)
    scale = [total // d for d in table.dens]
    weight = lay.denom + sum(map(abs, lay.coeffs))
    try:
        ints = table.nums.astype(np.int64)
    except OverflowError:  # an entry outgrows int64
        ints = table.nums
    else:
        big = max(-int(ints.min()), int(ints.max()))
        if max(big * sum(scale), big * weight, total, weight) >= 2**63:
            ints = table.nums
    dtype = ints.dtype

    at_boundary = ints[lay.boundary]
    if not (at_boundary == np.diag(np.array(table.dens, dtype=dtype))).all():
        raise AssertionError("boundary rows of the hitting table are not Kronecker deltas")
    if not ((ints * np.array(scale, dtype=dtype)).sum(axis=1) == total).all():
        raise AssertionError("hitting probabilities of a row do not sum to 1")
    # The residual, one move slot at a time.
    residual = ints[lay.interior] * lay.denom
    term = np.empty_like(residual)
    for t, c in enumerate(lay.coeffs):
        np.take(ints, lay.slots[:, t], axis=0, out=term)
        term *= c
        residual -= term
    if residual.any():
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


@lru_cache(maxsize=4096)
def _level_product(n: int, branch: int, up: Fraction, c: int, lx: int, ly: int) -> Fraction:
    """Down factors from level ``lx`` to ``c``, then up factors from ``c`` to
    ``ly``: the geodesic product of any ``x``, ``y`` with ``x ⋏ y`` at level
    ``c``, one cached value per level triple."""
    d, u = _edge_factors(n, branch, up)
    out = Fraction(1)
    for k in range(c + 1, lx + 1):
        out *= d[k]
    for k in range(c, ly):
        out *= u[k]
    return out


def _geodesic_product(n: int, branch: int, up: Fraction, x: TreeVertex, y: TreeVertex) -> Fraction:
    return _level_product(n, branch, up, confluent_omega(x, y).level, x.level, y.level)


def _in_tree_chain(v: TreeVertex, n: int) -> bool:
    if not -n <= v.level <= n:
        return False
    return all(j > -n for j, _ in v.labels)


def restricted_hitting(n: int, branch: int, up: Fraction, x: TreeVertex, y: TreeVertex) -> Fraction:
    """``F(x, y)`` before the stage-``n`` boundary, by geodesic edge products."""
    if not (_in_tree_chain(x, n) and _in_tree_chain(y, n)):
        raise ValueError("both endpoints must lie in the truncation")
    if not isinstance(up, Fraction):
        up = Fraction(up)  # a Fraction is passed on as is: the cache matches it by identity
    return _geodesic_product(n, branch, up, x, y)


def closed_tree_table(chain: FiniteChain) -> HittingTable:
    """The full tree hitting table from the closed-form edge factors."""
    up, branch = _chain_rate(chain)
    n = chain.n
    bset = set(chain.boundary)
    zero = Fraction(0)
    rows = tuple(
        tuple(zero if x in bset and x != y else _geodesic_product(n, branch, up, x, y) for y in chain.boundary)
        for x in chain.vertices
    )
    return HittingTable(chain, rows)


@dataclass(frozen=True)
class ProductReport:
    checked: int
    discrepancies: tuple


def _confluent_levels(n: int, branch: int, level: int) -> np.ndarray:
    """Level of ``x ⋏ y`` for ``x`` on ``level`` (rows) and ``y`` a leaf
    (columns) of the stage-``n`` tree, both numbered in the order of
    ``build_truncation``, where ancestors are digit prefixes: ``x ⋏ y`` is
    on ``level - d`` for the least ``d`` at which ``x // branch**d`` and the
    ancestor of ``y`` on ``level`` agree."""
    x = np.arange(branch ** (n + level))[:, None]
    y = np.arange(branch ** (2 * n))[None, :] // branch ** (n - level)
    out = np.empty((x.size, y.size), dtype=np.intp)
    for d in range(n + level, -1, -1):  # the apex, then ever closer ancestors
        out[x // branch**d == y // branch**d] = level - d
    return out


def verify_product_formula(chain: FiniteChain, table: HittingTable | None = None) -> ProductReport:
    """Cross-check the product identity on the two boundary slabs.

    ``F(x1 x2, (y1, a2)) = F1(x1, y1)`` and ``F(x1 x2, (a1, y2)) = F2(x2, y2)``
    for every vertex and boundary leaf; the product side is an exact matrix
    solve, the tree side the independent closed-form route, one value per
    level triple ``(x_i ⋏ y_i, x_i, y_i)`` compared as an integer column
    entry.
    """
    if chain.kind != "dl":
        raise ValueError("the product identity lives on the product chain")
    if table is None:
        table = hitting_table(chain)
    n, q, r, alpha = chain.n, chain.params.q, chain.params.r, chain.alpha
    dens = np.array(table.dens, dtype=object)
    left = r ** (2 * n)  # columns (a1, y2), then (y1, a2)
    # Per slab: (branch, up rate, its columns, vertex level -> slab level).
    slabs = ((r, 1 - alpha, slice(0, left), -1), (q, alpha, slice(left, None), 1))
    bad, start = [], 0
    for k in range(-n, n + 1):
        size1, size2 = q ** (n + k), r ** (n - k)  # vertex (i1, i2) at start + i1*size2 + i2
        parts, closed = [], []
        for branch, up, cols, sign in slabs:
            level = sign * k
            conf = _confluent_levels(n, branch, level)
            values = [_level_product(n, branch, up, c, level, n) for c in range(-n, level + 1)]
            num = np.array([f.numerator for f in values], dtype=object)[:, None]
            den = np.array([f.denominator for f in values], dtype=object)[:, None]
            over = dens[cols][None, :]
            # F = num / den is the entry num * (over // den) of a column over
            # ``over``, and no entry of it when den does not divide ``over``.
            want = np.where(over % den == 0, num * (over // den), None)
            grid = np.take_along_axis(want, conf + n, axis=0)
            parts.append(np.tile(grid, (size1, 1)) if sign < 0 else np.repeat(grid, size2, axis=0))
            closed.append((conf, values))
        rows = table.nums[start : start + size1 * size2]
        for i, b in zip(*np.nonzero(rows != np.concatenate(parts, axis=1))):
            conf, values = closed[0] if b < left else closed[1]
            c = conf[i % size2, b] if b < left else conf[i // size2, b - left]
            x = chain.vertices[start + i]
            bad.append((x, chain.boundary[b], Fraction(rows[i, b], dens[b]), values[c + n]))
        start += size1 * size2
    checked = len(chain.vertices) * len(chain.boundary)
    return ProductReport(checked, tuple(bad))


def represent(chain: FiniteChain, boundary_data: Mapping, table: HittingTable | None = None) -> dict:
    """Solve the Dirichlet problem: the unique harmonic extension of the data."""
    if table is None:
        table = hitting_table(chain)
    missing = [y for y in chain.boundary if y not in boundary_data]
    if missing:
        raise ValueError(f"boundary data missing at {len(missing)} vertices")
    # h(x) = sum_b nums[x, b] * (data_b / dens[b]), over one denominator.
    coeffs = [Fraction(boundary_data[y]) / d for y, d in zip(chain.boundary, table.dens)]
    common = lcm(*(c.denominator for c in coeffs))
    weights = np.array([c.numerator * (common // c.denominator) for c in coeffs], dtype=object)
    return {
        x: Fraction(total, common) for x, total in zip(chain.vertices, table.nums.dot(weights).tolist())
    }


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
