"""Finite truncations, exact hitting tables, and the two-sided splitting.

The stage-``n`` truncation of the product graph is the horocyclic product of
two rooted subtrees of height ``2n``: the first-tree part ``S1`` hangs below
the apex ``a1`` (the all-zero vertex at level ``-n``) and reaches up to its
leaves at level ``n``; ``S2`` mirrors it in the second tree.  The product
``S = {x1 x2 : x1 in S1, x2 in S2, level sum 0}`` has boundary

    (leaves of S1) x {a2}   union   {a1} x (leaves of S2),

the one-step exit set of the walk by levels alone: ``S1`` holds every vertex
from ``a1`` up to level ``n`` (``S2`` likewise) and a move steps each
coordinate one level, so interior levels ``-n < k < n`` move only to ``k ±
1``, a level-``n`` vertex moves up out of S, and a level-``-n`` one down.
Sizes: ``|S| = sum_{k=-n}^{n} q^{n+k} r^{n-k}`` and ``|bd S| = q^{2n} +
r^{2n}``.  A tree truncation is the case whose second tree is a line.  A
``FiniteChain`` is the description ``(kind, n, params, alpha)``, checked when
it is built; its vertices are enumerated only when read, once per shape for
shapes kept in a cache, and tables, their certificate, the product check and
the kernel approximants run from the description without them.

``hitting_table`` certifies rather than solves.  Fix a boundary column
``(y1, a2)``: the stabiliser of ``y1`` in Aut(S1) x Aut(S2) fixes the column
and preserves the walk, so ``F(x1 x2, (y1, a2))`` depends only on the class
``(k, c)``, the level ``k`` of ``x1`` and the level ``c`` of ``x1 ⋏ y1``.
The walk is strongly lumpable onto these classes (Kemeny and Snell, *Finite
Markov Chains*, 1960, section 6.3), the lumped chain is the first tree's
walk lumped the same way, and its solution is the geodesic product
``F1(x1, y1)`` below; the columns ``(a1, y2)`` mirror this with ``r`` and
``1 - alpha``.  The table is laid out from one closed-form value per class
and accepted only when it passes the exact integer check against the sparse
defining equations (Kronecker boundary rows, unit row sums, residual
identically zero), run in int64 when ``max|nums|`` times the row weights
provably stays below 2**63 and on Python ints otherwise.  The Dirichlet
problem on a truncation has a unique solution, as every interior vertex
reaches the boundary, so a table that passes the check is that solution:
the check is the proof, and no elimination runs.

On a single tree the same probabilities factor over geodesic edges (``d_k``:
reach the predecessor from level ``k`` before the boundary, ``u_k``: one fixed
successor).  At up rate ``a/m`` and branching ``b`` both are ratios of integer
sequences, so with ``x ⋏ y``, ``x``, ``y`` on levels ``c``, ``lx``, ``ly``::

    p[n+1] = 0,  p[n] = 1,  p[k] = m p[k+1] - a (m-a) p[k+2],  d_k = (m-a) p[k+1] / p[k]
    r[-n-1] = 0,  r[-n] = p[-n+1],  pi[k] = p[-n+1] ... p[k],  u_k = a p[k+1] r[k-1] / r[k]
    r[k] = (m b p[k+1] - a (b-1) (m-a) p[k+2]) r[k-1] - a b (m-a) p[k] p[k+1] r[k-2]
    F(x, y) = (m-a)^(lx-c) p[lx+1] / p[c+1] * a^(ly-c) pi[ly] r[c-1] / (pi[c] r[ly-1])

(a factor is 1 at gap 0), and tables, the kernel approximants and the
Dirichlet problem need no matrix solve: ``_extend`` sums each slab's data
into its tree by these products, ``represent`` certifies the sum by the
walk's equations and ``decompose`` splits ``h = h1 + h2`` along it.  Eight
read-only caches keyed on integers hold each rate's sequences, level's class
grid, shape's move slots and vertices, subtree's levels, slab's class values
as integers, the walk's integer row and each chain's certified table; a grid
or table over 1 MiB, or a shape over ``_KEPT_VERTICES`` vertices, is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product as _cartesian
from math import lcm
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .dl_graph import DLParams, DLVertex
from .tree import ROOT, TreeEnd, TreeVertex, _new, _successors, _upto, check_labels, confluent_omega
from .walks import _check_alpha, _integer_row, _over_lcm, _shown, operator_from_name

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
    "restricted_hitting",
    "verify_product_formula",
    "represent",
    "decompose",
    "kernel_approx",
]


def _cached(build) -> property:
    """A read-only property computed by ``build(self)`` on first read and
    kept in the instance ``__dict__``, outside the dataclass fields."""
    key = "_" + build.__name__

    def get(self):
        cache = self.__dict__
        if key not in cache:
            cache[key] = build(self)
        return cache[key]

    return property(get, doc=build.__doc__)


@dataclass(frozen=True)
class FiniteChain:
    """The stage-``n`` truncation as a description: ``(kind, n, params,
    alpha)`` fix every vertex, so equality and hashing read only those.
    Building one checks the kind, ``n >= 1``, ``params.level_sum == 0`` and
    ``0 < alpha < 1``, and stores ``alpha`` as a Fraction.

    ``vertices`` is read through ``_enumerate`` on first read, level by level
    as ``_Layout`` numbers them, and the vertex cap runs then; chains of one
    shape, at any alpha, share one kept tuple up to ``_KEPT_VERTICES``.
    ``boundary`` (levels ``-n`` and ``n``, the walk's exit set) and
    ``interior`` are slices of it.  Tables and the product check work from the
    level sizes and read no vertex; ``represent`` and ``decompose`` read them
    only to key data and answers.
    """

    kind: str  # "dl", "tree1" or "tree2"
    n: int
    params: DLParams
    alpha: Fraction

    def __post_init__(self) -> None:
        _walk_shape(self.kind, self.params)  # raises on an unknown kind
        if self.n < 1:
            raise ValueError("truncation stage must be >= 1")
        if self.params.level_sum != 0:
            raise ValueError(f"a truncation lies on the level sum 0 sheet, got level_sum {self.params.level_sum}")
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    @_cached
    def vertices(self) -> tuple:
        """Every vertex, levels ``-n..n``, the shape's tuple from ``_enumerate`` on first read."""
        return _enumerate(self)

    @_cached
    def boundary(self) -> tuple:
        """Levels ``-n`` and ``n``, in the order of the table's columns."""
        size, v = _level_sizes(self.n, *_walk_shape(self.kind, self.params)), self.vertices
        return v[: size[0]] + v[len(v) - size[-1] :]

    @_cached
    def interior(self) -> tuple:
        size, v = _level_sizes(self.n, *_walk_shape(self.kind, self.params)), self.vertices
        return v[size[0] : len(v) - size[-1]]

    @_cached
    def index(self) -> dict:
        """Position of each vertex in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def a1(self) -> TreeVertex:
        """The apex of ``S1``, the all-zero vertex on level ``-n``; ``a2``,
        the apex of ``S2``, is the same vertex of the second tree."""
        return TreeVertex(-self.n, ())

    a2 = a1


# Another name for ``FiniteChain``, kept for the code that builds deep tree
# stages under it.
TruncationStage = FiniteChain


def _tree_levels(n: int, branch: int) -> Mapping[int, tuple]:
    """Vertices of the height-2n rooted subtree, a read-only mapping from
    level to the level's vertices in successor-label order; kept per ``(n,
    branch)`` while the subtree has at most ``_KEPT_VERTICES``, built per
    call above that."""
    kept = sum(_counts(n, branch, 1)[:2]) <= _KEPT_VERTICES
    return (_kept_levels if kept else _kept_levels.__wrapped__)(n, branch)


@lru_cache(maxsize=64)
def _kept_levels(n: int, branch: int) -> Mapping[int, tuple]:
    """The levels of ``_tree_levels``, built once per key."""
    levels = {-n: (TreeVertex(-n, ()),)}
    for k in range(-n + 1, n + 1):
        levels[k] = tuple([w for v in levels[k - 1] for w in _successors(v, branch)])
    return MappingProxyType(levels)


def default_operator(chain: FiniteChain):
    """The walk on the chain: ``palpha``, ``p1`` or ``p2`` of ``operator_from_name`` by its kind."""
    return operator_from_name(("palpha", "p1", "p2")[_KINDS.index(chain.kind)], chain.params, chain.alpha)


# Most vertices a chain may enumerate.
_MAX_VERTICES = 500_000
# Most vertices of a chain's or a subtree's enumeration kept in a cache: at
# about 200 bytes a vertex or less, a kept shape stays under _MAX_KEPT_BYTES.
_KEPT_VERTICES = 4096


def build_truncation(n: int, params: DLParams, alpha: Fraction, kind: str = "dl") -> FiniteChain:
    """The stage-``n`` truncation, refused past ``_MAX_VERTICES`` from its
    vertex count; its vertices are enumerated on first read of ``vertices``."""
    return _check_vertex_count(FiniteChain(kind, n, params, alpha))


def _check_vertex_count(chain: FiniteChain) -> FiniteChain:
    """``chain``, or ValueError when ``|S|``, counted by ``_counts``, passes ``_MAX_VERTICES``."""
    interior, boundary, bound = _counts(chain.n, *_walk_shape(chain.kind, chain.params))
    if interior + boundary > _MAX_VERTICES:
        raise ValueError(f"truncation would have {bound}{_shown(interior + boundary)} vertices (cap {_MAX_VERTICES})")
    return chain


def _enumerate(chain: FiniteChain) -> tuple:
    """The chain's vertices, level by level: level ``k`` of the ``ups``-tree
    times level ``-k`` of the ``downs``-tree.  A tree chain's second tree is
    the line ``downs = 1``, and its vertex is the first coordinate alone.
    A chain past ``_MAX_VERTICES`` is refused, on every call, before any
    vertex is read.  The tuple depends only on the shape ``(kind == "dl", n,
    ups, downs)``, not on alpha, so chains of one shape share it: kept per
    shape up to ``_KEPT_VERTICES`` and built per call above that.
    """
    n = _check_vertex_count(chain).n
    ups, downs = _walk_shape(chain.kind, chain.params)
    kept = sum(_counts(n, ups, downs)[:2]) <= _KEPT_VERTICES
    return (_shape_vertices if kept else _shape_vertices.__wrapped__)(chain.kind == "dl", n, ups, downs)


@lru_cache(maxsize=64)
def _shape_vertices(dl: bool, n: int, ups: int, downs: int) -> tuple:
    """The vertices of ``_enumerate``, built once per shape."""
    lv1 = _tree_levels(n, ups)
    if not dl:
        return tuple([x for k in range(-n, n + 1) for x in lv1[k]])
    lv2 = _tree_levels(n, downs)
    return tuple([_new(DLVertex, xs) for k in range(-n, n + 1) for xs in _cartesian(lv1[k], lv2[-k])])


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
        columns = [_over_lcm(column) for column in zip(*rows)]
        nums = np.array([ints for _, ints in columns], dtype=object).T
        self._store(chain, np.ascontiguousarray(nums), [common for common, _ in columns])

    @classmethod
    def _from_columns(cls, chain: FiniteChain, nums: np.ndarray, dens) -> HittingTable:
        """The table ``nums[:, b] / dens[b]`` from canonical columns; takes
        ownership of ``nums``."""
        table = object.__new__(cls)
        table._store(chain, nums, dens)
        return table

    def _store(self, chain, nums, dens) -> None:
        # Both constructors pass canonical columns: dens[b] is the lcm of the
        # column's reduced denominators, so no prime divides it together with
        # every numerator of the column, and nothing is left to reduce.
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

    @_cached
    def rows(self) -> tuple:
        """``rows[i][b] = F(vertices[i], boundary[b])`` as Fractions, built on
        first use."""
        # Equal entries of a column share one Fraction: tables repeat few
        # distinct values, so most entries cost one dict lookup.
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
        return tuple(rows)

    @_cached
    def boundary_index(self) -> dict:
        """Column of each boundary vertex, built on first use."""
        return {y: b for b, y in enumerate(self.chain.boundary)}

    def value(self, x, y) -> Fraction:
        b = self.boundary_index[y]
        return Fraction(self.nums[self.chain.index[x], b], self.dens[b])


# Largest estimate ``check_solve_size`` lets through: DL(2,2) n=5 needs
# 0.6 GiB, n=6 12.0 GiB.
_MAX_SOLVE_BYTES = 2 << 30
# The largest stage counted: its boundary alone, 2**134 > 10**40 vertices or
# more, passes both caps, so its counts are floors of any later stage's.
_MAX_COUNTED_STAGE = 67
# Largest class grid (one byte an entry) or certified table (eight) kept in a cache.
_MAX_KEPT_BYTES = 1 << 20


_KINDS = ("dl", "tree1", "tree2")


def _walk_shape(kind: str, params: DLParams) -> tuple[int, int]:
    """``(ups, downs)``: a level-``k`` vertex of the stage-``n`` chain is a
    digit pair ``(i1, i2)`` with ``i1 < ups**(n+k)`` and ``i2 < downs**(n-k)``,
    and the walk moves from it to ``ups`` vertices above and ``downs`` below.
    A tree chain is the case ``downs = 1``; ``tree2`` counts its levels up
    the second tree."""
    if kind not in _KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    return ((params.q, params.r), (params.q, 1), (params.r, 1))[_KINDS.index(kind)]


def _level_sizes(n: int, ups: int, downs: int) -> tuple:
    """Vertices per level, levels ``-n..n``, of the stage-``n`` chain of shape ``(ups, downs)``."""
    return tuple(ups ** (n + k) * downs ** (n - k) for k in range(-n, n + 1))


def _counts(n: int, ups: int, downs: int) -> tuple[int, int, str]:
    """``(interior, boundary, bound)``: ``sum_{j=1}^{2n-1} ups**j downs**(2n-j)``, ``ups**(2n) + downs**(2n)``
    and ``""``; past ``_MAX_COUNTED_STAGE`` those of that stage, before any larger power, and ``"at least "``."""
    m = min(n, _MAX_COUNTED_STAGE)
    if ups == downs:
        interior = (2 * m - 1) * ups ** (2 * m)
    else:
        interior = ups * downs * (ups ** (2 * m - 1) - downs ** (2 * m - 1)) // (ups - downs)
    return interior, ups ** (2 * m) + downs ** (2 * m), "at least " if m < n else ""


def check_solve_size(n: int, params: DLParams, kind: str = "dl") -> int:
    """Bytes that ``hitting_table`` holds at its peak for the stage-``n``
    chain, from the level sizes alone: the table (one word per entry) and
    the temporaries of its certificate, an int64 copy of the table and the
    interior-by-boundary residual and term, ``8 (2 |S| + 2 m) |bd S|`` for
    ``m`` interior vertices.  Raises ValueError naming the estimate past
    ``_MAX_SOLVE_BYTES``; nothing is enumerated.
    """
    if n < 1:
        raise ValueError("truncation stage must be >= 1")
    interior, nb, bound = _counts(n, *_walk_shape(kind, params))
    need = 16 * (2 * interior + nb) * nb  # |S| = m + |bd S|
    if need > _MAX_SOLVE_BYTES:
        tenths = (10 * need + (1 << 29)) >> 30
        gib = f"{tenths // 10}.{tenths % 10}" if tenths < 10**40 else _shown(tenths // 10)
        raise ValueError(f"the exact hitting table needs {bound}{gib} GiB (cap {_MAX_SOLVE_BYTES >> 30} GiB)")
    return need


class _Layout(NamedTuple):
    """The chain's level layout and the walk's moves, read off the order in
    which ``FiniteChain.vertices`` lists them.

    Level ``k`` is the product of level ``k`` of the first tree and level
    ``-k`` of the second, each in successor-label order, so ``(k, i1, i2)``
    sits at ``off[k] + i1 * downs**(n-k) + i2``.  A move up goes to
    ``(k+1, i1*ups + l, i2 // downs)``, a move down to
    ``(k-1, i1 // ups, i2*downs + m)``.  Row ``i`` of the interior reads
    ``denom F(at_i, .) = sum_t coeffs[t] F(slots[i, t], .)``, with the
    positions ``at`` of the interior contiguous and the slots in the order of
    the walk's ``transitions`` (``ups`` moves up, then the moves down), whose
    row ``default_operator(chain)`` scales to ``denom`` and ``coeffs``.
    """

    size: tuple  # vertices per level, levels -n..n
    slots: np.ndarray  # read-only, |interior| x len(coeffs) vertex positions
    denom: int
    coeffs: tuple  # scaled weight of each slot

    @property
    def interior(self) -> slice:
        return slice(self.size[0], sum(self.size) - self.size[-1])

    @property
    def boundary(self) -> np.ndarray:
        """Positions of the boundary, levels ``-n`` and ``n``, in column order."""
        return np.concatenate((np.arange(self.size[0]), np.arange(self.interior.stop, sum(self.size))))


def _layout(chain: FiniteChain) -> _Layout:
    a, p = chain.alpha, chain.params
    row = _walk_row(_KINDS.index(chain.kind), p.q, p.r, a.numerator, a.denominator)
    return _Layout(*_move_slots(chain.n, *_walk_shape(chain.kind, p)), *row)


@lru_cache(maxsize=256)
def _walk_row(kind: int, q: int, r: int, num: int, den: int) -> tuple[int, tuple]:
    """``(denom, coeffs)`` of ``_layout``, from ``default_operator`` once per key."""
    op = default_operator(FiniteChain(_KINDS[kind], 1, DLParams(q, r), Fraction(num, den)))
    denom, coeffs = _integer_row(op._weights)
    return denom, tuple(coeffs)


@lru_cache(maxsize=64)
def _move_slots(n: int, ups: int, downs: int) -> tuple[tuple, np.ndarray]:
    """``(size, slots)`` of ``_layout``, built once per shape; ``slots`` is read-only."""
    size = _level_sizes(n, ups, downs)
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
    slots = np.concatenate(blocks)
    slots.flags.writeable = False
    return size, slots


def hitting_table(chain: FiniteChain) -> HittingTable:
    """The exact boundary-hitting table, laid out from the closed form and
    certified.

    The table is accepted only when these postconditions hold exactly:
    boundary rows are Kronecker deltas, every row sums to 1, and the
    defining sparse equations hold with residual zero; otherwise
    AssertionError.  The Dirichlet problem on the truncation has one
    solution, so a table that passes is that solution.  A chain past
    ``check_solve_size`` raises ValueError, on every call, before any of it
    is built.  ``_certified`` keeps the columns per integer key up to
    ``_MAX_KEPT_BYTES`` (eight an entry) and each call gets a read-only view
    of them: the columns are shared, not copied, and only the view is read-only.
    """
    check_solve_size(chain.n, chain.params, chain.kind)
    interior, nb, _ = _counts(chain.n, *_walk_shape(chain.kind, chain.params))
    build = _certified if 8 * (interior + nb) * nb <= _MAX_KEPT_BYTES else _certified.__wrapped__
    a, p = chain.alpha, chain.params
    nums, dens = build(_KINDS.index(chain.kind), chain.n, p.q, p.r, a.numerator, a.denominator)
    return HittingTable._from_columns(chain, nums.view(), dens)


@lru_cache(maxsize=64)
def _certified(kind: int, n: int, q: int, r: int, num: int, den: int) -> tuple[np.ndarray, tuple]:
    """``(nums, dens)`` of the key's closed-form table once it has passed
    ``_verify_table``, ``nums`` read-only; a table that fails is never kept."""
    chain = FiniteChain(_KINDS[kind], n, DLParams(q, r), Fraction(num, den))
    table = HittingTable._from_columns(chain, *_closed_form(chain))
    _verify_table(table, _layout(chain))
    return table.nums, table.dens


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
    if _residual(ints, lay).any():
        raise AssertionError("exact residual of the Dirichlet solve is nonzero")


def _residual(ints: np.ndarray, lay: _Layout) -> np.ndarray:
    """``denom f(at_i) - sum_t coeffs[t] f(slots[i, t])`` on each interior row ``i`` of ``lay``, in the
    dtype of ``ints``, the values ``f`` as a vector or a table's columns: zero where ``f`` is harmonic."""
    residual = ints[lay.interior] * lay.denom
    term = np.empty_like(residual)
    for t, c in enumerate(lay.coeffs):
        np.take(ints, lay.slots[:, t], axis=0, out=term)
        term *= c
        residual -= term
    return residual


# ---------------------------------------------------------------------------
# Closed-form route on a single tree.


@lru_cache(maxsize=256)
def _sequences(n: int, branch: int, a: int, m: int) -> tuple[tuple, tuple, tuple]:
    """``(p, r, pi)`` of the stage-``n`` tree climbed at rate ``a/m``, as in
    the module docstring: tuples indexed by level, a negative level counting
    from the end.  A rate outside (0, 1) raises ValueError, never cached."""
    _check_alpha(Fraction(a, m))
    p = [0, 1]  # levels n+1 and n, then down to -n-1
    for _ in range(2 * n + 1):
        p.append(m * p[-1] - a * (m - a) * p[-2])
    p.reverse()
    r = [0, p[2]]  # levels -n-1 and -n, then up to n-1; level k at k + n + 1
    for i in range(2, 2 * n + 1):
        lead = m * branch * p[i + 1] - a * (branch - 1) * (m - a) * p[i + 2]
        r.append(lead * r[i - 1] - a * branch * (m - a) * p[i] * p[i + 1] * r[i - 2])
    pi = [1, *accumulate(p[2:], int.__mul__, initial=1)]
    return tuple(tuple(s[n + 1 :] + s[: n + 1]) for s in (p, r, pi))


def _level_product(n: int, branch: int, up: Fraction, c: int, lx: int, ly: int) -> Fraction:
    """The geodesic product of any ``x`` on level ``lx``, ``y`` on ``ly``
    with ``x ⋏ y`` on ``c``, telescoped over ``_sequences`` into one Fraction."""
    return Fraction(*_level_pair(n, branch, *Fraction(up).as_integer_ratio(), c, lx, ly))


def _level_pair(n: int, branch: int, a: int, m: int, c: int, lx: int, ly: int) -> tuple[int, int]:
    """``_level_product`` at the rate ``a/m`` as an unreduced integer pair."""
    p, r, pi = _sequences(n, branch, a, m)
    num = den = 1
    if lx > c:
        num, den = (m - a) ** (lx - c) * p[lx + 1], p[c + 1]
    if ly > c:
        num, den = num * a ** (ly - c) * pi[ly] * r[c - 1], den * pi[c] * r[ly - 1]
    return num, den


@lru_cache(maxsize=256)
def _class_values(n: int, branch: int, num: int, den: int) -> tuple[int, tuple]:
    """``(common, levels)`` of the stage-``n`` tree climbed at rate ``num/den``: ``levels[n + lv]``
    holds ``F(x, y) * common`` for ``x`` on level ``lv``, ``y`` a leaf, one read-only entry per class
    of ``_classes(n, branch, lv)``; ``common`` is the lcm of the reduced denominators."""
    up, classes = Fraction(num, den), [(lv, _classes(n, branch, lv)) for lv in range(-n, n + 1)]
    common, ints = _over_lcm([_level_product(n, branch, up, c, lv, n) for lv, cs in classes for c in cs])
    ends = list(accumulate((len(cs) for _, cs in classes), initial=0))
    levels = tuple(np.array(ints[a:b], dtype=object) for a, b in zip(ends, ends[1:]))
    for level in levels:
        level.flags.writeable = False
    return common, levels


def _in_tree_chain(v: TreeVertex, n: int, branch: int) -> bool:
    check_labels(v, branch)  # a label outside range(branch) raises ValueError
    return -n <= v.level <= n and all(j > -n for j, _ in v.labels)


def restricted_hitting(n: int, branch: int, up: Fraction, x: TreeVertex, y: TreeVertex) -> Fraction:
    """``F(x, y)`` before the stage-``n`` boundary, by geodesic edge products."""
    if not (_in_tree_chain(x, n, branch) and _in_tree_chain(y, n, branch)):
        raise ValueError("both endpoints must lie in the truncation")
    return _level_product(n, branch, up, confluent_omega(x, y).level, x.level, y.level)


def closed_tree_table(chain: FiniteChain) -> HittingTable:
    """The full tree hitting table from the closed-form edge factors: the
    tree case of ``hitting_table``."""
    if chain.kind == "dl":
        raise ValueError("closed-form factors live on tree chains")
    return hitting_table(chain)


@dataclass(frozen=True)
class ProductReport:
    checked: int
    discrepancies: tuple


@lru_cache(maxsize=64)
def _confluent_levels(n: int, branch: int, level: int) -> np.ndarray:
    """Class (level less ``_classes(...).start``) of ``x ⋏ y`` for ``x`` on
    ``level`` (rows) and ``y`` a leaf (columns) of the stage-``n`` tree, both
    numbered as in ``FiniteChain.vertices``, where ancestors are digit
    prefixes: ``x ⋏ y`` is on ``level - d`` for the least ``d`` at which ``x //
    branch**d`` and the ancestor of ``y`` agree.  Read-only int8, built once."""
    x = np.arange(branch ** (n + level))[:, None]
    y = np.arange(branch ** (2 * n))[None, :] // branch ** (n - level)
    out = np.empty((x.size, y.size), dtype=np.int8)
    for d in range(n + level, -1, -1):  # the apex, then ever closer ancestors
        out[x // branch**d == y // branch**d] = level - d - _classes(n, branch, level).start
    out.flags.writeable = False
    return out


def _class_grid(n: int, branch: int, level: int) -> np.ndarray:
    """``_confluent_levels``, kept up to ``_MAX_KEPT_BYTES`` and built per call above it."""
    kept = branch ** (3 * n + level) <= _MAX_KEPT_BYTES
    return (_confluent_levels if kept else _confluent_levels.__wrapped__)(n, branch, level)


def _slabs(chain: FiniteChain) -> tuple:
    """The boundary slabs in column order, as ``(branch, up rate, sign)``:
    each tree of the chain with the rate at which its walk climbs it.

    A level-``k`` vertex ``(i1, i2)`` of the layout sees the first slab, the
    leaves ``y2`` of the second tree (columns ``(a1, y2)``), through ``i2`` on
    level ``-k`` of that tree, and the second slab, the leaves ``y1``
    (columns ``(y1, a2)``), through ``i1`` on level ``k``: the product
    formula ``F(x1 x2, (a1, y2)) = F2(x2, y2)``, ``F(x1 x2, (y1, a2)) =
    F1(x1, y1)``.  The first tree climbs at ``alpha`` and the second at ``1 -
    alpha``; ``tree2`` counts its levels up the second tree.  A tree chain is
    the case ``downs = 1``: its second tree is a line, whose one leaf is the
    apex, and the line's up factors are the tree's down factors."""
    ups, downs = _walk_shape(chain.kind, chain.params)
    up = 1 - chain.alpha if chain.kind == "tree2" else chain.alpha
    return ((downs, 1 - up, -1), (ups, up, 1))


def _classes(n: int, branch: int, level: int) -> range:
    """Levels of ``x ⋏ y`` that every leaf ``y`` meets among the ``x`` on
    ``level``: all from ``-n`` to ``level`` (an ``x`` branching off the
    leaf's ancestors there), and on a line only ``level``."""
    return range(-n if branch > 1 else level, level + 1)


def _closed_form(chain: FiniteChain) -> tuple[np.ndarray, list]:
    """The closed-form table as canonical integer columns ``(nums, dens)``:
    ``nums[i, b] = F(vertices[i], boundary[b]) * dens[b]``, where ``dens[b]``
    is the lcm of the column's reduced denominators.

    By the stabiliser of the column's leaf, ``F`` depends only on the class
    ``(k, c)``: the level ``k`` of the vertex on the slab's tree and the level
    ``c`` of its confluent with the leaf.  Every column of a slab meets every
    class, so its denominator is the slab's ``common`` of ``_class_values``;
    each level's scaled class values are laid out by ``_confluent_levels`` and
    repeated across the other coordinate.
    """
    n = chain.n
    ups, downs = _walk_shape(chain.kind, chain.params)
    sizes = _level_sizes(n, ups, downs)
    # (branch, sign, common, the scaled class values of each level -n..n)
    slabs = [(b, sign, *_class_values(n, b, up.numerator, up.denominator)) for b, up, sign in _slabs(chain)]
    dens = [common for branch, _, common, _ in slabs for _ in range(branch ** (2 * n))]
    out = np.empty((sum(sizes), len(dens)), dtype=object)
    start = 0
    for k, size in zip(range(-n, n + 1), sizes):
        # vertex (i1, i2) of level k at start + i1*downs**(n-k) + i2: a view, as
        # ``out`` is C-contiguous
        level_rows = out[start : start + size].reshape(ups ** (n + k), -1, len(dens))
        lo = 0
        for branch, sign, _, levels in slabs:
            level = sign * k
            cols = slice(lo, lo + branch ** (2 * n))
            grid = levels[n + level][_class_grid(n, branch, level)]
            level_rows[:, :, cols] = grid[None] if sign < 0 else grid[:, None]
            lo = cols.stop
        start += size
    return out, dens


def verify_product_formula(chain: FiniteChain) -> ProductReport:
    """``F(x1 x2, (y1, a2)) = F1(x1, y1)`` and ``F(x1 x2, (a1, y2)) = F2(x2,
    y2)`` on every entry of the chain's table: ``hitting_table`` lays it out
    from these products and certifies it by the DL walk's own equations, whose
    solution is unique, so the report counts the entries and lists no
    discrepancy; a table that fails raises AssertionError there."""
    if chain.kind != "dl":
        raise ValueError("the product identity lives on the product chain")
    return ProductReport(hitting_table(chain).nums.size, ())


def _extend(chain: FiniteChain, ints: list) -> tuple[int, list, tuple]:
    """The harmonic extension of integer boundary data ``ints`` (column
    order) by the product formula: ``(scale, values, parts)``, with
    ``values[i] / scale`` its value at ``vertices[i]`` and ``parts[s][n +
    l][i] / scale`` the term of slab ``s`` at vertex ``i`` of level ``l`` of
    its tree: vertex ``(k, i1, i2)`` takes ``parts[1][n + k][i1] + parts[0][n - k][i2]``.

    ``F(x, y) * common`` is ``P(c)``, the slab's ``_class_values`` entry for
    ``x`` on level ``l`` and ``x ⋏ y`` on ``c``.  A leaf lies under the
    ancestor of ``x`` on every level up to ``c`` (ancestors are digit
    prefixes), so the weights ``P(c) - P(c - 1)``, with ``P`` zero below the
    first class, times the data summed under each ancestor (``below``) sum to
    the extension, accumulated level by level at about one step a vertex.
    """
    n = chain.n
    slabs = [(b, *_class_values(n, b, up.numerator, up.denominator)) for b, up, _ in _slabs(chain)]
    scale = lcm(*(common for _, common, _ in slabs))
    parts, start = [], 0
    for branch, common, levels in slabs:
        below = {n: ints[start : start + branch ** (2 * n)]}
        start += branch ** (2 * n)
        for c in range(n - 1, -n - 1, -1):
            cone = below[c + 1]
            below[c] = [sum(cone[a : a + branch]) for a in range(0, len(cone), branch)]
        part = []
        for k in range(-n, n + 1):
            ps, out = levels[n + k].tolist(), [0]
            for c, p, prev in zip(_classes(n, branch, k), ps, [0, *ps]):
                w, cone = (p - prev) * (scale // common), below[c]
                spread = (t for t in out for _ in range(len(cone) // len(out)))
                out = [t + w * x for t, x in zip(spread, cone)]
            part.append(out)
        parts.append(part)
    low, high = parts
    values = [u + v for k in range(-n, n + 1) for u in high[n + k] for v in low[n - k]]
    return scale, values, tuple(parts)


def represent(chain: FiniteChain, boundary_data: Mapping) -> dict:
    """Solve the Dirichlet problem: the unique harmonic extension of the
    data, ``_extend``'s, certified as ``_verify_table`` certifies a table
    (equal to the data on the boundary, zero exact ``_residual`` inside) or
    AssertionError.  The solution is unique, so that is the proof; no table
    is built, so only the vertex cap bounds the chain."""
    missing = [y for y in chain.boundary if y not in boundary_data]
    if missing:
        raise ValueError(f"boundary data missing at {len(missing)} vertices")
    common, ints = _over_lcm([Fraction(boundary_data[y]) for y in chain.boundary])
    scale, values, _ = _extend(chain, ints)
    lay = _layout(chain)
    if values[: lay.size[0]] + values[lay.interior.stop :] != [g * scale for g in ints]:
        raise AssertionError("the harmonic extension differs from the boundary data")
    if _residual(np.array(values, dtype=object), lay).any():
        raise AssertionError("exact residual of the Dirichlet solve is nonzero")
    return {x: Fraction(v, scale * common) for x, v in zip(chain.vertices, values)}


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
    once per vertex of the truncation, and every check reads those values
    scaled to integers over one denominator.  Harmonicity is checked by
    ``_residual``, as tables are; ``h_i`` is the slab's part of ``_extend``
    of h's boundary values, kept in integers until ``_extend``'s sum is
    verified to reconstruct h on all of S.  ``lambda_i`` are the boundary
    weights normalised by ``lambda_i(a_i) = 0``.
    """
    alpha = Fraction(alpha)
    chain = build_truncation(n, params, alpha, "dl")
    common, ints = _over_lcm([h(v) for v in chain.vertices])  # h * common
    lay = _layout(chain)
    bad = np.flatnonzero(_residual(np.array(ints, dtype=object), lay))
    if bad.size:
        raise ValueError(f"h is not harmonic on the interior; witness {chain.vertices[lay.interior.start + bad[0]]}")

    # Level -n of S is (a1, y2) and level n is (y1, a2), each in leaf order.
    ends = (slice(lay.size[0]), slice(lay.interior.stop, None))
    scale, values, parts = _extend(chain, ints[ends[0]] + ints[ends[1]])
    for v, value, want in zip(chain.vertices, values, ints):
        if value != want * scale:
            raise AssertionError(f"splitting failed to reconstruct h at {v}")
    # In the normalised boundary weights, leaves separated from the root by the
    # apex carry zero harmonic measure from o and are omitted.
    out = []
    for (branch, up, _), part, leaves in zip(_slabs(chain), parts, ends):
        levels, (f_scale, products) = _tree_levels(n, branch), _class_values(n, branch, up.numerator, up.denominator)
        weights = {chain.a1: Fraction(0)}
        # F(o, y) * f_scale by the class of o ⋏ y, o being vertex 0 of level 0
        for y, b, f in zip(levels[n], ints[leaves], products[n][_class_grid(n, branch, 0)[0]].tolist()):
            if f:
                weights[y] = Fraction(b * f_scale, common * f)
        hi = [(x, e) for k in range(-n, n + 1) for x, e in zip(levels[k], part[n + k])]
        hi.sort(key=lambda item: (item[0].level, item[0].labels))
        out.append(({x: Fraction(e, scale * common) for x, e in hi}, weights))
    (h2, lambda2), (h1, lambda1) = out
    return Decomposition(n, params, alpha, h1, h2, lambda1, lambda2)


def kernel_approx(chain: FiniteChain, x: TreeVertex, target) -> Fraction:
    """Stage-``n`` Martin kernel approximant ``F(x, y) / F(o, y)`` on a tree
    chain.

    ``target`` may be a boundary vertex of the tree chain or an end: an end
    routes to the leaf whose cone contains it, and to the apex when its ray
    leaves through the bottom (in particular for the reference end).  Only
    the chain's description is read, by the geodesic edge products, so a
    deep stage such as ``FiniteChain("tree1", 64, ...)`` enumerates nothing.
    """
    if chain.kind == "dl":
        raise ValueError("closed-form factors live on tree chains")
    branch, up, _ = _slabs(chain)[1]
    n = chain.n
    if not _in_tree_chain(x, n, branch) or abs(x.level) >= n or confluent_omega(x, ROOT).level <= -n:
        raise ValueError("x must lie in the interior of the truncation (n too small)")
    if isinstance(target, TreeEnd):
        check_labels(target, branch)
        if target.is_omega or any(j <= -n for j, _ in target.labels):
            # the ray leaves below the apex: apex cone
            y = _new(TreeVertex, (-n, ()))
        elif any(j == 1 - n for j, _ in target.labels):
            # the ray grazes the apex exactly: its leaf has zero harmonic
            # measure from the root and the ratio is 0/0 at this stage
            raise ValueError("stage too small for this end (ray through the apex)")
        else:
            y = _new(TreeVertex, (n, _upto(target.labels, n)))
    else:
        y = target
        if not _in_tree_chain(y, n, branch) or abs(y.level) != n:
            raise ValueError("target vertex must belong to the chain boundary")
    a, m = up.as_integer_ratio()
    on, od = _level_pair(n, branch, a, m, confluent_omega(ROOT, y).level, 0, y.level)
    if on == 0:
        raise ValueError("target has zero harmonic measure from the root at this stage")
    xn, xd = _level_pair(n, branch, a, m, confluent_omega(x, y).level, x.level, y.level)
    return Fraction(xn * od, xd * on)
