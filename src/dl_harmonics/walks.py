"""Random-walk operators on the trees and their horocyclic products.

Operators (all rows are exact rationals):

* ``DLWalk(params, alpha)`` -- on DL(q, r): each up-neighbour with probability
  ``alpha/q``, each down-neighbour with ``(1-alpha)/r``.
* ``p1_walk`` / ``p2_walk`` -- the two tree projections: the first-coordinate
  walk steps to each successor with ``alpha/q`` and to the predecessor with
  ``1-alpha``; the second-coordinate walk is the mirror (predecessor
  ``alpha``, successors ``(1-alpha)/r`` each).
* ``SiblingWalk(params, alpha)`` -- on the sibling-augmented graph: each of
  the ``q^2`` up-neighbours with ``alpha/q^2``, each of the ``q r``
  down-neighbours with ``(1-alpha)/(q r)``.
* ``conjugate(op, g)`` -- the h-transform ``p(x,y) g(y)/g(x)``; row-stochastic
  exactly when ``g`` is positive harmonic.
* ``project(op)`` -- push a sibling walk through the sibling-class factor map;
  the result coincides with ``DLWalk`` at the same ``alpha``.

Sampling is exact: transition weights are Fractions, and each step draws a
uniform integer below the row's common denominator, so no floating-point
comparison ever decides a step.  Randomness comes from counter-based Philox
streams keyed by ``(seed, trial)`` -- bit-reproducible across runs and
platforms; ``simulate`` uses trial index 0.

``DLWalk``, the tree walks and ``SiblingWalk`` have the same row at every
state, so ``estimate_f`` steps them through a table of moves on the meet
state: per tree coordinate, the run's level and the level of its confluent
with the target.  Hitting the target, the distance to it and the ruin bound
read only these two numbers (the projection argument, applied to paths), so
no label word is built.  A walk of these conjugated by a drift kernel (a
``g`` marked ``level_only``, see ``kernels.drift_kernel``) has one row at
every state too, read once from ``transitions`` at the start, and steps on
the meet state with the base walk's moves, never stopping early: like the
generic path, it classifies a run alive at the horizon by its final
distance.  Otherwise, and always in ``simulate``, rows come from
``transitions``, computed once per distinct state within a call (for the
first 1024 distinct states; later ones are recomputed on each visit):
``transitions`` (and the ``g`` of a conjugated walk) must therefore be a
pure function of the state.

``estimate_f`` estimates a hitting probability ``F(x, y)`` by plain
Monte-Carlo counting: ``hits/trials`` is a lower bound for ``F(x, y)`` (runs
are never written off early on a heuristic).  Runs still alive at the horizon
are *classified* for reporting: "escaped" if a sound gambler's-ruin bound on
the remaining hitting probability is below ``escape_tol`` (only possible for
drifting walks; such runs may also stop early, distorting the estimate by at
most ``trials * escape_tol``), or if the final distance to the target exceeds
``escape_radius`` (a documented heuristic -- for driftless walks no finite
certificate of escape exists); everything else counts as "truncated".
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dl_graph import (
    DLParams,
    DLVertex,
    check_vertex,
    dl_distance,
    dl_neighbours,
    dls_neighbours,
    factor_map,
)
from .tree import TreeVertex, check_labels, confluent_omega, distance as tree_distance, predecessor, shift, successor

__all__ = [
    "DLWalk",
    "TreeWalk",
    "SiblingWalk",
    "ConjugatedWalk",
    "ProjectedWalk",
    "p1_walk",
    "p2_walk",
    "transitions",
    "apply",
    "is_harmonic_at",
    "is_stochastic_at",
    "conjugate",
    "project",
    "simulate",
    "estimate_f",
    "Trajectory",
    "EstimateResult",
    "operator_from_name",
]


_EXACT = {int, Fraction}  # value types that ``apply`` sums as integer pairs


def _check_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        shown = str(alpha)
        if len(shown) > 40:  # a long literal is not repeated back
            shown = f"a number of {len(shown)} characters"
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {shown}")
    return alpha


def _check_dl_state(v: DLVertex, params: DLParams) -> None:
    """A start state must be a vertex of the graph: right level sum and
    every label below its tree's branching."""
    check_vertex(v, params)
    check_labels(v.x1, params.q)
    check_labels(v.x2, params.r)


def _set_row(op, *blocks: tuple[Fraction, int]) -> None:
    """Store a transition row as ``(weight, count)`` blocks and spelled out
    weight by weight, in the order of the walk's neighbour list."""
    object.__setattr__(op, "_blocks", blocks)
    object.__setattr__(op, "_weights", tuple(p for p, n in blocks for _ in range(n)))


@dataclass(frozen=True)
class DLWalk:
    """The drifted simple walk on DL(q, r)."""

    params: DLParams
    alpha: Fraction
    _blocks: tuple = field(init=False, compare=False, repr=False)
    _weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        alpha = _check_alpha(self.alpha)
        q, r = self.params.q, self.params.r
        object.__setattr__(self, "alpha", alpha)
        _set_row(self, (alpha / q, q), ((1 - alpha) / r, r))

    def validate_state(self, v: DLVertex) -> None:
        _check_dl_state(v, self.params)

    def transitions(self, v: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        return list(zip(dl_neighbours(v, self.params), self._weights))


@dataclass(frozen=True)
class TreeWalk:
    """Nearest-neighbour tree walk: up-rate ``up`` split over ``branch`` successors."""

    branch: int
    up: Fraction
    kind: str = "tree"
    _blocks: tuple = field(init=False, compare=False, repr=False)
    _weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        up = _check_alpha(self.up)
        object.__setattr__(self, "up", up)
        _set_row(self, (up / self.branch, self.branch), (1 - up, 1))

    def validate_state(self, v: TreeVertex) -> None:
        if not isinstance(v, TreeVertex):
            raise ValueError("tree walks move on tree vertices")
        check_labels(v, self.branch)

    def transitions(self, v: TreeVertex) -> list[tuple[TreeVertex, Fraction]]:
        nbrs = [successor(v, l, self.branch) for l in range(self.branch)]
        nbrs.append(predecessor(v))
        return list(zip(nbrs, self._weights))


def p1_walk(params: DLParams, alpha: Fraction) -> TreeWalk:
    """First-coordinate projection of :class:`DLWalk`."""
    return TreeWalk(params.q, _check_alpha(alpha), "p1")


def p2_walk(params: DLParams, alpha: Fraction) -> TreeWalk:
    """Second-coordinate projection of :class:`DLWalk`."""
    return TreeWalk(params.r, 1 - _check_alpha(alpha), "p2")


@dataclass(frozen=True)
class SiblingWalk:
    """The switch-walk-switch walk on the sibling-augmented product."""

    params: DLParams
    alpha: Fraction
    _blocks: tuple = field(init=False, compare=False, repr=False)
    _weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        alpha = _check_alpha(self.alpha)
        q, r = self.params.q, self.params.r
        object.__setattr__(self, "alpha", alpha)
        _set_row(self, (alpha / (q * q), q * q), ((1 - alpha) / (q * r), q * r))

    def validate_state(self, v: DLVertex) -> None:
        _check_dl_state(v, self.params)

    def transitions(self, v: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        return list(zip(dls_neighbours(v, self.params), self._weights))


@dataclass(frozen=True)
class ConjugatedWalk:
    """h-transform of ``base`` by a positive function ``g``."""

    base: object
    g: Callable

    def validate_state(self, v) -> None:
        self.base.validate_state(v)

    def transitions(self, v):
        """``(w, p * g(w) / g(v))`` over the base row.  With a ``Fraction``
        weight and exact values of ``g``, each weight is one ``Fraction``
        built from integer parts; it equals the product, which is also a
        ``Fraction`` then."""
        gv = self.g(v)
        if gv <= 0:
            raise ValueError("conjugating function must be strictly positive")
        exact = type(gv) in _EXACT
        if exact:
            vn, vd = gv.as_integer_ratio()
        out = []
        for w, p in self.base.transitions(v):
            gw = self.g(w)
            if exact and type(p) is Fraction and type(gw) in _EXACT:
                wn, wd = gw.as_integer_ratio()
                if wn <= 0:  # an exact value has the sign of its numerator
                    raise ValueError("conjugating function must be strictly positive")
                out.append((w, Fraction(p.numerator * wn * vd, p.denominator * wd * vn)))
            elif gw <= 0:
                raise ValueError("conjugating function must be strictly positive")
            else:
                out.append((w, p * gw / gv))
        return out


@dataclass(frozen=True)
class ProjectedWalk:
    """A sibling walk pushed through the sibling-class factor map."""

    base: SiblingWalk

    @property
    def params(self) -> DLParams:
        return self.base.params

    @property
    def alpha(self) -> Fraction:
        return self.base.alpha

    def validate_state(self, v: DLVertex) -> None:
        _check_dl_state(v, self.params)

    def _section(self, v: DLVertex) -> DLVertex:
        return DLVertex(successor(shift(v.x1, -1), 0, self.params.q), v.x2)

    def transitions(self, v: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        return self._transitions_from(self._section(v))

    def _transitions_from(self, rep: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        grouped: dict[DLVertex, Fraction] = {}
        order: list[DLVertex] = []
        for w, p in self.base.transitions(rep):
            img = factor_map(w, self.params)
            if img not in grouped:
                grouped[img] = Fraction(0)
                order.append(img)
            grouped[img] += p
        return [(w, grouped[w]) for w in order]


def transitions(op, v):
    return op.transitions(v)


def apply(op, h, v) -> Fraction:
    """One application of the transition operator: ``sum_w p(v, w) h(w)``.

    A walk whose row is stored as blocks of equal weight sums ``h`` over each
    block and multiplies once per block; an exact sum does not depend on the
    order of its terms.  When every value is an ``int`` or a ``Fraction``,
    the sum is carried as one unreduced integer pair and the result is the
    one ``Fraction`` built from it; other values (floats) are summed as they
    are.
    """
    row = op.transitions(v)
    blocks = getattr(op, "_blocks", None)
    if blocks is None:
        return sum(p * h(w) for w, p in row)
    values = [h(w) for w, _ in row]
    it = iter(values)
    if not {*map(type, values)} <= _EXACT:
        return sum(p * sum(islice(it, n)) for p, n in blocks)
    num, den = 0, 1
    for p, n in blocks:
        bn, bd = 0, 1
        for x in islice(it, n):
            xn, xd = x.as_integer_ratio()
            bn, bd = (bn + xn, bd) if xd == bd else (bn * xd + xn * bd, bd * xd)
        pn, pd = p.as_integer_ratio()
        d = pd * bd
        num, den = num * d + pn * bn * den, den * d
    return Fraction(num, den)


def is_harmonic_at(op, h, v) -> bool:
    """Exact pointwise harmonicity check ``(P h)(v) == h(v)``."""
    return apply(op, h, v) == h(v)


def is_stochastic_at(op, v) -> bool:
    row = op.transitions(v)
    return all(p >= 0 for _, p in row) and sum(p for _, p in row) == 1


def conjugate(op, g) -> ConjugatedWalk:
    return ConjugatedWalk(op, g)


def project(op: SiblingWalk) -> ProjectedWalk:
    if not isinstance(op, SiblingWalk):
        raise ValueError("only sibling walks project through the factor map")
    return ProjectedWalk(op)


def operator_from_name(name: str, params: DLParams, alpha: Fraction):
    table = {
        "palpha": lambda: DLWalk(params, alpha),
        "p1": lambda: p1_walk(params, alpha),
        "p2": lambda: p2_walk(params, alpha),
        "qalpha": lambda: SiblingWalk(params, alpha),
    }
    if name not in table:
        raise ValueError(f"unknown operator {name!r}; pick from {sorted(table)}")
    return table[name]()


# ---------------------------------------------------------------------------
# Exact sampling machinery.

_MASK64 = (1 << 64) - 1


def _philox_stream(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial: key = (seed, trial), 64 bits each."""
    key = ((int(seed) & _MASK64) << 64) | (int(trial) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """``trial -> generator`` drawing exactly what ``_philox_stream(seed, trial)``
    draws.

    One bit generator serves every trial: each call re-keys it through its
    state (counter 0, empty buffers, key ``(trial, seed)``), which is much
    cheaper than seeding a new one, and returns the same ``Generator``.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    key[1] = int(seed) & _MASK64

    def stream(trial: int) -> np.random.Generator:
        key[0] = int(trial) & _MASK64
        bitgen.state = state
        return gen

    return stream


def _over_lcm(fracs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(common, ints)``: the lcm of the reduced denominators of ``fracs``, and each value times it."""
    common = math.lcm(*(f.denominator for f in fracs))
    return common, [f.numerator * (common // f.denominator) for f in fracs]


def _shown(count: int) -> str:
    """``count``, or past 40 digits its digit count: ``str`` refuses an int of more than 4,300 digits."""
    if count < 10**40:
        return str(count)
    digits = math.floor(math.log10(count)) + 1  # the float log may be one off next to a power of 10
    digits += (count >= 10**digits) - (count < 10 ** (digits - 1))
    return f"a {digits}-digit number of"


def _integer_row(weights: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Common denominator and integer weights of an exact distribution row;
    raises unless every weight is non-negative and they sum to 1."""
    if any(p < 0 for p in weights):
        raise ValueError("cannot sample from a row with negative weights")
    denom, counts = _over_lcm(weights)
    if sum(counts) != denom:
        raise ValueError("transition row does not sum to 1")
    return denom, counts


# Rows kept per call.  Short walks revisit the states near their start, and
# those are seen first; a long walk visits ever new states whose rows grow
# with their level, so keeping all of them would cost memory without reuse.
_KEPT_ROWS = 1024


def _row(op, v, rows: dict) -> tuple[list, int, list[int]]:
    """``(targets, denom, cumulative)`` of ``op`` at ``v``: looked up in
    ``rows``, else computed and kept there while it holds fewer than
    ``_KEPT_ROWS`` states.

    A uniform draw ``d`` below ``denom`` picks ``targets[bisect_right(cumulative, d)]``.
    """
    row = rows.get(v)
    if row is None:
        trans = op.transitions(v)
        denom, counts = _integer_row([p for _, p in trans])
        row = ([w for w, _ in trans], denom, list(accumulate(counts)))
        if len(rows) < _KEPT_ROWS:
            rows[v] = row
    return row


@dataclass(frozen=True)
class Trajectory:
    """A sampled path: ``start`` followed by ``steps`` successive vertices."""

    start: object
    steps: tuple
    seed: int


def simulate(op, start, n_steps: int, seed: int) -> Trajectory:
    """Sample ``n_steps`` exact steps of ``op`` from ``start``.

    Same ``(op, start, n_steps, seed)`` always yields the identical path.
    Requires a row-stochastic operator whose ``transitions`` is a pure
    function of the state: rows are kept and reused within the call.
    """
    op.validate_state(start)
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    gen = _philox_stream(seed, 0)
    rows: dict = {}
    v = start
    out = []
    for _ in range(n_steps):
        targets, denom, cum = _row(op, v, rows)
        v = targets[bisect_right(cum, int(gen.integers(0, denom)))]
        out.append(v)
    return Trajectory(start, tuple(out), seed)


# ---------------------------------------------------------------------------
# Hitting-probability estimation.


@dataclass(frozen=True)
class EstimateResult:
    """Monte-Carlo estimate of a hitting probability.

    ``point_estimate = hits/trials`` is a lower bound for ``F(x, y)``;
    ``half_width_95`` is the normal-approximation 95% half-width.  Runs alive
    at the horizon split into ``escaped_runs`` (certified or far away, see
    :func:`estimate_f`) and ``truncated_runs`` (unresolved near the target).
    """

    point_estimate: float
    half_width_95: float
    trials: int
    horizon: int
    truncated_runs: int
    escaped_runs: int
    hits: int
    seed: int
    escape_radius: int


def _ruin_bound(up: float, lv: int, ylv: int, conf_level: int, margin: int) -> float:
    """Upper bound on ever hitting the target from the current state.

    Two necessary events for the level process (an iid +-1 walk with up-rate
    ``up``): reach the target's level, and descend to ``conf_level + margin``.
    Each has an exact gambler's-ruin bound; their minimum is returned.
    """
    down = 1.0 - up
    bound = 1.0
    if ylv > lv and up < down:
        bound = min(bound, (up / down) ** (ylv - lv))
    if ylv < lv and down < up:
        bound = min(bound, (down / up) ** (lv - ylv))
    need = lv - (conf_level + margin)
    if need > 0 and down < up:
        bound = min(bound, (down / up) ** need)
    return bound


class _Plan(NamedTuple):
    """Per-draw moves of a walk whose row has one shape at every state.

    ``pair`` says whether there is a second tree coordinate.  A move is
    ``(up, label1, switch, label2)``: when ``up`` is 1 the first coordinate
    steps up along ``label1`` and the second steps down; when 0 the first
    steps down and the second steps up along ``label2``.  A ``switch`` that
    is not None first replaces the first coordinate's label at the lower of
    its two levels (a sibling move).  ``weights`` are the move probabilities
    in that order.  With ``ruin_bound`` a run may stop early on the
    gambler's-ruin bound of a level process of up-rate ``up_rate`` (see
    :func:`_ruin_bound`, which also takes ``margin``); without it a run never
    stops early, and an unresolved run is classified by its final distance
    only, as on the generic path.
    """

    weights: Sequence[Fraction]
    moves: list
    pair: bool
    up_rate: float
    margin: int
    ruin_bound: bool = True


def _fast_plan(op, x, horizon: int) -> _Plan | None:
    """The :class:`_Plan` of ``op``, or None for an operator that needs the
    generic path.

    A :class:`ConjugatedWalk` has a plan when its ``g`` carries the marker
    ``level_only`` (as :func:`~dl_harmonics.kernels.drift_kernel` sets it)
    and its base has a plan.  Then ``g(w)/g(v)`` depends only on the move,
    so the conjugated row read once from ``op.transitions(x)`` is the row at
    every state; it keeps the base plan's moves.  The row is read only when
    a run takes a step (``horizon > 0``), since the generic path reads no
    row otherwise.
    """
    if isinstance(op, TreeWalk):
        moves = [(1, l, None, 0) for l in range(op.branch)] + [(0, 0, None, 0)]
        return _Plan(op._weights, moves, False, float(op.up), 0)
    if isinstance(op, DLWalk):
        q, r = op.params.q, op.params.r
        moves = [(1, l, None, 0) for l in range(q)] + [(0, 0, None, m) for m in range(r)]
        return _Plan(op._weights, moves, True, float(op.alpha), 0)
    if isinstance(op, SiblingWalk):
        q, r = op.params.q, op.params.r
        moves = [(1, l, m, 0) for m in range(q) for l in range(q)] + [
            (0, 0, m, mm) for m in range(q) for mm in range(r)
        ]
        return _Plan(op._weights, moves, True, float(op.alpha), 1)
    if isinstance(op, ConjugatedWalk) and horizon and getattr(op.g, "level_only", False):
        base = _fast_plan(op.base, x, horizon)
        if base is not None:
            weights = [p for _, p in op.transitions(x)]
            return base._replace(weights=weights, ruin_bound=False)
    return None


def _fast_counts(plan: _Plan, x, y, trials, horizon, seed, escape_radius, escape_tol):
    """``(hits, escaped, truncated)`` of :func:`estimate_f` on the fast path,
    for a start ``x`` other than the target ``y``.

    A run keeps two integers per tree coordinate: its level ``lv`` and the
    level ``c`` of its confluent with the target (the meet).  Whether the run
    stands on the target, its distance to it and the ruin bound read only
    these, and a move changes the meet only where it touches the target's
    ray, so the label word itself is never built.
    """
    weights, moves, pair, up_rate, margin, ruin_bound = plan
    denom, counts = _integer_row(weights)  # raises unless the row is a distribution
    if denom <= 4096:
        table = []
        for move, n in zip(moves, counts):
            table.extend([move] * n)
        pick = table.__getitem__
    else:
        cum = list(accumulate(counts))
        pick = lambda d: moves[bisect_right(cum, d)]
    x1, y1 = (x.x1, y.x1) if pair else (x, y)
    lv10, c10, ylv1, ylab1 = x1.level, confluent_omega(x1, y1).level, y1.level, dict(y1.labels).get
    # A single tree walk gets a second coordinate that never moves and
    # always matches, so one hit test serves both shapes.
    lv20 = c20 = ylv2 = 0
    if pair:
        lv20, c20, ylv2, ylab2 = x.x2.level, confluent_omega(x.x2, y.x2).level, y.x2.level, dict(y.x2.labels).get
    drift = ruin_bound and up_rate != 0.5
    stream = _philox_streams(seed)
    hits = escaped = truncated = 0
    for trial in range(trials):
        lv1, c1, lv2, c2 = lv10, c10, lv20, c20
        gen = stream(trial)
        hit = False
        # Draws come in chunks of 1024, taken 64 at a time: the ruin bound is
        # checked after every 64 steps.
        for start in range(0, horizon, 64):
            if start % 1024 == 0:
                draws = map(pick, gen.integers(0, denom, size=min(1024, horizon - start)).tolist())
            for up, l1, sw, l2 in islice(draws, 64):
                # A run on the target's ray (c == lv) stays on it going down,
                # and going up only along the target's own label.  A switch
                # of the label at lv moves the meet only when the run agrees
                # with the target below lv and lv is at most the target's.
                if up:
                    if sw is not None and lv1 <= ylv1 and c1 >= lv1 - 1:
                        c1 = lv1 if sw == ylab1(lv1, 0) else lv1 - 1
                    if c1 == lv1 < ylv1 and l1 == ylab1(lv1 + 1, 0):
                        c1 += 1
                    lv1 += 1
                    if pair:
                        if c2 == lv2:
                            c2 -= 1
                        lv2 -= 1
                else:
                    if c1 == lv1:
                        c1 -= 1
                    lv1 -= 1
                    if sw is not None and lv1 <= ylv1 and c1 >= lv1 - 1:
                        c1 = lv1 if sw == ylab1(lv1, 0) else lv1 - 1
                    if pair:
                        if c2 == lv2 < ylv2 and l2 == ylab2(lv2 + 1, 0):
                            c2 += 1
                        lv2 += 1
                # The level sum is fixed, so lv1 == ylv1 puts lv2 on ylv2.
                if c1 == ylv1 == lv1 and c2 == ylv2:
                    hit = True
                    break
            if hit or (drift and _ruin_bound(up_rate, lv1, ylv1, c1, margin) < escape_tol):
                break
        if hit:
            hits += 1
        elif drift and _ruin_bound(up_rate, lv1, ylv1, c1, margin) < escape_tol:
            escaped += 1
        else:
            # The DL distance: both tree distances, less the level gap they share.
            dist = (lv1 - c1) + (ylv1 - c1)
            if pair:
                dist += (lv2 - c2) + (ylv2 - c2) - abs(lv1 - ylv1)
            if dist > escape_radius:
                escaped += 1
            else:
                truncated += 1
    return hits, escaped, truncated


def _generic_counts(op, x, y, trials, horizon, seed, escape_radius):
    """``(hits, escaped, truncated)`` of :func:`estimate_f` through
    ``transitions``, for a start ``x`` other than the target ``y``."""
    stream = _philox_streams(seed)
    rows: dict = {}
    hits = escaped = truncated = 0
    for trial in range(trials):
        gen = stream(trial)
        v = x
        for _ in range(horizon):
            targets, denom, cum = _row(op, v, rows)
            v = targets[bisect_right(cum, int(gen.integers(0, denom)))]
            if v == y:
                break
        if v == y:
            hits += 1
        elif _state_distance(v, y) > escape_radius:
            escaped += 1
        else:
            truncated += 1
    return hits, escaped, truncated


def _state_distance(v, y) -> int:
    """Graph distance between two states of one walk: tree vertices (a tree
    walk, or one conjugated) or vertices of a horocyclic product."""
    if isinstance(y, TreeVertex):
        return tree_distance(v, y)
    return dl_distance(v, y)


# Most steps (trials x horizon) ``estimate_f`` takes: 15-20 s of work on the
# fast path, whose slowest walk (``SiblingWalk`` on DL(3, 3)) makes about
# 2.7 million steps a second on one core of a 2-core x86_64 host.  A walk on
# the generic path steps far slower, so the cap bounds it only loosely.
_MAX_ESTIMATE_STEPS = 5 * 10**7


def estimate_f(
    op,
    x,
    y,
    trials: int,
    horizon: int,
    seed: int,
    escape_radius: int | None = None,
    escape_tol: float = 1e-12,
) -> EstimateResult:
    """Estimate the hitting probability ``F(x, y)`` of ``op`` by simulation.

    Each of ``trials`` independent runs (Philox stream ``(seed, trial)``)
    walks up to ``horizon`` exact steps from ``x`` and counts a hit the first
    time it stands on ``y``.  The returned ``point_estimate = hits/trials``
    is a lower bound for ``F(x, y)``.

    A run may stop before the horizon only when a *sound* certificate says
    its remaining hitting probability is below ``escape_tol``: hitting ``y``
    forces the first-coordinate level process (up-rate ``alpha``) to reach
    the target's level and to descend to just above the confluent with the
    target, and each requirement has an exact gambler's-ruin bound.  Such
    runs count as escaped and perturb the estimate by ``< trials*escape_tol``.
    For driftless walks the bounds are vacuous and no certificate exists
    (every finite path still hits ``y`` with positive probability), so runs
    alive at the horizon are classified by a documented heuristic instead:
    "escaped" if their final distance to ``y`` exceeds ``escape_radius``
    (default ``max(8, 2 d(x, y))``), "truncated" otherwise.  The
    classification never alters the estimate.

    ``trials * horizon`` above ``_MAX_ESTIMATE_STEPS`` is refused before any
    draw.
    """
    op.validate_state(x)
    op.validate_state(y)
    if trials <= 0 or horizon < 0:
        raise ValueError("trials must be positive and horizon non-negative")
    if trials * horizon > _MAX_ESTIMATE_STEPS:
        raise ValueError(f"estimate-f needs up to {_shown(trials * horizon)} steps (trials x horizon; "
                         f"cap {_MAX_ESTIMATE_STEPS})")
    if escape_radius is None:
        escape_radius = max(8, 2 * _state_distance(x, y))
    elif escape_radius < 0:
        raise ValueError("escape_radius must be non-negative")

    if x == y:
        # every run starts on the target, so no row is read
        hits, escaped, truncated = trials, 0, 0
    elif (plan := _fast_plan(op, x, horizon)) is not None:
        hits, escaped, truncated = _fast_counts(
            plan, x, y, trials, horizon, seed, escape_radius, escape_tol
        )
    else:
        hits, escaped, truncated = _generic_counts(op, x, y, trials, horizon, seed, escape_radius)

    p = hits / trials
    half = 1.96 * math.sqrt(max(p * (1 - p), 0.0) / trials)
    return EstimateResult(
        point_estimate=p,
        half_width_95=half,
        trials=trials,
        horizon=horizon,
        truncated_runs=truncated,
        escaped_runs=escaped,
        hits=hits,
        seed=seed,
        escape_radius=escape_radius,
    )
