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
platforms; ``simulate`` uses trial index 0.  Every draw is the one
``Generator.integers`` makes on that stream.  On the meet state below, each
trial's first chunk of draws is read from the raw stream in one batch for a
block of trials, with Lemire's multiply-shift, which is what ``integers``
computes; a trial whose chunk meets Lemire's rejection step is drawn again
by ``integers`` itself.  Where more than one chunk in 16 could meet it, the
chunks are drawn by ``integers`` trial by trial.

``DLWalk``, the tree walks and ``SiblingWalk`` have the same row at every
state, so ``estimate_f`` steps them by integer move indices on the meet
state: three integers, the first coordinate's level, the level of its
confluent with the target, and the level sum less the second coordinate's
confluent level (on a single tree, the larger of the run's and the target's
level).  Hitting the target, the distance to it and the ruin bound read only
these three numbers (the projection argument, applied to paths), so no label
word is built.  A walk of these conjugated by a drift kernel (a
``g`` marked ``level_only``, see ``kernels.drift_kernel``) has one row at
every state too, read once from ``transitions`` at the start, and steps on
the meet state with the base walk's moves, never stopping early: like the
generic path, it classifies a run alive at the horizon by its final
distance.  Otherwise, and always in ``simulate``, one step loop draws each
step from the row ``transitions`` gives, computed once per distinct state
within a call (for the first 1024 distinct states; later ones are recomputed
on each visit): ``transitions`` (and the ``g`` of a conjugated walk) must
therefore be a pure function of the state.

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
from typing import Callable, Iterator, NamedTuple, Sequence

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
from .tree import TreeVertex, _digits, _new, _successors, check_labels, confluent_omega, distance as tree_distance, predecessor, shift, successor

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
        return list(zip(_successors(v, self.branch) + [predecessor(v)], self._weights))


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

    def transitions(self, v: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        """The base row at the section of ``v`` (``factor_map`` maps it to
        ``v``), summed over each image under ``factor_map`` in first-seen order."""
        rep = _new(DLVertex, (successor(shift(v.x1, -1), 0, self.params.q), v.x2))
        grouped: dict[DLVertex, Fraction] = {}
        for w, p in self.base.transitions(rep):
            img = factor_map(w, self.params)
            grouped[img] = grouped.get(img, 0) + p
        return list(grouped.items())


def transitions(op, v):
    return op.transitions(v)


def apply(op, h, v) -> Fraction:
    """One application of the transition operator: ``sum_w p(v, w) h(w)``.

    A walk whose row is stored as blocks of equal weight sums ``h`` over each
    block and multiplies once per block; an exact sum does not depend on the
    order of its terms.  The pair rule: the sum is carried as one unreduced
    integer pair, of ``h._pair(w)`` for a ``HarmonicFunction`` and of each
    value's ``as_integer_ratio`` when every value is an ``int`` or a
    ``Fraction``, and the result is the one ``Fraction`` built from it.
    Other values (floats) are summed as they are.
    """
    row = op.transitions(v)
    blocks = getattr(op, "_blocks", None)
    if blocks is None:
        return sum(p * h(w) for w, p in row)
    pair = getattr(h, "_pair", None)
    if pair is None:
        values = [h(w) for w, _ in row]
        if not {*map(type, values)} <= _EXACT:
            it = iter(values)
            return sum(p * sum(islice(it, n)) for p, n in blocks)
    it = iter([pair(w) for w, _ in row] if pair else [x.as_integer_ratio() for x in values])
    num, den = 0, 1
    for p, n in blocks:
        bn, bd = 0, 1
        for xn, xd in islice(it, n):
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


# First-chunk draws held at once: a block of trials is drawn together.
_BLOCK_DRAWS = 1 << 16


def _first_draws(stream, trials: int, n: int, denom: int) -> Iterator[np.ndarray]:
    """Each trial's first ``n >= 1`` draws below ``denom``, as blocks of
    rows in trial order: the row of ``trial`` is
    ``stream(trial).integers(0, denom, size=n)``.

    A block holds at most ``_BLOCK_DRAWS`` draws and is computed at once
    from the raw stream.  Each trial reads ``ceil(n/2)`` 64-bit words, low
    32-bit half first, and a 32-bit word ``u`` gives the draw
    ``(u * denom) >> 32``: Lemire's multiply-shift, as ``integers`` computes
    it for ``denom < 2**32``.  Where the low 32 bits of a product fall in
    Lemire's rejection zone ``(2**32 - denom) % denom``, ``integers`` draws
    again, so such a trial's row is drawn by ``integers`` itself.  A row
    meets the zone with chance at most ``n * zone / 2**32``; where that
    passes 1/16, or ``denom`` is 1 or at least ``2**32``, the rows are drawn
    by ``integers``, one trial a block.
    """
    zone = ((1 << 32) - denom) % denom if 1 < denom < 1 << 32 else 1 << 32
    if n * zone > 1 << 28:
        for trial in range(trials):
            yield stream(trial).integers(0, denom, size=(1, n))
        return
    words = (n + 1) // 2
    per_block = max(1, _BLOCK_DRAWS // n)
    for first in range(0, trials, per_block):
        block = range(first, min(first + per_block, trials))
        raw = np.empty((len(block), words), np.uint64)
        for i, trial in enumerate(block):
            raw[i] = stream(trial).bit_generator.random_raw(words)
        m = np.empty((len(block), 2 * words), np.uint64)
        np.bitwise_and(raw, 0xFFFFFFFF, out=m[:, 0::2])  # explicit shifts: no byte order is assumed
        np.right_shift(raw, 32, out=m[:, 1::2])
        m = m[:, :n]
        m *= np.uint64(denom)
        rejected = (m.astype(np.uint32) < zone).any(axis=1)  # the cast keeps the low 32 bits
        m >>= np.uint64(32)
        draws = m.view(np.int64)
        for i in np.flatnonzero(rejected):
            draws[i] = stream(block[i]).integers(0, denom, size=n)
        yield draws


def _over_lcm(fracs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(common, ints)``: the lcm of the reduced denominators of ``fracs``, and each value times it."""
    common = math.lcm(*(f.denominator for f in fracs))
    return common, [f.numerator * (common // f.denominator) for f in fracs]


def _shown(count: int) -> str:
    """``count``, or past 40 digits its digit count: ``str`` refuses an int of more than 4,300 digits."""
    return str(count) if count < 10**40 else f"a {_digits(count)}-digit number of"


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


def _path(op, v, gen, rows: dict) -> Iterator:
    """The states ``op`` visits from ``v``, one exact step each, drawn from
    ``gen``: a uniform draw ``d`` below the row's common denominator picks
    ``targets[bisect_right(cumulative, d)]``.  Each row is read when its step
    is taken, and kept in ``rows`` while it holds fewer than ``_KEPT_ROWS``
    states."""
    while True:
        row = rows.get(v)
        if row is None:
            trans = op.transitions(v)
            denom, counts = _integer_row([p for _, p in trans])
            row = ([w for w, _ in trans], denom, list(accumulate(counts)))
            if len(rows) < _KEPT_ROWS:
                rows[v] = row
        targets, denom, cum = row
        v = targets[bisect_right(cum, int(gen.integers(0, denom)))]
        yield v


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
    return Trajectory(start, tuple(islice(_path(op, start, _philox_stream(seed, 0), {}), n_steps)), seed)


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

    A move is an index into ``weights``, the ``ups`` up moves first.  An up
    move steps the first coordinate up along ``labels[m]`` and a second
    coordinate down; a down move steps the first coordinate down and a
    second coordinate up along ``labels[m]``.  A single tree's one down move
    has label 0.  ``switches``, when not empty, gives each move a label that
    first replaces the first coordinate's label at the lower of its two
    levels (a sibling move).  With ``ruin_bound`` a run may stop early on the
    gambler's-ruin bound of a level process of up-rate ``up_rate`` (see
    :func:`_ruin_bound`, which also takes ``margin``); without it a run never
    stops early, and an unresolved run is classified by its final distance
    only, as on the generic path.
    """

    weights: Sequence[Fraction]
    ups: int
    labels: list[int]
    switches: list[int]
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
        return _Plan(op._weights, op.branch, [*range(op.branch), 0], [], float(op.up), 0)
    if isinstance(op, DLWalk):
        q, r = op.params.q, op.params.r
        return _Plan(op._weights, q, [*range(q), *range(r)], [], float(op.alpha), 0)
    if isinstance(op, SiblingWalk):
        q, r = op.params.q, op.params.r
        labels = [l for _ in range(q) for l in range(q)] + [l for _ in range(q) for l in range(r)]
        switches = [m for m in range(q) for _ in range(q)] + [m for m in range(q) for _ in range(r)]
        return _Plan(op._weights, q * q, labels, switches, float(op.alpha), 1)
    if isinstance(op, ConjugatedWalk) and horizon and getattr(op.g, "level_only", False):
        base = _fast_plan(op.base, x, horizon)
        if base is not None:
            weights = [p for _, p in op.transitions(x)]
            return base._replace(weights=weights, ruin_bound=False)
    return None


def _fast_counts(plan: _Plan, x, y, trials, horizon, seed, escape_radius, escape_tol):
    """``(hits, escaped, truncated)`` of :func:`estimate_f` on the fast path,
    for a start ``x`` other than the target ``y``.

    A run keeps three integers: the first coordinate's level ``lv``, the
    level ``c1`` of its meet with the target (the lower edge), and the upper
    edge ``u2``.  On a product ``u2`` is ``S - c2``, where ``S`` is the
    level sum and ``c2`` the second coordinate's meet level; on a single
    tree it is ``max(lv, ylv1)``.  The second level ``S - lv`` is never
    stored.  Since ``c1 <= ylv1 <= u2``, the run stands on the target
    exactly when ``c1 == u2``, which is tested only when the band narrows:
    the lower edge climbs along the target's label, or the upper edge drops
    along the second target's label.  The distance to the target is
    ``2 (u2 - c1) - |lv - ylv1|``.  A move changes an edge only where it
    touches the target's ray, so the label word itself is never built.
    """
    weights, ups, labels, switches, up_rate, margin, ruin_bound = plan
    denom, counts = _integer_row(weights)  # raises unless the row is a distribution
    # ``to_moves(draws)``: the move indices an array of draws picks; a draw
    # ``d`` picks the first index whose cumulative count exceeds it.
    index = np.min_scalar_type(len(weights) - 1)
    if denom <= 4096:
        to_moves = np.repeat(np.arange(len(weights), dtype=index), counts).__getitem__
    else:
        cum = np.cumsum(counts)
        to_moves = lambda draws: np.searchsorted(cum, draws, side="right").astype(index)
    tree = isinstance(x, TreeVertex)
    x1, y1 = (x, y) if tree else (x.x1, y.x1)
    lv0, c10, ylv1, ylab1 = x1.level, confluent_omega(x1, y1).level, y1.level, dict(y1.labels).get
    # The second target's labels, keyed by the first level at which the
    # second coordinate reaches them; a single tree's are all 0.
    if tree:
        u20, ylab2 = max(lv0, ylv1), {}.get
    else:
        s = x.x1.level + x.x2.level
        u20, ylab2 = s - confluent_omega(x.x2, y.x2).level, {s - k: l for k, l in y.x2.labels}.get
    drift = ruin_bound and up_rate != 0.5
    stream = _philox_streams(seed)
    n = min(1024, horizon)
    # Each trial's first chunk: a slice of one flat view of its block.
    firsts = (
        moves[i : i + n]
        for block in _first_draws(stream, trials, n, denom)
        for moves in [memoryview(to_moves(block).ravel())]
        for i in range(0, len(moves), n)
    )
    # Drifting runs stop at the ruin checkpoints after every 64 steps.
    run = 64 if drift else 1024
    hits = escaped = truncated = 0
    for trial in range(trials):
        lv, c1, u2 = lv0, c10, u20
        # Draws come in chunks of 1024.  The first comes from
        # ``_first_draws``, whose blocks re-key the shared bit generator; a
        # later one from the trial's own stream, re-keyed and moved past the
        # first chunk by drawing it again.
        for start in range(0, horizon, run):
            at = start % 1024
            if start == 0:
                chunk = next(firsts)
            elif at == 0:
                if start == 1024:
                    gen = stream(trial)
                    gen.integers(0, denom, size=1024)
                chunk = memoryview(to_moves(gen.integers(0, denom, size=min(1024, horizon - start))))
            for m in chunk[at : at + run]:
                # A switch of the label at the lower of the two levels the
                # move joins moves the meet only when the run agrees with the
                # target below that level and it is at most the target's.
                if switches:
                    low = lv if m < ups else lv - 1
                    if low <= ylv1 and c1 >= low - 1:
                        c1 = low if switches[m] == ylab1(low, 0) else low - 1
                if m < ups:
                    lv += 1
                    if u2 < lv:  # the upper edge is pushed up
                        u2 = lv
                    elif c1 + 1 == lv <= ylv1 and labels[m] == ylab1(lv, 0):  # the lower edge climbs
                        c1 = lv
                        if c1 == u2:
                            break
                else:
                    lv -= 1
                    if c1 > lv:  # the lower edge follows down
                        c1 = lv
                    elif u2 - 1 == lv >= ylv1 and labels[m] == ylab2(lv, 0):  # the upper edge drops
                        u2 = lv
                        if c1 == u2:
                            break
            if c1 == u2 or (drift and _ruin_bound(up_rate, lv, ylv1, c1, margin) < escape_tol):
                break
        if c1 == u2:
            hits += 1
        elif (drift and _ruin_bound(up_rate, lv, ylv1, c1, margin) < escape_tol) or (
            2 * (u2 - c1) - abs(lv - ylv1) > escape_radius
        ):
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
        v = x
        for v in islice(_path(op, x, stream(trial), rows), horizon):
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


# Most steps (trials x horizon) ``estimate_f`` takes: 5.5-10 s of work on the
# fast path, whose slowest walk (``SiblingWalk`` on DL(3, 3)) makes 5-9
# million steps a second on one core of a shared 2-core x86_64 host.  A walk
# on the generic path steps far slower, so the cap bounds it only loosely.
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
