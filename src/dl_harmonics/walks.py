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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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


def _check_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha


def _check_dl_state(v: DLVertex, params: DLParams) -> None:
    """A start state must be a vertex of the graph: right level sum and
    every label below its tree's branching."""
    check_vertex(v, params)
    check_labels(v.x1, params.q)
    check_labels(v.x2, params.r)


@dataclass(frozen=True)
class DLWalk:
    """The drifted simple walk on DL(q, r)."""

    params: DLParams
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    def validate_state(self, v: DLVertex) -> None:
        _check_dl_state(v, self.params)

    def transitions(self, v: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        q, r = self.params.q, self.params.r
        up = self.alpha / q
        down = (1 - self.alpha) / r
        nbrs = dl_neighbours(v, self.params)
        return [(w, up) for w in nbrs[:q]] + [(w, down) for w in nbrs[q:]]


@dataclass(frozen=True)
class TreeWalk:
    """Nearest-neighbour tree walk: up-rate ``up`` split over ``branch`` successors."""

    branch: int
    up: Fraction
    kind: str = "tree"

    def __post_init__(self) -> None:
        object.__setattr__(self, "up", _check_alpha(self.up))

    def validate_state(self, v: TreeVertex) -> None:
        if not isinstance(v, TreeVertex):
            raise ValueError("tree walks move on tree vertices")
        check_labels(v, self.branch)

    def transitions(self, v: TreeVertex) -> list[tuple[TreeVertex, Fraction]]:
        per = self.up / self.branch
        out = [(successor(v, l, self.branch), per) for l in range(self.branch)]
        out.append((predecessor(v), 1 - self.up))
        return out


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    def validate_state(self, v: DLVertex) -> None:
        _check_dl_state(v, self.params)

    def transitions(self, v: DLVertex) -> list[tuple[DLVertex, Fraction]]:
        q, r = self.params.q, self.params.r
        up = self.alpha / (q * q)
        down = (1 - self.alpha) / (q * r)
        nbrs = dls_neighbours(v, self.params)
        n_up = q * q
        return [(w, up) for w in nbrs[:n_up]] + [(w, down) for w in nbrs[n_up:]]


@dataclass(frozen=True)
class ConjugatedWalk:
    """h-transform of ``base`` by a positive function ``g``."""

    base: object
    g: Callable

    def validate_state(self, v) -> None:
        self.base.validate_state(v)

    def transitions(self, v):
        gv = self.g(v)
        if gv <= 0:
            raise ValueError("conjugating function must be strictly positive")
        out = []
        for w, p in self.base.transitions(v):
            gw = self.g(w)
            if gw <= 0:
                raise ValueError("conjugating function must be strictly positive")
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
    """One application of the transition operator: ``sum_w p(v, w) h(w)``."""
    return sum(p * h(w) for w, p in op.transitions(v))


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


def _integer_row(weights: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Common denominator and integer weights of an exact distribution row."""
    denom = 1
    for w in weights:
        denom = denom * w.denominator // math.gcd(denom, w.denominator)
    counts = [int(w * denom) for w in weights]
    if sum(counts) != denom:
        raise ValueError("transition row does not sum to 1")
    return denom, counts


class _RowSampler:
    """Draws indices 0..len(weights)-1 exactly, given uniform ints below L."""

    __slots__ = ("denom", "lookup", "cumulative")

    def __init__(self, weights: Sequence[Fraction]):
        self.denom, counts = _integer_row(weights)
        if self.denom <= 4096:
            table = []
            for i, c in enumerate(counts):
                table.extend([i] * c)
            self.lookup: list[int] | None = table
            self.cumulative: list[int] | None = None
        else:
            self.lookup = None
            acc, cum = 0, []
            for c in counts:
                acc += c
                cum.append(acc)
            self.cumulative = cum

    def pick(self, draw: int) -> int:
        if self.lookup is not None:
            return self.lookup[draw]
        return bisect_right(self.cumulative, draw)


@dataclass(frozen=True)
class Trajectory:
    """A sampled path: ``start`` followed by ``steps`` successive vertices."""

    start: object
    steps: tuple
    seed: int


def simulate(op, start, n_steps: int, seed: int) -> Trajectory:
    """Sample ``n_steps`` exact steps of ``op`` from ``start``.

    Same ``(op, start, n_steps, seed)`` always yields the identical path.
    Requires a row-stochastic operator.
    """
    op.validate_state(start)
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    gen = _philox_stream(seed, 0)
    v = start
    out = []
    for _ in range(n_steps):
        row = op.transitions(v)
        weights = [p for _, p in row]
        if any(p < 0 for p in weights):
            raise ValueError("cannot sample from a row with negative weights")
        sampler = _RowSampler(weights)  # raises if the row is not stochastic
        draw = int(gen.integers(0, sampler.denom))
        v = row[sampler.pick(draw)][0]
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


class _TreeCursor:
    """Mutable tree-walk state with O(1) moves and O(1) hit detection.

    Tracks the current level, the sparse label word, and the number of
    positions where the word disagrees with the target's word.
    """

    __slots__ = ("lv", "labs", "mism", "ylv", "ylabs")

    def __init__(self, x: TreeVertex, y: TreeVertex):
        self.lv = x.level
        self.labs = dict(x.labels)
        self.ylv = y.level
        self.ylabs = dict(y.labels)
        mism = 0
        for j in set(self.labs) | set(self.ylabs):
            if j <= self.lv and self.labs.get(j, 0) != self.ylabs.get(j, 0):
                mism += 1
        self.mism = mism

    def hit(self) -> bool:
        return self.lv == self.ylv and self.mism == 0

    def up(self, label: int) -> None:
        self.lv += 1
        if label:
            self.labs[self.lv] = label
        if label != self.ylabs.get(self.lv, 0):
            self.mism += 1

    def down(self) -> None:
        old = self.labs.pop(self.lv, 0)
        if old != self.ylabs.get(self.lv, 0):
            self.mism -= 1
        self.lv -= 1

    def switch(self, label: int) -> None:
        """Replace the label at the current level (sibling move)."""
        j = self.lv
        old = self.labs.pop(j, 0)
        if label:
            self.labs[j] = label
        yv = self.ylabs.get(j, 0)
        self.mism += (label != yv) - (old != yv)

    def confluent_level(self) -> int:
        m = min(self.lv, self.ylv)
        bad = [
            j
            for j in set(self.labs) | set(self.ylabs)
            if j <= m and self.labs.get(j, 0) != self.ylabs.get(j, 0)
        ]
        return min(bad) - 1 if bad else m

    def distance(self) -> int:
        c = self.confluent_level()
        return (self.lv - c) + (self.ylv - c)


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


def _fast_plan(op, x, y):
    """Action table + cursor factory for the supported operator kinds.

    Returns (weights, actions, make_cursors, coord1_up, margin) or None if the
    operator has no constant-shape fast path.
    """
    if isinstance(op, TreeWalk):
        weights = [op.up / op.branch] * op.branch + [1 - op.up]
        actions = [("u", l) for l in range(op.branch)] + [("d",)]
        make = lambda: [_TreeCursor(x, y)]
        return weights, actions, make, float(op.up), 0
    if isinstance(op, DLWalk):
        q, r = op.params.q, op.params.r
        weights = [op.alpha / q] * q + [(1 - op.alpha) / r] * r
        actions = [("u", l) for l in range(q)] + [("d", m) for m in range(r)]
        make = lambda: [_TreeCursor(x.x1, y.x1), _TreeCursor(x.x2, y.x2)]
        return weights, actions, make, float(op.alpha), 0
    if isinstance(op, SiblingWalk):
        q, r = op.params.q, op.params.r
        weights = [op.alpha / (q * q)] * (q * q) + [(1 - op.alpha) / (q * r)] * (q * r)
        actions = [("su", m, l) for m in range(q) for l in range(q)] + [
            ("sd", m, mm) for m in range(q) for mm in range(r)
        ]
        make = lambda: [_TreeCursor(x.x1, y.x1), _TreeCursor(x.x2, y.x2)]
        return weights, actions, make, float(op.alpha), 1
    return None


def _apply_action(cursors, act) -> None:
    kind = act[0]
    if kind == "u":
        cursors[0].up(act[1])
        if len(cursors) > 1:
            cursors[1].down()
    elif kind == "d":
        if len(cursors) > 1:
            cursors[0].down()
            cursors[1].up(act[1])
        else:
            cursors[0].down()
    elif kind == "su":
        cursors[0].switch(act[1])
        cursors[0].up(act[2])
        cursors[1].down()
    else:  # "sd"
        cursors[0].down()
        cursors[0].switch(act[1])
        cursors[1].up(act[2])


def _state_distance(op, v, y) -> int:
    if isinstance(op, TreeWalk):
        return tree_distance(v, y)
    return dl_distance(v, y)


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
    """
    op.validate_state(x)
    op.validate_state(y)
    if trials <= 0 or horizon < 0:
        raise ValueError("trials must be positive and horizon non-negative")
    if escape_radius is None:
        escape_radius = max(8, 2 * _state_distance(op, x, y))

    plan = _fast_plan(op, x, y)
    hits = escaped = truncated = 0
    if plan is not None:
        weights, actions, make_cursors, up_rate, margin = plan
        sampler = _RowSampler(weights)
        table = [actions[i] for i in sampler.lookup] if sampler.lookup is not None else None
        drift = up_rate != 0.5
        for trial in range(trials):
            cursors = make_cursors()
            c1 = cursors[0]
            if all(c.hit() for c in cursors):
                hits += 1
                continue
            gen = _philox_stream(seed, trial)
            outcome = None
            step = 0
            while step < horizon:
                chunk = min(1024, horizon - step)
                draws = gen.integers(0, sampler.denom, size=chunk)
                for d in draws:
                    if table is not None:
                        act = table[d]
                    else:
                        act = actions[sampler.pick(d)]
                    _apply_action(cursors, act)
                    step += 1
                    if c1.mism == 0 and c1.lv == c1.ylv:
                        if len(cursors) == 1 or cursors[1].hit():
                            outcome = "hit"
                            break
                    if drift and step % 64 == 0:
                        b = _ruin_bound(
                            up_rate, c1.lv, c1.ylv, c1.confluent_level(), margin
                        )
                        if b < escape_tol:
                            outcome = "escaped"
                            break
                if outcome is not None:
                    break
            if outcome == "hit":
                hits += 1
            elif outcome == "escaped":
                escaped += 1
            else:
                if drift:
                    b = _ruin_bound(up_rate, c1.lv, c1.ylv, c1.confluent_level(), margin)
                    if b < escape_tol:
                        escaped += 1
                        continue
                dist = sum(c.distance() for c in cursors)
                if len(cursors) > 1:
                    dist -= abs(c1.lv - c1.ylv)
                if dist > escape_radius:
                    escaped += 1
                else:
                    truncated += 1
    else:
        for trial in range(trials):
            gen = _philox_stream(seed, trial)
            v = x
            hit_run = v == y
            for _ in range(horizon):
                if hit_run:
                    break
                row = op.transitions(v)
                sampler = _RowSampler([p for _, p in row])
                draw = int(gen.integers(0, sampler.denom))
                v = row[sampler.pick(draw)][0]
                hit_run = v == y
            if hit_run:
                hits += 1
            elif _state_distance(op, v, y) > escape_radius:
                escaped += 1
            else:
                truncated += 1

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
