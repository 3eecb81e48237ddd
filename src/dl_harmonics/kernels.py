"""Closed-form hitting probabilities and Martin kernels on the two trees.

For the tree walk that steps to each of ``q`` successors with probability
``alpha/q`` and to the predecessor with probability ``1 - alpha``, the
one-level hitting probabilities are

* ``F^- = min(1, (1 - alpha)/alpha)`` (reach the predecessor), and
* ``F^+ = 1/q`` if ``alpha >= 1/2`` else ``alpha / ((1 - alpha) q)``
  (reach one fixed successor),

the two roots of ``F = (1-a) + a F^2`` resp.
``F = a/q + (q-1)(a/q) F^- F + (1-a) F^2`` selected by minimality.  Their
product ``rho2 = F^- F^+ = min((1-a)/(a q), a/((1-a) q))`` is ``F(x, x')``,
the probability of ever hitting a fixed sibling ``x'`` of ``x``; it is not the
square of the spectral radius.

Hitting probabilities factor over geodesics (one factor per edge), giving the
Martin kernels in closed form::

    K(x, omega) = (F^-)^{level(x)}
    K(x, xi)    = K(x, omega) * rho2 ** ((hor_xi(x) - level(x)) // 2)

where ``hor_xi(x) = busemann_wrt_end(x, xi)``; the exponent difference is
always even, so no square roots appear and every value is an exact rational.

Values are computed in Python integers.  ``F^-`` and ``rho2`` are read off
the projected walk of the tree (``p1_walk``: ``q``, ``alpha``; ``p2_walk``:
``r``, ``1 - alpha``) as numerator/denominator pairs, and every kernel
refuses a label outside that walk's branching (a ``KernelSpec`` does both
once, when it is built).  The exponent ``(hor_xi(x) - level(x)) // 2`` is
read off the labels without building a vertex, and a negative exponent swaps
numerator and denominator.  The pair rule: ``HarmonicFunction`` sums its
constant and its terms as one unreduced integer pair (``_pair``, which
``walks.apply`` sums over a row), ``defect_kernel`` powers ``q`` in integers,
and each call builds one ``Fraction``, its answer, so every value equals the
plain ``Fraction`` formula.

Functions on the horocyclic product are built by lifting a tree kernel
through one coordinate; ``HarmonicFunction`` bundles non-negative
combinations of lifted kernels plus a constant.  ``defect_kernel`` evaluates
the lamp-mismatch counts as powers of ``q`` -- the boundary kernels of the
simple random walks in the group picture.  Each count is ``-_half_excess`` of
a tree word of ``encode(a)`` and an end word, the exponent ``_kernel_pair``
reads, so at ``alpha = 1/2`` these are the tree kernels read through ``encode``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .dl_graph import DLParams, DLVertex
from .lamplighter import (
    BoundaryConfig,
    GeneratorModel,
    GroupElement,
    defect_minus,
    defect_oplus,
    defect_plus,
)
from .tree import TreeEnd, TreeVertex, _half_excess, _split_level, check_labels
from .walks import _check_alpha, p1_walk, p2_walk

__all__ = [
    "f_minus",
    "f_plus",
    "rho_squared",
    "tree_hitting_prob",
    "martin_kernel_tree",
    "drift_kernel",
    "lift",
    "KernelSpec",
    "HarmonicFunction",
    "minimal_kernel",
    "combine",
    "defect_kernel",
]


def f_minus(alpha: Fraction) -> Fraction:
    """Probability of ever reaching the predecessor (up-rate ``alpha``)."""
    alpha = _check_alpha(alpha)
    if 2 * alpha >= 1:
        return (1 - alpha) / alpha
    return Fraction(1)


def f_plus(alpha: Fraction, q: int) -> Fraction:
    """Probability of ever reaching one fixed successor."""
    alpha = _check_alpha(alpha)
    if 2 * alpha >= 1:
        return Fraction(1, q)
    return alpha / ((1 - alpha) * q)


def rho_squared(alpha: Fraction, q: int) -> Fraction:
    """``F^- * F^+``; equals ``min((1-a)/(a q), a/((1-a) q))``."""
    return f_minus(alpha) * f_plus(alpha, q)


@lru_cache(maxsize=256)
def _factors(side: int, alpha: Fraction, params: DLParams) -> tuple[int, tuple[int, int, int, int]]:
    """Branching of tree ``side`` and the integer ``(F^-, rho2)`` of its
    projected walk, once per key; bad input raises on every call (exceptions
    are not cached)."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    walk = (p1_walk if side == 1 else p2_walk)(params, alpha)
    fm, rho2 = f_minus(walk.up), rho_squared(walk.up, walk.branch)
    return walk.branch, (*fm.as_integer_ratio(), *rho2.as_integer_ratio())


def _power_pair(factors: tuple[int, int, int, int], level: int, k: int) -> tuple[int, int]:
    """Numerator and denominator, not reduced, of ``(F^-)**level * rho2**k``.

    A negative exponent swaps its factor's numerator and denominator; both
    factors are positive, so the denominator is too.
    """
    a, b, c, d = factors
    if level < 0:
        a, b, level = b, a, -level
    if k < 0:
        c, d, k = d, c, -k
    return a**level * c**k, b**level * d**k


def _kernel_pair(factors: tuple[int, int, int, int], x: TreeVertex, xi: TreeEnd) -> tuple[int, int]:
    """``K(x, xi)`` as an unreduced integer pair."""
    k = 0 if xi.is_omega else _half_excess(x.level, x.labels, xi.labels)
    return _power_pair(factors, x.level, k)


def tree_hitting_prob(x: TreeVertex, y: TreeVertex, alpha: Fraction, q: int) -> Fraction:
    """``F(x, y)``: probability the up-rate-``alpha`` tree walk ever hits ``y``.

    One factor ``F^-`` per descending edge and ``F^+ = rho2 / F^-`` per
    ascending edge of the geodesic ``x -> y``.
    """
    branch, factors = _factors(1, alpha, DLParams(q, q))  # tree 1 of DL(q, q) is this walk
    check_labels(x, branch)
    check_labels(y, branch)
    ups = y.level - _split_level(x.labels, y.labels, min(x.level, y.level))
    return Fraction(*_power_pair(factors, x.level - y.level, ups))


def martin_kernel_tree(
    side: int, x: TreeVertex, xi: TreeEnd, alpha: Fraction, params: DLParams
) -> Fraction:
    """Martin kernel ``K_side(x, xi)`` of the projected walk on tree ``side``."""
    branch, factors = _factors(side, alpha, params)
    check_labels(xi, branch)
    check_labels(x, branch)
    return Fraction(*_kernel_pair(factors, x, xi))


def drift_kernel(alpha: Fraction):
    """``v -> ((1-alpha)/alpha) ** level(v.x1)`` on the horocyclic product.

    The omega-kernel of whichever tree coordinate has non-trivial drift
    (both coordinates give this same function); constant 1 when
    ``alpha = 1/2``.  Conjugating the product walk by it swaps
    ``alpha <-> 1 - alpha``.

    The returned function carries the marker attribute ``level_only = True``:
    its value depends on the level alone, so ``g(w)/g(v)`` depends only on
    the move, and ``estimate_f`` steps a walk conjugated by it on the meet
    state.
    """
    alpha = _check_alpha(alpha)
    ratio = (1 - alpha) / alpha

    def g(v: DLVertex) -> Fraction:
        return ratio ** v.x1.level

    g.level_only = True
    return g


def lift(side: int, tree_fn):
    """Lift a function on one tree to the product through that coordinate."""
    if side == 1:
        return lambda v: tree_fn(v.x1)
    if side == 2:
        return lambda v: tree_fn(v.x2)
    raise ValueError("side must be 1 or 2")


@dataclass(frozen=True)
class KernelSpec:
    """A single lifted Martin kernel: which tree, which end, which walk.

    A side other than 1 or 2, an alpha outside (0, 1) or an end label
    outside the tree's branching raises ValueError when the spec is built.
    """

    side: int
    end: TreeEnd
    alpha: Fraction
    params: DLParams

    def __post_init__(self) -> None:
        # The integer (F^-, rho2) are resolved once, outside the fields; a
        # bad side, alpha or end label raises here.
        branch, factors = _factors(self.side, self.alpha, self.params)
        check_labels(self.end, branch)
        object.__setattr__(self, "_factor_ints", factors)

    @property
    def is_minimal(self) -> bool:
        """Kernels at word ends are minimal; the omega-kernel only at a = 1/2
        (where it is the constant 1)."""
        return (not self.end.is_omega) or self.alpha == Fraction(1, 2)

    def _pair(self, v: DLVertex) -> tuple[int, int]:
        return _kernel_pair(self._factor_ints, v.x1 if self.side == 1 else v.x2, self.end)

    def evaluate(self, v: DLVertex) -> Fraction:
        return Fraction(*self._pair(v))


@dataclass(frozen=True)
class HarmonicFunction:
    """Non-negative combination of lifted Martin kernels plus a constant."""

    terms: tuple[tuple[Fraction, KernelSpec], ...] = ()
    constant: Fraction = Fraction(0)
    minimal: bool = False

    def __post_init__(self) -> None:
        # Integer pairs of the constant and the coefficients, outside the fields.
        object.__setattr__(self, "_constant", Fraction(self.constant).as_integer_ratio())
        terms = tuple((*Fraction(c).as_integer_ratio(), s) for c, s in self.terms)
        object.__setattr__(self, "_terms", terms)

    def _pair(self, v: DLVertex) -> tuple[int, int]:
        """``constant + sum coeff_i * K_i(v)`` as one unreduced integer pair."""
        num, den = self._constant
        for a, b, spec in self._terms:
            kn, kd = spec._pair(v)
            d = b * kd
            num, den = num * d + a * kn * den, den * d
        return num, den

    def __call__(self, v: DLVertex) -> Fraction:
        return Fraction(*self._pair(v))

    @property
    def alpha(self) -> Fraction:
        if not self.terms:
            raise ValueError("a bare constant carries no walk parameter")
        return self.terms[0][1].alpha


def minimal_kernel(spec: KernelSpec) -> HarmonicFunction:
    """The kernel itself as a harmonic function, flagged for minimality."""
    return HarmonicFunction(((Fraction(1), spec),), Fraction(0), spec.is_minimal)


def combine(
    terms: Iterable[tuple[Fraction, KernelSpec]], constant: Fraction = Fraction(0)
) -> HarmonicFunction:
    """Sum ``constant + sum coeff_i * K_i`` with non-negative coefficients.

    All terms must share the same walk parameter and graph, otherwise the sum
    is not harmonic for any single operator.
    """
    terms = tuple((Fraction(c), s) for c, s in terms)
    constant = Fraction(constant)
    if constant < 0 or any(c < 0 for c, _ in terms):
        raise ValueError("coefficients in a positive combination must be >= 0")
    seen = {(s.alpha, s.params) for _, s in terms}
    if len(seen) > 1:
        raise ValueError("all kernels in a combination must share alpha and (q, r)")
    return HarmonicFunction(terms, constant, False)


def defect_kernel(
    model: GeneratorModel, a: GroupElement, xi: BoundaryConfig, q: int
) -> Fraction:
    """``q ** defect`` for the defect count matching the generator model: the
    ``'-'`` side counts ``defect_minus`` under either model, the ``'+'`` side
    ``defect_plus`` (walk-switch) or ``defect_oplus`` (switch-walk-switch)."""
    if model not in (GeneratorModel.WALK_SWITCH, GeneratorModel.SWITCH_WALK_SWITCH):
        raise ValueError(f"no boundary kernels are defined for {getattr(model, 'value', repr(model))}")
    plus = defect_plus if model is GeneratorModel.WALK_SWITCH else defect_oplus
    d = (defect_minus if xi.side == "-" else plus)(a, xi)
    return Fraction(q**d) if d >= 0 else Fraction(1, q**-d)
