"""Closed-form hitting probabilities and Martin kernels on the two trees.

For the tree walk that steps to each of ``q`` successors with probability
``alpha/q`` and to the predecessor with probability ``1 - alpha``, the
one-level hitting probabilities are

* ``F^- = min(1, (1 - alpha)/alpha)`` (reach the predecessor), and
* ``F^+ = 1/q`` if ``alpha >= 1/2`` else ``alpha / ((1 - alpha) q)``
  (reach one fixed successor),

the two roots of ``F = (1-a) + a F^2`` resp.
``F = a/q + (q-1)(a/q) F^- F + (1-a) F^2`` selected by minimality.  Their
product ``rho2 = F^- F^+ = min((1-a)/(a q), a/((1-a) q))`` is the square of
the spectral radius.

Hitting probabilities factor over geodesics (one factor per edge), giving the
Martin kernels in closed form::

    K(x, omega) = (F^-)^{level(x)}
    K(x, xi)    = K(x, omega) * rho2 ** ((hor_xi(x) - level(x)) // 2)

where ``hor_xi(x) = busemann_wrt_end(x, xi)``; the exponent difference is
always even, so no square roots appear and every value is an exact rational.

Functions on the horocyclic product are built by lifting a tree kernel
through one coordinate; ``HarmonicFunction`` bundles non-negative
combinations of lifted kernels plus a constant.  ``defect_kernel`` evaluates
the lamp-mismatch counts as powers of ``q`` -- the boundary kernels of the
simple random walks in the group picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
from .tree import TreeEnd, TreeVertex, busemann_wrt_end, confluent_omega
from .walks import _check_alpha

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


def _side(side: int, alpha: Fraction, params: DLParams) -> tuple[Fraction, int]:
    """Up-rate and branching of the chosen tree coordinate."""
    alpha = _check_alpha(alpha)
    if side == 1:
        return alpha, params.q
    if side == 2:
        return 1 - alpha, params.r
    raise ValueError("side must be 1 or 2")


def tree_hitting_prob(x: TreeVertex, y: TreeVertex, alpha: Fraction, q: int) -> Fraction:
    """``F(x, y)``: probability the up-rate-``alpha`` tree walk ever hits ``y``.

    One factor ``F^-`` per descending edge and ``F^+`` per ascending edge of
    the geodesic ``x -> y``.
    """
    c = confluent_omega(x, y)
    downs = x.level - c.level
    ups = y.level - c.level
    return f_minus(alpha) ** downs * f_plus(alpha, q) ** ups


def martin_kernel_tree(
    side: int, x: TreeVertex, xi: TreeEnd, alpha: Fraction, params: DLParams
) -> Fraction:
    """Martin kernel ``K_side(x, xi)`` of the projected walk on tree ``side``."""
    up, branch = _side(side, alpha, params)
    fm = f_minus(up)
    if xi.is_omega:
        return fm ** x.level
    e = busemann_wrt_end(x, xi) - x.level
    if e % 2:
        raise AssertionError("horocycle indices of a vertex differ by an even amount")
    return fm ** x.level * rho_squared(up, branch) ** (e // 2)


def drift_kernel(alpha: Fraction):
    """``v -> ((1-alpha)/alpha) ** level(v.x1)`` on the horocyclic product.

    The omega-kernel of whichever tree coordinate has non-trivial drift
    (both coordinates give this same function); constant 1 when
    ``alpha = 1/2``.  Conjugating the product walk by it swaps
    ``alpha <-> 1 - alpha``.
    """
    alpha = _check_alpha(alpha)
    ratio = (1 - alpha) / alpha

    def g(v: DLVertex) -> Fraction:
        return ratio ** v.x1.level

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
    """A single lifted Martin kernel: which tree, which end, which walk."""

    side: int
    end: TreeEnd
    alpha: Fraction
    params: DLParams

    @property
    def is_minimal(self) -> bool:
        """Kernels at word ends are minimal; the omega-kernel only at a = 1/2
        (where it is the constant 1)."""
        return (not self.end.is_omega) or self.alpha == Fraction(1, 2)

    def evaluate(self, v: DLVertex) -> Fraction:
        x = v.x1 if self.side == 1 else v.x2
        return martin_kernel_tree(self.side, x, self.end, self.alpha, self.params)


@dataclass(frozen=True)
class HarmonicFunction:
    """Non-negative combination of lifted Martin kernels plus a constant."""

    terms: tuple[tuple[Fraction, KernelSpec], ...] = ()
    constant: Fraction = Fraction(0)
    minimal: bool = False

    def __call__(self, v: DLVertex) -> Fraction:
        total = self.constant
        for coeff, spec in self.terms:
            total += coeff * spec.evaluate(v)
        return total

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
    """``q ** defect`` for the defect count matching the generator model."""
    base = Fraction(q)
    if model is GeneratorModel.WALK_SWITCH:
        if xi.side == "+":
            return base ** defect_plus(a, xi)
        return base ** defect_minus(a, xi)
    if model is GeneratorModel.SWITCH_WALK_SWITCH:
        if xi.side == "+":
            return base ** defect_oplus(a, xi)
        return base ** defect_minus(a, xi)
    raise ValueError(f"no boundary kernels are defined for {model.value}")
