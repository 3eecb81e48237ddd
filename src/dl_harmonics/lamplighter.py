"""The wreath product Z_q ≀ Z (lamplighter group) and its graph geometry.

A group element is a pair ``(eta, k)``: a finitely-supported lamp
configuration ``eta: Z -> Z_q`` and the lamplighter's position ``k``.
Multiplication translates the right factor's lamps by the left factor's
position and adds mod ``q``::

    (eta, k) * (eta', k') = (eta + translate_k(eta'), k + k')

Three finite generating sets are provided:

* ``walk-switch``: move one step and set the lamp at the *arrival* site
  (``2q`` generators);
* ``walk-or-switch``: either move one step or switch the lamp at the current
  site (``q + 1`` generators);
* ``switch-walk-switch``: switch at the departure site, move, switch at the
  arrival site (``2 q^2`` generators).

``encode`` identifies group elements with vertices of ``DL(q, q)``: the lamps
at sites ``<= k`` become the first tree coordinate (level ``k``, label at
``j`` equal to ``eta(j)``) and the lamps at sites ``> k`` become the second
(level ``-k``, label at ``j`` equal to ``eta(1 - j)``).  Under this bijection
the walk-switch Cayley graph is exactly ``DL(q, q)`` and the
switch-walk-switch Cayley graph is exactly the sibling-augmented variant.

``BoundaryConfig`` describes a zero-tail lamp configuration at one of the two
ends of the position axis, and ``end_plus``/``end_minus`` read it as an end of
the first/second tree.  The three defect counts measure how far an element is
from matching it, normalised to vanish at the identity; each is the tree's
horocycle index read through ``encode``, ``-_half_excess`` of a tree word of
the element and the word of the end.  ``_tree_words`` and ``_mirror`` are the
one dictionary from lamps to tree words, so no lamp is read site by site.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import product
from typing import Iterable, Mapping

from .dl_graph import DLParams, DLVertex, dl_neighbours, dls_neighbours
from .tree import TreeEnd, TreeVertex, _brief, _canon, _check_word, _end, _half_excess, _json_int, _json_pairs, _new

__all__ = [
    "GroupElement",
    "GeneratorModel",
    "BoundaryConfig",
    "identity",
    "multiply",
    "inverse",
    "delta",
    "generators",
    "cayley_neighbours",
    "cayley_check",
    "encode",
    "decode",
    "factor_config",
    "defect_plus",
    "defect_minus",
    "defect_oplus",
    "end_plus",
    "end_minus",
    "element_to_json",
    "element_from_json",
    "config_to_json",
    "config_from_json",
]

Lamps = tuple[tuple[int, int], ...]


class GroupElement(namedtuple("GroupElement", ("eta", "k"), defaults=((), 0))):
    """Lamp configuration (canonical sorted support tuple) and position: the
    tuple ``(eta, k)``, hashed and compared in C as that tuple."""

    __slots__ = ()

    @classmethod
    def make(cls, eta: Mapping[int, int] | Iterable[tuple[int, int]], k: int, q: int | None = None) -> "GroupElement":
        return cls(_canon(eta, q), k)


def identity() -> GroupElement:
    return GroupElement((), 0)


def delta(n: int, value: int) -> Lamps:
    """The configuration lighting site ``n`` to ``value`` (empty if 0)."""
    return ((n, value),) if value else ()


def multiply(a: GroupElement, b: GroupElement, q: int) -> GroupElement:
    """The group law ``(eta + translate_k(eta'), k + k')``.  Both operands
    must be canonical, as :class:`GroupElement` documents: each lamp of ``b``
    is spliced into ``a.eta`` at its bisected site, and a sum of 0 mod ``q``
    drops the site."""
    eta, k = a
    i = 0
    for n, v in b.eta:
        m = n + k
        i = bisect_left(eta, (m,), i)  # (m,) sorts just below every (m, v)
        if i < len(eta) and eta[i][0] == m:
            v = (eta[i][1] + v) % q
            eta = eta[:i] + ((m, v),) + eta[i + 1:] if v else eta[:i] + eta[i + 1:]
        else:
            eta = eta[:i] + ((m, v),) + eta[i:]
    return _new(GroupElement, (eta, k + b.k))


def inverse(a: GroupElement, q: int) -> GroupElement:
    lamps = {n - a.k: (-v) % q for n, v in a.eta}
    return GroupElement(_canon(lamps), -a.k)


class GeneratorModel(Enum):
    WALK_SWITCH = "walk-switch"
    WALK_OR_SWITCH = "walk-or-switch"
    SWITCH_WALK_SWITCH = "switch-walk-switch"


def generators(model: GeneratorModel, q: int) -> list[GroupElement]:
    """The generating set of the model; each set is closed under inversion."""
    return list(_generators(model, q))


@lru_cache(maxsize=64)
def _generators(model: GeneratorModel, q: int) -> tuple[GroupElement, ...]:
    """The generating set, built once per ``(model, q)``."""
    if model is GeneratorModel.WALK_SWITCH:
        ups = [GroupElement(delta(1, l), 1) for l in range(q)]
        downs = [GroupElement(delta(0, l), -1) for l in range(q)]
        return tuple(ups + downs)
    if model is GeneratorModel.WALK_OR_SWITCH:
        moves = [GroupElement((), 1), GroupElement((), -1)]
        switches = [GroupElement(delta(0, l), 0) for l in range(1, q)]
        return tuple(moves + switches)
    if model is GeneratorModel.SWITCH_WALK_SWITCH:
        out = []
        for l in range(q):
            for m in range(q):
                out.append(GroupElement.make({0: l, 1: m}, 1, q))
        for l in range(q):
            for m in range(q):
                out.append(GroupElement.make({0: l, -1: m}, -1, q))
        return tuple(out)
    raise ValueError(f"unknown generator model {model!r}")


def cayley_neighbours(a: GroupElement, model: GeneratorModel, q: int) -> list[GroupElement]:
    return [multiply(a, s, q) for s in _generators(model, q)]


# Most group products and encodings ``cayley_check`` runs (15-20 s of work).
_MAX_CAYLEY_PRODUCTS = 10**6


def cayley_check(q: int, support: int, position_range: int) -> dict[str, int | bool]:
    """On all elements with lamps on sites ``|n| <= support`` and position
    ``|k| <= position_range``: their count, whether ``decode`` inverts the
    injective ``encode``, and whether the walk-switch and switch-walk-switch
    Cayley neighbours encode to the ``DL`` and ``DLS`` neighbours.  Every
    product is compared, but each distinct one is encoded once, through a
    ``functools.cache`` of ``encode`` that lives for the call.  Refuses a
    window past ``_MAX_CAYLEY_PRODUCTS`` before enumerating anything."""
    params = DLParams(q, q)
    if support < 0 or position_range < 0:
        raise ValueError("support and position_range must be non-negative")
    # Each element is encoded and multiplied by 2q + 2q^2 generators; the
    # estimate counts an encoding per product too, so it bounds the work.  A
    # capped exponent keeps the estimate small; capped, it alone passes the cap.
    exponent = min(2 * support + 1, _MAX_CAYLEY_PRODUCTS.bit_length())
    work = q**exponent * (2 * position_range + 1) * (1 + 2 * q + 2 * q * q)
    if work > _MAX_CAYLEY_PRODUCTS:
        raise ValueError(f"cayley-check needs at least {work} group products "
                         f"and encodings (cap {_MAX_CAYLEY_PRODUCTS})")
    sites = range(-support, support + 1)
    elements = [
        GroupElement(tuple((n, v) for n, v in zip(sites, values) if v), k)
        for values in product(range(q), repeat=len(sites))
        for k in range(-position_range, position_range + 1)
    ]
    code = cache(encode)
    encoded = [code(a) for a in elements]

    def matches(model: GeneratorModel, neighbours) -> bool:
        gens = _generators(model, q)
        return all(
            {code(multiply(a, s, q)) for s in gens} == set(neighbours(v, params))
            for a, v in zip(elements, encoded)
        )

    return {
        "elements": len(elements),
        "bijective": len(set(encoded)) == len(elements)
        and all(decode(v) == a for a, v in zip(elements, encoded)),
        "walk_switch_matches_dl": matches(GeneratorModel.WALK_SWITCH, dl_neighbours),
        "switch_walk_switch_matches_dls": matches(
            GeneratorModel.SWITCH_WALK_SWITCH, dls_neighbours
        ),
    }


def _tree_words(a: GroupElement) -> tuple[Lamps, Lamps]:
    """The label words of ``encode(a)``: the lamps at sites ``<= k``, and the
    :func:`_mirror` of those above ``k``.  ``(k + 1,)`` sorts above every
    lamp at a site ``<= k`` and below every other."""
    i = bisect_left(a.eta, (a.k + 1,))
    return a.eta[:i], _mirror(a.eta[i:])


def _mirror(word: Lamps) -> Lamps:
    """Site ``n`` becomes key ``1 - n``, in reversed order, so a sorted word
    stays sorted: the second tree's reading of lamps, and its own inverse."""
    return tuple([(1 - n, v) for n, v in reversed(word)])


def encode(a: GroupElement) -> DLVertex:
    """Identify a group element with a vertex of ``DL(q, q)``.

    First coordinate: level ``k``, labels ``eta(j)`` for ``j <= k``.
    Second coordinate: level ``-k``, labels ``eta(1 - j)`` for ``j <= -k``.
    ``eta`` is split as it stands and refused, with their messages, where
    the checked ``TreeVertex`` would refuse a coordinate (keys not strictly
    increasing, a stored zero) or ``TreeVertex.make`` a lamp (not a
    non-negative integer).
    """
    x1, x2 = _tree_words(a)
    try:
        _check_word(a.eta)
    except (TypeError, ValueError):  # a fault; name its split key where it has one
        for j, v in x1 + x2:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"label at {j} must be a non-negative integer, got {_brief(v)}") from None
        raise
    return _new(DLVertex, (_new(TreeVertex, (a.k, x1)), _new(TreeVertex, (-a.k, x2))))


def decode(v: DLVertex, params: DLParams | None = None) -> GroupElement:
    """Inverse of :func:`encode`; requires a ``DL(q, q)`` ambient graph.  The
    two words lie on either side of the position, so they concatenate."""
    if params is not None and params.q != params.r:
        raise ValueError("group decoding needs equal branching numbers (q = r)")
    if v.x1.level + v.x2.level != 0:
        raise ValueError("vertex levels must sum to 0")
    return _new(GroupElement, (v.x1.labels + _mirror(v.x2.labels), v.x1.level))


def factor_config(a: GroupElement) -> GroupElement:
    """Forget the lamp at the current position: shift sites ``< k`` up by one.

    Encodes to exactly ``factor_map(encode(a))``.
    """
    eta, k = a.eta, a.k
    below = eta[:bisect_left(eta, (k,))]
    above = eta[bisect_left(eta, (k + 1,)):]
    return _new(GroupElement, (tuple([(n + 1, v) for n, v in below]) + above, k))


@dataclass(frozen=True)
class BoundaryConfig:
    """A zero-tail lamp configuration at one end of the position axis.

    ``side`` is ``"+"`` (lamplighter walked off to ``+infinity``) or ``"-"``.
    ``labels`` is a canonical sorted tuple of ``(site, value)`` pairs with
    ``value != 0``, checked when built as a ``TreeEnd``'s are; use
    :meth:`make` to build one from an arbitrary mapping.
    """

    side: str
    labels: Lamps = ()

    def __post_init__(self) -> None:
        if self.side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        _check_word(self.labels)

    @classmethod
    def make(cls, side: str, labels: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "BoundaryConfig":
        return cls(side, _canon(labels))


def _side_labels(xi: BoundaryConfig, side: str, name: str) -> Lamps:
    """``xi``'s labels; ``name`` refuses a configuration on the other side."""
    if xi.side != side:
        raise ValueError(f"{name} needs a '{side}' side configuration")
    return xi.labels


def defect_plus(a: GroupElement, xi: BoundaryConfig) -> int:
    """How many sites beyond the fresh record the element already matches
    ``xi`` on, relative to the identity's own mismatch point: the level of
    ``encode(a).x1 ⋏ end_plus(xi)`` less that of ``o ⋏ end_plus(xi)``.
    """
    labels = _side_labels(xi, "+", "defect_plus")
    return -_half_excess(a.k, _tree_words(a)[0], labels)


def defect_minus(a: GroupElement, xi: BoundaryConfig) -> int:
    """The ``'-'`` side count, read in the second tree through
    :func:`end_minus`."""
    labels = _mirror(_side_labels(xi, "-", "defect_minus"))
    return -_half_excess(-a.k, _tree_words(a)[1], labels)


def defect_oplus(a: GroupElement, xi: BoundaryConfig) -> int:
    """Variant of :func:`defect_plus` that also scores the lamp at the
    current position (the natural count for the switch-walk-switch moves):
    ``defect_plus`` of ``factor_config(a)`` against ``xi`` moved up one site."""
    up = tuple([(n + 1, v) for n, v in _side_labels(xi, "+", "defect_oplus")])
    return -_half_excess(a.k, _tree_words(factor_config(a))[0], up)


def end_plus(xi: BoundaryConfig) -> TreeEnd:
    """The end of the first tree whose ray reads off ``xi``'s lamps, built
    unchecked: ``BoundaryConfig`` checked the word when it was built."""
    return _end(_side_labels(xi, "+", "end_plus"))


def end_minus(xi: BoundaryConfig) -> TreeEnd:
    """The end of the second tree carrying ``xi``: site ``n`` maps to key
    ``1 - n``.  The mirror of a canonical word is canonical, so the end is
    built unchecked."""
    return _end(_mirror(_side_labels(xi, "-", "end_minus")))


def element_to_json(a: GroupElement) -> dict:
    return {"k": a.k, "eta": [[n, v] for n, v in a.eta]}


def element_from_json(obj: dict, q: int) -> GroupElement:
    return GroupElement(_check_word(_json_pairs(obj, "eta", "site", "lamp"), q=q), _json_int(obj["k"], "k"))


def config_to_json(xi: BoundaryConfig) -> dict:
    return {"side": xi.side, "labels": [[n, v] for n, v in xi.labels]}


def config_from_json(obj: dict, q: int) -> BoundaryConfig:
    return BoundaryConfig(obj["side"], _check_word(_json_pairs(obj, "labels", "site", "lamp"), q=q))
