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
ends of the position axis; the three defect counts measure how far an element
is from matching it, normalised to vanish at the identity.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping

from .dl_graph import DLParams, DLVertex, dl_neighbours, dls_neighbours
from .tree import TreeEnd, _check_word, _vertex

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


def _canon_lamps(mapping: Mapping[int, int] | Iterable[tuple[int, int]], q: int | None = None) -> Lamps:
    items = dict(mapping)
    out = []
    for n in sorted(items):
        v = items[n]
        if q is not None:
            v %= q
        if v:
            out.append((n, v))
    return tuple(out)


def _lamp(lamps: Lamps, n: int) -> int:
    for m, v in lamps:
        if m == n:
            return v
        if m > n:
            break
    return 0


class GroupElement(namedtuple("GroupElement", ("eta", "k"), defaults=((), 0))):
    """Lamp configuration (canonical sorted support tuple) and position: the
    tuple ``(eta, k)``, hashed and compared in C as that tuple."""

    __slots__ = ()

    @classmethod
    def make(cls, eta: Mapping[int, int] | Iterable[tuple[int, int]], k: int, q: int | None = None) -> "GroupElement":
        return cls(_canon_lamps(eta, q), k)

    def lamp(self, n: int) -> int:
        return _lamp(self.eta, n)


def identity() -> GroupElement:
    return GroupElement((), 0)


def delta(n: int, value: int) -> Lamps:
    """The configuration lighting site ``n`` to ``value`` (empty if 0)."""
    return ((n, value),) if value else ()


def multiply(a: GroupElement, b: GroupElement, q: int) -> GroupElement:
    if not b.eta:
        return GroupElement(a.eta, a.k + b.k)
    lamps = dict(a.eta)
    for n, v in b.eta:
        m = n + a.k
        lamps[m] = (lamps.get(m, 0) + v) % q
    return GroupElement(tuple(sorted(p for p in lamps.items() if p[1])), a.k + b.k)


def inverse(a: GroupElement, q: int) -> GroupElement:
    lamps = {n - a.k: (-v) % q for n, v in a.eta}
    return GroupElement(_canon_lamps(lamps), -a.k)


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
    Cayley neighbours encode to the ``DL`` and ``DLS`` neighbours.  Refuses
    a window past ``_MAX_CAYLEY_PRODUCTS`` before enumerating anything."""
    params = DLParams(q, q)
    if support < 0 or position_range < 0:
        raise ValueError("support and position_range must be non-negative")
    # Each element is encoded once and multiplied by 2q + 2q^2 generators.  A
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
    encoded = [encode(a) for a in elements]

    def matches(model: GeneratorModel, neighbours) -> bool:
        gens = _generators(model, q)
        return all(
            {encode(multiply(a, s, q)) for s in gens} == set(neighbours(v, params))
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


def encode(a: GroupElement) -> DLVertex:
    """Identify a group element with a vertex of ``DL(q, q)``.

    First coordinate: level ``k``, labels ``eta(j)`` for ``j <= k``.
    Second coordinate: level ``-k``, labels ``eta(1 - j)`` for ``j <= -k``.
    ``eta`` is split as it stands and refused, with their messages, where
    the checked ``TreeVertex`` would refuse a coordinate (keys not strictly
    increasing, a stored zero) or ``TreeVertex.make`` a lamp (not a
    non-negative integer).
    """
    k, eta = a.k, a.eta
    i = bisect_right(eta, k, key=itemgetter(0))
    x1, x2 = eta[:i], tuple([(1 - n, v) for n, v in reversed(eta[i:])])
    for j, v in x1 + x2:  # before the word check, to name the split key
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"label at {j} must be a non-negative integer, got {v!r}")
    _check_word(eta)
    return DLVertex(_vertex(k, x1), _vertex(-k, x2))


def decode(v: DLVertex, params: DLParams | None = None) -> GroupElement:
    """Inverse of :func:`encode`; requires a ``DL(q, q)`` ambient graph."""
    if params is not None and params.q != params.r:
        raise ValueError("group decoding needs equal branching numbers (q = r)")
    if v.x1.level + v.x2.level != 0:
        raise ValueError("vertex levels must sum to 0")
    lamps = dict(v.x1.labels)
    for j, val in v.x2.labels:
        lamps[1 - j] = val
    return GroupElement(_canon_lamps(lamps), v.x1.level)


def factor_config(a: GroupElement) -> GroupElement:
    """Forget the lamp at the current position: shift sites ``< k`` up by one.

    Encodes to exactly ``factor_map(encode(a))``.
    """
    lamps = {n + 1: v for n, v in a.eta if n <= a.k - 1}
    for n, v in a.eta:
        if n >= a.k + 1:
            lamps[n] = v
    return GroupElement(_canon_lamps(lamps), a.k)


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
        return cls(side, _canon_lamps(labels))

    def value(self, n: int) -> int:
        return _lamp(self.labels, n)


def _first_mismatch_at_most(limit: int, xi: BoundaryConfig, eta: Lamps, offset: int) -> int | None:
    """min { n <= limit : xi(n + offset) != eta(n + offset) }, or None."""
    keys = {n - offset for n, _ in xi.labels} | {n - offset for n, _ in eta}
    cands = [n for n in keys if n <= limit and xi.value(n + offset) != _lamp(eta, n + offset)]
    return min(cands) if cands else None


def _defect_at(a: GroupElement, xi: BoundaryConfig, offset: int, name: str) -> int:
    """The ``'+'`` side defect whose lamps are read ``offset`` sites ahead:
    1 for :func:`defect_plus`, 0 for :func:`defect_oplus`."""
    if xi.side != "+":
        raise ValueError(f"{name} needs a '+' side configuration")
    first = _first_mismatch_at_most(a.k, xi, a.eta, offset)
    first = a.k if first is None else first
    low = [n - offset for n, _ in xi.labels if n <= offset]
    second = min(low) if low else 0
    return first - second


def defect_plus(a: GroupElement, xi: BoundaryConfig) -> int:
    """How many sites beyond the fresh record the element already matches
    ``xi`` on, relative to the identity's own mismatch point.
    """
    return _defect_at(a, xi, 1, "defect_plus")


def defect_minus(a: GroupElement, xi: BoundaryConfig) -> int:
    if xi.side != "-":
        raise ValueError("defect_minus needs a '-' side configuration")
    keys = {n for n, _ in xi.labels} | {n for n, _ in a.eta}
    cands = [n for n in keys if n > a.k and xi.value(n) != a.lamp(n)]
    first = max(cands) if cands else a.k
    high = [n for n, _ in xi.labels if n > 0]
    second = max(high) if high else 0
    return second - first


def defect_oplus(a: GroupElement, xi: BoundaryConfig) -> int:
    """Variant of :func:`defect_plus` that also scores the lamp at the
    current position (the natural count for the switch-walk-switch moves)."""
    return _defect_at(a, xi, 0, "defect_oplus")


def end_plus(xi: BoundaryConfig) -> TreeEnd:
    """The end of the first tree whose ray reads off ``xi``'s lamps."""
    if xi.side != "+":
        raise ValueError("end_plus needs a '+' side configuration")
    return TreeEnd.word(dict(xi.labels))


def end_minus(xi: BoundaryConfig) -> TreeEnd:
    """The end of the second tree carrying ``xi``: site ``n`` maps to key ``1 - n``."""
    if xi.side != "-":
        raise ValueError("end_minus needs a '-' side configuration")
    return TreeEnd.word({1 - n: v for n, v in xi.labels})


def element_to_json(a: GroupElement) -> dict:
    return {"k": a.k, "eta": [[n, v] for n, v in a.eta]}


def _lamps_from_json(pairs, q: int) -> Lamps:
    """Canonical lamps from ``[[n, v], ...]``, each ``v`` in ``range(q)``."""
    lamps = _canon_lamps((int(n), int(v)) for n, v in pairs)
    _check_word(lamps, q=q)
    return lamps


def element_from_json(obj: dict, q: int) -> GroupElement:
    return GroupElement(_lamps_from_json(obj.get("eta", []), q), int(obj["k"]))


def config_to_json(xi: BoundaryConfig) -> dict:
    return {"side": xi.side, "labels": [[n, v] for n, v in xi.labels]}


def config_from_json(obj: dict, q: int) -> BoundaryConfig:
    return BoundaryConfig(obj["side"], _lamps_from_json(obj.get("labels", []), q))
