"""Homogeneous trees with a distinguished reference end.

The regular tree with forward degree ``q`` is laid out relative to a fixed
reference end ``omega`` "at the bottom" and a root vertex ``o``.  Every vertex
lies on exactly one horocycle ``H_k``; the integer ``k`` is the vertex's
``level`` (Busemann value with respect to ``omega``, normalised so that
``level(o) = 0``).  Each vertex has one predecessor (one step towards
``omega``, level ``k - 1``) and ``q`` successors (level ``k + 1``).

A vertex is addressed by its level together with the word of edge labels read
along its ray from ``omega``: ``labels[j]`` in ``{0, ..., q-1}`` is the label
of the edge crossed when stepping from ``H_{j-1}`` up to ``H_j``.  All but
finitely many labels are 0, zeros are not stored, and stored keys satisfy
``j <= level``, so equal vertices have equal (canonical) representations.
The root is ``(0, {})``.  A vertex is the tuple ``(level, labels)`` (a
``namedtuple``), built, hashed and compared in C: ``TreeVertex(0, ()) == (0, ())``.

Ends other than ``omega`` are infinite upward label words, again with
finitely many nonzero entries ("zero-tail" ends); the key of an end label is
unrestricted.  ``omega`` itself is a distinct end, not the empty word.

Two confluent notions are used throughout:

* ``confluent_omega(a, b)`` -- the highest common vertex of the rays from
  ``omega`` to ``a`` and ``b`` (written ``a ⋏ b``); it realises
  ``d(a, b) = (level(a) - level(c)) + (level(b) - level(c))``.
* ``confluent_root(x, xi)`` -- the last common vertex of the geodesic
  ``o -> x`` and the ray ``o -> xi`` (written ``x ∧ xi``).

``busemann_wrt_end(x, xi) = d(x, c) - d(o, c)`` with ``c = x ∧ xi`` is the
horocycle index of ``x`` relative to the end ``xi``; for ``xi = omega`` it is
just ``level(x)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = [
    "TreeVertex",
    "TreeEnd",
    "ROOT",
    "OMEGA",
    "predecessor",
    "successor",
    "neighbours",
    "confluent_omega",
    "confluent_omega_end",
    "confluent_root",
    "distance",
    "geodesic",
    "busemann_wrt_end",
    "check_labels",
    "shift",
    "ball",
    "random_vertex",
    "vertex_to_json",
    "vertex_from_json",
    "end_to_json",
    "end_from_json",
]

Labels = tuple[tuple[int, int], ...]

_new = tuple.__new__


def _end(labels: Labels) -> "TreeEnd":
    """The word end of ``labels``, a word already known to be canonical, built unchecked."""
    end = object.__new__(TreeEnd)
    object.__setattr__(end, "labels", labels)
    object.__setattr__(end, "is_omega", False)
    return end


def _canon(mapping: Mapping[int, int] | Iterable[tuple[int, int]], q: int | None = None) -> Labels:
    """Canonical label tuple: values reduced mod ``q`` (when given), zeros
    dropped, keys sorted.  Values are not checked here: every word built from
    it reaches ``_check_word`` in a constructor."""
    items = dict(mapping)
    out = []
    for j in sorted(items):
        v = items[j] if q is None else items[j] % q
        if v != 0:
            out.append((j, v))
    return tuple(out)


def _split_level(a: Labels, b: Labels, m: int) -> int:
    """One below the lowest key ``j <= m`` where words ``a`` and ``b`` differ;
    ``m`` when they agree up to ``m``.

    Words are canonical (sorted keys, no zeros), so the first unequal pair,
    or the first pair past the shorter word, holds that lowest key.
    """
    for pa, pb in zip(a, b):
        if pa != pb:
            j = min(pa, pb)[0]
            break
    else:
        if len(a) == len(b):
            return m
        j = a[len(b)][0] if len(a) > len(b) else b[len(a)][0]
    return j - 1 if j <= m else m


def _check_word(labels: Labels, top: int | None = None, q: int | None = None) -> Labels:
    """Return ``labels``, rejecting a label word that is not canonical.

    Each pair ``(j, v)`` is checked in turn: ``j <= top`` (when given), ``v``
    in ``range(q)`` (when given), ``v != 0``, ``v`` a non-negative integer,
    and ``j`` above the key before it; the first fault raises.  The one check
    behind vertices, ends, lamp configurations and boundary configurations.
    """
    prev = None
    for j, v in labels:
        if top is not None and j > top:
            raise ValueError(f"label key {j} above vertex level {top}")
        if q is not None and not 0 <= v < q:
            raise ValueError(f"label {v} at {j} outside range(0, {q})")
        if v == 0:
            raise ValueError("zero labels must not be stored")
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"label at {j} must be a non-negative integer, got {_brief(v)}")
        if prev is not None and j <= prev:
            raise ValueError("label keys must be strictly increasing")
        prev = j
    return labels


def _brief(value) -> str:
    """``value`` as a refusal shows it: its ``repr`` when that has at most
    40 characters, else its type and the first 20 characters of the
    ``repr``.  A list or a dict is shown by its type alone and a longer int
    by its digit count, so a long or deeply nested value is never written
    out whole (``repr`` refuses an int of more than 4,300 digits)."""
    if isinstance(value, (list, dict)):
        return type(value).__name__
    if isinstance(value, int) and abs(value) >= 10**39:
        return f"a {_digits(abs(value))}-digit {type(value).__name__}"
    text = repr(value[:41] if isinstance(value, str) else value)
    return text if len(text) <= 40 else f"{type(value).__name__} starting {text[:20]}..."


def _digits(n: int) -> int:
    """The decimal digits of ``n >= 1``, counted without ``str``."""
    digits = math.floor(math.log10(n)) + 1  # the float log may be one off next to a power of 10
    return digits + (n >= 10**digits) - (n < 10 ** (digits - 1))


def _upto(labels: Labels, j: int) -> Labels:
    """The prefix of a canonical word with keys ``<= j``: ``(j + 1,)`` sorts just above it."""
    return labels[:bisect_left(labels, (j + 1,))]


class TreeVertex(namedtuple("TreeVertex", ("level", "labels"))):
    """A vertex of the tree: horocycle level plus edge-label word.

    ``labels`` is a canonical sorted tuple of ``(j, value)`` pairs with
    ``value != 0`` and ``j <= level``.  Use :meth:`make` to build one from an
    arbitrary mapping.  Direct construction checks the labels in
    ``__post_init__``; maps whose results are canonical build unchecked.
    """

    __slots__ = ()

    def __new__(cls, level: int, labels: Labels = ()) -> "TreeVertex":
        self = _new(cls, (level, labels))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        _check_word(self.labels, self.level)

    @classmethod
    def make(cls, level: int, labels: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "TreeVertex":
        return cls(level, _canon(labels))


ROOT = TreeVertex(0, ())


@dataclass(frozen=True)
class TreeEnd:
    """An end of the tree: the reference end ``omega`` or a zero-tail word.

    ``TreeEnd.omega()`` and ``TreeEnd.word({})`` are distinct: the latter is
    the end obtained by following label 0 upward forever.
    """

    labels: Labels = ()
    is_omega: bool = False

    def __post_init__(self) -> None:
        if self.is_omega and self.labels:
            raise ValueError("the reference end carries no labels")
        _check_word(self.labels)

    @classmethod
    def omega(cls) -> "TreeEnd":
        return cls((), True)

    @classmethod
    def word(cls, labels: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "TreeEnd":
        return cls(_canon(labels), False)


OMEGA = TreeEnd.omega()


def predecessor(v: TreeVertex) -> TreeVertex:
    """One step towards ``omega``: drop the label entering ``v``'s level."""
    level, labels = v.level, v.labels
    if labels and labels[-1][0] == level:
        labels = labels[:-1]
    return _new(TreeVertex, (level - 1, labels))


def successor(v: TreeVertex, label: int, q: int) -> TreeVertex:
    """The successor of ``v`` along edge ``label`` in ``{0, ..., q-1}``."""
    if not 0 <= label < q:
        _check_word(((v.level + 1, label),), q=q)  # raises on the range
    if label == 0:
        return _new(TreeVertex, (v.level + 1, v.labels))
    return _new(TreeVertex, (v.level + 1, v.labels + ((v.level + 1, label),)))


def _successors(v: TreeVertex, q: int) -> list[TreeVertex]:
    """``successor(v, l, q)`` for ``l`` in label order, built directly."""
    level, labels = v.level + 1, v.labels
    out = [_new(TreeVertex, (level, labels))]
    return out + [_new(TreeVertex, (level, labels + ((level, l),))) for l in range(1, q)]


def check_labels(v: TreeVertex | TreeEnd, q: int) -> None:
    """Reject a vertex or end with a label outside ``{0, ..., q-1}``.

    Labels are checked where input enters (walk start states, the vertices
    and ends of kernel calls), not on every step of a walk.
    """
    _check_word(v.labels, q=q)


def neighbours(v: TreeVertex, q: int) -> list[TreeVertex]:
    """Predecessor first, then the ``q`` successors in label order."""
    return [predecessor(v)] + _successors(v, q)


def confluent_omega(a: TreeVertex, b: TreeVertex) -> TreeVertex:
    """Highest common vertex of the rays from ``omega`` to ``a`` and ``b``."""
    lvl = _split_level(a.labels, b.labels, min(a.level, b.level))
    return _new(TreeVertex, (lvl, _upto(a.labels, lvl)))


def confluent_omega_end(v: TreeVertex, xi: TreeEnd) -> TreeVertex:
    """Highest vertex shared by the omega-rays of ``v`` and the end ``xi``."""
    if xi.is_omega:
        raise ValueError("confluent with the reference end is undefined")
    lvl = _split_level(v.labels, xi.labels, v.level)
    return _new(TreeVertex, (lvl, _upto(v.labels, lvl)))


def distance(a: TreeVertex, b: TreeVertex) -> int:
    return a.level + b.level - 2 * _split_level(a.labels, b.labels, min(a.level, b.level))


def geodesic(a: TreeVertex, b: TreeVertex) -> list[TreeVertex]:
    """The unique geodesic path ``a -> b``, endpoints included."""
    c = confluent_omega(a, b)
    down = [a]
    while down[-1] != c:
        down.append(predecessor(down[-1]))
    up = [b]
    while up[-1] != c:
        up.append(predecessor(up[-1]))
    return down + up[-2::-1]


def confluent_root(x: TreeVertex, xi: TreeEnd) -> TreeVertex:
    """Last common vertex of the geodesic ``o -> x`` and the ray ``o -> xi``.

    For ``xi = omega`` this is ``confluent_omega(x, o)``.
    """
    if xi.is_omega:
        return confluent_omega(x, ROOT)
    # Where each ray from the root turns upward (splits from the root's
    # omega-ray): below the root both paths descend the all-zero ray.
    bx = _split_level(x.labels, (), min(x.level, 0))
    bxi = _split_level(xi.labels, (), 0)
    if bx != bxi:
        return _new(TreeVertex, (max(bx, bxi), ()))
    # Both words are empty up to ``bx``, so they split where they differ.
    lvl = _split_level(x.labels, xi.labels, x.level)
    return _new(TreeVertex, (lvl, _upto(x.labels, lvl)))


def busemann_wrt_end(x: TreeVertex, xi: TreeEnd) -> int:
    """Horocycle index of ``x`` relative to the end ``xi``.

    Equals ``d(x, c) - d(o, c)`` with ``c = confluent_root(x, xi)``; for the
    reference end it reduces to ``level(x)``.
    """
    if xi.is_omega:
        return x.level
    return x.level + 2 * _half_excess(x.level, x.labels, xi.labels)


def _half_excess(level: int, labels: Labels, end_labels: Labels) -> int:
    """``(busemann_wrt_end(x, xi) - level(x)) // 2`` for a word end ``xi``,
    read off ``x``'s level and labels and ``xi``'s labels; no vertex is built.

    ``bx`` and ``bxi`` are where the rays from the root to ``x`` and ``xi``
    leave the root's omega-ray (the zero word).  When they leave at
    different levels, ``c = x ∧ xi`` sits on that ray at the higher one and
    the index is ``level(x) + 2 max(0, bxi - bx)``.  Otherwise both words
    agree up to ``bx`` and ``c`` is where they split, at level
    ``s >= bx``; then the index is ``level(x) - 2 (s - bx)``.
    """
    m = min(level, 0)
    bx = min(labels[0][0] - 1, m) if labels else m
    bxi = min(end_labels[0][0] - 1, 0) if end_labels else 0
    if bx != bxi:
        return max(0, bxi - bx)
    return bx - _split_level(labels, end_labels, level)


def shift(v: TreeVertex, m: int) -> TreeVertex:
    """Translate ``v`` by ``m`` levels along the level grading (an isometry)."""
    return _new(TreeVertex, (v.level + m, tuple([(j + m, val) for j, val in v.labels])))


def _bfs(start, nbrs, radius: int) -> list:
    """Every vertex within ``radius`` steps of ``start``, where ``nbrs(v)``
    lists the neighbours of ``v``, in breadth-first order."""
    seen = {start}
    frontier = [start]
    out = [start]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in nbrs(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    out.append(w)
        frontier = nxt
    return out


def ball(q: int, radius: int) -> list[TreeVertex]:
    """All vertices within tree distance ``radius`` of the root (BFS order)."""
    return _bfs(ROOT, lambda v: neighbours(v, q), radius)


def random_vertex(q: int, radius: int, rng) -> TreeVertex:
    """A random vertex within ``radius`` of the root: ``radius`` uniform steps."""
    v = ROOT
    for _ in range(radius):
        v = rng.choice(neighbours(v, q))
    return v


def vertex_to_json(v: TreeVertex) -> dict:
    return {"level": v.level, "labels": [[j, val] for j, val in v.labels]}


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer (an ``int`` that is not a ``bool``);
    a float, a numeric string or a bool is refused, naming ``field``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be a JSON integer, got {_brief(value)}")
    return value


def _json_object(value, field: str) -> dict:
    """``value`` if it is a JSON object; anything else is refused, naming ``field``."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {type(value).__name__}")
    return value


def _json_pairs(obj: dict, field: str, key: str, value: str) -> Labels:
    """The canonical word of ``obj[field]`` (default ``[]``), a JSON list of
    ``[key, value]`` integer pairs with distinct keys: the one reader of
    labels and lamps.  Anything else is a ``ValueError`` naming the field."""
    pairs = obj.get(field, [])
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError(f"{field} must be a JSON list of [{key}, {value}] pairs")
    items = {}
    for j, v in pairs:
        if _json_int(j, key) in items:
            raise ValueError(f"{field} repeats {key} {j}")
        items[j] = _json_int(v, value)
    return _canon(items)


def vertex_from_json(obj: dict) -> TreeVertex:
    obj = _json_object(obj, "vertex")
    return TreeVertex(_json_int(obj["level"], "level"), _json_pairs(obj, "labels", "label key", "label"))


def end_to_json(xi: TreeEnd) -> dict:
    if xi.is_omega:
        return {"omega": True}
    return {"labels": [[j, val] for j, val in xi.labels]}


def end_from_json(obj: dict) -> TreeEnd:
    """ω is ``{"omega": true}`` with no ``labels``; ``omega`` is a JSON boolean."""
    omega = _json_object(obj, "end").get("omega", False)
    if not isinstance(omega, bool):
        raise ValueError(f"omega must be a JSON boolean, got {_brief(omega)}")
    if omega and "labels" in obj:
        raise ValueError("an end with omega true takes no labels")
    return TreeEnd.omega() if omega else TreeEnd(_json_pairs(obj, "labels", "label key", "label"))
