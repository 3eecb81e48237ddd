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
The root is ``(0, {})``.

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
    "shift_end",
    "ball",
    "random_vertex",
    "vertex_to_json",
    "vertex_from_json",
    "end_to_json",
    "end_from_json",
]

Labels = tuple[tuple[int, int], ...]


def _canon(mapping: Mapping[int, int] | Iterable[tuple[int, int]]) -> Labels:
    """Canonical label tuple: sorted keys, zero values dropped."""
    items = dict(mapping)
    out = []
    for j in sorted(items):
        v = items[j]
        if v == 0:
            continue
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"label at {j} must be a non-negative integer, got {v!r}")
        out.append((j, v))
    return tuple(out)


def _get(labels: Labels, j: int) -> int:
    for k, v in labels:
        if k == j:
            return v
        if k > j:
            break
    return 0


def _upto(labels: Labels, j: int) -> Labels:
    return tuple((k, v) for k, v in labels if k <= j)


@dataclass(frozen=True)
class TreeVertex:
    """A vertex of the tree: horocycle level plus edge-label word.

    ``labels`` is a canonical sorted tuple of ``(j, value)`` pairs with
    ``value != 0`` and ``j <= level``.  Use :meth:`make` to build one from an
    arbitrary mapping.
    """

    level: int
    labels: Labels = ()

    def __post_init__(self) -> None:
        prev = None
        for j, v in self.labels:
            if j > self.level:
                raise ValueError(
                    f"label key {j} above vertex level {self.level}"
                )
            if v == 0:
                raise ValueError("zero labels must not be stored")
            if prev is not None and j <= prev:
                raise ValueError("label keys must be strictly increasing")
            prev = j

    @classmethod
    def make(cls, level: int, labels: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "TreeVertex":
        return cls(level, _canon(labels))

    def label_at(self, j: int) -> int:
        return _get(self.labels, j)


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
        prev = None
        for j, v in self.labels:
            if v == 0:
                raise ValueError("zero labels must not be stored")
            if prev is not None and j <= prev:
                raise ValueError("label keys must be strictly increasing")
            prev = j

    @classmethod
    def omega(cls) -> "TreeEnd":
        return cls((), True)

    @classmethod
    def word(cls, labels: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> "TreeEnd":
        return cls(_canon(labels), False)

    def label_at(self, j: int) -> int:
        if self.is_omega:
            raise ValueError("the reference end has no label word")
        return _get(self.labels, j)


OMEGA = TreeEnd.omega()


def predecessor(v: TreeVertex) -> TreeVertex:
    """One step towards ``omega``: drop the label entering ``v``'s level."""
    return TreeVertex(v.level - 1, _upto(v.labels, v.level - 1))


def successor(v: TreeVertex, label: int, q: int) -> TreeVertex:
    """The successor of ``v`` along edge ``label`` in ``{0, ..., q-1}``."""
    if not 0 <= label < q:
        raise ValueError(f"label {label} outside range(0, {q})")
    if label == 0:
        return TreeVertex(v.level + 1, v.labels)
    return TreeVertex(v.level + 1, v.labels + ((v.level + 1, label),))


def check_labels(v: TreeVertex | TreeEnd, q: int) -> None:
    """Reject a vertex or end with a label outside ``{0, ..., q-1}``.

    Labels are checked where input enters (walk start states, CLI vertices
    and ends), not on every step of a walk.
    """
    for j, label in v.labels:
        if not 0 <= label < q:
            raise ValueError(f"label {label} at {j} outside range(0, {q})")


def neighbours(v: TreeVertex, q: int) -> list[TreeVertex]:
    """Predecessor first, then the ``q`` successors in label order."""
    return [predecessor(v)] + [successor(v, l, q) for l in range(q)]


def confluent_omega(a: TreeVertex, b: TreeVertex) -> TreeVertex:
    """Highest common vertex of the rays from ``omega`` to ``a`` and ``b``."""
    m = min(a.level, b.level)
    keys = {j for j, _ in a.labels if j <= m} | {j for j, _ in b.labels if j <= m}
    bad = [j for j in keys if _get(a.labels, j) != _get(b.labels, j)]
    lvl = min(bad) - 1 if bad else m
    return TreeVertex(lvl, _upto(a.labels, lvl))


def confluent_omega_end(v: TreeVertex, xi: TreeEnd) -> TreeVertex:
    """Highest vertex shared by the omega-rays of ``v`` and the end ``xi``."""
    if xi.is_omega:
        raise ValueError("confluent with the reference end is undefined")
    m = v.level
    keys = {j for j, _ in v.labels} | {j for j, _ in xi.labels if j <= m}
    bad = [j for j in keys if _get(v.labels, j) != _get(xi.labels, j)]
    lvl = min(bad) - 1 if bad else m
    return TreeVertex(lvl, _upto(v.labels, lvl))


def distance(a: TreeVertex, b: TreeVertex) -> int:
    c = confluent_omega(a, b)
    return (a.level - c.level) + (b.level - c.level)


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
    bx = confluent_omega(x, ROOT).level
    low = [j for j, _ in xi.labels if j <= 0]
    bxi = min(low) - 1 if low else 0
    if bx != bxi:
        return TreeVertex(max(bx, bxi), ())
    m = bx
    keys = {j for j, _ in x.labels if j > m} | {
        j for j, _ in xi.labels if m < j <= x.level
    }
    bad = [j for j in keys if _get(x.labels, j) != _get(xi.labels, j)]
    lvl = min(min(bad) - 1, x.level) if bad else x.level
    return TreeVertex(lvl, _upto(x.labels, lvl))


def busemann_wrt_end(x: TreeVertex, xi: TreeEnd) -> int:
    """Horocycle index of ``x`` relative to the end ``xi``.

    Equals ``d(x, c) - d(o, c)`` with ``c = confluent_root(x, xi)``; for the
    reference end it reduces to ``level(x)``.
    """
    if xi.is_omega:
        return x.level
    c = confluent_root(x, xi)
    return distance(x, c) - distance(ROOT, c)


def shift(v: TreeVertex, m: int) -> TreeVertex:
    """Translate ``v`` by ``m`` levels along the level grading (an isometry)."""
    return TreeVertex(v.level + m, tuple((j + m, val) for j, val in v.labels))


def shift_end(xi: TreeEnd, m: int) -> TreeEnd:
    if xi.is_omega:
        return xi
    return TreeEnd(tuple((j + m, val) for j, val in xi.labels), False)


def ball(q: int, radius: int, centre: TreeVertex = ROOT) -> list[TreeVertex]:
    """All vertices within tree distance ``radius`` of ``centre`` (BFS order)."""
    seen = {centre}
    frontier = [centre]
    out = [centre]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbours(v, q):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    out.append(w)
        frontier = nxt
    return out


def random_vertex(q: int, radius: int, rng) -> TreeVertex:
    """A random vertex within ``radius`` of the root: ``radius`` uniform steps."""
    v = ROOT
    for _ in range(radius):
        v = rng.choice(neighbours(v, q))
    return v


def vertex_to_json(v: TreeVertex) -> dict:
    return {"level": v.level, "labels": [[j, val] for j, val in v.labels]}


def vertex_from_json(obj: dict) -> TreeVertex:
    return TreeVertex.make(int(obj["level"]), [(int(j), int(val)) for j, val in obj.get("labels", [])])


def end_to_json(xi: TreeEnd) -> dict:
    if xi.is_omega:
        return {"omega": True}
    return {"labels": [[j, val] for j, val in xi.labels]}


def end_from_json(obj: dict) -> TreeEnd:
    if obj.get("omega"):
        return TreeEnd.omega()
    return TreeEnd.word([(int(j), int(val)) for j, val in obj.get("labels", [])])
