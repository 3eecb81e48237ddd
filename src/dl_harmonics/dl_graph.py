"""Horocyclic products of two trees and their sibling-augmented variant.

``DL(q, r)`` has vertex set ``{x1 x2 : level(x1) + level(x2) = 0}`` inside
``T_q x T_r``; ``x1 x2 ~ y1 y2`` iff ``x1 ~ y1`` and ``x2 ~ y2`` in the two
trees.  Every move raises one tree coordinate and lowers the other, so each
vertex has ``q`` "up" neighbours (up in the first tree) and ``r`` "down"
neighbours: the graph is ``(q + r)``-regular.

The sibling-augmented variant ``DLS(q, r)`` on the same vertex set joins
``x1 x2`` to ``y1 y2`` when ``y2 = predecessor(x2)`` and ``predecessor(y1)``
is a *sibling* of ``x1`` (same predecessor -- possibly ``x1`` itself), or the
mirror-image condition one level down.  It is ``(q^2 + q r)``-regular and
contains every DL edge.

``factor_map`` collapses the sibling classes of the first coordinate:
``x1 x2 -> (shift(predecessor(x1), +1), x2)``, landing again on the
``level_sum = 0`` sheet.  The quotient of ``DLS(q, r)`` under sibling classes,
transported through ``factor_map``, is ``DL(q, r)`` again.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from .tree import (
    ROOT,
    TreeVertex,
    _new,
    _successors,
    predecessor,
    shift,
    vertex_from_json,
    vertex_to_json,
)
from . import tree as _tree

__all__ = [
    "DLParams",
    "DLVertex",
    "origin",
    "check_vertex",
    "dl_neighbours",
    "dls_neighbours",
    "siblings",
    "factor_map",
    "translation_to",
    "ball",
    "ball_size",
    "random_vertex",
    "dl_distance",
    "vertex_to_json_pair",
    "vertex_from_json_pair",
    "export_dot",
    "export_json",
]


@dataclass(frozen=True)
class DLParams:
    """Branching numbers of the two trees and the level-sum of the sheet."""

    q: int
    r: int
    level_sum: int = 0

    def __post_init__(self) -> None:
        if self.q < 2 or self.r < 2:
            raise ValueError("branching numbers must be at least 2")


class DLVertex(namedtuple("DLVertex", ("x1", "x2"))):
    """A vertex ``x1 x2``: the tuple of its tree coordinates, hashed and
    compared in C as that tuple."""

    __slots__ = ()


def origin(params: DLParams) -> DLVertex:
    """The base vertex ``o1 o2`` (roots, second one shifted onto the sheet)."""
    return DLVertex(ROOT, shift(ROOT, params.level_sum))


def check_vertex(v: DLVertex, params: DLParams) -> None:
    if v.x1.level + v.x2.level != params.level_sum:
        raise ValueError(
            f"levels {v.x1.level} + {v.x2.level} != level_sum {params.level_sum}"
        )


def dl_neighbours(v: DLVertex, params: DLParams) -> list[DLVertex]:
    """``q`` up-neighbours then ``r`` down-neighbours of ``v`` in DL(q, r)."""
    check_vertex(v, params)
    pred1, pred2 = predecessor(v.x1), predecessor(v.x2)
    return [_new(DLVertex, (u1, pred2)) for u1 in _successors(v.x1, params.q)] + [
        _new(DLVertex, (pred1, u2)) for u2 in _successors(v.x2, params.r)
    ]


def siblings(v: TreeVertex, q: int) -> list[TreeVertex]:
    """All vertices sharing ``v``'s predecessor, ``v`` included."""
    return _successors(predecessor(v), q)


def dls_neighbours(v: DLVertex, params: DLParams) -> list[DLVertex]:
    """Neighbours in the sibling-augmented graph: ``q^2`` up, ``q r`` down."""
    check_vertex(v, params)
    q, pred1, pred2 = params.q, predecessor(v.x1), predecessor(v.x2)
    succ2 = _successors(v.x2, params.r)
    up = [_new(DLVertex, (w1, pred2)) for u1 in _successors(pred1, q) for w1 in _successors(u1, q)]
    return up + [_new(DLVertex, (u1, u2)) for u1 in siblings(pred1, q) for u2 in succ2]


def factor_map(v: DLVertex, params: DLParams) -> DLVertex:
    """Collapse the first-coordinate sibling class onto the level-sum-0 sheet.

    Constant on sibling classes; carries DLS edges to DL edges.
    """
    check_vertex(v, params)
    return _new(DLVertex, (shift(predecessor(v.x1), 1), v.x2))


def translation_to(target: DLVertex, params: DLParams) -> Callable[[DLVertex], DLVertex]:
    """A graph automorphism fixing both reference ends with ``o1 o2 -> target``.

    Composition of a level shift with per-level label translations in each
    coordinate (addition mod ``q`` resp. ``r``), which preserves predecessor
    and successor relations and the level sum.
    """
    check_vertex(target, params)

    def move(x: TreeVertex, shift_by: int, t: TreeVertex, mod: int) -> TreeVertex:
        level = x.level + shift_by
        out = {j + shift_by: val for j, val in x.labels}
        for j, val in t.labels:
            if j <= level:  # entries above the new level act on descendants only
                out[j] = out.get(j, 0) + val
        return TreeVertex(level, _tree._canon(out, mod))

    h1, h2 = target.x1.level, target.x2.level - params.level_sum
    return lambda v: DLVertex(move(v.x1, h1, target.x1, params.q), move(v.x2, h2, target.x2, params.r))


def _neighbour_fn(params: DLParams, variant: str):
    if variant == "dl":
        return lambda v: dl_neighbours(v, params)
    if variant == "dls":
        return lambda v: dls_neighbours(v, params)
    raise ValueError(f"unknown variant {variant!r}")


def ball(params: DLParams, radius: int, variant: str = "dl") -> list[DLVertex]:
    """All vertices within graph distance ``radius`` of the origin (BFS order)."""
    return _tree._bfs(origin(params), _neighbour_fn(params, variant), radius)


def _level_shells(branch: int, level: int, radius: int) -> list[tuple[int, int]]:
    """``(distance, count)`` of the tree vertices at ``level`` within
    ``radius`` of the root, one pair per level ``m`` of their meet with it.

    They lie at distance ``level - 2m``.  The meet ``m = min(0, level)`` is
    the root's ray: one ancestor below the root, ``branch**level``
    descendants above it.  Each lower ``m`` holds the
    ``(branch - 1) branch**(level - m - 1)`` vertices that leave the ray there.
    """
    top = min(0, level)
    shells = [(level - 2 * top, branch**level if level > 0 else 1)]
    m = top - 1
    while level - 2 * m <= radius:
        shells.append((level - 2 * m, (branch - 1) * branch ** (level - m - 1)))
        m -= 1
    return [(d, n) for d, n in shells if d <= radius]


def ball_size(params: DLParams, radius: int, variant: str = "dl") -> int:
    """``len(ball(params, radius, variant))``, counted without building a vertex.

    A DL vertex at levels ``(k, level_sum - k)`` lies at distance
    ``d1 + d2 - |k|`` from the origin, where ``d1`` and ``d2`` are the tree
    distances, so summing the tree shells by level counts the DL ball.  In
    DLS the ``q`` members of a sibling class lie at the DL distance of their
    image under ``factor_map``, except in the origin's own class, whose
    ``q - 1`` other members lie at distance 2.
    """
    if variant not in ("dl", "dls"):
        raise ValueError(f"unknown variant {variant!r}")
    size = 0
    for k in range(-radius, radius + 1):
        for d1, n1 in _level_shells(params.q, k, radius):
            for d2, n2 in _level_shells(params.r, -k, radius):
                if d1 + d2 - abs(k) <= radius:
                    size += n1 * n2
    if variant == "dl":
        return size
    return 1 + (params.q - 1) * (radius >= 2) + params.q * (size - 1)


def random_vertex(params: DLParams, radius: int, rng, variant: str = "dl") -> DLVertex:
    """A random vertex reached by ``radius`` uniform neighbour steps from o."""
    nbrs = _neighbour_fn(params, variant)
    v = origin(params)
    for _ in range(radius):
        v = rng.choice(nbrs(v))
    return v


def dl_distance(a: DLVertex, b: DLVertex) -> int:
    """Graph distance in DL: both coordinates must travel, moves pay for one
    descent each, so ``d = d1 + d2 - |level difference|``."""
    d1 = _tree.distance(a.x1, b.x1)
    d2 = _tree.distance(a.x2, b.x2)
    return d1 + d2 - abs(a.x1.level - b.x1.level)


def vertex_to_json_pair(v: DLVertex) -> dict:
    return {"x1": vertex_to_json(v.x1), "x2": vertex_to_json(v.x2)}


def vertex_from_json_pair(obj: dict) -> DLVertex:
    return DLVertex(vertex_from_json(obj["x1"]), vertex_from_json(obj["x2"]))


def _edges(vertices: list[DLVertex], params: DLParams, variant: str, radius: int) -> list[tuple[int, int]]:
    """The edges ``(i, j)``, ``i < j``, of the ball ``vertices`` in BFS order.

    Every move changes the first level by one, so no edge joins two vertices
    at the same distance from the origin: each edge is found from its inner
    end, and only the ball of radius ``radius - 1`` is scanned.
    """
    nbrs = _neighbour_fn(params, variant)
    index = {v: i for i, v in enumerate(vertices)}
    inner = ball_size(params, radius - 1, variant) if radius > 0 else 0
    edges = set()
    for i, v in enumerate(vertices[:inner]):
        for w in nbrs(v):
            j = index.get(w)
            if j is not None and i < j:
                edges.add((i, j))
    return sorted(edges)


def export_dot(params: DLParams, radius: int, variant: str = "dl") -> str:
    """DOT text of the radius-``radius`` ball; node labels are JSON coordinates."""
    vertices = ball(params, radius, variant)
    lines = ["graph {"]
    for i, v in enumerate(vertices):
        label = json.dumps(vertex_to_json_pair(v), sort_keys=True)
        lines.append(f'  n{i} [label={json.dumps(label)}];')
    for i, j in _edges(vertices, params, variant, radius):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(params: DLParams, radius: int, variant: str = "dl") -> dict:
    """Adjacency-list export carrying the same content as the DOT form."""
    vertices = ball(params, radius, variant)
    edges = _edges(vertices, params, variant, radius)
    adjacency: list[list[int]] = [[] for _ in vertices]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return {
        "variant": variant,
        "q": params.q,
        "r": params.r,
        "radius": radius,
        "vertices": [vertex_to_json_pair(v) for v in vertices],
        "edges": [[i, j] for i, j in edges],
        "adjacency": adjacency,
    }
