import hashlib
import json
import math
import random
import tracemalloc
import zlib
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl_harmonics import walks
from dl_harmonics.dl_graph import (
    DLParams,
    DLVertex,
    dl_distance,
    dl_neighbours,
    factor_map,
    origin,
    random_vertex,
    vertex_to_json_pair,
)
from dl_harmonics.kernels import (
    KernelSpec,
    combine,
    drift_kernel,
    lift,
    martin_kernel_tree,
    tree_hitting_prob,
)
from dl_harmonics.tree import (
    OMEGA,
    ROOT,
    TreeEnd,
    TreeVertex,
    confluent_omega,
    distance as tree_distance,
    predecessor,
    successor,
)
from dl_harmonics.walks import (
    DLWalk,
    SiblingWalk,
    TreeWalk,
    apply,
    conjugate,
    estimate_f,
    is_harmonic_at,
    is_stochastic_at,
    operator_from_name,
    p1_walk,
    p2_walk,
    project,
    simulate,
    transitions,
)
from dl_harmonics.walks import _KEPT_ROWS, _integer_row, _philox_stream, _philox_streams, _ruin_bound, _shown

RNG_SEED = 27182

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def row_dict(op, v):
    out = {}
    for w, p in transitions(op, v):
        out[w] = out.get(w, Fraction(0)) + p
    return out


def test_product_walk_rows():
    p = DLParams(2, 2)
    o = origin(p)
    row = row_dict(DLWalk(p, HALF), o)
    assert len(row) == 4
    assert set(row.values()) == {Fraction(1, 4)}
    row = row_dict(DLWalk(DLParams(2, 3), THIRD), o := origin(DLParams(2, 3)))
    # two moves raising the first coordinate at alpha/q, three lowering it
    assert sorted(row.values()) == [Fraction(1, 6)] * 2 + [Fraction(2, 9)] * 3


def test_tree_walk_rows():
    row = row_dict(p1_walk(DLParams(2, 2), THIRD), ROOT)
    assert row[predecessor(ROOT)] == Fraction(2, 3)
    assert row[successor(ROOT, 0, 2)] == Fraction(1, 6)
    assert row[successor(ROOT, 1, 2)] == Fraction(1, 6)
    row = row_dict(p2_walk(DLParams(2, 3), THIRD), ROOT)
    assert row[predecessor(ROOT)] == THIRD
    assert all(row[successor(ROOT, l, 3)] == Fraction(2, 9) for l in range(3))


def test_sibling_walk_rows():
    p = DLParams(2, 2)
    o = origin(p)
    row = row_dict(SiblingWalk(p, HALF), o)
    assert len(row) == 8
    assert set(row.values()) == {Fraction(1, 8)}


def test_precomputed_rows_stay_out_of_repr_and_equality():
    assert repr(p1_walk(DLParams(2, 3), HALF)) == "TreeWalk(branch=2, up=Fraction(1, 2), kind='p1')"
    assert repr(SiblingWalk(DLParams(2, 2), THIRD)) == (
        "SiblingWalk(params=DLParams(q=2, r=2, level_sum=0), alpha=Fraction(1, 3))"
    )
    a, b = DLWalk(DLParams(2, 3), HALF), DLWalk(DLParams(2, 3), Fraction(2, 4))
    assert a == b and hash(a) == hash(b)
    assert DLWalk(DLParams(2, 3), THIRD) != a


def test_rows_are_stochastic():
    rng = random.Random(RNG_SEED)
    for name in ("palpha", "p1", "p2", "qalpha"):
        for p in (DLParams(2, 2), DLParams(2, 3)):
            if name == "qalpha" and p.q != p.r:
                continue
            op = operator_from_name(name, p, Fraction(2, 5))
            for _ in range(25):
                v = random_vertex(p, 4, rng)
                if name in ("p1", "p2"):
                    v = v.x1 if name == "p1" else v.x2
                assert is_stochastic_at(op, v)


def test_operator_from_name_unknown():
    with pytest.raises(ValueError):
        operator_from_name("heat", DLParams(2, 2), HALF)


def test_apply_is_linear():
    p = DLParams(2, 2)
    op = DLWalk(p, THIRD)
    f = lift(1, lambda x: Fraction(x.level))
    g = lift(2, lambda x: Fraction(x.level * x.level))
    rng = random.Random(RNG_SEED + 1)
    for _ in range(30):
        v = random_vertex(p, 4, rng)
        lhs = apply(op, lambda w: 3 * f(w) - 2 * g(w), v)
        assert lhs == 3 * apply(op, f, v) - 2 * apply(op, g, v)


def test_constants_are_harmonic():
    p = DLParams(2, 3)
    op = DLWalk(p, Fraction(2, 5))
    rng = random.Random(RNG_SEED + 2)
    for _ in range(30):
        v = random_vertex(p, 4, rng)
        assert is_harmonic_at(op, lambda _: Fraction(7), v)


def test_lifted_kernels_are_harmonic():
    rng = random.Random(RNG_SEED + 3)
    for p, alpha in ((DLParams(2, 2), HALF), (DLParams(2, 3), THIRD)):
        op = DLWalk(p, alpha)
        ends = [OMEGA, TreeEnd.word({1: 1}), TreeEnd.word({-1: 1, 2: 1})]
        for side in (1, 2):
            for end in ends:
                h = KernelSpec(side, end, alpha, p).evaluate
                for _ in range(20):
                    v = random_vertex(p, 4, rng)
                    assert is_harmonic_at(op, h, v)


def test_drift_kernel_is_harmonic():
    rng = random.Random(RNG_SEED + 4)
    for alpha in (THIRD, HALF, Fraction(3, 4)):
        p = DLParams(2, 2)
        op = DLWalk(p, alpha)
        g = drift_kernel(alpha)
        for _ in range(30):
            v = random_vertex(p, 4, rng)
            assert is_harmonic_at(op, g, v)


def test_hitting_prob_harmonic_away_from_target():
    p = DLParams(2, 2)
    alpha = Fraction(2, 5)
    op = p1_walk(p, alpha)
    y = TreeVertex.make(1, {1: 1})
    h = lambda x: tree_hitting_prob(x, y, alpha, 2)
    rng = random.Random(RNG_SEED + 5)
    seen_far = 0
    for _ in range(60):
        lv = rng.randrange(-3, 4)
        x = TreeVertex.make(lv, {j: rng.randrange(2) for j in range(-2, lv + 1)})
        if x == y:
            continue
        assert is_harmonic_at(op, h, x)
        seen_far += 1
    assert seen_far > 0
    # at the target the mean after one step drops strictly below 1
    assert apply(op, h, y) < h(y) == 1


def test_conjugation_swaps_drift():
    # the drift kernel carries P_alpha to P_{1-alpha}
    p = DLParams(2, 2)
    rng = random.Random(RNG_SEED + 6)
    for alpha in (THIRD, Fraction(2, 3), Fraction(1, 5)):
        op = conjugate(DLWalk(p, alpha), drift_kernel(alpha))
        mirror = DLWalk(p, 1 - alpha)
        for _ in range(20):
            v = random_vertex(p, 4, rng)
            assert is_stochastic_at(op, v)
            assert row_dict(op, v) == row_dict(mirror, v)


def test_conjugation_rejects_signed_functions():
    p = DLParams(2, 2)
    op = conjugate(DLWalk(p, HALF), lift(1, lambda x: Fraction(x.level)))
    with pytest.raises(ValueError):
        op.transitions(origin(p))


def _conjugation_cases():
    p = DLParams(2, 3)
    drift = drift_kernel(Fraction(2, 3))
    cases = {
        "fractions": (DLWalk(p, Fraction(2, 3)), drift),
        "ints": (DLWalk(p, THIRD), lambda v: 3 ** (v.x1.level + 8)),
        # ints at odd first levels, Fractions elsewhere
        "mixed": (SiblingWalk(p, Fraction(2, 5)), lambda v: v.x1.level + 9 if v.x1.level % 2 else drift(v)),
        "floats": (DLWalk(p, THIRD), lambda v: 1.5 ** v.x1.level),
    }
    return [pytest.param(kind, *case, id=kind) for kind, case in cases.items()]


@pytest.mark.parametrize("kind, base, g", _conjugation_cases())
def test_conjugated_rows_equal_the_product(kind, base, g):
    op = conjugate(base, g)
    h = _values("fractions")
    rng = random.Random(RNG_SEED + 12)
    for _ in range(20):
        v = random_vertex(base.params, 4, rng)
        row = op.transitions(v)
        want = [(w, p * g(w) / g(v)) for w, p in base.transitions(v)]
        assert row == want
        kinds = {type(p) for _, p in row}
        assert kinds == ({float} if kind == "floats" else {Fraction})
        # apply and is_stochastic_at keep the plain term-by-term arithmetic
        assert apply(op, h, v) == sum(p * h(w) for w, p in want)
        assert is_stochastic_at(op, v) == (sum(p for _, p in want) == 1)
        if kind != "floats":
            assert is_stochastic_at(op, v) is (kind == "fractions")


@pytest.mark.parametrize("kind", ["ints", "fractions", "floats"])
def test_conjugation_rejects_a_non_positive_value_at_either_end(kind):
    p = DLParams(2, 2)
    o = origin(p)
    up = dl_neighbours(o, p)[0]
    value = {"ints": lambda n: n, "fractions": lambda n: Fraction(n, 3), "floats": float}[kind]
    for bad in (0, -2):
        at_start = conjugate(DLWalk(p, HALF), lambda v: value(bad if v == o else 1))
        at_neighbour = conjugate(DLWalk(p, HALF), lambda v: value(bad if v == up else 1))
        for op in (at_start, at_neighbour):
            with pytest.raises(ValueError, match="conjugating function must be strictly positive"):
                op.transitions(o)


def test_projected_walk():
    from dl_harmonics.dl_graph import siblings

    p = DLParams(2, 2)
    base = SiblingWalk(p, Fraction(2, 5))
    op = project(base)
    mirror = DLWalk(p, Fraction(2, 5))
    rng = random.Random(RNG_SEED + 7)

    def push(o, v):
        out = {}
        for w, pr in transitions(o, v):
            img = factor_map(w, p)
            out[img] = out.get(img, Fraction(0)) + pr
        return out

    for _ in range(40):
        u = random_vertex(p, 4, rng)
        row = row_dict(op, u)
        assert sum(row.values()) == 1
        # the projected walk coincides with the simple drifted walk
        assert row == row_dict(mirror, u)
        # lumpability: every member of a sibling class pushes forward to the
        # same row, and that row is the projected row at the image point
        want = push(base, u)
        for s in siblings(u.x1, p.q):
            assert push(base, DLVertex(s, u.x2)) == want
        assert row_dict(op, factor_map(u, p)) == want


def test_project_rejects_other_walks():
    with pytest.raises(ValueError):
        project(DLWalk(DLParams(2, 2), HALF))


def test_simulate_basics():
    p = DLParams(2, 2)
    op = DLWalk(p, HALF)
    o = origin(p)
    t = simulate(op, o, 0, 11)
    assert t.start == o and t.steps == ()
    t1 = simulate(op, o, 50, 11)
    t2 = simulate(op, o, 50, 11)
    assert t1 == t2
    t3 = simulate(op, o, 50, 12)
    assert t3.steps != t1.steps
    for prev, nxt in zip((o,) + t1.steps, t1.steps):
        assert nxt in dl_neighbours(prev, p)
    with pytest.raises(ValueError):
        simulate(op, o, -1, 0)


def test_simulate_frequencies():
    # one long tree-walk path: the three one-step moves from each state have
    # probabilities 1/6, 1/6, 2/3; check counts against 4-sigma binomial bands
    op = p1_walk(DLParams(2, 2), THIRD)
    n = 100_000
    t = simulate(op, ROOT, n, RNG_SEED)
    counts = {"pred": 0, "succ0": 0, "succ1": 0}
    prev = ROOT
    for v in t.steps:
        if v.level < prev.level:
            counts["pred"] += 1
        elif dict(v.labels).get(v.level, 0) == 0:
            counts["succ0"] += 1
        else:
            counts["succ1"] += 1
        prev = v
    for key, prob in (("pred", 2 / 3), ("succ0", 1 / 6), ("succ1", 1 / 6)):
        sigma = (n * prob * (1 - prob)) ** 0.5
        assert abs(counts[key] - n * prob) < 4 * sigma, (key, counts)


def test_estimate_at_target_is_one():
    p = DLParams(2, 2)
    op = DLWalk(p, HALF)
    o = origin(p)
    res = estimate_f(op, o, o, trials=10, horizon=5, seed=1)
    assert res.point_estimate == 1.0
    assert res.hits == 10


def test_estimate_bookkeeping():
    p = DLParams(2, 2)
    op = p1_walk(p, THIRD)
    res = estimate_f(op, ROOT, TreeVertex.make(2, {2: 1}), trials=400, horizon=60, seed=5)
    assert res.hits + res.escaped_runs + res.truncated_runs == res.trials == 400
    assert res.point_estimate == res.hits / 400
    assert res.horizon == 60 and res.seed == 5
    again = estimate_f(op, ROOT, TreeVertex.make(2, {2: 1}), trials=400, horizon=60, seed=5)
    assert again == res
    other = estimate_f(op, ROOT, TreeVertex.make(2, {2: 1}), trials=400, horizon=60, seed=6)
    assert other.hits != res.hits or other.point_estimate == res.point_estimate


def test_estimate_matches_exact_value():
    # downward drift: F(root, child) = f_plus(1/3, 2) = 1/4, runs resolve fast
    p = DLParams(2, 2)
    op = p1_walk(p, THIRD)
    y = successor(ROOT, 0, 2)
    exact = float(tree_hitting_prob(ROOT, y, THIRD, 2))
    res = estimate_f(op, ROOT, y, trials=4000, horizon=400, seed=RNG_SEED)
    sigma = (exact * (1 - exact) / 4000) ** 0.5
    assert abs(res.point_estimate - exact) < 4 * sigma + res.truncated_runs / 4000
    # upward drift: the predecessor is hit almost surely
    res = estimate_f(op, successor(ROOT, 1, 2), ROOT, trials=500, horizon=400, seed=RNG_SEED)
    assert res.point_estimate > 0.98


def test_estimate_validates_input():
    p = DLParams(2, 2)
    op = DLWalk(p, HALF)
    o = origin(p)
    with pytest.raises(ValueError):
        estimate_f(op, o, o, trials=0, horizon=5, seed=1)
    with pytest.raises(ValueError):
        estimate_f(op, o, o, trials=5, horizon=-1, seed=1)
    with pytest.raises(ValueError, match="escape_radius"):
        estimate_f(op, o, o, trials=5, horizon=5, seed=1, escape_radius=-1)


# Estimator outputs pinned as literals: the sampler may change how it draws,
# never what it draws.  Every (seed, trial) keeps its path, so the counts of
# hits, escaped runs and truncated runs stay exactly these.
P23 = DLParams(2, 3)
Y_DL = DLVertex(TreeVertex.make(0, {0: 1}), TreeVertex.make(0, {0: 2}))
PIN_TARGETS = {
    "p1": TreeVertex.make(0, {0: 1}),
    "p2": TreeVertex.make(2, {2: 2}),
    "palpha": Y_DL,
    "qalpha": Y_DL,
}
TWO_THIRDS = Fraction(2, 3)


@pytest.mark.parametrize(
    "name, alpha, counts",
    [
        ("p1", TWO_THIRDS, (72, 228, 0)),
        ("p1", HALF, (142, 144, 14)),
        ("p2", TWO_THIRDS, (9, 291, 0)),
        ("p2", HALF, (35, 251, 14)),
        ("palpha", TWO_THIRDS, (12, 288, 0)),
        ("palpha", HALF, (33, 267, 0)),
        ("qalpha", TWO_THIRDS, (14, 286, 0)),
        ("qalpha", HALF, (25, 275, 0)),
    ],
)
def test_estimate_counts_pinned(name, alpha, counts):
    op = operator_from_name(name, P23, alpha)
    x = ROOT if name in ("p1", "p2") else origin(P23)
    res = estimate_f(op, x, PIN_TARGETS[name], trials=300, horizon=200, seed=41)
    assert (res.hits, res.escaped_runs, res.truncated_runs) == counts


def test_estimate_counts_pinned_generic_bisect_and_long_runs():
    p = DLParams(2, 2)
    o = origin(p)
    y = DLVertex(TreeVertex.make(1, {1: 1}), TreeVertex.make(-1, {-1: 1}))

    def counts(*args, **kwargs):
        res = estimate_f(*args, **kwargs)
        return res.hits, res.escaped_runs, res.truncated_runs

    conj = conjugate(DLWalk(p, TWO_THIRDS), drift_kernel(TWO_THIRDS))
    assert counts(conj, o, y, 40, 40, 43) == (4, 35, 1)
    assert counts(project(SiblingWalk(p, Fraction(3, 5))), o, y, 40, 40, 44) == (3, 32, 5)
    # row denominator 8198 > 4096: indices come from the cumulative row
    big = TreeWalk(2, Fraction(2049, 4099))
    assert counts(big, ROOT, TreeVertex.make(0, {0: 1}), 300, 200, 45) == (134, 155, 11)
    # horizons above 1024 draw in several chunks
    far = TreeVertex.make(1, {0: 1, 1: 1})
    assert counts(p1_walk(p, HALF), ROOT, far, 40, 2500, 46) == (8, 32, 0)
    palpha = DLWalk(P23, Fraction(2, 5))
    assert counts(palpha, origin(P23), Y_DL, 40, 2100, 47, escape_tol=0.0) == (3, 37, 0)


def _path_digest(traj):
    path = [vertex_to_json_pair(v) for v in (traj.start,) + traj.steps]
    return hashlib.sha256(json.dumps(path).encode()).hexdigest()


def test_simulate_paths_pinned():
    t = simulate(DLWalk(P23, Fraction(2, 5)), origin(P23), 300, 7)
    assert _path_digest(t) == "b8364bd591fdb47547cb3d2ef05c0197e46773674ff9acf4958888413412b89c"
    p = DLParams(2, 2)
    conj = conjugate(DLWalk(p, TWO_THIRDS), drift_kernel(TWO_THIRDS))
    t = simulate(conj, origin(p), 200, 8)
    assert _path_digest(t) == "d04fb30b103c513bc848435c60949993b6245ef52595d22d51ed9849f8bc1a12"


def test_simulate_computes_kept_rows_once():
    class Counting:
        def __init__(self, base):
            self.base, self.calls = base, 0

        def validate_state(self, v):
            self.base.validate_state(v)

        def transitions(self, v):
            self.calls += 1
            return self.base.transitions(v)

    p = DLParams(2, 2)
    op = Counting(DLWalk(p, HALF))
    t = simulate(op, origin(p), 3000, 5)
    assert t.steps == simulate(DLWalk(p, HALF), origin(p), 3000, 5).steps
    visited = (t.start,) + t.steps[:-1]
    kept = set(list(dict.fromkeys(visited))[:_KEPT_ROWS])
    assert len(set(visited)) > _KEPT_ROWS  # both regimes are exercised
    # a kept state's row is computed on its first visit only; the others on every visit
    assert op.calls == len(kept) + sum(v not in kept for v in visited)


def _reference_counts(op, x, y, trials, horizon, seed, escape_tol=1e-12):
    """``(hits, escaped, truncated)`` of ``estimate_f`` with its default
    ``escape_radius``, recounted on real vertices.

    Every run takes its draws from ``_philox_stream(seed, trial)`` in chunks
    of at most 1024, and each draw picks the row entry whose cumulative
    integer weight first exceeds it, moving to ``op.transitions(v)[i][0]``.
    A drifting walk applies ``_ruin_bound`` after every 64 steps and at the
    horizon, with the level of ``confluent_omega`` of the first coordinates;
    a run still alive is escaped when its final distance to ``y`` exceeds
    the radius, truncated otherwise.
    """
    tree = isinstance(op, TreeWalk)
    dist = tree_distance if tree else dl_distance
    radius = max(8, 2 * dist(x, y))
    up = float(op.up if tree else op.alpha)
    margin = 1 if isinstance(op, SiblingWalk) else 0

    def ruined(v):
        a, b = (v, y) if tree else (v.x1, y.x1)
        bound = _ruin_bound(up, a.level, b.level, confluent_omega(a, b).level, margin)
        return up != 0.5 and bound < escape_tol

    weights = [p for _, p in op.transitions(x)]
    denom = math.lcm(*(p.denominator for p in weights))
    cum = list(accumulate(int(p * denom) for p in weights))
    counts = {"hit": 0, "escaped": 0, "truncated": 0}
    for trial in range(trials):
        gen = _philox_stream(seed, trial)
        v, step = x, 0
        outcome = "hit" if v == y else None
        while outcome is None and step < horizon:
            chunk = min(1024, horizon - step)
            for d in gen.integers(0, denom, size=chunk):
                v = op.transitions(v)[bisect_right(cum, int(d))][0]
                step += 1
                if v == y:
                    outcome = "hit"
                    break
                if step % 64 == 0 and ruined(v):
                    outcome = "escaped"
                    break
        if outcome is None:
            outcome = "escaped" if ruined(v) or dist(v, y) > radius else "truncated"
        counts[outcome] += 1
    return counts["hit"], counts["escaped"], counts["truncated"]


def _counts(res):
    return res.hits, res.escaped_runs, res.truncated_runs


@pytest.mark.parametrize(
    "op",
    [
        p1_walk(P23, TWO_THIRDS),
        p1_walk(P23, HALF),
        p2_walk(P23, TWO_THIRDS),
        TreeWalk(2, Fraction(2049, 4099)),  # row denominator above 4096
        DLWalk(P23, Fraction(2731, 4099)),  # row denominator 8198
        DLWalk(P23, TWO_THIRDS),
        DLWalk(P23, HALF),
        SiblingWalk(P23, TWO_THIRDS),
        SiblingWalk(P23, HALF),
    ],
    ids=[
        "p1-drift", "p1-driftless", "p2-drift", "tree-bisect", "dl-bisect",
        "dl-drift", "dl-driftless", "sibling-drift", "sibling-driftless",
    ],
)
def test_estimate_hits_match_reference_walk(op):
    # all three counts, with the ruin bound on (the default) and off
    if isinstance(op, TreeWalk):
        x, y = ROOT, TreeVertex.make(0, {0: 1})
    else:
        x, y = origin(P23), DLVertex(TreeVertex.make(1, {1: 1}), TreeVertex.make(-1, {-1: 2}))
    total = [0, 0, 0]
    for seed in (5, 977, 2**63 + 5):
        res = estimate_f(op, x, y, trials=20, horizon=120, seed=seed)
        want = _reference_counts(op, x, y, 20, 120, seed)
        assert _counts(res) == want
        res = estimate_f(op, x, y, trials=20, horizon=120, seed=seed, escape_tol=0.0)
        assert _counts(res) == _reference_counts(op, x, y, 20, 120, seed, escape_tol=0.0)
        total = [t + w for t, w in zip(total, want)]
    assert total[0] > 0 and total[1] + total[2] > 0


Y_FAR = DLVertex(TreeVertex.make(25, {25: 1}), TreeVertex.make(-25, {-25: 2}))  # 27 steps from the origin


def test_estimate_hits_match_reference_walk_over_chunks():
    # Runs go on past their first chunk of 1024 draws.  A tree run hits; no
    # product run comes back this far, but the steps past 1024 change how
    # one is classified.
    for op, x, y, seed in [
        (p1_walk(P23, HALF), ROOT, TreeVertex.make(1, {0: 1, 1: 1}), 3),
        (DLWalk(P23, HALF), origin(P23), Y_FAR, 4),
        (SiblingWalk(P23, HALF), origin(P23), Y_FAR, 3),
    ]:
        res = estimate_f(op, x, y, trials=8, horizon=1100, seed=seed, escape_tol=0.0)
        assert _counts(res) == _reference_counts(op, x, y, 8, 1100, seed)
        first_chunk = estimate_f(op, x, y, trials=8, horizon=1024, seed=seed, escape_tol=0.0)
        assert res.hits > 0 if isinstance(op, TreeWalk) else _counts(res) != _counts(first_chunk)


def test_drifting_runs_stop_at_every_64_step_checkpoint():
    # A loose tolerance certifies runs at step 64 that would hit later on:
    # they count as escaped, as in the reference walk, and the hits fall.
    op, y = p1_walk(P23, Fraction(3, 5)), TreeVertex.make(0, {0: 1})
    res = estimate_f(op, ROOT, y, trials=40, horizon=300, seed=5, escape_tol=0.3)
    assert _counts(res) == _reference_counts(op, ROOT, y, 40, 300, 5, 0.3)
    assert res.hits < estimate_f(op, ROOT, y, trials=40, horizon=300, seed=5, escape_tol=0.0).hits


def test_ruin_bound_equals_the_bounds_written_out():
    up = 1 / 3
    assert _ruin_bound(up, 0, 1, 0, 0) == up / (1 - up) != 0.5  # the target one level up
    assert _ruin_bound(up, -2, 1, -2, 0) == (up / (1 - up)) ** 3
    up = 2 / 3
    assert _ruin_bound(up, 3, 1, 2, 0) == ((1 - up) / up) ** 2  # the target two levels down
    assert _ruin_bound(up, 3, 5, 0, 1) == ((1 - up) / up) ** 2  # two levels above the confluent and margin
    assert _ruin_bound(up, 0, 1, 0, 0) == _ruin_bound(0.5, 3, 1, 0, 0) == 1.0


def test_a_run_one_level_below_the_target_is_escaped_on_a_loose_bound():
    # p1 with up-rate 1/3 from the root to its successor along label 0, two
    # steps: a run hits on its first step (up along label 0), or ends at
    # level -2 or 0, where the target is 3 or 1 levels up and the ruin bound
    # (1/2)^3 or (1/2)^1 is below 0.6, so it is escaped, or ends at level 2
    # (up along label 1, then up), where no bound applies and its distance 3
    # is inside the radius 8, so it is truncated.
    op, y = p1_walk(DLParams(2, 2), THIRD), TreeVertex(1, ())
    cum = list(accumulate(int(p * 6) for _, p in op.transitions(ROOT)))
    want = {"hit": 0, "escaped": 0, "truncated": 0}
    for trial in range(200):
        v = ROOT
        for d in _philox_stream(7, trial).integers(0, 6, size=2):
            v = op.transitions(v)[bisect_right(cum, int(d))][0]
            if v == y:
                break
        want["hit" if v == y else "escaped" if v.level in (-2, 0) else "truncated"] += 1
    res = estimate_f(op, ROOT, y, trials=200, horizon=2, seed=7, escape_tol=0.6)
    assert _counts(res) == tuple(want.values()) == (29, 160, 11)


@pytest.mark.parametrize("kind", ["tree", "dl", "sibling"])
def test_estimate_hits_match_reference_walk_up_a_deep_ray(kind):
    # Start on level 10 and the target two levels up its ray: a run hits
    # only by following the ray upward above level 9.
    x1, y1 = TreeVertex.make(10, {4: 1, 10: 1}), TreeVertex.make(12, {4: 1, 10: 1, 12: 1})
    assert confluent_omega(x1, y1) == x1
    if kind == "tree":
        op, x, y = TreeWalk(2, TWO_THIRDS), x1, y1
    else:
        x2 = TreeVertex.make(-10, {-12: 2, -11: 1})
        x, y = DLVertex(x1, x2), DLVertex(y1, predecessor(predecessor(x2)))
        op = (DLWalk if kind == "dl" else SiblingWalk)(P23, TWO_THIRDS)
    hits = 0
    for seed in (5, 977):
        want = _reference_counts(op, x, y, 40, 120, seed)
        assert _counts(estimate_f(op, x, y, trials=40, horizon=120, seed=seed)) == want
        hits += want[0]
    assert hits > 0


@st.composite
def walk_start_target(draw):
    """A fast-path walk, a start a few steps from the origin and a target at
    most six steps from the start: off the start's ray, below it, above it,
    or the start itself."""
    kind = draw(st.sampled_from(("tree", "dl", "sibling")))
    q, r = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))))
    alpha = draw(st.sampled_from((HALF, TWO_THIRDS, Fraction(2, 5), Fraction(7, 8))))
    if kind == "tree":
        op, v = TreeWalk(q, alpha), ROOT
    else:
        p = DLParams(q, r)
        op, v = (DLWalk if kind == "dl" else SiblingWalk)(p, alpha), origin(p)
    ends = []
    for length in (4, 6):
        for i in draw(st.lists(st.integers(0, 8), max_size=length)):
            row = op.transitions(v)
            v = row[i % len(row)][0]
        ends.append(v)
    return op, ends[0], ends[1]


@settings(max_examples=150, deadline=None)
@given(
    walk_start_target(),
    st.integers(0, 150),
    st.integers(0, 2**64 - 1),
    st.sampled_from((1e-12, 1e-3, 0.3)),  # loose bounds certify runs early
)
def test_estimate_counts_match_reference_walk_near_the_target(case, horizon, seed, escape_tol):
    op, x, y = case
    res = estimate_f(op, x, y, trials=4, horizon=horizon, seed=seed, escape_tol=escape_tol)
    assert _counts(res) == _reference_counts(op, x, y, 4, horizon, seed, escape_tol)


def test_estimate_refuses_work_past_the_cap_before_drawing(monkeypatch):
    def no_streams(seed):
        raise RuntimeError("a stream was keyed")

    monkeypatch.setattr(walks, "_philox_streams", no_streams)
    op, y = p1_walk(P23, HALF), TreeVertex.make(0, {0: 1})
    cap = walks._MAX_ESTIMATE_STEPS
    with pytest.raises(ValueError, match=f"needs up to {cap + 1} steps .*cap {cap}"):
        estimate_f(op, ROOT, y, trials=cap + 1, horizon=1, seed=0)
    with pytest.raises(ValueError, match=f"needs up to {2 * cap} steps"):
        estimate_f(op, ROOT, y, trials=2, horizon=cap, seed=0)
    # at the cap the run goes ahead and keys its streams
    with pytest.raises(RuntimeError, match="keyed"):
        estimate_f(op, ROOT, y, trials=1, horizon=cap, seed=0)
    # every draw, the batched first chunks included, goes through those streams
    log = []
    monkeypatch.setattr(walks, "_philox_streams", _logged_streams(log))
    estimate_f(op, ROOT, y, trials=3, horizon=5, seed=0)
    assert log == [("raw", 0), ("raw", 1), ("raw", 2)]


@pytest.mark.parametrize("d", [6, 8198, 10**6, 2**32, 2**33 + 1])
def test_array_draws_equal_scalar_draws(d):
    # The meet-state path draws a run's steps in chunks of at most 1024, the
    # generic path one scalar at a time; both read the same numbers.
    for n in (1, 1023, 1024, 1025, 2100):
        scalar = _philox_stream(19, n)
        want = [int(scalar.integers(0, d)) for _ in range(n)]
        assert _philox_stream(19, n).integers(0, d, size=n).tolist() == want
        gen, chunked = _philox_stream(19, n), []
        for start in range(0, n, 1024):
            chunked += gen.integers(0, d, size=min(1024, n - start)).tolist()
        assert chunked == want


def _logged_streams(log):
    """``_philox_streams`` whose generators log ``("raw", trial)`` for each
    read of raw words and ``("integers", trial)`` for each ``integers`` call."""

    def streams(seed):
        stream = _philox_streams(seed)

        def keyed(trial):
            gen = stream(trial)

            def random_raw(size):
                log.append(("raw", trial))
                return gen.bit_generator.random_raw(size)

            def integers(*args, **kwargs):
                log.append(("integers", trial))
                return gen.integers(*args, **kwargs)

            return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw), integers=integers)

        return keyed

    return streams


@pytest.mark.parametrize("d", [2, 3, 4, 36, 8198, 2**28 + 1, 2**31 + 1, 2**32 - 1, 2**32, 2**33 + 1])
def test_batched_first_draws_equal_each_trial_s_own_draws(monkeypatch, d):
    # a small block, so that every n spans three blocks
    monkeypatch.setattr(walks, "_BLOCK_DRAWS", 1024)
    for n in (1, 2, 299, 300, 1024):
        trials = 2 * (1024 // n) + 1
        log = []
        blocks = list(walks._first_draws(_logged_streams(log)(19), trials, n, d))
        want = [_philox_stream(19, t).integers(0, d, size=n).tolist() for t in range(trials)]
        assert np.concatenate(blocks).tolist() == want
        raw = [t for kind, t in log if kind == "raw"]
        redrawn = [t for kind, t in log if kind == "integers"]
        # Rejection zones: 2**28 - 15 words in 2**32 for 2**28 + 1, which
        # is batched only for n = 1, and 2**31 - 1 for 2**31 + 1.
        if d >= 2**32 or d == 2**31 + 1 or (d == 2**28 + 1 and n > 1):  # drawn trial by trial
            assert len(blocks) == trials and raw == [] and redrawn == list(range(trials))
            continue
        assert len(blocks) == 3 and max(b.size for b in blocks) <= 1024
        assert raw == list(range(trials)) and redrawn == sorted(set(redrawn))
        if d in (2, 4):  # a power of two leaves no rejection zone
            assert redrawn == []
        if d == 2**28 + 1:  # about one word in 16 falls in the zone
            assert 0 < len(redrawn) < trials


@pytest.mark.parametrize(
    "up, denom, horizon, batched",
    [(Fraction(2**30 + 1, 2**30 + 3), 2**31 + 6, 300, False), (Fraction(2**20 + 1, 2**21 + 1), 2**22 + 2, 64, True)],
    ids=["zone-near-2**31", "zone-near-2**22"],
)
def test_estimate_matches_reference_walk_where_rows_meet_the_rejection_zone(monkeypatch, up, denom, horizon, batched):
    # Row denominator 2**31 + 6: about half of all 32-bit words fall in the
    # rejection zone, so every first chunk is drawn by integers, trial by
    # trial.  Row denominator 2**22 + 2: about one 64-draw chunk in 16
    # meets the zone and is drawn again by integers; the rest are batched.
    op = TreeWalk(2, up)
    assert _integer_row(op._weights)[0] == denom
    y = TreeVertex.make(3, {1: 1, 3: 1})
    log = []
    monkeypatch.setattr(walks, "_philox_streams", _logged_streams(log))
    hits = 0
    for trials, h in ((200, horizon), (2, 1100)):
        for escape_tol in (1e-12, 0.0):
            log.clear()
            res = estimate_f(op, ROOT, y, trials=trials, horizon=h, seed=1, escape_tol=escape_tol)
            assert _counts(res) == _reference_counts(op, ROOT, y, trials, h, 1, escape_tol)
            hits += res.hits
        if trials == 200:
            raw = [t for kind, t in log if kind == "raw"]
            redrawn = [t for kind, t in log if kind == "integers"]
            if batched:
                assert raw == list(range(trials)) and 0 < len(redrawn) < trials
            else:
                assert raw == [] and redrawn == list(range(trials))
    assert hits > 0


@pytest.mark.parametrize("block_draws", [1024, 2048], ids=["one-trial-a-block", "two-trials-a-block"])
@pytest.mark.parametrize("up", [THIRD, Fraction(357913943, 2**30 + 3)], ids=["batched", "trial-by-trial"])
def test_runs_past_the_first_chunk_read_on_in_their_own_stream(monkeypatch, up, block_draws):
    # Drifting down onto the ancestor 500 levels below the start, a run
    # hits near step 1500, well past its first chunk of 1024 draws.  Row
    # denominators 6 and 2**31 + 6: the first chunk comes from the raw
    # words, or from integers trial by trial.  With one trial a block, a
    # run reads on after the next block has re-keyed the bit generator;
    # with two, every other run after its own block has keyed the next trial.
    monkeypatch.setattr(walks, "_BLOCK_DRAWS", block_draws)
    op, y = TreeWalk(2, up), TreeVertex(-500, ())
    res = estimate_f(op, ROOT, y, trials=40, horizon=1500, seed=7)
    assert _counts(res) == _reference_counts(op, ROOT, y, 40, 1500, 7) and 0 < res.hits < 40


def test_first_chunks_are_drawn_in_blocks_of_bounded_memory():
    # 4,096 first chunks of 1,024 draws: all at once they would take over
    # 100 MiB; runs stop on the ruin bound at step 64
    op, y = p1_walk(P23, TWO_THIRDS), TreeVertex.make(0, {0: 1})
    tracemalloc.start()
    try:
        res = estimate_f(op, ROOT, y, trials=4096, horizon=1024, seed=8, escape_tol=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.hits + res.escaped_runs == 4096
    assert peak < 16 * 2**20


def _conjugated_sweep():
    """Drift-conjugated DLWalk and SiblingWalk on DL(2,2), DL(2,3) and
    DL(3,2) at four alphas and four horizons: 96 cases."""
    for q, r in ((2, 2), (2, 3), (3, 2)):
        p = DLParams(q, r)
        for alpha in (THIRD, HALF, TWO_THIRDS, Fraction(12345, 67891)):
            for base in (DLWalk(p, alpha), SiblingWalk(p, alpha)):
                op = conjugate(base, drift_kernel(alpha))
                for horizon in (0, 1, 30, 1100):
                    yield op, origin(p), horizon


Y_CONJ = DLVertex(TreeVertex.make(1, {1: 1}), TreeVertex.make(-1, {-1: 1}))


def test_conjugated_counts_on_the_meet_state_equal_the_generic_path():
    cases = list(_conjugated_sweep())
    assert len(cases) == 96
    total = [0, 0, 0]
    for op, o, horizon in cases:
        assert (walks._fast_plan(op, o, horizon) is not None) == (horizon > 0)
        trials = 1 if horizon > 1024 else 8
        radius = max(8, 2 * dl_distance(o, Y_CONJ))
        # no ruin bound: a loose escape_tol ends no run early
        res = estimate_f(op, o, Y_CONJ, trials, horizon, seed=99, escape_tol=0.3)
        want = walks._generic_counts(op, o, Y_CONJ, trials, horizon, 99, radius)
        assert _counts(res) == want
        total = [t + w for t, w in zip(total, want)]
    assert all(total)  # hits, escapes and truncations all occur


@pytest.fixture
def conjugated_rows(monkeypatch):
    """The states at which ``ConjugatedWalk.transitions`` is called."""
    calls = []
    real = walks.ConjugatedWalk.transitions

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(walks.ConjugatedWalk, "transitions", counting)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        lambda p: project(SiblingWalk(p, THIRD)),
        lambda p: conjugate(DLWalk(p, TWO_THIRDS), lambda v: drift_kernel(TWO_THIRDS)(v)),  # no level_only marker
    ],
    ids=["projected", "conjugated"],
)
def test_a_generic_trial_takes_the_simulated_path_to_its_first_visit(monkeypatch, make):
    # both readers of the step loop: one trial of ``estimate_f`` from a seed
    # walks the path ``simulate`` draws from it, up to its first visit to y
    p = DLParams(2, 2)
    op, x = make(p), origin(p)
    steps = simulate(op, x, 60, 5).steps
    monkeypatch.setattr(walks, "_KEPT_ROWS", 0)  # every step reads the row of the state it leaves
    left, real = [], type(op).transitions
    monkeypatch.setattr(type(op), "transitions", lambda self, v: left.append(v) or real(self, v))
    assert walks._fast_plan(op, x, 60) is None
    y = next(v for v in steps[30:] if v != x)
    first = steps.index(y)
    assert estimate_f(op, x, y, 1, 60, 5).hits == 1 and left == [x, *steps[:first]]
    left.clear()
    far = DLVertex(TreeVertex(61, ()), TreeVertex(-61, ()))  # out of reach in 60 steps
    assert estimate_f(op, x, far, 1, 60, 5).hits == 0 and left == [x, *steps[:59]]


def test_recognised_conjugated_walk_reads_one_row(conjugated_rows):
    p = DLParams(2, 2)
    o = origin(p)
    g = drift_kernel(TWO_THIRDS)
    res = estimate_f(conjugate(DLWalk(p, TWO_THIRDS), g), o, Y_CONJ, 40, 40, 43)
    assert _counts(res) == (4, 35, 1) and conjugated_rows == [o]
    # the same function without the marker steps on the generic path
    conjugated_rows.clear()
    res = estimate_f(conjugate(DLWalk(p, TWO_THIRDS), lambda v: g(v)), o, Y_CONJ, 40, 40, 43)
    assert _counts(res) == (4, 35, 1) and len(conjugated_rows) > 1


def test_conjugated_walk_edge_cases_behave_as_on_the_generic_path(conjugated_rows):
    p = DLParams(2, 2)
    o = origin(p)
    mismatched = conjugate(DLWalk(p, THIRD), drift_kernel(TWO_THIRDS))
    # a start on the target reads no row, so the bad row goes unnoticed
    assert _counts(estimate_f(mismatched, o, o, 5, 30, 1)) == (5, 0, 0) and conjugated_rows == []
    # so does a run of no steps; it is classified by its distance alone
    res = estimate_f(mismatched, o, Y_CONJ, 5, 0, 1)
    assert _counts(res) == walks._generic_counts(mismatched, o, Y_CONJ, 5, 0, 1, 8)
    assert conjugated_rows == []
    # otherwise the row fails its check, with the generic path's error
    with pytest.raises(ValueError, match="transition row does not sum to 1"):
        walks._generic_counts(mismatched, o, Y_CONJ, 5, 30, 1, 8)
    with pytest.raises(ValueError, match="transition row does not sum to 1"):
        estimate_f(mismatched, o, Y_CONJ, 5, 30, 1)


@pytest.mark.parametrize("seed", [0, 41, 2**63, 2**64 - 1, -3])
def test_rekeyed_streams_draw_as_fresh_streams(seed):
    stream = _philox_streams(seed)
    for trial in (0, 1, 7, 2**63 + 1, 1):
        gen, ref = stream(trial), _philox_stream(seed, trial)
        # a partly used 32-bit buffer and block must not leak into the next trial
        assert int(gen.integers(0, 6)) == int(ref.integers(0, 6))
        assert gen.integers(0, 8198, size=37).tolist() == ref.integers(0, 8198, size=37).tolist()
        assert gen.integers(0, 2**40, size=5).tolist() == ref.integers(0, 2**40, size=5).tolist()


def _values(kind):
    """An ``h`` of the given value kind, a fixed function of the vertex."""

    def code(v):
        return zlib.crc32(repr(v).encode())

    return {
        "fractions": lambda v: Fraction(code(v) % 97 - 40, code(v) % 13 + 1),
        "ints": lambda v: code(v) % 23 - 11,
        "mixed": lambda v: Fraction(code(v) % 31, 3) if code(v) % 2 else code(v) % 5,
        "zeros": lambda v: 0 if code(v) % 2 else Fraction(0),
        "floats": lambda v: (code(v) % 101) / 7.0,
    }[kind]


def _apply_cases():
    p = DLParams(2, 3)
    yield DLWalk(p, THIRD), p
    yield SiblingWalk(p, Fraction(2, 5)), p
    yield conjugate(DLWalk(p, THIRD), drift_kernel(THIRD)), p
    yield project(SiblingWalk(p, Fraction(2, 5))), p
    yield p1_walk(p, THIRD), None
    yield p2_walk(p, Fraction(2, 7)), None


@pytest.mark.parametrize("kind", ["fractions", "ints", "mixed", "zeros", "floats"])
def test_apply_equals_the_term_by_term_sum(kind):
    h = _values(kind)
    rng = random.Random(RNG_SEED + 11)
    for op, p in _apply_cases():
        for _ in range(15):
            v = random_vertex(p, 4, rng) if p else random_tree_vertex(rng)
            got = apply(op, h, v)
            want = sum(pr * h(w) for w, pr in op.transitions(v))
            if kind == "floats":
                assert got == pytest.approx(want, rel=1e-12) and type(got) is float
                if hasattr(op, "_blocks"):
                    assert got == blocked_float_sum(op, h, v)
            else:
                assert got == want and type(got) is Fraction


@st.composite
def apply_case(draw):
    """A walk on DL(q, r), q, r in {2, 3}, a function and a vertex on levels
    up to 12 either side.  The function is a ``HarmonicFunction`` (summed as
    integer pairs on a walk with blocks) or a plain callable whose values are
    ints, Fractions or floats."""
    p = DLParams(draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3))))
    alpha = draw(st.sampled_from((Fraction(1, 4), THIRD, HALF, Fraction(3, 5), Fraction(4, 5))))
    op = draw(st.sampled_from((
        DLWalk(p, alpha),
        SiblingWalk(p, alpha),
        conjugate(DLWalk(p, alpha), drift_kernel(alpha)),
        project(SiblingWalk(p, alpha)),
    )))

    def word(branch, top, low):
        return draw(st.dictionaries(st.integers(top - 8, top), st.integers(low, branch - 1), max_size=5))

    terms = []
    for side, branch in ((1, p.q), (2, p.r)):
        end = draw(st.sampled_from((OMEGA, TreeEnd.word(word(branch, 9, 1)))))
        terms.append((draw(st.fractions(0, 5, max_denominator=9)), KernelSpec(side, end, alpha, p)))
    h = draw(st.sampled_from((
        combine(terms, draw(st.fractions(0, 5, max_denominator=9))),
        lambda v: 7 * v.x1.level - 3 * len(v.x2.labels),
        lambda v: Fraction(v.x1.level + 20, len(v.x1.labels) + 3),
        lambda v: (v.x2.level + 20) / 7.0,
    )))
    k = draw(st.integers(-12, 12))
    v = DLVertex(TreeVertex.make(k, word(p.q, k, 0)), TreeVertex.make(-k, word(p.r, -k, 0)))
    return op, h, v


@settings(max_examples=300, deadline=None)
@given(apply_case())
def test_apply_equals_the_fraction_formula(case):
    op, h, v = case
    got = apply(op, h, v)
    want = sum(pr * h(w) for w, pr in op.transitions(v))
    if type(want) is float:
        assert type(got) is float and got == pytest.approx(want, rel=1e-12)
    else:
        assert type(got) is Fraction and got == want


def blocked_float_sum(op, h, v):
    """Floats keep the sum ``apply`` always took: ``h`` summed per block of
    equal weight, one product per block."""
    row, total, start = op.transitions(v), 0, 0
    for pr, n in op._blocks:
        total += pr * sum(h(w) for w, _ in row[start : start + n])
        start += n
    return total


def random_tree_vertex(rng):
    level = rng.randrange(-4, 5)
    return TreeVertex.make(level, {j: rng.randrange(3) for j in range(level - 6, level + 1)})


@pytest.mark.parametrize("k", [40, 41, 50, 100, 4000, 8000])
def test_a_huge_count_is_shown_by_its_exact_digit_count(k):
    # next to a power of 10 the float log10 alone is one digit off
    assert _shown(10**k - 1) == (str(10**k - 1) if k == 40 else f"a {k}-digit number of")
    assert _shown(10**k) == f"a {k + 1}-digit number of"
    assert _shown(10**k + 1) == f"a {k + 1}-digit number of"


def test_integer_row_refuses_negative_weights_and_a_short_row():
    assert _integer_row([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) == (6, [3, 2, 1])
    with pytest.raises(ValueError, match="negative weights"):
        _integer_row([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError, match="does not sum to 1"):
        _integer_row([Fraction(1, 2), Fraction(1, 3)])


def test_tree_walk_refuses_a_product_vertex():
    p = DLParams(2, 2)
    with pytest.raises(ValueError, match="tree walks move on tree vertices"):
        p1_walk(p, HALF).validate_state(origin(p))


def test_conjugated_tree_walk_estimates_on_tree_states():
    # g = 1 leaves the walk as it is: the conjugate runs on the generic path
    # and must count what the tree walk counts on the meet state
    y = TreeVertex.make(1, {1: 1})
    counts = []
    for walk in (p1_walk(DLParams(2, 2), HALF), p2_walk(DLParams(2, 3), THIRD)):
        plain = estimate_f(walk, ROOT, y, 50, 40, 1)
        assert estimate_f(conjugate(walk, lambda v: 1), ROOT, y, 50, 40, 1) == plain
        counts.append(_counts(plain))
    assert counts == [(18, 22, 10), (16, 30, 4)]


def test_projected_walk_reads_its_base():
    base = SiblingWalk(DLParams(2, 3), Fraction(2, 5))
    op = project(base)
    assert (op.alpha, op.params) == (base.alpha, base.params)
