import hashlib
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dl_harmonics import dl_graph

from dl_harmonics.dl_graph import DLParams, origin
from dl_harmonics.kernels import (
    HarmonicFunction,
    KernelSpec,
    _factors,
    combine,
    defect_kernel,
    drift_kernel,
    f_minus,
    f_plus,
    lift,
    martin_kernel_tree,
    minimal_kernel,
    rho_squared,
    tree_hitting_prob,
)
from dl_harmonics.lamplighter import (
    BoundaryConfig,
    GeneratorModel,
    GroupElement,
    defect_minus,
    encode,
    end_minus,
    end_plus,
)
from dl_harmonics.tree import (
    OMEGA,
    ROOT,
    TreeEnd,
    TreeVertex,
    ball,
    busemann_wrt_end,
    confluent_omega,
    confluent_root,
    distance,
    successor,
)
from dl_harmonics.walks import DLVertex, p2_walk

RNG_SEED = 61803

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

ALPHA_GRID = [Fraction(n, d) for d in (2, 3, 4, 5, 7) for n in range(1, d)]


def test_f_minus_golden():
    assert f_minus(HALF) == 1
    assert f_minus(THIRD) == 1
    assert f_minus(Fraction(2, 3)) == HALF
    assert f_minus(Fraction(3, 4)) == THIRD


def test_f_plus_golden():
    assert f_plus(HALF, 2) == HALF
    assert f_plus(THIRD, 2) == Fraction(1, 4)
    assert f_plus(Fraction(2, 3), 2) == HALF
    assert f_plus(HALF, 3) == THIRD


def test_alpha_range_checked():
    for bad in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            f_minus(bad)


def test_first_step_identities():
    # F^- and F^+ solve the one-step equations of the tree walk: stepping to
    # a successor costs a round trip, stepping past the target costs two.
    for alpha in ALPHA_GRID:
        for q in (2, 3, 4):
            fm = f_minus(alpha)
            fp = f_plus(alpha, q)
            assert fm == (1 - alpha) + alpha * fm * fm
            assert fp == alpha / q + alpha * (q - 1) / q * fm * fp + (1 - alpha) * fp * fp
            assert 0 < fp <= 1 and 0 < fm <= 1


def test_rho_squared():
    assert rho_squared(HALF, 2) == HALF
    assert rho_squared(THIRD, 2) == Fraction(1, 4)
    for alpha in ALPHA_GRID:
        for q in (2, 3):
            assert rho_squared(alpha, q) == rho_squared(1 - alpha, q)
            assert rho_squared(alpha, q) <= Fraction(1, q)


def test_tree_hitting_prob_golden():
    marked = TreeVertex.make(-1, {-1: 1, -3: 1})
    # geodesic: four predecessor steps, three successor steps
    assert tree_hitting_prob(ROOT, marked, HALF, 2) == Fraction(1, 8)
    assert tree_hitting_prob(ROOT, marked, THIRD, 2) == Fraction(1, 64)
    assert tree_hitting_prob(ROOT, marked, Fraction(2, 3), 2) == Fraction(1, 128)
    assert tree_hitting_prob(ROOT, ROOT, THIRD, 5) == 1


def test_tree_hitting_prob_multiplicative():
    # the confluent always sits on the geodesic, so F factors through it
    rng = random.Random(RNG_SEED)
    for _ in range(200):
        alpha = rng.choice(ALPHA_GRID)
        q = rng.choice((2, 3))
        lx = rng.randrange(-3, 4)
        x = TreeVertex.make(lx, {j: rng.randrange(q) for j in range(-3, lx + 1)})
        ly = rng.randrange(-3, 4)
        y = TreeVertex.make(ly, {j: rng.randrange(q) for j in range(-3, ly + 1)})
        c = confluent_omega(x, y)
        assert tree_hitting_prob(x, y, alpha, q) == tree_hitting_prob(
            x, c, alpha, q
        ) * tree_hitting_prob(c, y, alpha, q)


def test_kernel_normalised_at_root():
    rng = random.Random(RNG_SEED + 1)
    p = DLParams(2, 2)
    for _ in range(100):
        labels = {j: rng.randrange(2) for j in range(-3, 4)}
        xi = TreeEnd.word(labels)
        alpha = rng.choice(ALPHA_GRID)
        assert martin_kernel_tree(1, ROOT, xi, alpha, p) == 1
        assert martin_kernel_tree(2, ROOT, xi, alpha, p) == 1
    assert martin_kernel_tree(1, ROOT, OMEGA, THIRD, p) == 1


def test_kernel_golden_pair():
    # the child of the root on the ray to xi, one level in: the walk at
    # alpha = 1/2 sees it with kernel value q
    p = DLParams(2, 2)
    x = successor(ROOT, 1, 2)
    xi = TreeEnd.word({1: 1, 2: 1})
    assert martin_kernel_tree(1, x, xi, HALF, p) == 2
    # a child off the ray still returns to the root with probability F^-
    y = successor(ROOT, 0, 2)
    assert martin_kernel_tree(1, y, xi, HALF, p) == 1
    assert martin_kernel_tree(1, y, xi, Fraction(2, 3), p) == HALF


def test_omega_kernel_is_drift():
    p = DLParams(2, 2)
    for alpha in ALPHA_GRID:
        fm = f_minus(alpha)
        for lvl in range(-3, 4):
            x = TreeVertex.make(lvl, {})
            assert martin_kernel_tree(1, x, OMEGA, alpha, p) == fm**lvl
    # constant 1 exactly at the symmetric point
    x = TreeVertex.make(3, {1: 1})
    assert martin_kernel_tree(1, x, OMEGA, HALF, p) == 1


def test_drift_kernel():
    g = drift_kernel(THIRD)
    o = origin(DLParams(2, 2))
    assert g(o) == 1
    v = DLVertex(TreeVertex.make(2, {1: 1}), TreeVertex.make(-2, {}))
    assert g(v) == 4
    assert drift_kernel(HALF)(v) == 1
    # above alpha = 1/2 the drift kernel is the lifted omega-kernel of tree 1
    p = DLParams(2, 2)
    for alpha in (Fraction(2, 3), Fraction(3, 4)):
        h = lift(1, lambda x, a=alpha: martin_kernel_tree(1, x, OMEGA, a, p))
        assert drift_kernel(alpha)(v) == h(v)
        assert drift_kernel(alpha)(o) == h(o)


def test_kernel_spec_minimality():
    p = DLParams(2, 2)
    xi = TreeEnd.word({1: 1})
    assert KernelSpec(1, xi, THIRD, p).is_minimal
    assert KernelSpec(1, xi, HALF, p).is_minimal
    assert KernelSpec(1, OMEGA, HALF, p).is_minimal
    assert not KernelSpec(1, OMEGA, THIRD, p).is_minimal


def test_kernel_spec_evaluate_sides():
    p = DLParams(2, 3)
    v = DLVertex(TreeVertex.make(1, {1: 1}), TreeVertex.make(-1, {}))
    xi = TreeEnd.word({1: 1})
    assert KernelSpec(1, xi, HALF, p).evaluate(v) == martin_kernel_tree(
        1, v.x1, xi, HALF, p
    )
    assert KernelSpec(2, xi, HALF, p).evaluate(v) == martin_kernel_tree(
        2, v.x2, xi, HALF, p
    )


def test_combine_and_call():
    p = DLParams(2, 2)
    s1 = KernelSpec(1, TreeEnd.word({1: 1}), HALF, p)
    s2 = KernelSpec(2, TreeEnd.word({-1: 1}), HALF, p)
    h = combine([(Fraction(1, 3), s1), (Fraction(2, 3), s2)], constant=1)
    o = origin(p)
    assert h(o) == 2  # 1/3 + 2/3 + 1
    v = DLVertex(successor(ROOT, 1, 2), TreeVertex.make(-1, {}))
    assert h(v) == Fraction(1, 3) * s1.evaluate(v) + Fraction(2, 3) * s2.evaluate(v) + 1
    assert h.alpha == HALF


def test_combine_validation():
    p = DLParams(2, 2)
    s1 = KernelSpec(1, TreeEnd.word({1: 1}), HALF, p)
    s2 = KernelSpec(1, TreeEnd.word({1: 1}), THIRD, p)
    s3 = KernelSpec(1, TreeEnd.word({1: 1}), HALF, DLParams(2, 3))
    with pytest.raises(ValueError):
        combine([(Fraction(-1), s1)])
    with pytest.raises(ValueError):
        combine([(Fraction(1), s1)], constant=Fraction(-1, 2))
    with pytest.raises(ValueError):
        combine([(Fraction(1), s1), (Fraction(1), s2)])
    with pytest.raises(ValueError):
        combine([(Fraction(1), s1), (Fraction(1), s3)])


def test_bare_constant_has_no_alpha():
    h = HarmonicFunction(constant=Fraction(3))
    assert h(origin(DLParams(2, 2))) == 3
    with pytest.raises(ValueError):
        h.alpha


def test_minimal_kernel_flag():
    p = DLParams(2, 2)
    k = minimal_kernel(KernelSpec(1, OMEGA, THIRD, p))
    assert not k.minimal
    k = minimal_kernel(KernelSpec(1, OMEGA, HALF, p))
    assert k.minimal


def test_defect_kernel_is_tree_kernel_at_half():
    rng = random.Random(RNG_SEED + 2)
    for q in (2, 3):
        p = DLParams(q, q)
        for _ in range(150):
            k = rng.randrange(-3, 4)
            eta = {n: rng.randrange(q) for n in range(-3, 4) if rng.random() < 0.5}
            a = GroupElement.make(eta, k, q)
            labels = tuple(
                (n, rng.randrange(1, q))
                for n in range(-3, 4)
                if rng.random() < 0.4
            )
            xi_p = BoundaryConfig("+", labels)
            xi_m = BoundaryConfig("-", labels)
            assert defect_kernel(
                GeneratorModel.WALK_SWITCH, a, xi_p, q
            ) == martin_kernel_tree(1, encode(a).x1, end_plus(xi_p), HALF, p)
            assert defect_kernel(
                GeneratorModel.WALK_SWITCH, a, xi_m, q
            ) == martin_kernel_tree(2, encode(a).x2, end_minus(xi_m), HALF, p)


def test_defect_kernel_model_switch():
    q = 2
    a = GroupElement.make({0: 1}, 0, q)
    xi = BoundaryConfig("+", ())
    assert defect_kernel(GeneratorModel.WALK_SWITCH, a, xi, q) == HALF
    assert defect_kernel(GeneratorModel.SWITCH_WALK_SWITCH, a, xi, q) == 1
    with pytest.raises(ValueError):
        defect_kernel(GeneratorModel.WALK_OR_SWITCH, a, xi, q)


def test_defect_kernel_dispatch():
    q = 3
    a = GroupElement.make({-1: 2, 0: 1, 2: 1}, 1, q)
    minus = BoundaryConfig("-", ((0, 1), (1, 2)))
    # the '-' side counts defect_minus under either model
    for model in (GeneratorModel.WALK_SWITCH, GeneratorModel.SWITCH_WALK_SWITCH):
        assert defect_kernel(model, a, minus, q) == Fraction(q) ** defect_minus(a, minus)
    with pytest.raises(ValueError, match="no boundary kernels are defined for walk-or-switch"):
        defect_kernel(GeneratorModel.WALK_OR_SWITCH, a, minus, q)


@pytest.mark.parametrize("model", ["walk-switch", None, 1])
@pytest.mark.parametrize("side", ["+", "-"])
def test_defect_kernel_refuses_a_foreign_model(model, side):
    with pytest.raises(ValueError, match=f"no boundary kernels are defined for {model!r}"):
        defect_kernel(model, GroupElement((), 0), BoundaryConfig(side, ()), 2)


def test_lift_sides():
    v = DLVertex(TreeVertex.make(1, {1: 1}), TreeVertex.make(-1, {}))
    assert lift(1, lambda x: x.level)(v) == 1
    assert lift(2, lambda x: x.level)(v) == -1
    with pytest.raises(ValueError):
        lift(3, lambda x: x.level)


def ref_half_excess(x, xi):
    """``(hor_xi(x) - level(x)) / 2`` from the confluent ``x ∧ xi`` built as a vertex."""
    c = confluent_root(x, xi)
    excess = distance(x, c) - distance(ROOT, c) - x.level
    assert excess % 2 == 0
    return excess // 2


def ref_kernel(side, x, xi, alpha, p):
    """``K(x, xi) = (F^-)^level * rho2^k`` in plain Fraction arithmetic."""
    up, branch = (alpha, p.q) if side == 1 else (1 - alpha, p.r)
    fm = min(Fraction(1), (1 - up) / up)
    rho2 = min((1 - up) / (up * branch), up / ((1 - up) * branch))
    k = 0 if xi.is_omega else ref_half_excess(x, xi)
    return fm**x.level * rho2**k


def test_kernel_equals_inline_powers():
    # K(x, xi) = F^-(up) ** level * rho2(up, branch) ** k, evaluated from
    # scratch, on both sides and on both sides of the symmetric point
    rng = random.Random(RNG_SEED + 3)
    p = DLParams(2, 3)
    for alpha in (THIRD, HALF, Fraction(3, 4)):
        for side, up, branch in ((1, alpha, p.q), (2, 1 - alpha, p.r)):
            for _ in range(40):
                lvl = rng.randrange(-3, 4)
                x = TreeVertex.make(lvl, {j: rng.randrange(branch) for j in range(lvl - 3, lvl + 1)})
                xi = TreeEnd.word({j: rng.randrange(branch) for j in range(-3, 4)})
                k = ref_half_excess(x, xi)
                want = f_minus(up) ** lvl * rho_squared(up, branch) ** k
                assert martin_kernel_tree(side, x, xi, alpha, p) == want
                assert martin_kernel_tree(side, x, OMEGA, alpha, p) == f_minus(up) ** lvl


@st.composite
def tree_vertex(draw, branch):
    lvl = draw(st.integers(-6, 6))
    labels = draw(st.dictionaries(st.integers(lvl - 8, lvl), st.integers(0, branch - 1), max_size=6))
    return TreeVertex.make(lvl, labels)


@st.composite
def tree_end(draw, branch, near):
    if draw(st.integers(0, 4)) == 0:
        return OMEGA
    # share a prefix of ``near``'s word, so that splits above the root occur
    cut = draw(st.integers(-9, 6))
    shared = {j: v for j, v in near.labels if j <= cut}
    rest = draw(st.dictionaries(st.integers(cut + 1, 8), st.integers(0, branch - 1), max_size=6))
    return TreeEnd.word({**shared, **rest})


@st.composite
def kernel_case(draw):
    p = draw(st.sampled_from((DLParams(2, 3), DLParams(3, 2), DLParams(2, 2))))
    alpha = draw(st.sampled_from((Fraction(1, 4), THIRD, HALF, Fraction(3, 5), Fraction(3, 4))))
    x1 = draw(tree_vertex(p.q))
    x2 = draw(tree_vertex(p.r))
    xi1 = draw(tree_end(p.q, x1))
    xi2 = draw(tree_end(p.r, x2))
    coeffs = draw(st.lists(st.fractions(0, 5, max_denominator=9), min_size=3, max_size=3))
    return p, alpha, DLVertex(x1, x2), xi1, xi2, coeffs


@settings(max_examples=300, deadline=None)
@given(kernel_case())
def test_kernels_and_combinations_equal_fraction_formula(case):
    p, alpha, v, xi1, xi2, (c0, c1, c2) = case
    k1 = ref_kernel(1, v.x1, xi1, alpha, p)
    k2 = ref_kernel(2, v.x2, xi2, alpha, p)
    s1, s2 = KernelSpec(1, xi1, alpha, p), KernelSpec(2, xi2, alpha, p)
    assert martin_kernel_tree(1, v.x1, xi1, alpha, p) == k1
    assert martin_kernel_tree(2, v.x2, xi2, alpha, p) == k2
    assert s1.evaluate(v) == k1 and s2.evaluate(v) == k2
    assert combine([(c1, s1), (c2, s2)], c0)(v) == c0 + c1 * k1 + c2 * k2
    assert minimal_kernel(s2)(v) == k2


@st.composite
def deep_case(draw):
    """A tree of DL(2, 3) or DL(3, 2), its up rate, two vertices and an end,
    on levels up to 300 either side of the root."""
    p = draw(st.sampled_from((DLParams(2, 3), DLParams(3, 2))))
    alpha = draw(st.sampled_from((Fraction(1, 4), THIRD, HALF, Fraction(3, 5), Fraction(4, 5))))
    side = draw(st.sampled_from((1, 2)))
    branch, up = (p.q, alpha) if side == 1 else (p.r, 1 - alpha)
    labels = lambda top: st.dictionaries(st.integers(top - 300, top), st.integers(0, branch - 1), max_size=6)
    lx, ly = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    x, y = TreeVertex.make(lx, draw(labels(lx))), TreeVertex.make(ly, draw(labels(ly)))
    xi = TreeEnd.word(draw(labels(300)))
    return p, alpha, side, branch, up, x, y, xi


@settings(max_examples=100, deadline=None)
@given(deep_case())
def test_deep_kernels_and_hitting_probabilities_equal_fraction_powers(case):
    # Past level 9 too: the integer pairs against plain Fraction powers.
    p, alpha, side, branch, up, x, y, xi = case
    k = (busemann_wrt_end(x, xi) - x.level) // 2
    assert martin_kernel_tree(side, x, xi, alpha, p) == f_minus(up) ** x.level * rho_squared(up, branch) ** k
    assert martin_kernel_tree(side, x, OMEGA, alpha, p) == f_minus(up) ** x.level
    c = confluent_omega(x, y).level
    assert tree_hitting_prob(x, y, up, branch) == f_minus(up) ** (x.level - c) * f_plus(up, branch) ** (y.level - c)


def kernel_grid_lines():
    """Kernel, hitting and combination values on a fixed grid, one per line."""
    for q, r in ((2, 3), (3, 2)):
        p = DLParams(q, r)
        for alpha in (THIRD, HALF, Fraction(3, 4)):
            for side, branch in ((1, q), (2, r)):
                top = branch - 1
                ends = (OMEGA, TreeEnd.word({}), TreeEnd.word({1: 1}),
                        TreeEnd.word({-2: 1, 2: top}), TreeEnd.word({-1: top, 0: 1, 3: 1}))
                xs = ball(branch, 3)
                for x in xs:
                    for xi in ends:
                        yield str(martin_kernel_tree(side, x, xi, alpha, p))
                    if side == 1:
                        for y in xs[::5]:
                            yield str(tree_hitting_prob(x, y, alpha, q))
            h = combine(
                [
                    (Fraction(1, 3), KernelSpec(1, TreeEnd.word({-1: 1, 2: q - 1}), alpha, p)),
                    (Fraction(5, 2), KernelSpec(2, TreeEnd.word({0: r - 1, 1: 1}), alpha, p)),
                    (Fraction(2), KernelSpec(1, OMEGA, alpha, p)),
                ],
                Fraction(7, 5),
            )
            for v in dl_graph.ball(p, 3):
                yield str(h(v))


# SHA-256 of ``kernel_grid_lines`` joined by newlines, taken when every
# kernel was still a product of Fraction powers.
GOLDEN_KERNEL_GRID = (4761, "f9b364c1265cbfb414f24c6053e7e3363a7ddd7e379ffcbd42b3665b112b717f")


def test_kernel_grid_golden_digest():
    lines = list(kernel_grid_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == GOLDEN_KERNEL_GRID


def test_factors_served_from_cache():
    p = DLParams(3, 2)
    first = _factors(2, Fraction(2, 7), p)
    hits = _factors.cache_info().hits
    assert _factors(2, Fraction(2, 7), p) is first
    assert _factors.cache_info().hits == hits + 1
    walk = p2_walk(p, Fraction(2, 7))
    fm, rho2 = f_minus(walk.up), rho_squared(walk.up, walk.branch)
    assert first == (walk.branch, (*fm.as_integer_ratio(), *rho2.as_integer_ratio())) == (2, (2, 5, 1, 5))


# Each kernel entry point with a label outside its tree's branching: tree 1
# of DL(2, 3) has labels 0 and 1, tree 2 labels 0, 1 and 2.
_P23 = DLParams(2, 3)
_BAD_LABEL_CALLS = {
    "martin_kernel_tree-x": lambda: martin_kernel_tree(1, TreeVertex.make(1, {1: 7}), OMEGA, THIRD, _P23),
    "martin_kernel_tree-xi": lambda: martin_kernel_tree(1, ROOT, TreeEnd.word({1: 2}), THIRD, _P23),
    "martin_kernel_tree-side2": lambda: martin_kernel_tree(2, TreeVertex.make(1, {1: 3}), OMEGA, THIRD, _P23),
    "tree_hitting_prob-x": lambda: tree_hitting_prob(TreeVertex.make(1, {1: 9}), ROOT, THIRD, 2),
    "tree_hitting_prob-y": lambda: tree_hitting_prob(ROOT, TreeVertex.make(2, {2: 2}), THIRD, 2),
    "KernelSpec": lambda: KernelSpec(1, TreeEnd.word({1: 5}), THIRD, _P23),
    "KernelSpec-side2": lambda: KernelSpec(2, TreeEnd.word({0: 3}), THIRD, _P23),
}


@pytest.mark.parametrize("call", _BAD_LABEL_CALLS.values(), ids=_BAD_LABEL_CALLS.keys())
def test_kernel_entry_points_refuse_an_out_of_range_label(call):
    with pytest.raises(ValueError, match=r"label \d+ at -?\d+ outside range\(0, [23]\)"):
        call()


def test_kernel_entry_points_accept_every_label_of_their_tree():
    # Label 2 lies in tree 2 of DL(2, 3) but not in tree 1.
    xi = TreeEnd.word({1: 2})
    assert martin_kernel_tree(2, TreeVertex.make(1, {1: 2}), xi, THIRD, _P23) > 0
    assert KernelSpec(2, xi, THIRD, _P23).evaluate(origin(_P23)) == 1
    with pytest.raises(ValueError, match=r"outside range\(0, 2\)"):
        KernelSpec(1, xi, THIRD, _P23)


def test_bad_side_or_alpha_raises_on_every_call():
    p = DLParams(2, 2)
    xi = TreeEnd.word({1: 1})
    for _ in range(2):
        with pytest.raises(ValueError):
            _factors(3, HALF, p)
        with pytest.raises(ValueError):
            martin_kernel_tree(1, ROOT, xi, Fraction(0), p)
        with pytest.raises(ValueError):
            KernelSpec(2, xi, Fraction(1), p).evaluate(origin(p))
        with pytest.raises(ValueError):
            tree_hitting_prob(ROOT, ROOT, Fraction(3, 2), 2)


def test_kernel_spec_refuses_a_bad_side_or_alpha_when_built():
    p = DLParams(2, 2)
    xi = TreeEnd.word({1: 1})
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        KernelSpec(3, xi, HALF, p)
    with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
        KernelSpec(1, xi, Fraction(3, 2), p)


def test_kernel_spec_fields_eq_hash_repr():
    p = DLParams(2, 3)
    xi = TreeEnd.word({1: 1})
    s = KernelSpec(1, xi, HALF, p)
    assert [f.name for f in fields(KernelSpec)] == ["side", "end", "alpha", "params"]
    assert s == KernelSpec(1, TreeEnd.word({1: 1}), Fraction(1, 2), DLParams(2, 3))
    assert s != KernelSpec(2, xi, HALF, p)
    assert hash(s) == hash((1, xi, HALF, p))
    assert repr(s) == (
        "KernelSpec(side=1, end=TreeEnd(labels=((1, 1),), is_omega=False), "
        "alpha=Fraction(1, 2), params=DLParams(q=2, r=3, level_sum=0))"
    )
