import itertools
import json
import random
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from dl_harmonics import lamplighter, tree
from dl_harmonics.dl_graph import DLParams, DLVertex, dl_neighbours, dls_neighbours, factor_map
from dl_harmonics.kernels import defect_kernel, martin_kernel_tree
from dl_harmonics.lamplighter import (
    BoundaryConfig,
    GeneratorModel,
    GroupElement,
    cayley_check,
    cayley_neighbours,
    config_from_json,
    config_to_json,
    decode,
    defect_minus,
    defect_oplus,
    defect_plus,
    delta,
    element_from_json,
    element_to_json,
    encode,
    end_minus,
    end_plus,
    factor_config,
    generators,
    identity,
    inverse,
    multiply,
)
from dl_harmonics.tree import ROOT, TreeEnd, TreeVertex, confluent_omega_end

RNG_SEED = 90125


def rand_element(rng, q, span=4, pos=3):
    k = rng.randrange(-pos, pos + 1)
    eta = {n: rng.randrange(q) for n in range(-span, span + 1) if rng.random() < 0.5}
    return GroupElement.make(eta, k, q)


@st.composite
def canonical_elements(draw, q, sites=6, positions=5):
    pairs = draw(st.lists(st.tuples(st.integers(-sites, sites), st.integers(0, q - 1)), max_size=7))
    return GroupElement.make(pairs, draw(st.integers(-positions, positions)), q)


@st.composite
def wide_elements(draw, count):
    """``q`` and ``count`` elements of Z_q ≀ Z with lamps on sites up to ±20
    and positions up to ±20."""
    q = draw(st.sampled_from((2, 3)))
    return q, *(draw(canonical_elements(q, 20, 20)) for _ in range(count))


def rand_config(rng, q, side, span=4):
    labels = {
        n: rng.randrange(1, q)
        for n in range(-span, span + 1)
        if rng.random() < 0.4
    }
    return BoundaryConfig(side, tuple(sorted(labels.items())))


@settings(max_examples=200, deadline=None)
@given(wide_elements(3))
def test_group_axioms(case):
    q, a, b, c = case
    e = identity()
    assert multiply(a, e, q) == a
    assert multiply(e, a, q) == a
    assert multiply(a, inverse(a, q), q) == e
    assert multiply(inverse(a, q), a, q) == e
    assert multiply(multiply(a, b, q), c, q) == multiply(a, multiply(b, c, q), q)
    assert inverse(inverse(a, q), q) == a


def test_single_lamp_inverses():
    for q in (2, 3):
        for l in range(q):
            g = GroupElement.make(delta(0, l), 1, q)
            assert multiply(g, inverse(g, q), q) == identity()
        # (delta_1^l, 1)^-1 = (delta_0^{-l mod q}, -1)
        for l in range(1, q):
            g = GroupElement.make(delta(1, l), 1, q)
            inv = inverse(g, q)
            assert inv == GroupElement.make(delta(0, (-l) % q), -1, q)
    # pointwise negation at k = 0
    assert inverse(GroupElement.make(delta(0, 1), 0, 3), 3) == GroupElement.make(
        delta(0, 2), 0, 3
    )


def test_generator_sets():
    assert len(generators(GeneratorModel.WALK_SWITCH, 2)) == 4
    assert len(generators(GeneratorModel.SWITCH_WALK_SWITCH, 2)) == 8
    assert len(generators(GeneratorModel.WALK_OR_SWITCH, 2)) == 3
    for q in (2, 3, 4):
        for model in GeneratorModel:
            gens = set(generators(model, q))
            assert identity() not in gens
            assert {inverse(g, q) for g in gens} == gens  # symmetric set


def test_generators_return_a_fresh_list():
    for model in GeneratorModel:
        first = generators(model, 3)
        want = list(first)
        first.append(identity())
        first[0] = identity()
        assert generators(model, 3) == want
        assert generators(model, 3) is not generators(model, 3)
    with pytest.raises(ValueError):
        generators("walk-switch", 2)


def test_encode_golden():
    p = DLParams(2, 2)
    assert encode(identity()) == __import__("dl_harmonics").origin(p)
    # one lamp lit at the walker's position
    g = GroupElement.make({0: 1}, 0, 2)
    v = encode(g)
    assert v.x1 == TreeVertex.make(0, {0: 1})
    assert v.x2 == ROOT


@settings(max_examples=1000, deadline=None)
@given(wide_elements(1))
@example((2, identity()))
def test_encode_decode_bijection(case):
    _, a = case
    assert decode(encode(a)) == a


def test_decode_encode_on_vertices():
    rng = random.Random(RNG_SEED + 2)
    from dl_harmonics.dl_graph import random_vertex

    p = DLParams(3, 3)
    for _ in range(200):
        v = random_vertex(p, rng.randrange(6), rng)
        assert encode(decode(v)) == v


def test_decode_requires_equal_branching():
    p = DLParams(2, 3)
    v = __import__("dl_harmonics").origin(p)
    with pytest.raises(ValueError):
        decode(v, p)


def test_decode_refuses_a_vertex_off_the_level_sum_zero_sheet():
    with pytest.raises(ValueError, match="vertex levels must sum to 0"):
        decode(DLVertex(TreeVertex(1, ()), TreeVertex(0, ())))


def test_neighbours_of_origin_are_generators():
    for q in (2, 3):
        p = DLParams(q, q)
        o = encode(identity())
        gens = set(generators(GeneratorModel.WALK_SWITCH, q))
        assert {decode(w) for w in dl_neighbours(o, p)} == gens


def test_cayley_matches_dl():
    rng = random.Random(RNG_SEED + 3)
    for q in (2, 3):
        p = DLParams(q, q)
        for _ in range(200):
            a = rand_element(rng, q)
            left = {encode(b) for b in cayley_neighbours(a, GeneratorModel.WALK_SWITCH, q)}
            assert left == set(dl_neighbours(encode(a), p))
            left2 = {
                encode(b)
                for b in cayley_neighbours(a, GeneratorModel.SWITCH_WALK_SWITCH, q)
            }
            assert left2 == set(dls_neighbours(encode(a), p))
            assert len(cayley_neighbours(a, GeneratorModel.WALK_OR_SWITCH, q)) == q + 1


def test_defect_plus_golden():
    zero = BoundaryConfig("+", ())
    assert defect_plus(identity(), zero) == 0
    a = GroupElement.make(delta(0, 1), 0, 2)
    assert defect_plus(a, zero) == -1


def test_defect_minus_golden():
    zero = BoundaryConfig("-", ())
    assert defect_minus(identity(), zero) == 0
    a = GroupElement.make(delta(1, 1), 0, 2)
    assert defect_minus(a, zero) == -1


def test_boundary_config_checks_its_side_and_labels():
    with pytest.raises(ValueError, match="side must be '\\+' or '-'"):
        BoundaryConfig("0", ())
    # a non-canonical word would give a wrong count (5 instead of 1), so it
    # is refused when built, as a TreeEnd's is
    with pytest.raises(ValueError, match="label keys must be strictly increasing"):
        BoundaryConfig("-", ((2, 1), (1, 1)))
    with pytest.raises(ValueError, match="zero labels must not be stored"):
        BoundaryConfig("+", ((1, 0),))
    xi = BoundaryConfig.make("-", {2: 1, 1: 1, 0: 0})
    assert xi == BoundaryConfig("-", ((1, 1), (2, 1)))
    assert defect_minus(GroupElement(((2, 1),), -3), xi) == 1


def test_a_negative_label_is_refused_by_every_word_constructor():
    # -1 is not the lamp 1 mod 2: counted as it stands it gave defect_plus 0
    # and a kernel of 1 where the lamp 1 gives 1 and 2, so it is refused
    message = "label at 1 must be a non-negative integer, got -1"
    for build in (
        lambda: TreeVertex(1, ((1, -1),)),
        lambda: TreeVertex.make(1, {1: -1}),
        lambda: TreeEnd(((1, -1),)),
        lambda: TreeEnd.word({1: -1}),
        lambda: BoundaryConfig("+", ((1, -1),)),
        lambda: BoundaryConfig.make("+", {1: -1}),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match="non-negative integer"):
        TreeVertex(1, ((1, 1.0),))
    a, lamp = GroupElement(((1, 1),), 1), BoundaryConfig.make("+", {1: 1})
    assert defect_plus(a, lamp) == 1
    assert defect_kernel(GeneratorModel.WALK_SWITCH, a, lamp, 2) == 2


def test_defect_oplus_golden():
    zero = BoundaryConfig("+", ())
    assert defect_oplus(identity(), zero) == 0
    # the lamp at the walker's position cancels in the sibling model
    a = GroupElement.make(delta(0, 1), 0, 2)
    assert defect_oplus(a, zero) == 0


def test_defect_plus_equals_confluent_difference():
    rng = random.Random(RNG_SEED + 4)
    for q in (2, 3):
        for _ in range(250):
            a = rand_element(rng, q)
            xi = rand_config(rng, q, "+")
            x1 = encode(a).x1
            e1 = end_plus(xi)
            want = (
                confluent_omega_end(x1, e1).level
                - confluent_omega_end(ROOT, e1).level
            )
            assert defect_plus(a, xi) == want


def test_defect_minus_equals_confluent_difference():
    rng = random.Random(RNG_SEED + 5)
    for q in (2, 3):
        for _ in range(250):
            a = rand_element(rng, q)
            xi = rand_config(rng, q, "-")
            x2 = encode(a).x2
            e2 = end_minus(xi)
            want = (
                confluent_omega_end(x2, e2).level
                - confluent_omega_end(ROOT, e2).level
            )
            assert defect_minus(a, xi) == want


def test_defect_oplus_via_factor_map():
    rng = random.Random(RNG_SEED + 6)
    for q in (2, 3):
        for _ in range(250):
            a = rand_element(rng, q)
            xi = rand_config(rng, q, "+")
            shifted = BoundaryConfig("+", tuple(sorted((n + 1, v) for n, v in xi.labels)))
            assert defect_oplus(a, xi) == defect_plus(factor_config(a), shifted)


def test_factor_config():
    assert factor_config(identity()) == identity()
    assert factor_config(GroupElement.make(delta(0, 1), 0, 2)) == identity()
    rng = random.Random(RNG_SEED + 7)
    p = DLParams(2, 2)
    for _ in range(200):
        a = rand_element(rng, 2)
        assert encode(factor_config(a)) == factor_map(encode(a), p)


def test_defects_on_exhaustive_small_set():
    # every element with |k| <= 1, support in [-1, 1], against every config
    # with support in [-2, 2]: the three defect formulas stay consistent with
    # the confluent route (q = 2)
    elements = []
    for k in (-1, 0, 1):
        for bits in itertools.product((0, 1), repeat=3):
            eta = {n: b for n, b in zip((-1, 0, 1), bits) if b}
            elements.append(GroupElement.make(eta, k, 2))
    configs = []
    for bits in itertools.product((0, 1), repeat=5):
        labels = tuple((n, b) for n, b in zip(range(-2, 3), bits) if b)
        configs.append(labels)
    for a in elements:
        for labels in configs:
            xi_p = BoundaryConfig("+", labels)
            xi_m = BoundaryConfig("-", labels)
            x = encode(a)
            dplus = defect_plus(a, xi_p)
            want = (
                confluent_omega_end(x.x1, end_plus(xi_p)).level
                - confluent_omega_end(ROOT, end_plus(xi_p)).level
            )
            assert dplus == want
            dminus = defect_minus(a, xi_m)
            want = (
                confluent_omega_end(x.x2, end_minus(xi_m)).level
                - confluent_omega_end(ROOT, end_minus(xi_m)).level
            )
            assert dminus == want


def lowest_mismatch(eta, k, xi, offset):
    """The lowest ``n <= k`` whose lamp ``n + offset`` differs between the
    configurations ``eta`` and ``xi``; ``k`` when they agree there."""
    lamps, limit = dict(eta), dict(xi)
    sites = lamps.keys() | limit.keys()
    return min((m - offset for m in sites
                if m - offset <= k and lamps.get(m, 0) != limit.get(m, 0)), default=k)


def highest_mismatch(eta, k, xi):
    """The highest site ``n > k`` where ``eta`` and ``xi`` differ; ``k`` when
    they agree there."""
    lamps, limit = dict(eta), dict(xi)
    sites = lamps.keys() | limit.keys()
    return max((n for n in sites if n > k and lamps.get(n, 0) != limit.get(n, 0)), default=k)


def test_defects_equal_the_lamp_mismatch_count():
    # The defects in the lamp language, with no tree: how far below the
    # lamplighter the element already agrees with the limit configuration,
    # less the same count for the identity.  The '+' count reads lamps one
    # site ahead (defect_plus) or at the sites themselves (defect_oplus);
    # the '-' count reads the sites above the lamplighter.  Every element
    # with lamps on sites -2..2 and |k| <= 2, against every configuration on
    # sites -3..3 (q = 2).
    sites, wide = range(-2, 3), range(-3, 4)
    elements = [
        GroupElement(tuple((n, v) for n, v in zip(sites, bits) if v), k)
        for bits in itertools.product((0, 1), repeat=len(sites))
        for k in range(-2, 3)
    ]
    configs = [
        tuple((n, v) for n, v in zip(wide, bits) if v)
        for bits in itertools.product((0, 1), repeat=len(wide))
    ]
    for xi in configs:
        plus, minus = BoundaryConfig("+", xi), BoundaryConfig("-", xi)
        at_identity = [lowest_mismatch((), 0, xi, 1), lowest_mismatch((), 0, xi, 0)]
        top = highest_mismatch((), 0, xi)
        for a in elements:
            assert defect_plus(a, plus) == lowest_mismatch(a.eta, a.k, xi, 1) - at_identity[0]
            assert defect_oplus(a, plus) == lowest_mismatch(a.eta, a.k, xi, 0) - at_identity[1]
            assert defect_minus(a, minus) == top - highest_mismatch(a.eta, a.k, xi)


def test_json_round_trips():
    rng = random.Random(RNG_SEED + 8)
    for _ in range(50):
        a = rand_element(rng, 3)
        assert element_from_json(json.loads(json.dumps(element_to_json(a))), 3) == a
        xi = rand_config(rng, 3, rng.choice(("+", "-")))
        assert config_from_json(json.loads(json.dumps(config_to_json(xi))), 3) == xi


def test_json_decoders_check_lamps_against_q():
    assert element_from_json({"k": 0, "eta": [[0, 5]]}, 6) == GroupElement(((0, 5),), 0)
    assert element_from_json({"k": 1, "eta": [[2, 0], [-1, 2]]}, 3) == GroupElement(((-1, 2),), 1)
    with pytest.raises(ValueError, match=r"label 5 at 0 outside range\(0, 2\)"):
        element_from_json({"k": 0, "eta": [[0, 5]]}, 2)
    with pytest.raises(ValueError, match=r"label -1 at 3 outside range\(0, 2\)"):
        element_from_json({"k": 0, "eta": [[3, -1]]}, 2)
    with pytest.raises(ValueError, match=r"label 7 at 1 outside range\(0, 3\)"):
        config_from_json({"side": "+", "labels": [[1, 7]]}, 3)


def ref_encode(a):
    """``encode`` through dicts and ``TreeVertex.make``, as first written."""
    k = a.k
    x1 = TreeVertex.make(k, {j: v for j, v in a.eta if j <= k})
    x2 = TreeVertex.make(-k, {1 - n: v for n, v in a.eta if n >= k + 1})
    return DLVertex(x1, x2)


def outcome(f, a):
    try:
        return f(a)
    except ValueError as exc:
        return "ValueError", str(exc)


@st.composite
def group_elements(draw):
    """Canonical elements; with ``q=None`` a lamp may be negative."""
    k = draw(st.integers(-5, 5))
    pairs = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-1, 3)), max_size=7))
    return GroupElement.make(pairs, k, draw(st.sampled_from((None, 2, 3, 4))))


@settings(max_examples=400, deadline=None)
@given(group_elements())
def test_encode_matches_make_reference(a):
    assert outcome(encode, a) == outcome(ref_encode, a)


def checked_split_encode(a):
    """``encode`` as it was: the split built through the checked constructor."""
    k, eta = a.k, a.eta
    i = bisect_right(eta, k, key=itemgetter(0))
    x1 = TreeVertex(k, eta[:i])
    x2 = TreeVertex(-k, tuple([(1 - n, v) for n, v in reversed(eta[i:])]))
    for j, v in x1.labels + x2.labels:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"label at {j} must be a non-negative integer, got {v!r}")
    return DLVertex(x1, x2)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-1, 3)), max_size=6),
    st.integers(-4, 4),
)
def test_encode_refuses_exactly_what_the_checked_split_refuses(pairs, k):
    # any eta, canonical or not: the same vertex, or a ValueError from both
    a = GroupElement(tuple(pairs), k)
    want = outcome(checked_split_encode, a)
    got = outcome(encode, a)
    assert got == want or (got[0], want[0]) == ("ValueError", "ValueError")


def test_encode_splits_a_canonical_eta_and_rejects_another():
    a = GroupElement(((-2, 1), (0, 1), (3, 2), (5, 1)), 1)
    assert encode(a) == DLVertex(
        TreeVertex(1, ((-2, 1), (0, 1))), TreeVertex(-1, ((-4, 1), (-2, 2)))
    )
    for eta in (((0, 1), (-1, 1)), ((0, 1), (0, 1)), ((0, 0),)):
        with pytest.raises(ValueError):
            encode(GroupElement(eta, 2))


@pytest.mark.parametrize("q, support, position_range", [(2, 0, 0), (2, 1, 2), (3, 1, 1), (2, 2, 1)])
def test_cayley_check_window(q, support, position_range):
    assert cayley_check(q, support, position_range) == {
        "elements": q ** (2 * support + 1) * (2 * position_range + 1),
        "bijective": True,
        "walk_switch_matches_dl": True,
        "switch_walk_switch_matches_dls": True,
    }


def test_cayley_check_reports_a_mismatch(monkeypatch):
    monkeypatch.setattr(lamplighter, "dls_neighbours", dl_neighbours)
    res = cayley_check(2, 1, 1)
    assert res["walk_switch_matches_dl"] is True
    assert res["switch_walk_switch_matches_dls"] is False


def test_cayley_check_rejects_bad_windows():
    for args in ((1, 1, 1), (2, -1, 1), (2, 1, -1)):
        with pytest.raises(ValueError):
            cayley_check(*args)


def dict_multiply(a, b, q):
    """The group law through a dict and a sort, as ``multiply`` once was."""
    lamps = dict(a.eta)
    for n, v in b.eta:
        lamps[n + a.k] = (lamps.get(n + a.k, 0) + v) % q
    return GroupElement(tuple(sorted(p for p in lamps.items() if p[1])), a.k + b.k)


@st.composite
def element_pairs(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    return q, draw(canonical_elements(q)), draw(canonical_elements(q))


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_multiply_matches_a_dict_and_sort_reference(qab):
    q, a, b = qab
    # every generator of every model, an arbitrary b, and b = a^-1, which
    # cancels every lamp of a to 0
    for s in [s for model in GeneratorModel for s in generators(model, q)] + [b, inverse(a, q)]:
        got = multiply(a, s, q)
        assert type(got) is GroupElement and got == dict_multiply(a, s, q)
    assert multiply(a, inverse(a, q), q) == identity()


def test_cayley_check_encodes_each_distinct_element_once(monkeypatch):
    q = 3
    want = cayley_check(q, 1, 1)
    window = [
        GroupElement.make(zip((-1, 0, 1), values), k, q)
        for values in itertools.product(range(q), repeat=3)
        for k in (-1, 0, 1)
    ]
    gens = generators(GeneratorModel.WALK_SWITCH, q) + generators(GeneratorModel.SWITCH_WALK_SWITCH, q)
    distinct = set(window) | {dict_multiply(a, s, q) for a in window for s in gens}
    calls = []

    def counted(a):
        calls.append(a)
        return encode(a)

    monkeypatch.setattr(lamplighter, "encode", counted)
    assert cayley_check(q, 1, 1) == want
    assert len(calls) == len(distinct) == 243 and set(calls) == distinct


def test_ends_refuse_the_other_side():
    with pytest.raises(ValueError, match="end_plus needs a '\\+' side configuration"):
        end_plus(BoundaryConfig("-", ((1, 1),)))
    with pytest.raises(ValueError, match="end_minus needs a '-' side configuration"):
        end_minus(BoundaryConfig("+", ((1, 1),)))


def test_a_boundary_end_is_checked_by_its_config_and_its_kernel_alone(monkeypatch):
    # BoundaryConfig checks xi's word and martin_kernel_tree range-checks the
    # end: end_plus and end_minus build the end unchecked in between.
    a, p = GroupElement.make({-1: 1, 2: 1}, 1, 2), DLParams(2, 2)
    calls, real = [], tree._check_word

    def counted(labels, *args, **kwargs):
        calls.append(labels)
        return real(labels, *args, **kwargs)

    for module in (tree, lamplighter):
        monkeypatch.setattr(module, "_check_word", counted)
    xi = BoundaryConfig.make("+", {1: 1, 3: 1})
    value = martin_kernel_tree(1, encode(a).x1, end_plus(xi), Fraction(1, 3), p)
    assert len(calls) == 4 and calls.count(xi.labels) == 2
    monkeypatch.undo()
    assert value == martin_kernel_tree(1, encode(a).x1, TreeEnd(xi.labels), Fraction(1, 3), p)
    xi_m = BoundaryConfig.make("-", {-2: 1, 0: 1})
    assert end_plus(xi) == TreeEnd(xi.labels) and end_minus(xi_m) == TreeEnd(((1, 1), (3, 1)))
    # the refusals are unchanged: a bad word in the config, a label out of the kernel's range
    with pytest.raises(ValueError, match="^zero labels must not be stored$"):
        BoundaryConfig("+", ((1, 0),))
    with pytest.raises(ValueError, match=r"^label keys must be strictly increasing$"):
        BoundaryConfig("-", ((2, 1), (1, 1)))
    for end in (end_plus(BoundaryConfig("+", ((1, 2),))), end_minus(BoundaryConfig("-", ((0, 2),)))):
        with pytest.raises(ValueError, match=r"^label 2 at 1 outside range\(0, 2\)$"):
            martin_kernel_tree(1, ROOT, end, Fraction(1, 3), p)
