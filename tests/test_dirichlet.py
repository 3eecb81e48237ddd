import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dl_harmonics import dirichlet as dct
from dl_harmonics.dirichlet import (
    TruncationStage,
    build_truncation,
    closed_tree_table,
    decompose,
    edge_factors,
    exact_rank,
    hitting_table,
    kernel_approx,
    represent,
    restricted_hitting,
    verify_product_formula,
)
from dl_harmonics.dl_graph import DLParams, DLVertex, origin
from dl_harmonics.kernels import KernelSpec, martin_kernel_tree
from dl_harmonics.tree import OMEGA, ROOT, TreeEnd, TreeVertex
from dl_harmonics.walks import DLWalk, p1_walk

RNG_SEED = 16180

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def gauss_jordan(a, b):
    """Independent oracle: ``A^-1 B`` by Gauss-Jordan over Fractions, no
    shared code with the package's modular solver; None if A is singular."""
    m = len(a)
    aug = [[Fraction(x) for x in a[i] + b[i]] for i in range(m)]
    for col in range(m):
        piv = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(m):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[m:] for row in aug]


def solve_dense(chain, op):
    """The hitting table by ``gauss_jordan`` on the unscaled system."""
    interior = list(chain.interior)
    pos = {v: i for i, v in enumerate(interior)}
    bpos = {y: b for b, y in enumerate(chain.boundary)}
    m = len(interior)
    nb = len(chain.boundary)
    a = [[Fraction(0)] * m for _ in range(m)]
    b = [[Fraction(0)] * nb for _ in range(m)]
    for i, v in enumerate(interior):
        a[i][i] += 1
        for w, p in op.transitions(v):
            if w in pos:
                a[i][pos[w]] -= p
            else:
                b[i][bpos[w]] += p
    x = gauss_jordan(a, b)
    out = {}
    for y in chain.boundary:
        for z in chain.boundary:
            out[(y, z)] = Fraction(1 if y == z else 0)
    for i, v in enumerate(interior):
        for y in chain.boundary:
            out[(v, y)] = x[i][bpos[y]]
    return out


def test_truncation_sizes():
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    assert (len(c.vertices), len(c.boundary), len(c.interior)) == (12, 8, 4)
    c = build_truncation(2, DLParams(2, 2), HALF, "dl")
    assert (len(c.vertices), len(c.boundary)) == (80, 32)
    c = build_truncation(1, DLParams(2, 3), HALF, "dl")
    assert (len(c.vertices), len(c.boundary)) == (19, 13)
    c = build_truncation(1, DLParams(2, 2), HALF, "tree1")
    assert (len(c.vertices), len(c.boundary), len(c.interior)) == (7, 5, 2)


def test_truncation_validation():
    with pytest.raises(ValueError):
        build_truncation(0, DLParams(2, 2), HALF)
    with pytest.raises(ValueError):
        build_truncation(9, DLParams(2, 2), HALF, "dl")  # larger than the cap
    with pytest.raises(ValueError):
        build_truncation(1, DLParams(2, 2), HALF, "cube")


def test_lookup_dicts_built_once():
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    fresh = build_truncation(1, DLParams(2, 2), HALF, "dl")
    assert c.index is c.index
    assert c.index == {v: i for i, v in enumerate(c.vertices)}
    t = hitting_table(c)
    assert t.boundary_index is t.boundary_index
    assert t.boundary_index == {y: b for b, y in enumerate(c.boundary)}
    # the cached dicts take no part in equality or hashing
    assert c == fresh and hash(c) == hash(fresh)
    other = dct.HittingTable(fresh, t.rows)
    assert t == other and hash(t) == hash(other)
    assert repr(c) == repr(fresh)


def test_golden_row_at_origin():
    p = DLParams(2, 2)
    c = build_truncation(1, p, HALF, "dl")
    t = hitting_table(c)
    o = origin(p)
    for y in c.boundary:
        side = y.x1 if y.x2 == c.a2 else y.x2
        blocked = dict(side.labels).get(0, 0) != 0
        assert t.value(o, y) == (0 if blocked else Fraction(1, 4))


def test_table_matches_dense_oracle():
    for p, n, alpha, kind in (
        (DLParams(2, 2), 1, HALF, "dl"),
        (DLParams(2, 3), 1, THIRD, "dl"),
        (DLParams(2, 2), 2, Fraction(2, 5), "tree1"),
    ):
        c = build_truncation(n, p, alpha, kind)
        t = hitting_table(c)
        from dl_harmonics.dirichlet import default_operator

        want = solve_dense(c, default_operator(c))
        for x in c.vertices:
            for y in c.boundary:
                assert t.value(x, y) == want[(x, y)]


def test_table_matches_monte_carlo():
    # third route: run the absorbed walk with a plain seeded sampler and
    # compare exit frequencies from the origin against the exact row
    p = DLParams(2, 2)
    chain = build_truncation(2, p, THIRD, "dl")
    table = hitting_table(chain)
    rows = {v: DLWalk(p, THIRD).transitions(v) for v in chain.interior}
    absorbed = set(chain.boundary)
    rng = random.Random(RNG_SEED)
    trials = 20000
    counts = dict.fromkeys(chain.boundary, 0)
    for _ in range(trials):
        v = origin(p)
        while v not in absorbed:
            x = rng.random()
            acc = 0.0
            for t, w in rows[v]:
                acc += float(w)
                if x < acc:
                    v = t
                    break
        counts[v] += 1
    o = origin(p)
    for y in chain.boundary:
        want = float(table.value(o, y))
        sigma = (want * (1 - want) / trials) ** 0.5
        assert abs(counts[y] / trials - want) <= 4 * sigma


def test_rows_sum_to_one_and_boundary_deltas():
    c = build_truncation(1, DLParams(2, 3), Fraction(2, 5), "dl")
    t = hitting_table(c)
    for x in c.vertices:
        assert sum(t.rows[c.index[x]]) == 1
    for y in c.boundary:
        assert t.value(y, y) == 1
        assert all(t.value(y, z) == 0 for z in c.boundary if z != y)


def test_edge_factors_golden():
    d, u = edge_factors(2, 2, HALF)
    # at the driftless point d_k collapses to (n-k)/(n-k+1)
    for k in (-1, 0, 1, 2):
        assert d[k] == Fraction(2 - k, 3 - k)
    assert u == {-2: Fraction(0), -1: Fraction(3, 10), 0: Fraction(10, 29), 1: Fraction(29, 96)}
    assert u[0] * u[1] == Fraction(5, 48)


def test_driftless_down_factors_all_stages():
    for n in (1, 2, 3, 5):
        d, _ = edge_factors(n, 2, HALF)
        for k in range(-n + 1, n + 1):
            assert d[k] == Fraction(n - k, n - k + 1)


def test_edge_factors_are_read_only():
    d, u = edge_factors(2, 2, HALF)
    with pytest.raises(TypeError):
        d[0] = Fraction(1)
    with pytest.raises(TypeError):
        u[0] = Fraction(1)
    assert edge_factors(2, 2, HALF)[0][0] == Fraction(2, 3)


def test_edge_factors_served_from_cache():
    first = edge_factors(4, 3, Fraction(2, 7))
    hits = dct._edge_factors.cache_info().hits
    again = edge_factors(4, 3, Fraction(2, 7))
    assert dct._edge_factors.cache_info().hits == hits + 1
    assert again is first


def test_cached_edge_factors_equal_a_fresh_recursion():
    fresh = dct._edge_factors.__wrapped__
    for n in range(1, 13):
        for branch in (2, 3):
            for up in (THIRD, HALF, Fraction(5, 7)):
                d, u = edge_factors(n, branch, up)
                d0, u0 = fresh(n, branch, up)
                assert (dict(d), dict(u)) == (dict(d0), dict(u0))


def test_restricted_hitting_golden():
    assert restricted_hitting(2, 2, HALF, ROOT, TreeVertex.make(2, {})) == Fraction(5, 48)
    assert restricted_hitting(1, 2, HALF, ROOT, ROOT) == 1
    with pytest.raises(ValueError):
        restricted_hitting(1, 2, HALF, TreeVertex.make(3, {}), ROOT)


def test_closed_form_equals_matrix_solve():
    for alpha in (THIRD, HALF):
        c = build_truncation(2, DLParams(2, 2), alpha, "tree1")
        assert closed_tree_table(c).rows == hitting_table(c).rows
    c = build_truncation(1, DLParams(2, 3), THIRD, "tree2")
    assert closed_tree_table(c).rows == hitting_table(c).rows


def test_slab_goldens():
    p = DLParams(2, 2)
    c = build_truncation(2, p, HALF, "dl")
    t = hitting_table(c)
    o = origin(p)
    top = DLVertex(TreeVertex.make(2, {}), c.a2)
    assert t.value(o, top) == Fraction(5, 48)
    assert sum(t.value(o, y) for y in c.boundary if y.x2 == c.a2) == HALF

    c = build_truncation(2, p, THIRD, "dl")
    t = hitting_table(c)
    assert t.value(o, DLVertex(TreeVertex.make(2, {}), c.a2)) == Fraction(3, 70)
    assert t.value(o, DLVertex(c.a1, TreeVertex.make(2, {}))) == Fraction(6, 35)
    # exit through the top slab is a plain gambler's ruin on the level
    assert sum(t.value(o, y) for y in c.boundary if y.x2 == c.a2) == Fraction(1, 5)

    p = DLParams(2, 3)
    c = build_truncation(1, p, THIRD, "dl")
    t = hitting_table(c)
    o = origin(p)
    assert t.value(o, DLVertex(TreeVertex.make(1, {}), c.a2)) == Fraction(1, 6)
    assert t.value(o, DLVertex(c.a1, TreeVertex.make(1, {}))) == Fraction(2, 9)
    assert sum(t.value(o, y) for y in c.boundary if y.x2 == c.a2) == THIRD


def test_product_formula_stage1():
    report = verify_product_formula(build_truncation(1, DLParams(2, 2), THIRD, "dl"))
    assert report.checked == 96
    assert report.discrepancies == ()
    with pytest.raises(ValueError):
        verify_product_formula(build_truncation(1, DLParams(2, 2), THIRD, "tree1"))


def test_represent_constants_and_deltas():
    c = build_truncation(1, DLParams(2, 2), HALF, "dl")
    t = hitting_table(c)
    values = represent(c, {y: Fraction(3) for y in c.boundary}, table=t)
    assert all(v == 3 for v in values.values())
    y0 = c.boundary[0]
    delta = represent(c, {y: Fraction(1 if y == y0 else 0) for y in c.boundary}, table=t)
    for x in c.vertices:
        assert delta[x] == t.value(x, y0)
    with pytest.raises(ValueError):
        represent(c, {y0: Fraction(1)}, table=t)


def test_represent_min_principle():
    rng = random.Random(RNG_SEED)
    c = build_truncation(1, DLParams(2, 3), Fraction(2, 5), "dl")
    t = hitting_table(c)
    for _ in range(50):
        data = {y: Fraction(rng.randrange(0, 100), 100) for y in c.boundary}
        values = represent(c, data, table=t)
        lo, hi = min(data.values()), max(data.values())
        assert all(lo <= v <= hi for v in values.values())


def test_decompose_splits_harmonic_functions():
    p = DLParams(2, 2)
    alpha = HALF
    h = KernelSpec(1, TreeEnd.word({1: 1}), alpha, p).evaluate
    dec = decompose(h, 2, p, alpha)
    o = origin(p)
    assert dec.h1[o.x1] + dec.h2[o.x2] == h(o)
    apex = TreeVertex(-2, ())
    assert dec.lambda1[apex] == 0 and dec.lambda2[apex] == 0
    assert all(v >= 0 for v in dec.lambda1.values())
    assert all(v >= 0 for v in dec.lambda2.values())
    # h only depends on the first coordinate, so the second summand is the
    # kernel value at the apex times the exit mass through the second slab
    chain = build_truncation(2, p, alpha, "dl")
    leaves2 = [y.x2 for y in chain.boundary if y.x1 == chain.a1]
    at_apex = h(DLVertex(chain.a1, leaves2[0]))
    for x2 in {v.x2 for v in chain.vertices}:
        exit2 = sum(restricted_hitting(2, p.r, 1 - alpha, x2, y) for y in leaves2)
        assert dec.h2[x2] == at_apex * exit2
    # the two-sided split of the constant gives the slab exit masses
    ones = decompose(lambda v: Fraction(1), 1, p, alpha)
    assert ones.h1[ROOT] == HALF
    assert ones.h2[ROOT] == HALF


def test_decompose_evaluates_h_once_per_vertex():
    p = DLParams(2, 3)
    h = KernelSpec(2, TreeEnd.word({1: 2}), THIRD, p).evaluate
    calls = {}

    def counted(v):
        calls[v] = calls.get(v, 0) + 1
        return h(v)

    decompose(counted, 2, p, THIRD)
    chain = build_truncation(2, p, THIRD, "dl")
    assert set(calls) == set(chain.vertices)
    assert set(calls.values()) == {1}


def test_decompose_rejects_non_harmonic():
    p = DLParams(2, 2)
    with pytest.raises(ValueError):
        decompose(lambda v: Fraction(v.x1.level * v.x1.level), 1, p, HALF)


def test_kernel_approx_normalised_and_guarded():
    p = DLParams(2, 2)
    stage = TruncationStage("tree1", 3, p, HALF)
    assert kernel_approx(stage, ROOT, TreeEnd.word({1: 1})) == 1
    assert kernel_approx(stage, ROOT, OMEGA) == 1
    chain = build_truncation(3, p, HALF, "tree1")
    assert kernel_approx(chain, ROOT, TreeEnd.word({1: 1})) == 1
    # a ray that grazes the apex leaves a 0/0 ratio at this stage
    with pytest.raises(ValueError):
        kernel_approx(stage, ROOT, TreeEnd.word({-2: 1}))
    # x outside the interior
    with pytest.raises(ValueError):
        kernel_approx(stage, TreeVertex.make(3, {}), TreeEnd.word({1: 1}))
    # boundary target vertex form
    y = TreeVertex.make(3, {1: 1})
    got = kernel_approx(chain, TreeVertex.make(1, {1: 1}), y)
    assert got == restricted_hitting(3, 2, HALF, TreeVertex.make(1, {1: 1}), y) / restricted_hitting(
        3, 2, HALF, ROOT, y
    )
    with pytest.raises(ValueError):
        kernel_approx(chain, ROOT, TreeVertex.make(2, {1: 1}))


def test_kernel_approx_converges():
    # one fixed pair, drifted and driftless: the stage-n values approach the
    # Martin kernel, fast with drift and slowly without
    p = DLParams(2, 2)
    x = TreeVertex.make(1, {1: 1})
    xi = TreeEnd.word({1: 1})
    for alpha, final_bound in ((THIRD, 2e-3), (HALF, 0.18)):
        limit = martin_kernel_tree(1, x, xi, alpha, p)
        errs = []
        for n in range(2, 11):
            stage = TruncationStage("tree1", n, p, alpha)
            errs.append(abs(kernel_approx(stage, x, xi) - limit))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < final_bound
    assert martin_kernel_tree(1, x, xi, THIRD, p) == 4
    assert martin_kernel_tree(1, x, xi, HALF, p) == 2


def test_exact_rank():
    assert exact_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert exact_rank([[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]) == 1
    assert exact_rank([]) == 0
    # kernels at distinct ends are linearly independent as functions
    p = DLParams(2, 2)
    ends = [TreeEnd.word({}), TreeEnd.word({1: 1}), TreeEnd.word({-1: 1}), OMEGA]
    pts = [TreeVertex.make(l, lab) for l, lab in
           ((0, {}), (1, {1: 1}), (-1, {}), (1, {}), (2, {1: 1, 2: 1}), (-2, {}), (0, {-1: 1}))]
    rows = [
        [martin_kernel_tree(1, v, xi, HALF, p) for v in pts] for xi in ends
    ]
    assert exact_rank(rows) == len(ends)


# ---------------------------------------------------------------------------
# The multi-modular solver.


def as_system(a, b):
    """``A | B`` row by row, as the solver takes it."""
    return [{j: x for j, x in enumerate(a[i] + b[i]) if x} for i in range(len(a))]


def exact_residual(a, b):
    def accept(x):
        for i, row in enumerate(a):
            for c in range(len(b[i])):
                if sum(row[j] * x[j][c] for j in range(len(row))) != b[i][c]:
                    raise AssertionError("residual")
        return x

    return accept


def modular_solve(a, b):
    return dct._modular_solve(as_system(a, b), len(a), len(b[0]), exact_residual(a, b))


@pytest.fixture
def primes_used(monkeypatch):
    """Every modulus the solver eliminates with, and whether it was skipped."""
    used = []
    eliminate = dct._eliminate

    def recording(aug, m, p):
        x = eliminate(aug, m, p)
        used.append((p, x is None))
        return x

    monkeypatch.setattr(dct, "_eliminate", recording)
    return used


@st.composite
def integer_systems(draw):
    m = draw(st.integers(1, 5))
    nb = draw(st.integers(1, 3))
    size = draw(st.sampled_from((1, 100, 10**12)))
    entry = st.integers(-size, size)
    a = [[draw(entry) for _ in range(m)] for _ in range(m)]
    b = [[draw(entry) for _ in range(nb)] for _ in range(m)]
    return a, b


@settings(max_examples=60, deadline=None)
@given(integer_systems())
@example(([[0, 1], [1, 0]], [[1], [2]]))  # the first pivot needs a row swap
def test_modular_solve_equals_gauss_jordan(system):
    a, b = system
    want = gauss_jordan(a, b)
    assume(want is not None)
    assert modular_solve(a, b) == want


def test_large_denominator_alpha_needs_several_primes(primes_used):
    alpha = Fraction(12345, 67891)
    for p, n, kind in ((DLParams(2, 2), 1, "dl"), (DLParams(2, 2), 2, "tree1")):
        primes_used.clear()
        c = build_truncation(n, p, alpha, kind)
        t = hitting_table(c)
        assert len(primes_used) > 1
        want = solve_dense(c, dct.default_operator(c))
        for x in c.vertices:
            for y in c.boundary:
                assert t.value(x, y) == want[(x, y)]


def test_prime_dividing_the_determinant_is_skipped(primes_used):
    p0 = dct._PRIMES[0]
    a = [[2, 1], [1, (p0 + 1) // 2]]  # det = p0
    b = [[1], [0]]
    assert modular_solve(a, b) == gauss_jordan(a, b)
    assert primes_used[0] == (p0, True)
    assert not any(skipped for _, skipped in primes_used[1:])


def test_singular_system_raises():
    with pytest.raises(ValueError, match="singular"):
        modular_solve([[1, 2], [2, 4]], [[1], [2]])
    # Hadamard's bound here outgrows the product of the hard-coded primes,
    # so the proof of singularity draws further primes
    k = 2**400
    with pytest.raises(ValueError, match="singular"):
        modular_solve([[k, k], [k, k]], [[1], [1]])


def _is_prime(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_moduli_are_primes_below_2_to_31():
    moduli = dct._moduli()
    first = [next(moduli) for _ in range(len(dct._PRIMES) + 3)]
    assert tuple(first[: len(dct._PRIMES)]) == dct._PRIMES
    assert all(_is_prime(p) and p < 2**31 for p in first)
    assert len(set(first)) == len(first)


def test_rejected_table_is_final_at_the_hadamard_bound(monkeypatch):
    def reject(table, scaled_rows):
        raise AssertionError("exact residual of the Dirichlet solve is nonzero")

    monkeypatch.setattr(dct, "_verify_table", reject)
    with pytest.raises(AssertionError, match="residual"):
        hitting_table(build_truncation(1, DLParams(2, 2), HALF, "dl"))


def test_verify_table_catches_each_defect(monkeypatch):
    seen = []
    verify = dct._verify_table

    def recording(table, scaled_rows):
        seen.append(scaled_rows)
        verify(table, scaled_rows)

    monkeypatch.setattr(dct, "_verify_table", recording)
    c = build_truncation(1, DLParams(2, 3), THIRD, "dl")
    table = hitting_table(c)
    scaled_rows = seen[-1]

    def tampered(v, change):
        rows = list(table.rows)
        i = c.index[v]
        rows[i] = change(list(rows[i]))
        return dct.HittingTable(c, tuple(rows))

    def moved(row):
        # shift mass between two columns: the row sum stays 1
        b = next(b for b, x in enumerate(row) if x)
        row[b] -= Fraction(1, 10**9)
        row[b - 1] += Fraction(1, 10**9)
        return tuple(row)

    x = c.interior[0]
    y = c.boundary[0]
    for bad, message in (
        (tampered(x, moved), "residual"),
        (tampered(x, lambda row: (row[0] + 1, *row[1:])), "sum to 1"),
        (tampered(y, lambda row: tuple(reversed(row))), "Kronecker"),
    ):
        with pytest.raises(AssertionError, match=message):
            verify(bad, scaled_rows)
