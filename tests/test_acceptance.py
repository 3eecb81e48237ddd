"""End-to-end acceptance suite.

Each test covers one load-bearing guarantee of the package, prints a single
PASS/FAIL line (visible under ``pytest -s``), and fails hard on any
discrepancy.  Exact checks use rational arithmetic with zero tolerance; the
Monte-Carlo check states its confidence band explicitly.
"""

import itertools
import random
from fractions import Fraction

from dl_harmonics.dirichlet import (
    FiniteChain,
    build_truncation,
    decompose,
    kernel_approx,
    restricted_hitting,
    verify_product_formula,
)
from dl_harmonics.dl_graph import (
    DLParams,
    DLVertex,
    ball,
    factor_map,
    origin,
    random_vertex,
)
from dl_harmonics.kernels import (
    KernelSpec,
    combine,
    drift_kernel,
    f_minus,
    f_plus,
    lift,
    martin_kernel_tree,
)
from dl_harmonics.lamplighter import (
    BoundaryConfig,
    GroupElement,
    cayley_check,
    defect_minus,
    defect_oplus,
    defect_plus,
    encode,
    end_minus,
    end_plus,
)
from dl_harmonics.tree import (
    OMEGA,
    ROOT,
    TreeEnd,
    TreeVertex,
    confluent_omega_end,
    neighbours as tree_neighbours,
    predecessor,
)
from dl_harmonics.walks import (
    DLWalk,
    SiblingWalk,
    apply,
    conjugate,
    estimate_f,
    p1_walk,
    project,
    transitions,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def report(num: int, desc: str, failures) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {desc}: {status}")
    assert not failures, f"criterion {num:02d} ({desc}): {failures[:3]}"


def row_dict(op, v):
    out = {}
    for w, p in transitions(op, v):
        out[w] = out.get(w, Fraction(0)) + p
    return out


def test_criterion_01_closed_form_hitting_probabilities():
    failures = []
    for alpha in (Fraction(1, 5), THIRD, HALF, Fraction(2, 3), Fraction(4, 5)):
        for q in (2, 3, 4):
            fm, fp = f_minus(alpha), f_plus(alpha, q)
            if fm != (1 - alpha) + alpha * fm * fm:
                failures.append(("quadratic-", alpha, q))
            if fp != alpha / q + alpha * (q - 1) / q * fm * fp + (1 - alpha) * fp * fp:
                failures.append(("quadratic+", alpha, q))
            if fm != (Fraction(1) if 2 * alpha <= 1 else (1 - alpha) / alpha):
                failures.append(("case-split-", alpha, q))
            if fp != (Fraction(1, q) if 2 * alpha >= 1 else alpha / ((1 - alpha) * q)):
                failures.append(("case-split+", alpha, q))
    report(1, "closed-form hitting probabilities", failures)


def _cached_kernel(side, end, alpha, params):
    cache = {}

    def k(v):
        x = v.x1 if side == 1 else v.x2
        val = cache.get(x)
        if val is None:
            val = cache[x] = martin_kernel_tree(side, x, end, alpha, params)
        return val

    return k


def test_criterion_02_harmonicity_of_lifted_kernels():
    failures = []
    checked = 0
    for params in (DLParams(2, 2), DLParams(2, 3), DLParams(3, 3)):
        vertices = ball(params, 6)
        for alpha in (THIRD, HALF, Fraction(2, 3)):
            op = DLWalk(params, alpha)
            k1a = _cached_kernel(1, TreeEnd.word({1: 1}), alpha, params)
            k1b = _cached_kernel(1, TreeEnd.word({-2: 1, 3: 1}), alpha, params)
            k2a = _cached_kernel(2, TreeEnd.word({-1: 1}), alpha, params)
            k2b = _cached_kernel(2, TreeEnd.word({-4: 1, 2: 1}), alpha, params)
            family = [
                k1a,
                k1b,
                k2a,
                k2b,
                lambda v: 2 * k1a(v) + Fraction(1, 3) * k2a(v),
                lambda v: Fraction(5, 7) * k1b(v) + 3 * k2b(v) + Fraction(1, 2),
                lambda v: k1a(v) + k1b(v) + k2a(v) + k2b(v) + 1,
            ]
            for h in family:
                for v in vertices:
                    checked += 1
                    if apply(op, h, v) != h(v):
                        failures.append((params, alpha, v))
                        break
    assert checked == (452 + 1894 + 3609) * 3 * 7
    report(2, "lifted kernels exactly harmonic on radius-6 balls", failures)


def test_criterion_03_product_formula_on_truncations():
    failures = []
    total = 0
    for params in (DLParams(2, 2), DLParams(2, 3)):
        for n in (1, 2):
            for alpha in (THIRD, HALF):
                chain = build_truncation(n, params, alpha, "dl")
                rep = verify_product_formula(chain)
                total += rep.checked
                if rep.checked != len(chain.vertices) * len(chain.boundary):
                    failures.append(("count", params, n, alpha))
                if rep.discrepancies:
                    failures.append(("mismatch", params, n, alpha, rep.discrepancies[0]))
    print(f"  product identities verified: {total}")
    report(3, "two-sided product formula for boundary hitting", failures)


def test_criterion_04_exact_decomposition():
    failures = []
    rng = random.Random(40412)
    p = DLParams(2, 2)
    ends1 = [TreeEnd.word({1: 1}), TreeEnd.word({-1: 1, 2: 1}), TreeEnd.word({})]
    ends2 = [TreeEnd.word({-1: 1}), TreeEnd.word({1: 1, -2: 1}), TreeEnd.word({2: 1})]
    for i in range(20):
        alpha = HALF if i % 2 else THIRD
        c1 = Fraction(rng.randrange(0, 8), rng.randrange(1, 5))
        c2 = Fraction(rng.randrange(0, 8), rng.randrange(1, 5))
        c3 = Fraction(rng.randrange(0, 8), rng.randrange(1, 5))
        h = combine(
            [
                (c1, KernelSpec(1, rng.choice(ends1), alpha, p)),
                (c2, KernelSpec(2, rng.choice(ends2), alpha, p)),
            ],
            constant=c3,
        )
        try:
            dec = decompose(h, 2, p, alpha)  # reconstruction verified inside
        except (ValueError, AssertionError) as exc:
            failures.append((i, exc))
            continue
        if any(v < 0 for v in dec.h1.values()) or any(v < 0 for v in dec.h2.values()):
            failures.append((i, "negative part"))
    report(4, "two-sided splitting of harmonic functions at stage 2", failures)


def test_criterion_05_conjugation_swaps_the_drift():
    failures = []
    rng = random.Random(50551)
    for q in (2, 3):
        params = DLParams(q, q)
        for alpha in (THIRD, Fraction(2, 3)):
            g = drift_kernel(alpha)
            op = conjugate(DLWalk(params, alpha), g)
            mirror = DLWalk(params, 1 - alpha)
            omega_kernel = lift(
                1, lambda x, a=alpha, p=params: martin_kernel_tree(1, x, OMEGA, a, p)
            )
            for _ in range(500):
                v = random_vertex(params, 5, rng)
                if row_dict(op, v) != row_dict(mirror, v):
                    failures.append((q, alpha, v))
                    break
                # above 1/2 the conjugating function is itself the lifted
                # omega-kernel, so the literal kernel form holds as well
                if alpha > HALF and g(v) != omega_kernel(v):
                    failures.append((q, alpha, v, "kernel form"))
                    break
    report(5, "conjugation by the drift kernel maps P_a to P_(1-a)", failures)


def test_criterion_06_cayley_equivalence():
    failures = []
    q, support, position_range = 2, 2, 2
    res = cayley_check(q, support, position_range)
    if res["elements"] != 2**5 * 5:
        failures.append(("elements", res["elements"]))
    for key in ("bijective", "walk_switch_matches_dl", "switch_walk_switch_matches_dls"):
        if res[key] is not True:
            failures.append(key)
    report(6, "group picture matches both graph pictures", failures)


def test_criterion_07_defect_kernel_identity():
    failures = []
    rng = random.Random(70707)
    for q in (2, 3):
        params = DLParams(q, q)
        for _ in range(500):
            k = rng.randrange(-3, 4)
            eta = {n: rng.randrange(q) for n in range(-4, 5) if rng.random() < 0.5}
            a = GroupElement.make(eta, k, q)
            labels = tuple(
                (n, rng.randrange(1, q)) for n in range(-4, 5) if rng.random() < 0.4
            )
            xi_p = BoundaryConfig("+", labels)
            xi_m = BoundaryConfig("-", labels)
            x = encode(a)
            if Fraction(q) ** defect_plus(a, xi_p) != martin_kernel_tree(
                1, x.x1, end_plus(xi_p), HALF, params
            ):
                failures.append(("plus", q, a, labels))
                break
            if Fraction(q) ** defect_minus(a, xi_m) != martin_kernel_tree(
                2, x.x2, end_minus(xi_m), HALF, params
            ):
                failures.append(("minus", q, a, labels))
                break
            shifted = BoundaryConfig(
                "+", tuple(sorted((n + 1, v) for n, v in labels))
            )
            if Fraction(q) ** defect_oplus(a, xi_p) != martin_kernel_tree(
                1, factor_map(x, params).x1, end_plus(shifted), HALF, params
            ):
                failures.append(("oplus", q, a, labels))
                break
    report(7, "defect exponentials equal tree kernels at a = 1/2", failures)


def test_criterion_08_factor_graph_lemma():
    failures = []
    rng = random.Random(80808)
    for params in (DLParams(2, 2), DLParams(2, 3)):
        for alpha in (Fraction(2, 5), HALF):
            proj = project(SiblingWalk(params, alpha))
            plain = DLWalk(params, alpha)
            for _ in range(200):
                v = factor_map(random_vertex(params, 5, rng), params)
                if row_dict(proj, v) != row_dict(plain, v):
                    failures.append((params, alpha, v))
                    break
    report(8, "projected switch-walk-switch equals the simple walk", failures)


def test_criterion_09_monte_carlo_consistency():
    failures = []
    p = DLParams(2, 2)
    # F^- = 1/2 under downward drift (a = 2/3)
    res_a = estimate_f(
        p1_walk(p, Fraction(2, 3)), ROOT, predecessor(ROOT),
        trials=10_000, horizon=1_000, seed=3,
    )
    # F^+ = 1/2 for one fixed successor at the driftless point
    res_b = estimate_f(
        p1_walk(p, HALF), predecessor(ROOT), ROOT,
        trials=10_000, horizon=1_000, seed=3,
    )
    band = 3 * (0.25 / 10_000) ** 0.5  # 3 sigma at p = 1/2
    for name, res in (("F-", res_a), ("F+", res_b)):
        frac_trunc = res.truncated_runs / res.trials
        print(
            f"  {name}: estimate {res.point_estimate:.4f} (band +-{band:.4f}),"
            f" truncated {frac_trunc:.2%}"
        )
        if abs(res.point_estimate - 0.5) > band:
            failures.append((name, res.point_estimate))
        if frac_trunc >= 0.01:
            failures.append((name, "truncation", frac_trunc))
    report(9, "Monte-Carlo estimates reproduce both closed forms", failures)


def test_criterion_10_kernel_approximation_convergence():
    failures = []
    p = DLParams(2, 2)
    alpha = HALF

    # radius-3 ball of the first tree (22 vertices)
    xs = {ROOT}
    frontier = [ROOT]
    for _ in range(3):
        frontier = [w for v in frontier for w in tree_neighbours(v, 2)]
        xs.update(frontier)
    assert len(xs) == 22

    ends = [
        TreeEnd.word({j: b for j, b in zip(range(-3, 4), bits) if b})
        for bits in itertools.product((0, 1), repeat=7)
    ] + [OMEGA]
    assert len(ends) == 129

    stages = range(4, 9)
    max_err = dict.fromkeys(stages, Fraction(0))
    approximants = 0
    f_violations = 0
    for x in sorted(xs, key=lambda v: (v.level, v.labels)):
        for xi in ends:
            limit = martin_kernel_tree(1, x, xi, alpha, p)
            for n in stages:
                stage = FiniteChain("tree1", n, p, alpha)
                try:
                    kn = kernel_approx(stage, x, xi)
                except ValueError:
                    continue  # ray grazes the apex at this stage
                approximants += 1
                err = abs(kn - limit)
                if err > max_err[n]:
                    max_err[n] = err
            if not xi.is_omega:
                # the F-values behind the ratio: reaching the fixed confluent
                # before the boundary can only get easier as the stage grows
                c = confluent_omega_end(x, xi)
                fs = [restricted_hitting(n, 2, alpha, x, c) for n in stages]
                f_violations += sum(1 for a, b in zip(fs, fs[1:]) if b < a)

    assert approximants == 12782
    if f_violations:
        failures.append(("F-monotonicity", f_violations))
    errs = [max_err[n] for n in stages]
    print("  worst-case error by stage:", [f"{float(e):.3f}" for e in errs])
    if not all(b < a for a, b in zip(errs, errs[1:])):
        failures.append(("error not strictly decreasing", [float(e) for e in errs]))
    if not (8 < errs[0] < 9 and 3 < errs[-1] < 3.5):
        failures.append(("error envelope moved", [float(e) for e in errs]))
    report(10, "stage-n kernels converge monotonically in observed error", failures)
