import re
from fractions import Fraction

import pytest

from _oracles import crowding, reference_free_neighborhood_law, vacancy
from occufrac import graphs, hardcore
from occufrac.errors import CapabilityError, CertificateError, DomainError
from occufrac.exactmath import IntPolynomial
from occufrac.graphs import Graph, complete, complete_bipartite, cycle, petersen
from occufrac.hardcore import (
    build_primal,
    dual_certificate,
    edgeless_config_index,
    enumerate_configs,
    free_neighborhood_distribution,
    objective_scale,
    objective_value,
    ratio_gap_coefficients,
    solver_dual_for_certificate,
    uncovered_count_distribution,
)
from occufrac.lp import dual_slacks, make_lp, solve
from occufrac.polynomials import clear_memo_tables, independence_poly, kdd_occupancy, occupancy

ONE = Fraction(1)
GRID = (Fraction(1, 4), Fraction(1, 2), ONE, Fraction(2), Fraction(4))


def test_enumerate_configs_counts():
    assert len(enumerate_configs(2)) == 4
    assert len(enumerate_configs(3)) == 8
    assert len(enumerate_configs(4)) == 19
    with pytest.raises(CapabilityError):
        enumerate_configs(8)
    with pytest.raises(DomainError, match="^need d >= 2$"):
        enumerate_configs(1)


def test_enumerate_configs_rejects_a_non_int_d():
    # the cached tables of 3 and 1 never answer for 3.0 or True
    enumerate_configs(3)
    for bad in (3.0, True, "3"):
        with pytest.raises(DomainError, match=f"^d {re.escape(repr(bad))} is not an int$"):
            enumerate_configs(bad)


def _grown_polys_match_reference():
    enumerate_configs.cache_clear()
    try:
        configs = enumerate_configs(7)
        assert len(configs) == 1253
        return all(cfg.poly == independence_poly(cfg.graph) for cfg in configs)
    finally:
        enumerate_configs.cache_clear()


def test_grown_class_polynomials_match_the_recursion():
    assert _grown_polys_match_reference()


def test_growing_with_the_neighborhood_mask_fails(monkeypatch):
    # mutation: read P(g[S]) from the parent's memo in place of P(g - S)
    original = hardcore._mask_recursion

    def wrong_mask(adj, *rest):
        poly = original(adj, *rest)
        full = (1 << len(adj)) - 1

        def wrong(mask):
            return poly(full & ~mask)

        wrong.memo = poly.memo
        return wrong

    monkeypatch.setattr(hardcore, "_mask_recursion", wrong_mask)
    assert not _grown_polys_match_reference()


def test_config_order_and_special_entries():
    configs = enumerate_configs(3)
    assert configs[0].graph.n == 0
    edgeless = configs[edgeless_config_index(3)]
    assert edgeless.graph.n == 3 and edgeless.graph.edge_count == 0
    sizes = [c.graph.n for c in configs]
    assert sizes == sorted(sizes)
    # deterministic order: rebuilding gives identical keys
    assert [c.key for c in configs] == [c.key for c in enumerate_configs(3)]


def test_config_weights_special_values():
    for d in (2, 3, 4):
        for lam in (Fraction(1, 2), ONE, Fraction(3)):
            configs = enumerate_configs(d)
            empty = configs[0]
            edgeless = configs[edgeless_config_index(d)]
            assert vacancy(empty, lam) == 1
            assert crowding(empty, lam, d) == 0
            assert vacancy(edgeless, lam) == 1 / (1 + lam) ** d
            assert crowding(edgeless, lam, d) == 1
            for cfg in configs:
                assert 0 < vacancy(cfg, lam) <= 1


def test_primal_known_value_d2():
    sol = solve(build_primal(2, ONE))
    assert sol.value == Fraction(2, 7)
    support = dict(zip(sol.support, (sol.primal[j] for j in sol.support)))
    assert support == {
        0: Fraction(3, 7),
        edgeless_config_index(2): Fraction(4, 7),
    }


def test_integer_fugacity_is_exact():
    # 2 and Fraction(2) are one cache key, so either must build the exact program
    exact = build_primal(3, Fraction(2))
    build_primal.cache_clear()
    assert build_primal(3, 2) == exact
    assert build_primal(3, Fraction(2)) is build_primal(3, 2)
    assert dual_certificate(3, 2) == dual_certificate(3, Fraction(2))


def test_integer_fugacity_gives_fractions():
    # an int lam must compute exactly, not through int / int floats
    for lam in (1, 2, 3):
        got = objective_scale(lam)
        assert type(got) is Fraction
        assert got == objective_scale(Fraction(lam))


def test_primal_optimum_closed_form_on_grid():
    for d in (2, 3, 4, 5):
        for lam in GRID:
            sol = solve(build_primal(d, lam))
            assert sol.value == kdd_occupancy(d, lam)
            assert set(sol.support) == {
                0,
                edgeless_config_index(d),
            }


def test_candidate_point_objective_value():
    # the two-point distribution gives the extremal objective for any d, lam
    for d in (2, 3, 4, 6):
        for lam in (Fraction(2, 5), ONE, Fraction(7, 2)):
            u = Fraction(1) / (1 + lam) ** d
            p_empty = (1 - u) / (2 - u)
            p_edgeless = 1 / (2 - u)
            probs = [Fraction(0)] * len(enumerate_configs(d))
            probs[0] = p_empty
            probs[edgeless_config_index(d)] = p_edgeless
            assert objective_value(probs, d, lam) == kdd_occupancy(d, lam)


def test_dual_certificate_known_values():
    report = dual_certificate(2, ONE)
    assert report.dual_values["norm"] == Fraction(8, 7)
    assert report.dual_values["balance"] == Fraction(-1, 7)
    assert report.optimum == Fraction(2, 7)
    assert len(report.tight) == 2

    report3 = dual_certificate(3, ONE)
    assert report3.optimum == Fraction(4, 15)
    strict = [s for _, s in report3.slacks if s > 0]
    assert len(strict) == 6  # 8 configurations, 2 tight


def test_dual_certificate_matches_solver_on_grid():
    for d in (2, 3, 4, 5):
        for lam in GRID:
            report = dual_certificate(d, lam)
            lp = build_primal(d, lam)
            assert report.optimum == solve(lp).value
            slack_report = dual_slacks(lp, solver_dual_for_certificate(d, lam))
            assert slack_report.feasible
            assert slack_report.dual_objective == report.optimum
            # the standard-form slack is the certificate slack rescaled
            scale = objective_scale(lam)
            for (label, s), lp_slack in zip(report.slacks, slack_report.slacks):
                assert lp_slack == scale * s


def test_ratio_gap_coefficients_known_values():
    assert ratio_gap_coefficients(Graph(2, [(0, 1)]), 2) == [0, 0, 2, 0]
    assert all(s == 0 for s in ratio_gap_coefficients(Graph(3), 3))
    assert any(s > 0 for s in ratio_gap_coefficients(complete(3), 3))


def test_ratio_gap_coefficients_match_polynomial_difference():
    # s_k is the coefficient of x^k in (x T')(P - 1) - (x P')(T - 1),
    # where T = (1+x)^d is the edgeless-class independence polynomial
    from occufrac.exactmath import binomial_poly

    for d in (2, 3, 4, 5):
        t_poly = binomial_poly(d)
        for cfg in enumerate_configs(d):
            p_poly = cfg.poly
            diff = (
                t_poly.derivative().shift(1) * (p_poly - IntPolynomial.one())
                - p_poly.derivative().shift(1) * (t_poly - IntPolynomial.one())
            )
            expected = [diff.coefficient(k) for k in range(1, 2 * d + 1)]
            assert ratio_gap_coefficients(cfg.graph, d) == expected
            assert diff.coefficient(0) == 0


def test_ratio_gap_nonnegative_with_positive_entry():
    for d in (2, 3, 4, 5):
        edgeless_poly = enumerate_configs(d)[edgeless_config_index(d)].poly
        for cfg in enumerate_configs(d):
            ss = ratio_gap_coefficients(cfg.graph, d)  # raises on violation
            assert all(s >= 0 for s in ss)
            if cfg.graph.n == 0 or cfg.poly == edgeless_poly:
                assert all(s == 0 for s in ss)
            else:
                assert any(s > 0 for s in ss)


def test_ratio_gap_polynomial_clears_the_certificate_slack():
    # x N = (1+x) R, with R the ratio-gap polynomial and N the cleared slack
    # numerator d P T - d T - (1+x) P' (T - 1) of the class, T = (1+x)^d
    from occufrac.exactmath import binomial_poly

    x, one = IntPolynomial((0, 1)), IntPolynomial.one()
    for d in (2, 3, 4, 5):
        t_poly = binomial_poly(d)
        for cfg in enumerate_configs(d):
            p_poly = cfg.poly
            numerator = (
                d * p_poly * t_poly - d * t_poly
                - (one + x) * p_poly.derivative() * (t_poly - one)
            )
            ratio_gap = IntPolynomial([0] + ratio_gap_coefficients(cfg.graph, d))
            assert x * numerator == (one + x) * ratio_gap


def test_mean_size_dominance_strict_on_grid():
    # lam P'/(P - 1) < lam T'/(T - 1) off the edgeless class, with equality
    # on it: the sign of R(lam) from ratio_gap_coefficients
    for d in (2, 3, 4, 5):
        edgeless = edgeless_config_index(d)
        t_poly = enumerate_configs(d)[edgeless].poly
        for cfg in enumerate_configs(d)[1:]:
            p_poly = cfg.poly
            ratio_gap = IntPolynomial([0] + ratio_gap_coefficients(cfg.graph, d))
            for lam in GRID:
                lhs = lam * p_poly.derivative()(lam) / (p_poly(lam) - 1)
                rhs = lam * t_poly.derivative()(lam) / (t_poly(lam) - 1)
                if cfg.index == edgeless:
                    assert lhs == rhs and ratio_gap.is_zero
                else:
                    assert lhs < rhs and ratio_gap(lam) > 0


def test_triangle_free_feasibility_of_real_graphs():
    for g, d in ((cycle(6), 2), (petersen(), 3)):
        lam = ONE
        law = uncovered_count_distribution(g, lam)
        assert sum(law, Fraction(0)) == 1
        mean = sum((t * p for t, p in enumerate(law)), Fraction(0))
        inv = sum((p / (1 + lam) ** t for t, p in enumerate(law)), Fraction(0))
        assert mean == d * inv
        assert lam / (d * (1 + lam)) * mean == occupancy(g, lam)
        # the relaxation over laws of Y has optimum kdd_occupancy(d, lam)
        assert lam / (d * (1 + lam)) * mean <= kdd_occupancy(d, lam)


def test_uncovered_count_distribution_is_capped():
    with pytest.raises(CapabilityError, match="^oracle limit is 24 vertices, got 25$"):
        uncovered_count_distribution(cycle(25), ONE)


def test_free_neighborhood_distribution_known_values():
    probs = free_neighborhood_distribution(complete_bipartite(2), ONE)
    support = {i: p for i, p in enumerate(probs) if p}
    assert support == {
        0: Fraction(3, 7),
        edgeless_config_index(2): Fraction(4, 7),
    }

    probs = free_neighborhood_distribution(cycle(6), ONE)
    assert objective_value(probs, 2, ONE) == Fraction(5, 18)

    probs = free_neighborhood_distribution(petersen(), ONE)
    value = objective_value(probs, 3, ONE)
    assert value == occupancy(petersen(), ONE)
    assert value < Fraction(4, 15)


def test_free_neighborhood_distribution_feasible_on_corpus():
    from occufrac.corpus import is_kdd_union, regular_corpus

    for name, g in regular_corpus(10):
        from occufrac.graphs import regular_degree

        d = regular_degree(g)
        for lam in (Fraction(1, 2), ONE):
            probs = free_neighborhood_distribution(g, lam)
            value = objective_value(probs, d, lam)
            bound = kdd_occupancy(d, lam)
            if is_kdd_union(g, d):
                assert value == bound
            else:
                assert value < bound


@pytest.mark.parametrize("g", [complete_bipartite(3), cycle(8)], ids=["K33", "C8"])
def test_representative_free_neighborhoods_need_no_canonical_form(monkeypatch, g):
    # every free neighborhood of these graphs is edgeless, a class
    # representative as a labeled graph, so its class is found by lookup;
    # the one canonical search is the orbit search on g itself, reached
    # through the graphs module attribute that the patch replaces
    lam = Fraction(7, 5)
    clear_memo_tables()  # the orbits of a graph searched before are kept
    expected = reference_free_neighborhood_law(g, lam)
    occupancy(g, lam)  # the occupancy check's polynomial, memoized beforehand
    calls = []
    original = graphs._canonical_form

    def counted(h):
        calls.append(h)
        return original(h)

    monkeypatch.setattr(graphs, "_canonical_form", counted)
    assert tuple(free_neighborhood_distribution(g, lam)) == expected
    assert calls == [g]


def test_free_neighborhood_capability_limits():
    with pytest.raises(CapabilityError, match="^oracle limit is 14 vertices, got 16$"):
        free_neighborhood_distribution(cycle(16), ONE)
    with pytest.raises(DomainError):
        free_neighborhood_distribution(Graph(3, [(0, 1)]), ONE)


def test_dual_certificate_at_enumeration_cap():
    # beyond the acceptance grid: every class on <= 7 vertices stays
    # strictly slack off the tight pair
    report = dual_certificate(6, ONE)
    assert len(report.slacks) == 209
    report = dual_certificate(7, Fraction(2))
    assert len(report.slacks) == 1253
    assert len(report.tight) == 2


def test_concurrent_certificates_are_consistent():
    # per-job independence: parallel runs reproduce the serial results
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(d, lam) for d in (2, 3, 4) for lam in (Fraction(1, 2), ONE)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda dl: dual_certificate(*dl).optimum, jobs))
    serial = [dual_certificate(d, lam).optimum for d, lam in jobs]
    assert parallel == serial


def test_solver_dual_is_the_certificate_dual():
    # the solver's dual y = c_B B^-1 is the hand-built price pair
    for d in (2, 3, 4, 5):
        for lam in (Fraction(1, 2), ONE, Fraction(3)):
            assert solve(build_primal(d, lam)).dual == solver_dual_for_certificate(d, lam)


def test_objective_value_rejects_infeasible_points():
    probs = [Fraction(0)] * len(enumerate_configs(2))
    probs[0] = ONE  # all mass on the empty class breaks the balance row
    with pytest.raises(CertificateError, match="row 1"):
        objective_value(probs, 2, ONE)


def test_corrupted_crowding_is_detected(monkeypatch):
    # mutation contract, twin of the matching one: a wrong crowding on a
    # class that carries mass must surface as a failing law check
    import occufrac.hardcore as mod

    target = edgeless_config_index(2)  # both neighbors free, not adjacent
    assert free_neighborhood_distribution(cycle(6), ONE)[target] > 0
    edgeless = enumerate_configs(2)[target].poly
    original = mod._column

    def corrupted(poly, d, p, q):
        den, objective, (mass, balance) = original(poly, d, p, q)
        if poly == edgeless:  # crowding one more: the balance entry one less
            balance -= den
        return den, objective, (mass, balance)

    monkeypatch.setattr(mod, "_column", corrupted)
    build_primal.cache_clear()  # the warm-up call cached the clean program
    with pytest.raises(CertificateError, match="row 1"):
        free_neighborhood_distribution(cycle(6), ONE)
    build_primal.cache_clear()


def test_perturbed_balance_price_fails_certificate(monkeypatch):
    # mutation contract: the certificate prices build_primal with the
    # closed-form dual, so a wrong balance price must surface as a slack
    import occufrac.hardcore as mod

    original = mod.solver_dual_for_certificate
    # the empty class has vacancy - crowding = 1: raising the balance price
    # lifts its slack off 0, lowering it makes the slack negative
    cases = ((Fraction(1, 100), "expected tight"), (Fraction(-1, 100), "negative dual slack"))
    for delta, message in cases:

        def perturbed(d, lam, delta=delta):
            norm, balance = original(d, lam)
            return norm, balance + delta

        monkeypatch.setattr(mod, "solver_dual_for_certificate", perturbed)
        for d in (2, 3, 5):
            with pytest.raises(CertificateError, match=message):
                dual_certificate(d, ONE)


def test_dual_objective_is_checked_against_kdd_occupancy(monkeypatch):
    import occufrac.hardcore as mod

    original = mod.kdd_occupancy
    monkeypatch.setattr(mod, "kdd_occupancy", lambda d, lam: original(d, lam) + 1)
    with pytest.raises(CertificateError, match="strong duality"):
        dual_certificate(3, ONE)


def test_unexpected_tight_column_is_reported(monkeypatch):
    # raising one strictly slack column's objective to y . A_j makes it
    # tight while every slack stays >= 0 and y . b is unchanged, so only
    # the unexpected-tight check can fire
    import occufrac.hardcore as mod

    d = 4
    program = build_primal(d, ONE)
    slacks = dual_slacks(program, solver_dual_for_certificate(d, ONE)).slacks
    j = next(j for j, s in enumerate(slacks) if s > 0)
    objective = list(program.objective)
    objective[j] += slacks[j]
    tightened = make_lp(objective, program.rows, program.rhs)
    monkeypatch.setattr(mod, "build_primal", lambda d, lam: tightened)
    label = enumerate_configs(d)[j].label
    with pytest.raises(CertificateError, match=rf"unexpected tight configurations \['{label}'\]"):
        dual_certificate(d, ONE)


def test_equal_columns_fail_at_their_first_class(monkeypatch):
    # one slack is checked per group of equal columns: a group pushed
    # negative names its first class, and a group made tight names every
    # class, as a check of each column does
    import occufrac.hardcore as mod

    d = 5
    program = build_primal(d, ONE)
    slacks = dual_slacks(program, solver_dual_for_certificate(d, ONE)).slacks
    group = max(program.column_groups, key=len)
    labels = [enumerate_configs(d)[j].label for j in group]
    assert len(group) > 1 and slacks[group[0]] > 0
    cases = (
        (1, f"negative dual slack at configuration {labels[0]}"),
        (0, f"unexpected tight configurations {labels}"),
    )
    for lift, message in cases:
        objective = list(program.objective)
        for j in group:
            objective[j] += slacks[j] + lift
        changed = make_lp(objective, program.rows, program.rhs)
        assert group in changed.column_groups
        monkeypatch.setattr(mod, "build_primal", lambda d, lam, changed=changed: changed)
        with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
            dual_certificate(d, ONE)
