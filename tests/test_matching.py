from fractions import Fraction

import pytest

from _oracles import (
    diagonal_residual,
    empirical_edge_marginals,
    marginal_from_edge,
    marginal_from_neighbor,
    reduced_slack,
)
from occufrac.errors import CapabilityError, CertificateError, DomainError, StructureError
from occufrac.exactmath import IntPolynomial
from occufrac.graphs import complete, complete_bipartite, cycle, prism, regular_degree
from occufrac.lp import dual_slacks, solve
from occufrac.matching import (
    MatchingDuals,
    _local_numerators,
    build_primal,
    check_dual_constraints,
    check_monotone_profile,
    check_slack_profile,
    conditional_partition,
    dual_row_prices,
    edge_neighborhood_distribution,
    enumerate_triples,
    laguerre_identity_holds,
    laguerre_identity_residual,
    local_edge_occupancy,
    local_matching_poly,
    objective_value,
    slack_profile,
    slack_profile_explicit,
    standard_dual_vector,
)
from occufrac.polynomials import edge_occupancy, kdd_edge_occupancy, kdd_matching_poly

ONE = Fraction(1)
GRID = (Fraction(1, 4), Fraction(1, 2), ONE, Fraction(2), Fraction(4))


def test_enumerate_triples_known_values():
    d2 = enumerate_triples(2)
    assert len(d2) == 5
    assert (0, 0, 1) in d2 and (1, 0, 1) not in d2
    assert len(enumerate_triples(3)) == 14
    assert d2 == sorted(d2)
    for i, j, k in enumerate_triples(5):
        assert i + k <= 4 and j + k <= 4


def test_closed_form_numerators_match_the_local_polynomial():
    # the columns read q^2 M(p/q) and q^2 lam M'(p/q) from closed forms
    for d in range(2, 13):
        for i, j, k in enumerate_triples(d):
            m = local_matching_poly(i, j, k)
            for lam in GRID:
                p, q = lam.numerator, lam.denominator
                expected = (m.homogeneous(p, q, 2), p * m.derivative().homogeneous(p, q, 1))
                assert _local_numerators(i, j, k, p, q) == expected, (i, j, k, lam)


def test_local_matching_poly_known_values():
    assert local_matching_poly(0, 0, 0).coeffs == (1,)
    assert local_matching_poly(1, 1, 0).coeffs == (1, 2, 1)
    assert local_matching_poly(0, 0, 1).coeffs == (1, 2)


def test_local_edge_occupancy_known_values():
    assert local_edge_occupancy(0, 0, 0, ONE, 2) == 0
    assert local_edge_occupancy(1, 1, 0, ONE, 2) == Fraction(2, 5)
    assert local_edge_occupancy(0, 0, 1, ONE, 2) == Fraction(1, 4)


def test_marginals_are_distributions():
    for d in range(2, 7):
        for lam in (Fraction(1, 4), ONE, Fraction(4)):
            for i, j, k in enumerate_triples(d):
                ge = marginal_from_edge(i, j, k, lam, d)
                gf = marginal_from_neighbor(i, j, k, lam, d)
                assert sum(ge, Fraction(0)) == 1
                assert sum(gf, Fraction(0)) == 1
                assert all(x >= 0 for x in ge + gf)


def test_marginals_against_enumeration_oracle():
    # triangle-free and triangle-rich regular graphs alike
    cases = [
        (complete_bipartite(2), ONE),
        (complete_bipartite(2), Fraction(3, 2)),
        (complete(3), Fraction(2)),
        (cycle(6), Fraction(1, 2)),
        (complete_bipartite(3), ONE),
        (complete(4), ONE),
        (prism(3), ONE),
    ]
    for g, lam in cases:
        d = regular_degree(g)
        for triple, (ge, gf) in empirical_edge_marginals(g, lam).items():
            i, j, k = triple
            assert marginal_from_edge(i, j, k, lam, d) == ge
            assert marginal_from_neighbor(i, j, k, lam, d) == gf


def test_primal_optimum_on_grid():
    for d in (2, 3, 4, 5):
        kdd = complete_bipartite(d)
        for lam in GRID:
            sol = solve(build_primal(d, lam))
            assert sol.value == kdd_edge_occupancy(d, lam)
            assert sol.value == edge_occupancy(kdd, lam)


def test_primal_optimum_large_d():
    # beyond the grid above: one fugacity each at d = 10, 11, 12
    lam = Fraction(7, 5)
    for d in (10, 11, 12):
        triples = enumerate_triples(d)
        sol = solve(build_primal(d, lam))
        assert sol.value == kdd_edge_occupancy(d, lam)
        for idx in sol.support:
            i, j, k = triples[idx]
            assert i == j and k == 0


def test_primal_support_on_diagonal():
    for d in (2, 3, 4):
        triples = enumerate_triples(d)
        sol = solve(build_primal(d, ONE))
        for idx in sol.support:
            i, j, k = triples[idx]
            assert i == j and k == 0


def test_dual_row_prices_known_value_d2():
    duals = dual_row_prices(2, ONE)
    assert duals.prices == (Fraction(2, 7), Fraction(0))
    assert duals.optimum == Fraction(2, 7)


def test_dual_prices_are_lp_dual():
    for d in (2, 3, 4, 5):
        for lam in GRID:
            duals = dual_row_prices(d, lam)
            lp = build_primal(d, lam)
            report = dual_slacks(lp, standard_dual_vector(duals))
            assert report.feasible
            assert report.dual_objective == solve(lp).value == duals.optimum


def test_float_fugacity_is_exact():
    # 0.5 and Fraction(1, 2) are one cache key, so either must build the exact program
    exact = build_primal(3, Fraction(1, 2))
    build_primal.cache_clear()
    assert build_primal(3, 0.5) == exact
    assert build_primal(3, Fraction(1, 2)) is build_primal(3, 0.5)


def test_dual_prices_reject_zero_fugacity():
    with pytest.raises(DomainError):
        dual_row_prices(3, Fraction(0))


def _kdd(d, lam):
    """M_0(lam), ..., M_d(lam) for the matching polynomials M_s of K_{s,s}."""
    return [kdd_matching_poly(s)(lam) for s in range(d + 1)]


def test_slack_profile_two_forms_known_values():
    duals = dual_row_prices(2, ONE)
    assert slack_profile(1, duals) == Fraction(1, 7)
    assert slack_profile_explicit(1, ONE, _kdd(2, ONE)) == Fraction(1, 7)
    duals3 = dual_row_prices(3, ONE)
    assert slack_profile(2, duals3) == Fraction(4, 17)
    assert slack_profile(0, duals3) == 0


def test_slack_profile_forms_agree_widely():
    for d in range(2, 13):
        for lam in GRID:
            checked = check_slack_profile(d, lam)
            duals, profile, kdd = checked["duals"], checked["profile"], _kdd(d, lam)
            assert duals == dual_row_prices(d, lam)
            assert profile == [slack_profile(t, duals) for t in range(d)]
            assert profile[1:] == [slack_profile_explicit(t, lam, kdd) for t in range(1, d)]


def test_slack_profile_end_value():
    for d in range(2, 13):
        for lam in GRID:
            kdd = _kdd(d, lam)
            closed = (d - 1) ** 2 * lam**2 * kdd[d - 2] / kdd[d]
            assert check_slack_profile(d, lam)["profile"][d - 1] == closed


def test_profile_recurrence():
    # the pass raises on a failed recurrence; it is also written out here
    # against the profile it returns, with strict increase and the crude bound
    for d in range(2, 13):
        for lam in GRID:
            checked = check_slack_profile(d, lam)
            profile, kdd = checked["profile"], _kdd(d, lam)
            alpha = checked["duals"].optimum
            for t in range(1, d - 1):
                assert (d - 1 - t) * profile[t + 1] == (t + 1) * (
                    t * lam * profile[t] + (d - 1) * lam - (d - 1) * alpha * (1 + (d + t) * lam)
                )
            assert len(checked["increments"]) == d - 2
            assert all(b > a for a, b in zip(profile[1:], profile[2:]))
            assert checked["crude"] == [(kdd[t], t * lam * kdd[t - 1]) for t in range(1, d + 1)]


def test_reduced_slack_known_values():
    duals = dual_row_prices(2, ONE)
    assert reduced_slack(0, 1, 0, duals) == Fraction(1, 7)
    assert reduced_slack(1, 1, 0, duals) == 0
    assert reduced_slack(0, 0, 1, duals) > 0
    duals3 = dual_row_prices(3, ONE)
    assert reduced_slack(0, 0, 1, duals3) > 0


def test_raw_slack_is_lam_times_reduced():
    # build_primal's dual slack, scaled by 2(d-1)(lam+M), is lam times the
    # simplified slack L(i,j,k)
    for d in (2, 3, 4, 5):
        for lam in (Fraction(1, 2), ONE, Fraction(3)):
            duals = dual_row_prices(d, lam)
            report = dual_slacks(build_primal(d, lam), standard_dual_vector(duals))
            for (i, j, k), slack in zip(enumerate_triples(d), report.slacks):
                scale = 2 * (d - 1) * conditional_partition(i, j, k, lam)
                assert scale * slack == lam * reduced_slack(i, j, k, duals)


def test_raw_slack_matches_standard_dual_slack():
    # the raw form lam * L(i,j,k) is the standard-form dual slack scaled by
    # 2(d-1)(lam+M), so the standard dual is feasible and tight on exactly
    # the columns the certificate reports tight
    for d in (2, 3, 4):
        lam = ONE
        duals = dual_row_prices(d, lam)
        report = dual_slacks(build_primal(d, lam), standard_dual_vector(duals))
        triples = enumerate_triples(d)
        for idx, (i, j, k) in enumerate(triples):
            scale = 2 * (d - 1) * conditional_partition(i, j, k, lam)
            assert lam * reduced_slack(i, j, k, duals) == scale * report.slacks[idx]
        assert report.feasible
        tight = {"({},{},{})".format(*triples[idx]) for idx in report.tight}
        assert tight == set(check_dual_constraints(d, lam).tight)


def test_check_dual_constraints_full_grid():
    for d in (2, 3, 4, 5):
        for lam in GRID:
            report = check_dual_constraints(d, lam)
            assert report.optimum == kdd_edge_occupancy(d, lam)
            diagonal = {(i, i, 0) for i in range(d)}
            tight = {eval(label) for label in report.tight}
            assert tight == diagonal


def test_telescoping_identity():
    for d in (3, 4, 5):
        lam = Fraction(2)
        duals = dual_row_prices(d, lam)
        profile = [slack_profile(t, duals) for t in range(d)]
        for i, j, k in enumerate_triples(d):
            if i >= 1 and j >= 1:
                assert reduced_slack(i - 1, j - 1, k + 1, duals) - reduced_slack(
                    i, j, k, duals
                ) == (
                    profile[i + k]
                    - profile[i + k - 1]
                    + profile[j + k]
                    - profile[j + k - 1]
                )


def test_monotone_profile():
    assert check_monotone_profile(3, ONE)
    with pytest.raises(DomainError):
        check_monotone_profile(2, ONE)
    report = check_monotone_profile(10, Fraction(1, 2))
    profile = report["profile"]
    assert all(b > a for a, b in zip(profile[1:], profile[2:]))
    # crude star bound spec example: M_2(1) = 7 > 2 * M_1(1) = 4
    lhs, rhs = check_monotone_profile(3, ONE)["crude"][1]
    assert (lhs, rhs) == (7, 4)


def _recurrence_run(d, lam, alpha, first):
    """F(0..d-1) from F(1) = first by the profile recurrence with alpha."""
    profile = [Fraction(0), first]
    for t in range(1, d - 1):
        tail = (d - 1) * lam - (d - 1) * alpha * (1 + (d + t) * lam)
        profile.append((t + 1) * (t * lam * profile[t] + tail) / (d - 1 - t))
    return profile


def _duals_with_profile(d, lam, alpha, profile):
    """Row prices with optimum alpha whose slack profile is `profile`:
    price_{d-1} = 0 and price_{t-1} = price_t + lam (1 - d alpha) - F(t)/t."""
    prices = [Fraction(0)] * d
    for t in range(d - 1, 0, -1):
        prices[t - 1] = prices[t] + lam * (1 - d * alpha) - profile[t] / t
    return MatchingDuals(d=d, lam=lam, prices=tuple(prices), optimum=alpha)


def _fail_pass(monkeypatch, d, **fakes):
    """Run check_slack_profile(d, 1) with the named module functions replaced
    by fakes; the args of the CertificateError it raises."""
    import occufrac.matching as mod

    for name, fake in fakes.items():
        monkeypatch.setattr(mod, name, fake)
    with pytest.raises(CertificateError) as failed:
        check_slack_profile(d, ONE)
    return failed.value.args


def test_slack_profile_pass_names_a_wrong_closed_form(monkeypatch):
    def explicit(t, lam, kdd):
        return slack_profile_explicit(t, lam, kdd) + (t == 2)

    args = _fail_pass(monkeypatch, 4, slack_profile_explicit=explicit)
    assert args == ("slack profile forms disagree at t=2", 2)


def test_slack_profile_pass_names_a_wrong_end_value(monkeypatch):
    # a profile that obeys the recurrence and increases, from a wrong F(1);
    # the closed form is made to agree with it, so only the end value fails
    d = 4
    true = check_slack_profile(d, ONE)
    alpha = true["duals"].optimum
    fake = _recurrence_run(d, ONE, alpha, true["profile"][1] + Fraction(1, 1000))
    assert all(b > a for a, b in zip(fake[1:], fake[2:]))
    duals = _duals_with_profile(d, ONE, alpha, fake)
    args = _fail_pass(
        monkeypatch,
        d,
        dual_row_prices=lambda d, lam: duals,
        slack_profile_explicit=lambda t, lam, kdd: fake[t],
    )
    assert args == ("slack profile end value mismatch at t=3", 3)


def test_slack_profile_pass_names_a_broken_recurrence(monkeypatch):
    # the true profile from prices tilted to a wrong optimum
    d = 4
    true = check_slack_profile(d, ONE)
    duals = _duals_with_profile(d, ONE, true["duals"].optimum + 1, true["profile"])
    args = _fail_pass(monkeypatch, d, dual_row_prices=lambda d, lam: duals)
    assert args == ("profile recurrence fails at t=1", 1)


def test_slack_profile_pass_names_a_non_increasing_step(monkeypatch):
    # a larger optimum: the profile with the true end value that obeys the
    # recurrence with it decreases; the closed form is made to agree
    d = 4
    true = check_slack_profile(d, ONE)
    alpha = true["duals"].optimum + Fraction(1, 10)
    ends = [_recurrence_run(d, ONE, alpha, x)[d - 1] for x in (0, 1)]
    first = (true["profile"][d - 1] - ends[0]) / (ends[1] - ends[0])
    fake = _recurrence_run(d, ONE, alpha, first)
    assert fake[d - 1] == true["profile"][d - 1]
    duals = _duals_with_profile(d, ONE, alpha, fake)
    args = _fail_pass(
        monkeypatch,
        d,
        dual_row_prices=lambda d, lam: duals,
        slack_profile_explicit=lambda t, lam, kdd: fake[t],
    )
    assert args == ("profile not increasing at t=1", 1)


def test_slack_profile_pass_names_a_failed_crude_bound(monkeypatch):
    # only the crude bound reads M_{d-1}; M_d <= d lam M_{d-1} breaks it at
    # t = d, here with M_{d-1}(1) the least integer at least M_d(1) / d
    d = 4
    low = IntPolynomial((-(-kdd_matching_poly(d)(ONE).numerator // d),))

    def kdd_poly(s):
        return low if s == d - 1 else kdd_matching_poly(s)

    args = _fail_pass(monkeypatch, d, kdd_matching_poly=kdd_poly)
    assert args == ("crude star bound fails at t=4", 4)


def test_slack_profile_pass_names_a_crude_bound_met_with_equality(monkeypatch):
    # the bound is strict: at lam = 1/2 and d = 4, d divides K_d = q^d M_d,
    # so a fake M_{d-1} with q^(d-1) M_{d-1} = K_d / (d p) meets it exactly
    import occufrac.matching as mod

    d, lam = 4, Fraction(1, 2)
    top = kdd_matching_poly(d).homogeneous(1, 2, d)
    assert top % d == 0
    low = IntPolynomial((0,) * (d - 1) + (top // d,))  # p = 1: the value is the coefficient

    def kdd_poly(s):
        return low if s == d - 1 else kdd_matching_poly(s)

    monkeypatch.setattr(mod, "kdd_matching_poly", kdd_poly)
    with pytest.raises(CertificateError) as failed:
        check_slack_profile(d, lam)
    assert failed.value.args == ("crude star bound fails at t=4", 4)


def test_laguerre_identity():
    assert laguerre_identity_residual(2).is_zero
    for d in range(2, 51):
        assert laguerre_identity_holds(d)


def test_corrupted_prices_fail_certification(monkeypatch):
    # the simplified diagonal slack vanishes identically, so corruption has
    # to show up in the equality-constraint residuals and in the certificate
    import occufrac.matching as mod

    duals = dual_row_prices(3, ONE)
    bad = duals.prices[:1] + (duals.prices[1] + 1,) + duals.prices[2:]
    broken = MatchingDuals(d=3, lam=ONE, prices=bad, optimum=duals.optimum)
    assert all(reduced_slack(i, i, 0, broken) == 0 for i in range(3))
    assert any(diagonal_residual(broken, i) != 0 for i in range(3))
    monkeypatch.setattr(mod, "dual_row_prices", lambda d, lam: broken)
    with pytest.raises(CertificateError):
        check_dual_constraints(3, ONE)


def test_shifted_prices_fail_only_against_the_program(monkeypatch):
    # adding one constant to every price, the pinned price_{d-1} included,
    # leaves the diagonal residuals, the slack profile and every simplified
    # slack unchanged; only the program, which has no row at t = d-1, sees it
    import occufrac.matching as mod

    for d in (3, 5):
        duals = dual_row_prices(d, ONE)
        shifted = MatchingDuals(
            d=d, lam=ONE, prices=tuple(p + 1 for p in duals.prices), optimum=duals.optimum
        )
        assert all(diagonal_residual(shifted, i) == 0 for i in range(d))
        for t in range(d):
            assert slack_profile(t, shifted) == slack_profile(t, duals)
        for i, j, k in enumerate_triples(d):
            assert reduced_slack(i, j, k, shifted) == reduced_slack(i, j, k, duals)
        monkeypatch.setattr(mod, "dual_row_prices", lambda d, lam, s=shifted: s)
        with pytest.raises(CertificateError, match="^raw and simplified slacks inconsistent"):
            check_dual_constraints(d, ONE)


def test_a_twin_with_its_own_raw_slack_is_checked_on_its_own(monkeypatch):
    # (2, 1, 0) reuses the checks of its twin (1, 2, 0) only when their raw
    # slacks agree; with its raw slack moved alone, it is the triple named
    import occufrac.matching as mod

    original = mod.dual_slacks
    moved = enumerate_triples(3).index((2, 1, 0))

    def dual_slacks(program, dual):
        report = original(program, dual)
        slacks = list(report.slacks)
        slacks[moved] += 1
        return report._replace(slacks=tuple(slacks))

    monkeypatch.setattr(mod, "dual_slacks", dual_slacks)
    with pytest.raises(
        CertificateError, match=r"^raw and simplified slacks inconsistent at \(2,1,0\)$"
    ):
        check_dual_constraints(3, ONE)


def test_wrong_mass_price_fails_strong_duality(monkeypatch):
    import occufrac.matching as mod

    original = mod.standard_dual_vector
    monkeypatch.setattr(mod, "standard_dual_vector", lambda duals: (1,) + original(duals)[1:])
    with pytest.raises(CertificateError, match="strong duality"):
        check_dual_constraints(3, ONE)


def test_integer_certificate_slacks_equal_reduced_slacks():
    for d in range(2, 13):
        for lam in (Fraction(1, 4), ONE, Fraction(7, 5), Fraction(4)):
            duals = dual_row_prices(d, lam)
            want = tuple(
                ("({},{},{})".format(*triple), reduced_slack(*triple, duals))
                for triple in enumerate_triples(d)
            )
            assert check_dual_constraints(d, lam).slacks == want


def test_shifted_profile_value_fails_telescoping(monkeypatch):
    import occufrac.matching as mod

    original = mod.check_slack_profile

    def shifted(d, lam):
        checked = dict(original(d, lam))
        profile = list(checked["profile"])
        profile[2] += Fraction(1, 3)
        checked["profile"] = profile
        return checked

    monkeypatch.setattr(mod, "check_slack_profile", shifted)
    with pytest.raises(CertificateError, match="^telescoping identity fails"):
        check_dual_constraints(4, ONE)


def test_edge_neighborhood_distribution_known_values():
    law = edge_neighborhood_distribution(complete_bipartite(2), ONE)
    assert law == {(0, 0, 0): Fraction(2, 7), (1, 1, 0): Fraction(5, 7)}

    law = edge_neighborhood_distribution(complete(3), ONE)
    assert law == {(0, 0, 1): ONE}

    law = edge_neighborhood_distribution(cycle(6), ONE)
    objective = sum(
        (q * local_edge_occupancy(i, j, k, ONE, 2) for (i, j, k), q in law.items()),
        Fraction(0),
    )
    assert objective == Fraction(5, 18)


def test_edge_neighborhood_law_is_lp_vertex_for_kdd():
    for d in (2, 3, 4):
        law = edge_neighborhood_distribution(complete_bipartite(d), ONE)
        sol = solve(build_primal(d, ONE))
        triples = enumerate_triples(d)
        lp_law = {triples[i]: x for i, x in enumerate(sol.primal) if x}
        assert law == lp_law


def test_edge_neighborhood_objective_below_optimum():
    for g, d in ((cycle(6), 2), (prism(3), 3), (complete(4), 3)):
        for lam in (Fraction(1, 2), ONE):
            law = edge_neighborhood_distribution(g, lam)
            objective = sum(
                (q * local_edge_occupancy(i, j, k, lam, d) for (i, j, k), q in law.items()),
                Fraction(0),
            )
            assert objective < kdd_edge_occupancy(d, lam)


def test_edge_neighborhood_capability():
    with pytest.raises(CapabilityError, match="^oracle limit is 20 edges, got 25$"):
        edge_neighborhood_distribution(complete_bipartite(5), ONE)
    with pytest.raises(DomainError):
        edge_neighborhood_distribution(cycle(6), Fraction(0))


def test_corrupted_neighbor_marginal_is_detected(monkeypatch):
    # mutation contract: a wrong neighbor-marginal entry must surface as a
    # named failing constraint, not slip through silently
    import occufrac.matching as mod

    original = mod._marginal_gap

    def corrupted(i, j, k, d, p, q):
        gap = original(i, j, k, d, p, q)
        if (i, j, k) == (1, 1, 0):
            gap[0] -= p * q  # a wrong neighbor weight at t = 0
        return gap

    monkeypatch.setattr(mod, "_marginal_gap", corrupted)
    build_primal.cache_clear()
    with pytest.raises(CertificateError, match="t="):
        edge_neighborhood_distribution(complete_bipartite(2), ONE)
    # and the LP built from the corrupted column misses the true optimum
    sol = solve(build_primal(2, ONE))
    assert sol.value != kdd_edge_occupancy(2, ONE)
    build_primal.cache_clear()


def test_dual_certificates_beyond_acceptance_grid():
    for d in range(6, 11):
        for lam in (Fraction(1, 2), Fraction(3)):
            report = check_dual_constraints(d, lam)
            assert report.optimum == kdd_edge_occupancy(d, lam)


def test_certificate_degree_cap_comes_before_any_work(monkeypatch):
    import occufrac.matching as mod

    class Worked(Exception):
        pass

    def work(*args):
        raise Worked

    monkeypatch.setattr(mod, "check_slack_profile", work)
    monkeypatch.setattr(mod, "build_primal", work)
    with pytest.raises(CapabilityError, match="^matching certificate supports d <= 30$"):
        check_dual_constraints(31, ONE)
    with pytest.raises(Worked):
        check_dual_constraints(30, ONE)


def test_program_degree_cap_comes_before_any_work(monkeypatch):
    import occufrac.matching as mod

    class Worked(Exception):
        pass

    def work(*args):
        raise Worked

    monkeypatch.setattr(mod, "enumerate_triples", work)
    build_primal.cache_clear()
    for d in (31, 10**9):
        with pytest.raises(CapabilityError, match="^matching certificate supports d <= 30$"):
            build_primal(d, ONE)
    with pytest.raises(Worked):
        build_primal(30, ONE)
    build_primal.cache_clear()


@pytest.mark.parametrize(
    "name, work",
    [
        ("dual_row_prices", "kdd_edge_occupancy"),
        ("check_slack_profile", "dual_row_prices"),
        ("check_monotone_profile", "check_slack_profile"),
    ],
)
def test_profile_degree_cap_comes_before_any_work(monkeypatch, name, work):
    import occufrac.matching as mod

    class Worked(Exception):
        pass

    def worked(*args):
        raise Worked

    monkeypatch.setattr(mod, work, worked)
    for d in (31, 10**9):
        with pytest.raises(CapabilityError, match="^matching certificate supports d <= 30$"):
            getattr(mod, name)(d, ONE)
    with pytest.raises(Worked):
        getattr(mod, name)(30, ONE)


def test_edge_neighborhood_law_of_union_matches_single_block():
    # a disjoint union of extremal blocks induces the extremal law itself
    from occufrac.graphs import kdd_union

    single = edge_neighborhood_distribution(complete_bipartite(2), ONE)
    union = edge_neighborhood_distribution(kdd_union(2, 8), ONE)
    assert union == single
    objective = sum(
        (q * local_edge_occupancy(i, j, k, ONE, 2) for (i, j, k), q in union.items()),
        Fraction(0),
    )
    assert objective == kdd_edge_occupancy(2, ONE)


def test_solver_dual_is_the_row_price_dual():
    # the solver's dual y = c_B B^-1 is the recurrence's prices
    for d in range(2, 9):
        for lam in (Fraction(1, 2), ONE, Fraction(3)):
            expected = standard_dual_vector(dual_row_prices(d, lam))
            assert solve(build_primal(d, lam)).dual == expected


def test_objective_value_of_laws():
    for d in (2, 3, 4):
        law = edge_neighborhood_distribution(complete_bipartite(d), ONE)
        assert objective_value(law, d, ONE) == kdd_edge_occupancy(d, ONE)
    with pytest.raises(CertificateError, match="not admissible"):
        objective_value({(1, 0, 1): ONE}, 2, ONE)
    with pytest.raises(CertificateError, match="row 0"):
        objective_value({(1, 1, 0): Fraction(2)}, 2, ONE)


def test_objective_value_names_an_inexact_entry():
    # the law's value at (1, 1, 0), column 4 of d = 2, is a float
    law = {(0, 0, 0): Fraction(1, 2), (1, 1, 0): 0.5}
    with pytest.raises(StructureError, match=r"^point entry 4 is 0\.5, not an int or a Fraction$"):
        objective_value(law, 2, ONE)
