import random
import re
from fractions import Fraction

import pytest

import occufrac.bounds as bounds_module
from _oracles import bisection_lower_bound_status, disjoint_union
from occufrac.bounds import (
    binomial_base_inequalities,
    counts,
    fkg_check,
    given_size_bound,
    lampick_lambda,
    log_concavity_check,
    mode_probability_bound_check,
    mode_probability_exceeds_half_inv_sqrt,
    ratio_conjecture_report,
    tree_occupancy,
    uniqueness_threshold,
    variance_check,
    verify_lower_bound,
)
from occufrac.corpus import FUGACITY_GRID, transitive_bipartite_corpus
from occufrac.errors import CapabilityError, CertificateError, DomainError
from occufrac.graphs import (
    Graph,
    complete_bipartite,
    cycle,
    hypercube,
    kdd_union,
    parse_spec,
    petersen,
    prism,
)
from occufrac.polynomials import (
    event_probability_oracle,
    kdd_independence_poly,
    kdd_matching_poly,
    occupancy,
)

ONE = Fraction(1)


def test_tree_occupancy_d2_quadratic_root():
    # fixed point at lam=1 solves 5a^2 - 5a + 1 = 0
    bracket = tree_occupancy(2, ONE)
    assert bracket.width <= Fraction(1, 10**9)
    assert 0 < bracket.alpha_low < bracket.alpha_high < Fraction(1, 2)
    quadratic = lambda a: 5 * a * a - 5 * a + 1
    assert quadratic(bracket.alpha_low) > 0 > quadratic(bracket.alpha_high)


def test_tree_occupancy_bracket_straddles_sign_change():
    from occufrac.bounds import _tree_gap

    for d in (2, 3, 5):
        for lam in (Fraction(1, 4), ONE, Fraction(4)):
            bracket = tree_occupancy(d, lam, Fraction(1, 10**6))
            assert _tree_gap(bracket.alpha_low, d, lam) < 0
            assert _tree_gap(bracket.alpha_high, d, lam) > 0


def test_tree_occupancy_halving_tolerance_halves_width():
    wide = tree_occupancy(3, ONE, Fraction(1, 2**10))
    narrow = tree_occupancy(3, ONE, Fraction(1, 2**11))
    assert narrow.width <= wide.width / 2
    assert narrow.alpha_low >= wide.alpha_low
    assert narrow.alpha_high <= wide.alpha_high


def test_tree_occupancy_d3_value():
    bracket = tree_occupancy(3, ONE, Fraction(1, 10**6))
    assert abs(float(bracket.alpha_low) - 0.2411) < 1e-3


def test_uniqueness_threshold():
    assert uniqueness_threshold(3) == 4
    assert uniqueness_threshold(4) == Fraction(27, 16)
    with pytest.raises(DomainError):
        uniqueness_threshold(2)


def test_lower_bound_known_values():
    verdict = verify_lower_bound(cycle(6), ONE)
    assert verdict.status == "pass"
    assert verdict.alpha == Fraction(5, 18)

    verdict = verify_lower_bound(complete_bipartite(3), ONE)
    assert verdict.status == "pass"
    assert verdict.alpha == Fraction(4, 15)

    assert verify_lower_bound(hypercube(3), ONE).status == "pass"


def test_lower_bound_decided_inside_the_default_bracket():
    # C12 at lam=1/4 sits ~6e-10 above the tree value, inside the default
    # 1e-9 bracket; the sign of the gap decides it with no bracket at all
    lam = Fraction(1, 4)
    verdict = verify_lower_bound(cycle(12), lam)
    bracket = tree_occupancy(2, lam)
    assert bracket.alpha_low < verdict.alpha < bracket.alpha_high
    assert verdict.status == "pass"
    assert verdict.gap > 0


def test_sign_verdict_matches_the_bisection_reference():
    rng = random.Random(22)
    graphs = transitive_bipartite_corpus()
    for name, g in graphs:
        for lam in FUGACITY_GRID:
            assert verify_lower_bound(g, lam).status == bisection_lower_bound_status(g, lam), (
                name, lam)
    for _ in range(20):
        name, g = rng.choice(graphs)
        lam = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        assert verify_lower_bound(g, lam).status == bisection_lower_bound_status(g, lam), (
            name, lam)


def test_lower_bound_fails_at_the_tree_occupancy(monkeypatch):
    # at d=2, lam=3/4 the tree occupancy is exactly 1/4: an occupancy equal
    # to it is not above it
    monkeypatch.setattr(bounds_module, "occupancy", lambda g, lam: Fraction(1, 4))
    verdict = verify_lower_bound(cycle(6), Fraction(3, 4))
    assert (verdict.status, verdict.alpha, verdict.gap) == ("fail", Fraction(1, 4), 0)


def test_lower_bound_needs_degree_two():
    for g in (parse_spec("kdd:1")[1], Graph(2)):
        with pytest.raises(DomainError, match="^need d >= 2$"):
            verify_lower_bound(g, ONE)


def test_lower_bound_precondition_errors():
    with pytest.raises(DomainError):
        verify_lower_bound(Graph(3, [(0, 1)]), ONE)  # not regular
    with pytest.raises(DomainError):
        verify_lower_bound(petersen(), ONE)  # not bipartite
    mixed_cycles = disjoint_union(cycle(4), cycle(8))
    with pytest.raises(DomainError):
        verify_lower_bound(mixed_cycles, ONE)  # not vertex-transitive
    # the explicit assertion flag replaces the transitivity computation
    verdict = verify_lower_bound(mixed_cycles, ONE, assume_vertex_transitive=True)
    assert verdict.status == "pass"


def test_fkg_known_values():
    p3 = Graph(3, [(0, 1), (1, 2)])
    verdict = fkg_check(p3, [0, 2], ONE, "occupied")
    assert verdict.joint == Fraction(1, 5)
    assert verdict.product == Fraction(4, 25)
    assert verdict.strict_expected and verdict.ok

    # different components: exact equality, strictness not required
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    verdict = fkg_check(two_paths, [0, 3], ONE, "occupied")
    assert verdict.joint == verdict.product
    assert verdict.ok

    assert fkg_check(cycle(6), [0, 2], ONE, "occupied").ok
    assert fkg_check(cycle(6), [0, 2], ONE, "uncovered").ok


def _event(g, mode, target):
    if mode == "occupied":
        return lambda s: all(v in s for v in target)
    return lambda s: all(not any(u in s for u in g.neighbors(v)) for v in target)


def test_fkg_one_pass_equals_per_event_oracle():
    lam = Fraction(3, 5)
    for g, vs in (
        (hypercube(3), [0, 3, 5]),
        (cycle(8), [0, 2, 4]),
        (kdd_union(2, 8), [0, 1, 4]),
    ):
        for mode in ("occupied", "uncovered"):
            verdict = fkg_check(g, vs, lam, mode)

            def oracle(target):
                return event_probability_oracle(g, "hardcore", lam, _event(g, mode, target))

            assert verdict.joint == oracle(vs)
            product = Fraction(1)
            for v in vs:
                product *= oracle([v])
            assert verdict.product == product


def test_fkg_precondition_errors():
    with pytest.raises(DomainError):
        fkg_check(cycle(6), [0, 1], ONE)  # opposite sides
    with pytest.raises(DomainError):
        fkg_check(petersen(), [0, 2], ONE)  # not bipartite
    with pytest.raises(DomainError):
        fkg_check(cycle(6), [0], ONE)
    with pytest.raises(DomainError):
        fkg_check(cycle(6), [0, 2], Fraction(0))


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([0, 0], "vertex 0 is repeated"),
        ([0, 2, 4, 2], "vertex 2 is repeated"),
        ([True, 3], "vertex True is not an int"),
        ([0, 2.0], "vertex 2.0 is not an int"),
        (["0", 2], "vertex '0' is not an int"),
    ],
)
def test_fkg_rejects_repeated_and_non_int_vertices(monkeypatch, vertices, message):
    # a vertex is not correlated with itself, and True is not vertex 1: both
    # are refused before the bipartition is searched
    def refuse(g):
        raise AssertionError("bipartition called before the vertex check")

    monkeypatch.setattr(bounds_module, "bipartition", refuse)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fkg_check(cycle(6), vertices, ONE)


def test_counts_known_values():
    independent, _ = counts(cycle(8))
    assert independent == [1, 8, 20, 16, 2]
    independent, _ = counts(kdd_union(2, 8))
    assert independent == [1, 8, 20, 16, 4]
    _, matching_counts = counts(Graph(2, [(0, 1)]))
    assert matching_counts == [1, 1]


def test_cycle_count_formula():
    # i_k(C_n) = n/(n-k) * C(n-k, k)
    from math import comb

    for n in (5, 8, 11):
        independent, _ = counts(cycle(n))
        for k in range(1, len(independent)):
            assert independent[k] == n * comb(n - k, k) // (n - k)


def test_lampick_known_values():
    lam, prob = lampick_lambda(kdd_independence_poly(2), 1)
    assert lam == 2 and prob == Fraction(8, 17)
    assert mode_probability_exceeds_half_inv_sqrt(prob, 4)

    poly = kdd_independence_poly(3)
    assert poly.coeffs == (1, 6, 6, 2)
    lam, prob = lampick_lambda(poly, 1)
    assert lam == 1 and prob == Fraction(6, 15)

    with pytest.raises(DomainError):
        lampick_lambda(kdd_independence_poly(2), 2)  # c_3 = 0


def test_lampick_equalizes_adjacent_sizes():
    from occufrac.polynomials import size_distribution

    poly = kdd_independence_poly(3) ** 2
    for k in range(1, poly.degree):
        lam, prob = lampick_lambda(poly, k)
        dist = size_distribution(poly, lam)
        assert dist[k] == dist[k + 1] == prob
        assert all(dist[j] <= prob for j in range(len(dist)))


def test_mode_probability_bounds():
    rows = mode_probability_bound_check(3, 6, "hardcore")
    assert rows[0] == (1, ONE, Fraction(2, 5))
    for d in (2, 3):
        for n in range(2 * d, 25, 2 * d):
            for model in ("hardcore", "matching"):
                rows = mode_probability_bound_check(d, n, model)
                assert len(rows) == n // 2
                # the top size too: prob is Pr[size = k] at lam, by definition
                base = kdd_independence_poly(d) if model == "hardcore" else kdd_matching_poly(d)
                poly = base ** (n // (2 * d))
                for k, lam, prob in rows:
                    assert prob == poly.coefficient(k) * lam**k / poly(lam)


def test_failed_mode_bound_is_a_certificate_error(monkeypatch):
    import occufrac.bounds as mod

    seen = []

    def refuse(prob, n):
        seen.append(prob)
        return False

    monkeypatch.setattr(mod, "mode_probability_exceeds_half_inv_sqrt", refuse)
    with pytest.raises(CertificateError) as failed:
        mode_probability_bound_check(3, 6, "hardcore")
    assert failed.value.args == ("mode probability bound fails at k=1", 1)
    # the probability checked is the one lampick_lambda returned
    assert seen == [lampick_lambda(kdd_independence_poly(3), 1)[1]]


def test_zero_degree_is_outside_the_domain():
    # 2d must divide n: d = 0 is refused before any division by it
    with pytest.raises(DomainError, match="^graph must be d-regular with d >= 1$"):
        given_size_bound(Graph(4))
    with pytest.raises(DomainError, match="^need d >= 1$"):
        ratio_conjecture_report([("empty", Graph(8))], 0, 8)
    with pytest.raises(DomainError, match="^need d >= 1$"):
        mode_probability_bound_check(0, 8)


def test_log_concavity_and_binomial_bases():
    assert log_concavity_check(kdd_independence_poly(2), ONE)
    for d in range(2, 8):
        for lam in (Fraction(1, 2), ONE, Fraction(3)):
            assert log_concavity_check(kdd_independence_poly(d), lam)
            assert log_concavity_check(kdd_matching_poly(d), lam)
        assert binomial_base_inequalities(d)
    # the base inequalities, spot-checked at the spec's numbers
    assert 3**2 > 1 * 3
    assert 3**4 * 1 > 1 * 9 * 2


def test_variance_known_value():
    report = variance_check(2, ONE)
    assert report["hardcore"] == Fraction(20, 49)
    assert report["bound"] == Fraction(1, 2)
    assert report["ok"]
    for d in range(2, 7):
        for lam in (Fraction(1, 4), ONE, Fraction(4)):
            assert variance_check(d, lam)["ok"]


def test_given_size_known_values():
    verdict = given_size_bound(cycle(8))
    assert verdict.applicable and verdict.ok

    verdict = given_size_bound(petersen())
    assert not verdict.applicable  # 6 does not divide 10

    for g in (cycle(12), prism(6), complete_bipartite(4), kdd_union(2, 12)):
        verdict = given_size_bound(g)
        assert verdict.applicable and verdict.ok


def test_ratio_conjecture_report_known_value():
    report = ratio_conjecture_report(
        [("C8", cycle(8)), ("H2_8", kdd_union(2, 8))], 2, 8
    )
    rows = {row["k"]: row for row in report["independent"]}
    assert rows[1]["max"] == 8  # i_1/i_0 = n for every graph
    assert set(rows[1]["achievers"]) == {"C8", "H2_8"}
    assert rows[4]["max"] == Fraction(1, 4)
    assert rows[4]["achievers"] == ["H2_8"]
    assert all(row["candidate_attains_max"] for row in report["independent"])
    assert all(row["candidate_attains_max"] for row in report["matching"])


def test_ratio_conjecture_never_raises_on_ties():
    report = ratio_conjecture_report(
        [("prism3", prism(3)), ("K33", complete_bipartite(3))], 3, 6
    )
    assert report["independent"]


def test_occupancy_vs_tree_value_orders():
    # sanity: the K_{d,d} occupancy exceeds the tree occupancy too
    for d in (2, 3):
        bracket = tree_occupancy(d, ONE, Fraction(1, 10**6))
        assert occupancy(complete_bipartite(d), ONE) > bracket.alpha_high


def test_tree_occupancy_exact_rational_root():
    # at d=2, lam=3/4 the fixed point is exactly 1/4, which bisection hits
    bracket = tree_occupancy(2, Fraction(3, 4))
    assert bracket.alpha_low < Fraction(1, 4) < bracket.alpha_high
    assert bracket.width <= Fraction(1, 10**9)
    from occufrac.bounds import _tree_gap

    assert _tree_gap(Fraction(1, 4), 2, Fraction(3, 4)) == 0
    assert _tree_gap(bracket.alpha_low, 2, Fraction(3, 4)) < 0
    assert _tree_gap(bracket.alpha_high, 2, Fraction(3, 4)) > 0


def test_tree_caps_are_checked_before_any_bisection(monkeypatch):
    def fail(*args):
        raise AssertionError("bisected")

    monkeypatch.setattr(bounds_module, "_tree_gap", fail)
    with pytest.raises(CapabilityError, match=r"^tree bisection supports d <= 1000$"):
        tree_occupancy(1001, ONE)
    with pytest.raises(CapabilityError, match=r"^tree bisection supports tolerance >= 1/10\^100$"):
        tree_occupancy(3, ONE, Fraction(1, 10**100 + 1))
    # a usage error comes before a cap
    with pytest.raises(DomainError, match="^tolerance must be positive$"):
        tree_occupancy(1001, ONE, Fraction(0))


def test_tree_caps_admit_their_bounds():
    assert tree_occupancy(1000, ONE).width <= Fraction(1, 10**9)
    assert tree_occupancy(3, ONE, Fraction(1, 10**100)).width <= Fraction(1, 10**100)
