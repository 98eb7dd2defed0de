import random
from fractions import Fraction

import pytest

from _oracles import brute_lp_max
from occufrac.errors import CertificateError, StructureError
from occufrac.lp import dual_slacks, make_lp, primal_value, solve

ONE = Fraction(1)


def test_simplex_sanity():
    sol = solve(make_lp([1, 1], [[1, 1]], [1]))
    assert sol.status == "optimal"
    assert sol.value == 1


def test_forced_solution():
    sol = solve(make_lp([1, 0], [[1, -1], [1, 1]], [0, 1]))
    assert sol.value == Fraction(1, 2)
    assert sol.primal == (Fraction(1, 2), Fraction(1, 2))


def test_infeasible_and_unbounded():
    assert solve(make_lp([1], [[1]], [-1])).status == "infeasible"
    assert solve(make_lp([1, 0], [[1, -1]], [0])).status == "unbounded"
    assert solve(make_lp([0, 1], [[1, 1], [1, 1]], [1, 2])).status == "infeasible"


def test_redundant_rows():
    sol = solve(make_lp([2, 1], [[1, 1], [1, 1]], [1, 1]))
    assert sol.status == "optimal"
    assert sol.value == 2
    assert len(sol.dual) == 2


def test_dimension_mismatch():
    with pytest.raises(StructureError):
        make_lp([1, 2], [[1]], [1])
    with pytest.raises(StructureError):
        make_lp([1], [[1]], [1, 2])
    with pytest.raises(StructureError):
        dual_slacks(make_lp([1], [[1]], [1]), [Fraction(1), Fraction(2)])


def test_degenerate_instance_terminates():
    # Beale's cycling example in equality form; Bland's rule must terminate
    lp = make_lp(
        [Fraction(3, 4), -150, Fraction(1, 50), -6, 0, 0, 0],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ],
        [0, 0, 1],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == Fraction(1, 20)


def _random_lp(rng, n, m):
    objective = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    # build a guaranteed-feasible rhs from a random non-negative point
    x = [Fraction(rng.randint(0, 3)) for _ in range(n)]
    rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    return make_lp(objective, rows, rhs)


def test_against_basis_enumeration_oracle():
    rng = random.Random(42)
    solved = 0
    for _ in range(60):
        lp = _random_lp(rng, rng.randint(2, 6), rng.randint(1, 3))
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        expected = brute_lp_max(lp.objective, lp.rows, lp.rhs)
        assert expected is not None
        assert sol.value == expected
        solved += 1
    assert solved >= 30


def test_strong_duality_and_certificates():
    rng = random.Random(17)
    for _ in range(40):
        lp = _random_lp(rng, rng.randint(2, 6), rng.randint(1, 3))
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        # primal feasibility
        for row, b in zip(lp.rows, lp.rhs):
            assert sum(a * x for a, x in zip(row, sol.primal)) == b
        assert all(x >= 0 for x in sol.primal)
        # dual feasibility and strong duality
        report = dual_slacks(lp, sol.dual)
        assert report.feasible
        assert report.dual_objective == sol.value
        # complementary slackness: basic columns price out exactly
        for j in sol.basis:
            assert report.slacks[j] == 0


def test_row_permutation_invariance():
    rng = random.Random(23)
    for _ in range(20):
        lp = _random_lp(rng, 5, 3)
        base = solve(lp)
        order = [0, 1, 2]
        rng.shuffle(order)
        permuted = make_lp(
            lp.objective,
            [lp.rows[r] for r in order],
            [lp.rhs[r] for r in order],
        )
        again = solve(permuted)
        assert again.status == base.status
        if base.status == "optimal":
            assert again.value == base.value


def test_negated_objective_flips_optimum():
    rng = random.Random(29)
    for _ in range(20):
        lp = _random_lp(rng, 4, 2)
        if solve(lp).status != "optimal":
            continue
        neg = make_lp([-c for c in lp.objective], lp.rows, lp.rhs)
        if solve(neg).status != "optimal":
            continue
        max_c = brute_lp_max(lp.objective, lp.rows, lp.rhs)
        min_c = -brute_lp_max(neg.objective, neg.rows, neg.rhs)
        assert solve(lp).value == max_c
        assert solve(neg).value == -min_c
        assert min_c <= max_c


def test_zero_dual_on_positive_objective_reports_negative_slack():
    lp = make_lp([1, 1], [[1, 1]], [1])
    report = dual_slacks(lp, [Fraction(0)])
    assert not report.feasible
    assert min(report.slacks) < 0


def test_support_is_empty_without_a_primal():
    assert solve(make_lp([1], [[1]], [-1])).support == ()
    assert solve(make_lp([1, 0], [[1, -1]], [0])).support == ()


def test_primal_value_checks_the_point():
    lp = make_lp([3, 1, 0], [[1, 1, 0], [0, 1, 1]], [1, 2])
    assert primal_value(lp, [Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)]) == 2
    with pytest.raises(StructureError):
        primal_value(lp, [ONE, ONE])
    with pytest.raises(CertificateError, match="row 1"):
        primal_value(lp, [ONE, Fraction(0), ONE])
    with pytest.raises(CertificateError, match="negative"):
        primal_value(lp, [Fraction(2), -ONE, Fraction(3)])


def test_duals_with_redundant_and_negated_rows():
    # a summed or duplicated row is dropped after phase 1 and a negative rhs
    # flips its row; the dual read off the tableau must still certify
    rng = random.Random(31)
    dropped = negated = 0
    for _ in range(120):
        lp = _random_lp(rng, rng.randint(2, 6), rng.randint(1, 3))
        rows, rhs = [list(r) for r in lp.rows], list(lp.rhs)
        if lp.nrows > 1 and rng.random() < 0.5:
            rows.append([a + b for a, b in zip(rows[0], rows[1])])
            rhs.append(rhs[0] + rhs[1])
        else:
            rows.append(rows[0])
            rhs.append(rhs[0])
        flip = rng.randrange(len(rows))
        if rhs[flip] > 0:
            rows[flip] = [-a for a in rows[flip]]
            rhs[flip] = -rhs[flip]
        lp = make_lp(lp.objective, rows, rhs)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        report = dual_slacks(lp, sol.dual)
        assert report.feasible
        assert report.dual_objective == sol.value
        dropped += len(sol.basis) < lp.nrows
        negated += any(b < 0 for b in lp.rhs)
    assert dropped >= 20 and negated >= 20
