import hashlib
import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

from _oracles import (
    brute_lp_max,
    fraction_dual_slacks,
    fraction_hardcore_primal,
    fraction_matching_primal,
    tableau_solve,
)
from occufrac import hardcore, matching
from occufrac import lp as lp_module
from occufrac.corpus import FUGACITY_GRID
from occufrac.errors import CertificateError, StructureError
from occufrac.lp import LinearProgram, dual_slacks, make_lp, primal_value, solve

ZERO, ONE = Fraction(0), Fraction(1)


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
    # no rows at all: x >= 0 is the whole feasible set
    assert solve(make_lp([1, 0], [], [])).status == "unbounded"
    assert solve(make_lp([-1, 0], [], [])).value == 0


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


def test_floats_are_rejected_with_their_position():
    # 0.1 would otherwise be stored as 3602879701896397/36028797018963968
    with pytest.raises(StructureError, match="^objective column 0 is 0.1, not an int or a Fraction$"):
        make_lp([0.1, 1], [[1, 1]], [1])
    with pytest.raises(StructureError, match="^row 1 column 0 is 0.5, not an int or a Fraction$"):
        make_lp([1, 1], [[1, 1], [0.5, 1]], [1, 1])
    with pytest.raises(StructureError, match="^rhs row 0 is 1.0, not an int or a Fraction$"):
        make_lp([1, 1], [[1, 1]], [1.0])
    with pytest.raises(StructureError, match="^row 0 column 0 is '1/2', not an int or a Fraction$"):
        make_lp((ONE,), (("1/2",),), (ONE,))
    with pytest.raises(StructureError, match="^dual entry 0 is 0.5, not an int or a Fraction$"):
        dual_slacks(make_lp([1, 1], [[1, 1]], [1]), [0.5])
    report = dual_slacks(make_lp([1, Fraction(1, 2)], [[1, 1]], [1]), [1])
    assert report.slacks == (0, Fraction(1, 2)) and report.dual_objective == 1


def test_degenerate_instance_terminates():
    # Beale's cycling example in equality form; the two-phase solve must terminate
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
    # flips its row; the dual y = c_B B^-1 must still certify
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


# Beale's example: from the integer slack basis {4, 5, 6},
# largest-reduced-cost pricing alone cycles
BEALE_OBJECTIVE = (Fraction(3, 4), Fraction(-150), Fraction(1, 50), Fraction(-6), ZERO, ZERO, ZERO)
BEALE_ROWS = (
    (Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9), ONE, ZERO, ZERO),
    (Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3), ZERO, ONE, ZERO),
    (ZERO, ZERO, ONE, ZERO, ZERO, ZERO, ONE),
)


def test_degenerate_fallback_stops_dantzig_cycling(monkeypatch):
    # the Bland pivot after each degenerate one must reach the optimum of
    # Beale's example in a few pivots
    objective, rows = BEALE_OBJECTIVE, BEALE_ROWS
    pivots = []
    pivot = lp_module._pivot

    def counted(*args):
        pivots.append(args[5])
        if len(pivots) > 50:
            raise AssertionError(f"still pivoting after 50 pivots: {pivots[:12]}")
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    program = make_lp(objective, rows, (ZERO, ZERO, ONE))
    columns = program.integer_columns
    # the slacks are unit columns over q = 1 and b is integer (Q_b = 1):
    # N = I over den 1, v = b, x_b = q_b v_b / den
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    values = [0, 0, 1]
    basis = [4, 5, 6]
    den = lp_module._run_simplex(columns, [e for _, e, _ in columns], identity, values, basis, 1)
    assert den is not None
    x = [ZERO] * 7
    for b, v in zip(basis, values):
        x[b] = Fraction(columns[b][0] * v, den)
    assert primal_value(program, x) == Fraction(1, 20)


def test_repeated_basis_raises_when_dantzig_cycles():
    # `_run_simplex` as written, but never taking the Bland step: on Beale's
    # example it cycles through degenerate pivots, and the guard must stop
    # it at the first basis it meets twice
    source = textwrap.dedent(inspect.getsource(lp_module._run_simplex))
    assert source.count("bland = best_v == 0") == 1
    namespace = dict(vars(lp_module))
    exec(source.replace("bland = best_v == 0", "bland = False"), namespace)
    dantzig_only = namespace["_run_simplex"]

    columns = make_lp(BEALE_OBJECTIVE, BEALE_ROWS, (ZERO, ZERO, ONE)).integer_columns
    cost = [e for _, e, _ in columns]
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(AssertionError, match=r"came back to basis \[\d+, \d+, \d+\]"):
        dantzig_only(columns, cost, identity, [0, 0, 1], [4, 5, 6], 1)
    # the solver as written reaches the optimum from the same start
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lp_module._run_simplex(columns, cost, identity, [0, 0, 1], [4, 5, 6], 1) is not None


def _differential_lp(rng, kind):
    """A random LP whose first row, all ones, bounds it. "degenerate" takes
    entries in -1..1 and a sparse point behind the rhs, "free-rhs" an
    independent rhs, the other kinds entries in -4..4 and a point in 0..3.
    Then one summed, duplicated or negated row; "contradiction" repeats a
    row with its rhs shifted by one and "unbounded" adds a zero column with
    a positive objective."""
    n, m = rng.randint(2, 6), rng.randint(1, 3)
    lo, hi = (-1, 1) if kind == "degenerate" else (-4, 4)
    rows = [[ONE] * n] + [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m - 1)]
    if kind == "free-rhs":
        rhs = [Fraction(rng.randint(0, 6))] + [Fraction(rng.randint(-6, 6)) for _ in range(m - 1)]
    else:
        share = 0.3 if kind == "degenerate" else 1
        x = [Fraction(rng.randint(0, 3)) if rng.random() < share else ZERO for _ in range(n)]
        rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    r = rng.randrange(m)
    change = rng.choice(("sum", "duplicate", "negate"))
    if kind == "contradiction":
        rows.append(list(rows[r]))
        rhs.append(rhs[r] + 1)
    elif change == "sum" and m > 1:
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        rhs.append(rhs[0] + rhs[-1])
    elif change == "duplicate":
        rows.append(list(rows[r]))
        rhs.append(rhs[r])
    else:
        rows[r] = [-a for a in rows[r]]
        rhs[r] = -rhs[r]
    objective = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    if kind == "unbounded":
        objective.append(ONE)
        for row in rows:
            row.append(ZERO)
    return make_lp(objective, rows, rhs)


def test_matches_tableau_reference_on_random_lps():
    # 240 LPs: each status at least 30 times, and rows dropped after phase 1
    rng = random.Random(2007)
    kinds = ("feasible", "degenerate", "free-rhs", "contradiction", "unbounded")
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    dropped = 0
    for i in range(240):
        lp = _differential_lp(rng, kinds[i % len(kinds)])
        sol, ref = solve(lp), tableau_solve(lp)
        assert (sol.status, sol.value) == (ref.status, ref.value)
        statuses[sol.status] += 1
        if sol.status == "infeasible":
            assert brute_lp_max(lp.objective, lp.rows, lp.rhs) is None
        if sol.status != "optimal":
            continue
        assert sol.value == brute_lp_max(lp.objective, lp.rows, lp.rhs)
        assert primal_value(lp, sol.primal) == sol.value
        report = dual_slacks(lp, sol.dual)
        assert report.feasible
        assert report.dual_objective == sol.value
        dropped += len(sol.basis) < lp.nrows
    assert min(statuses.values()) >= 30, statuses
    assert dropped >= 30


def _assert_integer_columns(program):
    assert len(program.integer_columns) == program.ncols
    for j, (q, e, a) in enumerate(program.integer_columns):
        assert type(q) is int and type(e) is int and all(type(x) is int for x in a)
        assert q > 0 and gcd(q, e, *a) == 1
        assert Fraction(e, q) == program.objective[j]
        assert tuple(Fraction(x, q) for x in a) == tuple(row[j] for row in program.rows)


@pytest.mark.parametrize("lam", FUGACITY_GRID)
def test_integer_columns_of_the_certify_programs(lam):
    for d in range(2, 8):
        _assert_integer_columns(hardcore.build_primal(d, lam))
    for d in range(2, 10):
        _assert_integer_columns(matching.build_primal(d, lam))


# p/q with p != q in 5..9, the kind of fugacity the benchmark draws
BENCHMARK_STYLE = (Fraction(7, 5), Fraction(5, 8), Fraction(9, 7), Fraction(6, 5))


@pytest.mark.parametrize("lam", FUGACITY_GRID + BENCHMARK_STYLE)
def test_certify_programs_match_the_fraction_builders(lam):
    cases = [(hardcore.build_primal, fraction_hardcore_primal, d) for d in range(2, 8)]
    cases += [(matching.build_primal, fraction_matching_primal, d) for d in range(2, 11)]
    for build, reference, d in cases:
        objective, rows, rhs = reference(d, lam)
        program = build(d, lam)
        assert program.integer_columns == make_lp(objective, rows, rhs).integer_columns
        assert program.objective == tuple(objective)
        assert program.rows == tuple(tuple(row) for row in rows)
        assert program.rhs == tuple(rhs)
        _assert_integer_columns(program)


def test_columns_constructor_reduces_and_validates():
    half = Fraction(1, 2)
    program = LinearProgram.from_columns([(4, 2, (6, -2)), (3, 0, (0, 0))], [1, half])
    assert program.integer_columns == ((2, 1, (3, -1)), (1, 0, (0, 0)))
    assert program == make_lp([half, 0], [[3 * half, 0], [-half, 0]], [1, half])
    assert type(program.rhs[0]) is Fraction
    with pytest.raises(StructureError, match="^column 0 has 1 entries, need 2$"):
        LinearProgram.from_columns([(1, 1, (1,))], [1, 1])
    for column in ((-1, 1, (1,)), (0, 0, (0,)), (1, Fraction(1, 2), (1,))):
        with pytest.raises(StructureError, match="^column 0 is not"):
            LinearProgram((column,), (ONE,))
    for column in ((-2, 2, (4,)), (0, 0, (0,))):
        with pytest.raises(StructureError, match="^column 0 is not"):
            LinearProgram.from_columns([column], [ONE])


@pytest.mark.parametrize("lam", [ONE, Fraction(7, 5)])
def test_certify_never_builds_the_fraction_rows(lam):
    # solve, certificate and law checks all read the integer columns
    for module, certify, d in (
        (hardcore, hardcore.dual_certificate, 7),
        (matching, matching.check_dual_constraints, 9),
    ):
        module.build_primal.cache_clear()
        program = module.build_primal(d, lam)
        sol = solve(program)
        certify(d, lam)
        assert primal_value(program, sol.primal) == sol.value
        assert module.build_primal(d, lam) is program
        assert "rows" not in vars(program)


# the SHA-256 of repr((integer columns, solution, certificate)) for the
# certify programs below, in this order, pinned from a solver and
# certificates that priced every column on its own
CERTIFY_PIN = "fd64c54b9a0162fa21f53c4d1810a8cc2f28a56f2ed69608ba66eb8d37c19252"


def test_certify_programs_solutions_and_certificates_are_pinned():
    digest = hashlib.sha256()
    for lam in (ONE, Fraction(7, 5), Fraction(5, 9), Fraction(3), Fraction(1, 7)):
        cases = [(hardcore, hardcore.dual_certificate, d) for d in range(2, 8)]
        cases += [(matching, matching.check_dual_constraints, d) for d in range(2, 10)]
        for module, certify, d in cases:
            program = module.build_primal(d, lam)
            digest.update(repr((program.integer_columns, solve(program), certify(d, lam))).encode())
    assert digest.hexdigest() == CERTIFY_PIN


def _rational_lp(rng):
    """A random LP over p/q entries with q in 1..6 and p in -6..6: some
    entries zero, sometimes a whole zero column, sometimes no rows; the rhs
    comes from a random rational point or, half the time, freely."""
    n, m = rng.randint(1, 6), rng.choice((0, 1, 2, 2, 3, 3))

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.8 else ZERO

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = ZERO
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    else:
        rhs = [entry() for _ in range(m)]
    return make_lp([entry() for _ in range(n)], rows, rhs)


def test_rational_lps_match_tableau_reference():
    # integer-only programs have q_j = 1 everywhere; these scale every column
    rng = random.Random(1508)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    scaled = rowless = zero_columns = 0
    for _ in range(300):
        lp = _rational_lp(rng)
        _assert_integer_columns(lp)
        sol, ref = solve(lp), tableau_solve(lp)
        assert (sol.status, sol.value) == (ref.status, ref.value)
        statuses[sol.status] += 1
        scaled += any(q > 1 for q, _, _ in lp.integer_columns)
        rowless += lp.nrows == 0
        zero_columns += any(not any(a) for _, _, a in lp.integer_columns)
        if sol.status != "optimal":
            continue
        assert primal_value(lp, sol.primal) == sol.value
        report = dual_slacks(lp, sol.dual)
        assert report.slacks == fraction_dual_slacks(lp, sol.dual)
        assert report.feasible and report.dual_objective == sol.value
        ref_report = dual_slacks(lp, ref.dual)
        assert ref_report.slacks == fraction_dual_slacks(lp, ref.dual)
    assert min(statuses.values()) >= 30, statuses
    assert scaled >= 250 and rowless >= 20 and zero_columns >= 60


def test_fraction_free_invariant_holds_after_every_pivot(monkeypatch):
    # after each pivot N a~_b = den e_t at every basic position t, where an
    # artificial a~ is sign_r e_r, and v = N beta: a floored, inexact
    # division breaks one of them, on infeasible and unbounded programs too,
    # which the optimality check never sees
    pivot = lp_module._pivot
    seen = {"negative pivot": 0, "pivot after a dropped row": 0, "negative rhs": 0}

    def checked(rows, values, basis, den, row, col, column):
        seen["negative pivot"] += column[row] < 0
        seen["pivot after a dropped row"] += len(rows) < program.nrows
        den = pivot(rows, values, basis, den, row, col, column)
        assert den > 0
        n, m = program.ncols, program.nrows
        for t, b in enumerate(basis):
            if b < n:
                a = program.integer_columns[b][2]
            else:
                a = [0] * m
                a[b - n] = -1 if program.rhs[b - n] < 0 else 1
            unit = [den * (s == t) for s in range(len(rows))]
            assert [sum(map(mul, row, a)) for row in rows] == unit
        scale = lcm(*(b.denominator for b in program.rhs))
        beta = [b.numerator * (scale // b.denominator) for b in program.rhs]
        assert values == [sum(map(mul, row, beta)) for row in rows]
        return den

    monkeypatch.setattr(lp_module, "_pivot", checked)
    rng = random.Random(1968)
    kinds = ("feasible", "degenerate", "free-rhs", "contradiction", "unbounded")
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for i in range(300):
        program = _differential_lp(rng, kinds[i % len(kinds)]) if i % 2 else _rational_lp(rng)
        statuses[solve(program).status] += 1
        seen["negative rhs"] += any(b < 0 for b in program.rhs)
    assert min(statuses.values()) >= 30, statuses
    assert min(seen.values()) >= 20, seen


def test_dual_slacks_match_fraction_reference():
    rng = random.Random(77)
    for _ in range(100):
        lp = _rational_lp(rng)
        dual = [
            rng.choice((0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
            for _ in range(lp.nrows)
        ]
        report = dual_slacks(lp, dual)
        assert report.slacks == fraction_dual_slacks(lp, dual)
        assert all(type(s) is Fraction for s in report.slacks)
        assert report.tight == tuple(j for j, s in enumerate(report.slacks) if s == 0)
    for lam in (Fraction(1, 4), Fraction(7, 5), Fraction(4)):
        for d in (3, 5, 7):
            program = hardcore.build_primal(d, lam)
            dual = hardcore.solver_dual_for_certificate(d, lam)
            assert dual_slacks(program, dual).slacks == fraction_dual_slacks(program, dual)
        for d in (3, 6, 9):
            program = matching.build_primal(d, lam)
            dual = matching.standard_dual_vector(matching.dual_row_prices(d, lam))
            assert dual_slacks(program, dual).slacks == fraction_dual_slacks(program, dual)


@pytest.mark.parametrize(
    ("module", "d", "pivots"),
    [(matching, 8, 19), (matching, 10, 23), (matching, 12, 27), (hardcore, 6, 5), (hardcore, 7, 5)],
)
def test_certify_pivot_counts_are_pinned(monkeypatch, module, d, pivots):
    # integer pricing enters the same column as Fraction pricing on every
    # pivot, so the counts of the Fraction-priced solver stand
    counted = []
    pivot = lp_module._pivot

    def count(*args):
        counted.append(args[5])
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", count)
    sol = solve(module.build_primal(d, Fraction(7, 5)))
    assert sol.status == "optimal"
    assert len(counted) == pivots


def _lp_with_equal_columns(rng):
    """A `_rational_lp` with one to six of its columns copied in at random
    places, each over k = 1..4 times the column's scale, so equal to it
    once reduced; about a third of the copies have e_j shifted, so they
    equal it in phase 1 only."""
    program = _rational_lp(rng)
    columns = list(program.integer_columns)
    for _ in range(rng.randint(1, 6)):
        q, e, a = rng.choice(columns)
        if rng.random() < 0.3:
            e += rng.choice((-2, -1, 1, 2))
        k = rng.randint(1, 4)
        columns.insert(rng.randint(0, len(columns)), (k * q, k * e, tuple(k * x for x in a)))
    return LinearProgram.from_columns(columns, program.rhs)


def test_equal_columns_are_priced_once(monkeypatch):
    # each group of equal columns is priced once: statuses and values agree
    # with the tableau reference, slacks with the Fraction reference, no
    # pivot brings in a column equal to an earlier one, and every solution
    # and slack report is the one of pricing each column on its own
    entered = []
    pivot = lp_module._pivot

    def spy(*args):
        entered.append(args[5])
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", spy)
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    grouped = basic_groups = shifted = 0
    results = []
    for _ in range(300):
        program = _lp_with_equal_columns(rng)
        columns, groups = program.integer_columns, program.column_groups
        assert sorted(j for group in groups for j in group) == list(range(program.ncols))
        assert all(columns[j] == columns[group[0]] for group in groups for j in group)
        assert len(groups) == len(set(columns))
        entered.clear()
        sol, ref = solve(program), tableau_solve(program)
        assert (sol.status, sol.value) == (ref.status, ref.value)
        assert all(columns[j] not in columns[:j] for j in entered)
        statuses[sol.status] += 1
        if sol.status == "optimal":
            dual = sol.dual
            basic_groups += any(len(group) > 1 and group[0] in sol.basis for group in groups)
        else:
            dual = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(program.nrows)]
        report = dual_slacks(program, dual)
        assert report.slacks == fraction_dual_slacks(program, dual)
        assert report.tight == tuple(j for j, s in enumerate(report.slacks) if s == 0)
        assert report.feasible == all(s >= 0 for s in report.slacks)
        results.append((program, sol, dual, report))
        grouped += len(groups) < program.ncols
        shifted += len({(q, a) for q, _, a in columns}) < len(groups)
    assert min(statuses.values()) >= 30, statuses
    assert grouped >= 250 and basic_groups >= 30 and shifted >= 60

    def singletons(program):
        return tuple((j,) for j in range(program.ncols))

    monkeypatch.setattr(LinearProgram, "column_groups", property(singletons))
    for program, sol, dual, report in results:
        assert solve(program) == sol
        assert dual_slacks(program, dual) == report


def _witness():
    """max x_0 s.t. x_0 + x_1 = 1, x_1 = 0: optimum 1 at x = (1, 0), where
    the dual (1, y_1) is feasible for y_1 >= -1, with objective 1 for any
    y_1, and (y_0, y_1) is feasible with objective y_0 for y_0 >= 1."""
    program = make_lp([1, 0], [[1, 1], [0, 1]], [1, 0])
    sol = solve(program)
    assert sol.value == 1 and sol.primal == (1, 0)
    return program, sol


def test_self_check_names_a_dual_infeasible_by_one_part_in_a_billion():
    # the slack of column 1 is -1/10^9: a slack numerator of -1 over the
    # dual's denominator 10^9, while strong duality still holds
    program, sol = _witness()
    dual = (Fraction(1), Fraction(-1) - Fraction(1, 10**9))
    with pytest.raises(AssertionError, match="^dual infeasible at claimed optimum$"):
        lp_module._check_optimal(program, sol._replace(dual=dual))
    lp_module._check_optimal(program, sol._replace(dual=(Fraction(1), Fraction(-1))))


def test_self_check_names_a_dual_objective_off_by_one_part_in_a_billion():
    program, sol = _witness()
    dual = (Fraction(1) + Fraction(1, 10**9), Fraction(0))
    with pytest.raises(AssertionError, match="^strong duality violated$"):
        lp_module._check_optimal(program, sol._replace(dual=dual))


def test_self_check_names_a_wrong_value():
    program, sol = _witness()
    with pytest.raises(AssertionError, match="^objective row disagrees with c . x$"):
        lp_module._check_optimal(program, sol._replace(value=Fraction(1) + Fraction(1, 10**9)))


def test_self_check_rejects_perturbed_certify_duals():
    # each entry of a certify program's solver dual moved by 1/10^9, up and
    # down, fails the self-check; the dual itself passes
    for program in (hardcore.build_primal(4, Fraction(7, 5)), matching.build_primal(5, Fraction(7, 5))):
        sol = solve(program)
        lp_module._check_optimal(program, sol)
        for r in range(program.nrows):
            for step in (Fraction(1, 10**9), Fraction(-1, 10**9)):
                dual = list(sol.dual)
                dual[r] += step
                with pytest.raises(AssertionError):
                    lp_module._check_optimal(program, sol._replace(dual=tuple(dual)))
