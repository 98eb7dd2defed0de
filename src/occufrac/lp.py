"""Exact rational linear programming in equality standard form.

    maximize c . x   subject to   A x = b,  x >= 0

A program is held as integer columns: column j is (q_j, e_j, a_j) with
c_j = e_j / q_j and A_j = a_j / q_j, q_j > 0 and gcd(q_j, e_j, a_j) = 1,
so q_j is the least common denominator of the column. The rhs b is kept in
Fractions. `LinearProgram.from_columns` takes columns over any positive
scale, which is how the certify programs are built, and `make_lp` takes int
or Fraction entries and converts each column through the lcm of its
denominators. The Fraction views `objective` and `rows` are derived on
first use, for callers and test references; the solver and the certificate
checks read the columns.

Equal integer columns are grouped once per program, in the pass that
validates them (`column_groups`, keyed by the int tuples), and every
per-column step prices each group once: the simplex prices only a group's
first column, which is the one that enters on any tie, so pivots, bases
and duals are those of pricing every column, and `dual_slacks` makes one
Fraction per group.

Two-phase revised simplex over integers only. With Q = diag(q_b), the
basis is B = B~ Q^-1 for the integer columns a_b of B~ (artificial column r
is sign_r e_r with q = 1). The solver keeps an integer matrix N and
den = |det B~| > 0 with B~^-1 = N / den, and the integers v = N beta, where
b = beta / Q_b over the lcm Q_b of the rhs denominators. The q_b cancel in
the prices y = c_B B^-1 = Y / den, Y = sum e_b N_b, so the reduced costs
are compared as integers. Pivots are fraction-free (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination"), so every division in them is exact; Fractions appear only
in the result. Every reported optimum, basis and dual vector is exact and
checked in integers before it is returned (`_check_optimal`, on the slack
numerators `dual_slacks` reads too); the programs solved here have at most
a dozen rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import CertificateError, StructureError
from .exactmath import exact_quotient

ZERO = Fraction(0)


class LinearProgram:
    """max c . x, A x = b, x >= 0 as integer columns and a Fraction rhs;
    build one with `from_columns` or `make_lp`. Immutable; equal programs
    have equal columns and rhs."""

    def __init__(self, integer_columns: tuple, rhs: tuple):
        # integer_columns: (q_j, e_j, a_j) per column, in lowest terms
        object.__setattr__(self, "integer_columns", integer_columns)
        object.__setattr__(self, "rhs", rhs)
        _check_exact(rhs, "rhs row {}")
        nrows = len(rhs)
        groups = {}  # each distinct column -> the indices of its group
        checked = {}  # id of each column object validated -> its group
        for j, column in enumerate(integer_columns):
            # only the very object checked may skip the check: an equal
            # column can still hold a True or a Fraction(1)
            group = checked.get(id(column))
            if group is None:
                q, e, a = column
                if len(a) != nrows:
                    raise StructureError(f"column {j} has {len(a)} entries, need {nrows}")
                if {type(q), type(e), *map(type, a)} != {int} or q <= 0:
                    raise StructureError(f"column {j} is not (q, e, a) over ints with q > 0")
                group = checked[id(column)] = groups.setdefault((q, e, tuple(a)), [])
            group.append(j)
        object.__setattr__(self, "_groups", tuple(map(tuple, groups.values())))

    def __setattr__(self, name, value):
        raise AttributeError("LinearProgram is immutable")

    def __delattr__(self, name):
        raise AttributeError("LinearProgram is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.integer_columns, self.rhs) == (other.integer_columns, other.rhs)

    def __hash__(self):
        return hash((self.integer_columns, self.rhs))

    def __repr__(self):
        return f"LinearProgram(integer_columns={self.integer_columns!r}, rhs={self.rhs!r})"

    @classmethod
    def from_columns(cls, columns, rhs) -> LinearProgram:
        """The program whose column j is c_j = e_j / q_j, A_j = a_j / q_j for
        integers (q_j, e_j, a_j) with q_j > 0: each is divided by its gcd,
        once per column object (the builders pass one object per equal
        column, and `__init__` groups equal columns by value)."""
        reduced, seen = [], {}  # id of each column object -> (it, reduced)
        for column in columns:
            entry = seen.get(id(column))
            if entry is None:
                q, e, a = column
                g = gcd(q, e, *a) or 1  # an all-zero column is rejected below
                # the object is held, so its id is not reused while it is a key
                entry = seen[id(column)] = column, (q // g, e // g, tuple(x // g for x in a))
            reduced.append(entry[1])
        return cls(tuple(reduced), _fractions(rhs))

    @property
    def ncols(self) -> int:
        return len(self.integer_columns)

    @property
    def nrows(self) -> int:
        return len(self.rhs)

    @property
    def column_groups(self) -> tuple:
        """The indices of each distinct integer column, one increasing tuple
        per group, the groups in order of their first index; built with the
        columns' validation."""
        return self._groups

    @cached_property
    def objective(self) -> tuple:
        """c as Fractions."""
        return tuple(Fraction(e, q) for q, e, _ in self.integer_columns)

    @cached_property
    def rows(self) -> tuple:
        """A as a tuple of Fraction rows."""
        return tuple(
            tuple(Fraction(a[r], q) for q, _, a in self.integer_columns)
            for r in range(self.nrows)
        )


def _check_exact(values, where: str):
    """Raise StructureError at the first entry that is not an int or a
    Fraction; `where` names the entry from its index."""
    for j, v in enumerate(values):
        if not isinstance(v, (int, Fraction)):
            raise StructureError(f"{where.format(j)} is {v!r}, not an int or a Fraction")


def _fractions(values) -> tuple:
    return tuple(Fraction(v) if isinstance(v, int) else v for v in values)


def make_lp(objective, rows, rhs) -> LinearProgram:
    """The program max c . x, A x = b, x >= 0 from int or Fraction entries,
    each column over the least common denominator of its entries; an entry
    that is neither raises StructureError naming it."""
    objective, rows, rhs = tuple(objective), [tuple(row) for row in rows], tuple(rhs)
    if len(rows) != len(rhs):
        raise StructureError("row count does not match rhs length")
    _check_exact(objective, "objective column {}")
    for r, row in enumerate(rows):
        if len(row) != len(objective):
            raise StructureError(f"row {r} has {len(row)} entries, need {len(objective)}")
        _check_exact(row, f"row {r} column {{}}")
    columns = []
    for column in zip(objective, *rows):
        q = lcm(*(x.denominator for x in column))
        e, *a = (x.numerator * (q // x.denominator) for x in column)
        columns.append((q, e, tuple(a)))
    return LinearProgram(tuple(columns), _fractions(rhs))


class LPSolution(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    primal: tuple | None = None
    basis: tuple | None = None
    dual: tuple | None = None

    @property
    def support(self):
        """Columns with a nonzero primal entry, in increasing order; () when
        there is no primal. A solver's solution is zero off its basis, so
        only the basic entries are tested when the basis is given."""
        if self.primal is None:
            return ()
        if self.basis is None:
            return tuple(j for j, x in enumerate(self.primal) if x != 0)
        return tuple(sorted(j for j in self.basis if self.primal[j] != 0))


class DualSlackReport(NamedTuple):
    """Per-column slacks (dual^T A - c)_j of a candidate dual vector."""

    slacks: tuple
    feasible: bool
    tight: tuple  # columns with slack exactly 0
    dual_objective: Fraction


def _pivot(rows, values, basis, den, row, col, column) -> int:
    """Bring column col into the basis at row, where column = N a_col, and
    return the new den |column[row]|. Each other row r of N and v becomes
    (column[row] row_r - column[r] row_row) / den, an exact division; the
    pivot row stays. A negative column[row], which only a drive-out pivot
    meets, negates every row, so den stays |det B~|."""
    sign = -1 if column[row] < 0 else 1
    piv, prow, pval = sign * column[row], rows[row], values[row]
    for r, f in enumerate(column):
        if r != row:
            f *= sign
            rows[r] = [(piv * x - f * p) // den for x, p in zip(rows[r], prow)]
            values[r] = (piv * values[r] - f * pval) // den
    if sign < 0:
        rows[row] = [-p for p in prow]
        values[row] = -pval
    basis[row] = col
    return piv


def _prices(rows, basis, cost):
    """Y = sum_t cost[b_t] N_t, so that y = c_B B^-1 = Y / den: the q_b of
    B = B~ Q^-1 cancel against c_b = e_b / q_b."""
    weights = [cost[b] for b in basis]
    return [sum(map(mul, weights, col)) for col in zip(*rows)]


def _over_one_denominator(pairs):
    """(Y, D) for the values n_j / d_j given as (n_j, d_j) pairs with
    d_j > 0: y = Y / D, Y integers and D the lcm of the d_j, so every
    division is exact."""
    den = lcm(*(d for _, d in pairs))
    return [n * exact_quotient(den, d) for n, d in pairs], den


def _ratios(values):
    """(numerator, denominator) of each int or Fraction."""
    return [(v.numerator, v.denominator) for v in values]


def _run_simplex(columns, cost, rows, values, basis, den, priced=None):
    """Maximize from a feasible basis, keeping N (rows), v (values) and den
    current. `columns` are the integer columns (q_j, e_j, a_j); the indices
    `priced` (all of them by default) are the ones that may enter, and
    cost[b] is e_b for every column that may be basic. A column equal to an
    earlier one can be left out of `priced`: its reduced cost is the
    earlier one's, and both rules below break ties to the smaller index, so
    it would never enter. Enters the
    column with the largest reduced cost r_j = (e_j den - Y . a_j) /
    (den q_j) (Dantzig), except right after a degenerate pivot, where it
    enters the smallest improving index (Bland): a cycle consists of
    degenerate pivots only, so every pivot in it would follow Bland's rule,
    which cannot cycle. den and q_j are positive, so r_j > 0 iff its
    numerator is, and r_j > r_k iff num_j q_k > num_k q_j. With n = N a_j,
    the ratio of row r is q_j v_r / (Q_b n_r), so the leaving row has
    n_r > 0 and the smallest v_r / n_r, ties to the smallest basic index.
    Returns den when optimal, None when unbounded.

    Only a run of degenerate pivots can come back to a basis, so the bases
    met in the current run are kept, dropped after a pivot that moves, and
    a repeat raises AssertionError naming the basis: a solver defect fails
    instead of looping."""
    candidates = list(enumerate(columns)) if priced is None else [(j, columns[j]) for j in priced]
    bland, seen = False, set()
    while True:
        ys = _prices(rows, basis, cost)
        if bland:
            improving = (j for j, (_, e, a) in candidates if e * den > sum(map(mul, ys, a)))
            entering = next(improving, -1)
        else:
            entering, best_num, best_q = -1, 0, 1
            for j, (q, e, a) in candidates:
                num = e * den - sum(map(mul, ys, a))
                if num > 0 and num * best_q > best_num * q:
                    entering, best_num, best_q = j, num, q
        if entering == -1:
            return den
        a = columns[entering][2]
        column = [sum(map(mul, row, a)) for row in rows]
        leaving, best_v, best_n = -1, 0, 1
        for r, n_r in enumerate(column):
            if n_r <= 0:
                continue
            lhs, rhs = values[r] * best_n, best_v * n_r
            if leaving == -1 or lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                leaving, best_v, best_n = r, values[r], n_r
        if leaving == -1:
            return None
        bland = best_v == 0
        if best_v:
            seen.clear()
        else:
            key = frozenset(basis)
            if key in seen:
                raise AssertionError(f"simplex came back to basis {sorted(key)} in a degenerate run")
            seen.add(key)
        den = _pivot(rows, values, basis, den, leaving, entering, column)


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase revised simplex. On "optimal" the result carries exact
    certificates: A x = b, x >= 0, value = c.x = dual.b, and every reduced
    cost <= 0.

    Artificial column r is sign_r e_r, with sign_r = -1 on a row whose rhs
    is negative, so N starts as diag(sign) over den 1 and B~ is a basis of
    the program as given: the dual is Y / den, with no sign to undo."""
    m, n = lp.nrows, lp.ncols
    columns = lp.integer_columns
    firsts = [group[0] for group in lp.column_groups]  # the columns priced
    beta, scale = _over_one_denominator(_ratios(lp.rhs))  # b = beta / Q_b

    # phase 1: artificial basis, minimize the artificials' sum; an original
    # column costs nothing, so its cost numerator is 0
    sign = [-1 if b < 0 else 1 for b in beta]
    rows = [[sign[r] if c == r else 0 for c in range(m)] for r in range(m)]
    values = [abs(b) for b in beta]
    basis = [n + r for r in range(m)]
    phase_one = [(q, 0, a) for q, _, a in columns]
    den = _run_simplex(phase_one, [0] * n + [-1] * m, rows, values, basis, 1, firsts)
    if any(v != 0 for b, v in zip(basis, values) if b >= n):
        return LPSolution(status="infeasible")

    # drive zero-level artificials out of the basis; rows with no original
    # pivot entry are redundant and get dropped. Their artificials, kept,
    # would keep N_r a_j = 0, so the other rows' divisions stay exact. The
    # first nonzero column is the first of its group
    for r in range(m - 1, -1, -1):
        if basis[r] < n:
            continue
        col = next((j for j in firsts if sum(map(mul, rows[r], columns[j][2]))), None)
        if col is None:
            del rows[r], values[r], basis[r]
        else:
            a = columns[col][2]
            den = _pivot(rows, values, basis, den, r, col, [sum(map(mul, row, a)) for row in rows])

    # phase 2 over the original columns, from the feasible basis
    cost = [e for _, e, _ in columns]
    den = _run_simplex(columns, cost, rows, values, basis, den, firsts)
    if den is None:
        return LPSolution(status="unbounded")

    # x_b = q_b v_b / (den Q_b), so c . x = sum e_b v_b / (den Q_b)
    primal = [ZERO] * n
    for b, v in zip(basis, values):
        primal[b] = Fraction(columns[b][0] * v, den * scale)
    solution = LPSolution(
        status="optimal",
        value=Fraction(sum(cost[b] * v for b, v in zip(basis, values)), den * scale),
        primal=tuple(primal),
        basis=tuple(basis),
        dual=tuple(Fraction(y, den) for y in _prices(rows, basis, cost)) if basis else (ZERO,) * m,
    )
    _check_optimal(lp, solution)
    return solution


def primal_value(lp: LinearProgram, x) -> Fraction:
    """c . x of a feasible point x of ints or Fractions: raises
    StructureError naming the first entry that is neither, then
    CertificateError naming the first negative entry, or the first row
    with A x != b. With x_j / q_j = w_j / D over one denominator, row r is
    (sum w_j a_jr) / D, compared with b_r = beta_r / Q_b by
    cross-multiplication."""
    if len(x) != lp.ncols:
        raise StructureError(f"point has {len(x)} entries for {lp.ncols} columns")
    _check_exact(x, "point entry {}")
    support, scaled = [], []
    for j, ((q, e, a), v) in enumerate(zip(lp.integer_columns, x)):
        num = v.numerator  # an int or Fraction has the sign of its numerator
        if num < 0:
            raise CertificateError(f"negative entry {v} in column {j}", ("column", j))
        if num:
            support.append((e, a))
            scaled.append((num, v.denominator * q))
    weights, den = _over_one_denominator(scaled)
    beta, scale = _over_one_denominator(_ratios(lp.rhs))
    for r, b in enumerate(lp.rhs):
        lhs = sum(w * a[r] for w, (_, a) in zip(weights, support))
        if lhs * scale != beta[r] * den:
            raise CertificateError(
                f"row {r} violated: A x = {Fraction(lhs, den)}, b = {b}", ("row", r)
            )
    return Fraction(sum(w * e for w, (e, _) in zip(weights, support)), den)


def _slack_numerators(lp: LinearProgram, dual):
    """(Y, D, nums): the dual entries (ints or Fractions) as Y / D over
    their least common denominator, and per group of equal columns
    (`column_groups`) the slack numerator Y . a_j - e_j D, the slack of
    each column of the group being num / (D q_j). The one slack kernel of
    `dual_slacks` and the solver's self-check."""
    ys, den = _over_one_denominator(_ratios(dual))
    columns = lp.integer_columns
    nums = []
    for group in lp.column_groups:
        _, e, a = columns[group[0]]
        nums.append(sum(map(mul, ys, a)) - e * den)
    return ys, den, nums


def _check_optimal(lp: LinearProgram, sol: LPSolution):
    """Exactness self-checks in integers; a violation would mean a solver
    bug: c . x is the value, every slack numerator is >= 0 and the dual
    objective Y . beta / (D Q_b) is the value, by cross-multiplication."""
    if primal_value(lp, sol.primal) != sol.value:
        raise AssertionError("objective row disagrees with c . x")
    ys, den, nums = _slack_numerators(lp, sol.dual)
    if any(num < 0 for num in nums):
        raise AssertionError("dual infeasible at claimed optimum")
    beta, scale = _over_one_denominator(_ratios(lp.rhs))
    value = sol.value
    if sum(map(mul, ys, beta)) * value.denominator != value.numerator * den * scale:
        raise AssertionError("strong duality violated")


def dual_slacks(lp: LinearProgram, dual) -> DualSlackReport:
    """Slack (dual^T A - c)_j per column; feasible iff all slacks >= 0.
    The dual entries must be ints or Fractions; with dual = Y / D over one
    denominator, slack j is (Y . a_j - e_j D) / (D q_j) on the integer
    columns (`_slack_numerators`), made once per group of equal columns
    (`column_groups`), and the dual objective is Y . beta / (D Q_b)."""
    if len(dual) != lp.nrows:
        raise StructureError(
            f"dual has {len(dual)} entries for {lp.nrows} rows"
        )
    _check_exact(dual, "dual entry {}")
    ys, den, nums = _slack_numerators(lp, dual)
    columns = lp.integer_columns
    slacks, tight = [ZERO] * lp.ncols, []
    for group, num in zip(lp.column_groups, nums):  # equal columns share one slack
        slack = Fraction(num, den * columns[group[0]][0])
        for j in group:
            slacks[j] = slack
        if num == 0:
            tight += group
    beta, scale = _over_one_denominator(_ratios(lp.rhs))
    return DualSlackReport(
        slacks=tuple(slacks),
        feasible=all(num >= 0 for num in nums),
        tight=tuple(sorted(tight)),
        dual_objective=Fraction(sum(map(mul, ys, beta)), den * scale),
    )
