"""Exact rational linear programming in equality standard form.

    maximize c . x   subject to   A x = b,  x >= 0

Two-phase simplex over Fractions with Bland's anti-cycling rule, so every
solve terminates and every reported optimum, basis and dual vector is
exact. Dense tableau with the reduced costs as its last row, from which
the dual is read as well; the programs solved here have at most a handful
of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, StructureError

ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple
    rows: tuple
    rhs: tuple

    def __post_init__(self):
        ncols = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise StructureError("row count does not match rhs length")
        for r, row in enumerate(self.rows):
            if len(row) != ncols:
                raise StructureError(f"row {r} has {len(row)} entries, need {ncols}")

    @property
    def ncols(self) -> int:
        return len(self.objective)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def make_lp(objective, rows, rhs) -> LinearProgram:
    return LinearProgram(
        tuple(Fraction(c) for c in objective),
        tuple(tuple(Fraction(a) for a in row) for row in rows),
        tuple(Fraction(b) for b in rhs),
    )


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    primal: tuple | None = None
    basis: tuple | None = None
    dual: tuple | None = None

    @property
    def support(self):
        """Columns with a nonzero primal entry; () when there is no primal."""
        if self.primal is None:
            return ()
        return tuple(j for j, x in enumerate(self.primal) if x != 0)


@dataclass(frozen=True)
class DualSlackReport:
    """Per-column slacks (dual^T A - c)_j of a candidate dual vector."""

    slacks: tuple
    feasible: bool
    tight: tuple  # columns with slack exactly 0
    dual_objective: Fraction


def _pivot(tableau, basis, row, col):
    """Pivot on (row, col); every other row, the reduced-cost row included,
    is eliminated in the same sweep."""
    piv = tableau[row][col]
    inv = 1 / piv
    tableau[row] = [a * inv for a in tableau[row]]
    prow = tableau[row]
    for r in range(len(tableau)):
        if r == row:
            continue
        factor = tableau[r][col]
        if factor == 0:
            continue
        tableau[r] = [a - factor * p for a, p in zip(tableau[r], prow)]
    basis[row] = col


def _reduced_cost_row(tableau, basis, cost):
    """cost - c_B B^-1 [A | I] over every column, then -c_B x_B: the row the
    simplex prices with and the pivots keep current."""
    priced = [(cost[b], tableau[r]) for r, b in enumerate(basis) if cost[b] != 0]
    return [
        c - sum(cb * row[j] for cb, row in priced)
        for j, c in enumerate(list(cost) + [ZERO])
    ]


def _run_simplex(tableau, basis, allowed_cols):
    """Maximize with Bland's rule over the tableau whose last row holds the
    reduced costs. Returns True when optimal, False when unbounded."""
    while True:
        # Bland: smallest improving index; basic columns price out to 0
        entering = next((j for j in allowed_cols if tableau[-1][j] > 0), -1)
        if entering == -1:
            return True
        leaving = -1
        best_ratio = None
        for r in range(len(basis)):
            a = tableau[r][entering]
            if a <= 0:
                continue
            ratio = tableau[r][-1] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[r] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = r
        if leaving == -1:
            return False
        _pivot(tableau, basis, leaving, entering)


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex. On "optimal" the result carries exact certificates:
    A x = b, x >= 0, value = c.x = dual.b, and every reduced cost <= 0.

    The dual is read off the reduced costs of the artificial columns, whose
    entries in the tableau are the accumulated row operations:
    y_r = -sign_r * rc[n + r], sign_r = -1 on a row negated for its rhs."""
    m, n = lp.nrows, lp.ncols

    # phase 1: artificial identity basis, rhs made non-negative
    sign = [-1 if b < 0 else 1 for b in lp.rhs]
    tableau = []
    for r in range(m):
        row = list(lp.rows[r]) + [ZERO] * m + [lp.rhs[r]]
        if sign[r] < 0:
            row = [-a for a in row]
        row[n + r] = Fraction(1)
        tableau.append(row)
    basis = [n + r for r in range(m)]
    tableau.append(_reduced_cost_row(tableau, basis, [ZERO] * n + [Fraction(-1)] * m))
    _run_simplex(tableau, basis, range(n + m))
    if tableau[-1][-1] != 0:  # the artificials still carry mass
        return LPSolution(status="infeasible")

    # drive zero-level artificials out of the basis; rows with no original
    # pivot entry are redundant and get dropped
    for r in range(m - 1, -1, -1):
        if basis[r] < n:
            continue
        col = next((j for j in range(n) if tableau[r][j] != 0), None)
        if col is None:
            del tableau[r]
            del basis[r]
        else:
            _pivot(tableau, basis, r, col)

    # phase 2 over original columns only; the phase-1 row goes first so the
    # two reduced-cost rows never take memory together
    tableau.pop()
    tableau.append(_reduced_cost_row(tableau, basis, lp.objective + (ZERO,) * m))
    if not _run_simplex(tableau, basis, range(n)):
        return LPSolution(status="unbounded")

    primal = [ZERO] * n
    for r, b in enumerate(basis):
        primal[b] = tableau[r][-1]
    rc = tableau[-1]
    solution = LPSolution(
        status="optimal",
        value=-rc[-1],
        primal=tuple(primal),
        basis=tuple(basis),
        dual=tuple(-sign[r] * rc[n + r] for r in range(m)),
    )
    _check_optimal(lp, solution)
    return solution


def primal_value(lp: LinearProgram, x) -> Fraction:
    """c . x of a feasible point x: raises CertificateError naming the
    first row with A x != b, or the first negative entry."""
    if len(x) != lp.ncols:
        raise StructureError(f"point has {len(x)} entries for {lp.ncols} columns")
    for j, v in enumerate(x):
        if v < 0:
            raise CertificateError(f"negative entry {v} in column {j}", ("column", j))
    support = [(j, v) for j, v in enumerate(x) if v != 0]
    for r, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        lhs = sum((row[j] * v for j, v in support), ZERO)
        if lhs != b:
            raise CertificateError(f"row {r} violated: A x = {lhs}, b = {b}", ("row", r))
    return sum((lp.objective[j] * v for j, v in support), ZERO)


def _check_optimal(lp: LinearProgram, sol: LPSolution):
    # exactness self-checks; violations would mean a solver bug
    if primal_value(lp, sol.primal) != sol.value:
        raise AssertionError("objective row disagrees with c . x")
    report = dual_slacks(lp, sol.dual)
    if not report.feasible:
        raise AssertionError("dual infeasible at claimed optimum")
    if report.dual_objective != sol.value:
        raise AssertionError("strong duality violated")


def dual_slacks(lp: LinearProgram, dual) -> DualSlackReport:
    """Slack (dual^T A - c)_j per column; feasible iff all slacks >= 0."""
    if len(dual) != lp.nrows:
        raise StructureError(
            f"dual has {len(dual)} entries for {lp.nrows} rows"
        )
    slacks = []
    for j in range(lp.ncols):
        s = -lp.objective[j]
        for r in range(lp.nrows):
            if dual[r] != 0:
                s += dual[r] * lp.rows[r][j]
        slacks.append(s)
    dual_obj = sum((y * b for y, b in zip(dual, lp.rhs)), ZERO)
    return DualSlackReport(
        slacks=tuple(slacks),
        feasible=all(s >= 0 for s in slacks),
        tight=tuple(j for j, s in enumerate(slacks) if s == 0),
        dual_objective=dual_obj,
    )
