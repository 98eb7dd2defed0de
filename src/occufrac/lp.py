"""Exact rational linear programming in equality standard form.

    maximize c . x   subject to   A x = b,  x >= 0

Two-phase revised simplex over Fractions. It keeps the basis inverse
B^-1 (rows x rows) and the basic values x_B, prices with y = c_B B^-1 and
r_j = c_j - y . A_j, and enters the column with the largest reduced cost
(Dantzig); the pivot after a degenerate one uses Bland's smallest-index
rule instead, so every solve terminates. The dual is y itself. Every
reported optimum, basis and dual vector is exact and checked before it is
returned; the programs solved here have at most a dozen rows.
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


def _pivot(inverse, values, basis, row, col, alpha):
    """Bring column col into the basis at row, where alpha = B^-1 A_col:
    the same row operations update B^-1 and x_B."""
    inv = 1 / alpha[row]
    prow = [a * inv for a in inverse[row]]
    inverse[row] = prow
    values[row] *= inv
    for r, factor in enumerate(alpha):
        if r == row or factor == 0:
            continue
        inverse[r] = [a - factor * p for a, p in zip(inverse[r], prow)]
        values[r] -= factor * values[row]
    basis[row] = col


def _dot(u, col) -> Fraction:
    return sum((a * x for a, x in zip(u, col) if x != 0), ZERO)


def _prices(inverse, basis, cost):
    """y = c_B B^-1, one price per row of the original program."""
    return [
        sum((cost[b] * u for b, u in zip(basis, inv_col) if cost[b] != 0), ZERO)
        for inv_col in zip(*inverse)
    ]


def _column(inverse, col):
    """B^-1 A_j for a column A_j of the original program."""
    return [_dot(inv_row, col) for inv_row in inverse]


def _run_simplex(columns, cost, inverse, values, basis):
    """Maximize cost . x over the columns from a feasible basis, keeping
    B^-1 (inverse) and x_B (values) current. Enters the column with the
    largest reduced cost r_j = c_j - y . A_j (Dantzig), except right after a
    degenerate pivot, where it enters the smallest improving index (Bland):
    a cycle consists of degenerate pivots only, so every pivot in it would
    follow Bland's rule, which cannot cycle. The leaving row is the smallest
    ratio, ties to the smallest basic index. Returns True when optimal,
    False when unbounded."""
    bland = False
    while True:
        y = _prices(inverse, basis, cost)
        reduced = ((j, cost[j] - _dot(y, col)) for j, col in enumerate(columns))
        if bland:
            entering = next((j for j, rc in reduced if rc > 0), -1)
        else:
            entering, best = -1, ZERO
            for j, rc in reduced:
                if rc > best:
                    entering, best = j, rc
        if entering == -1:
            return True
        alpha = _column(inverse, columns[entering])
        leaving = -1
        best_ratio = None
        for r, a in enumerate(alpha):
            if a <= 0:
                continue
            ratio = values[r] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[r] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = r
        if leaving == -1:
            return False
        bland = best_ratio == 0
        _pivot(inverse, values, basis, leaving, entering, alpha)


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase revised simplex. On "optimal" the result carries exact
    certificates: A x = b, x >= 0, value = c.x = dual.b, and every reduced
    cost <= 0.

    Artificial column r is sign_r e_r, with sign_r = -1 on a row whose rhs
    is negative, so the starting basis inverse is diag(sign) and B^-1 stays
    the inverse of a basis of the program as given: the dual is y = c_B B^-1
    itself, with no sign to undo."""
    m, n = lp.nrows, lp.ncols
    columns = list(zip(*lp.rows)) if m else [()] * n  # the program's own entries

    # phase 1: artificial basis, minimize the artificials' sum
    sign = [-1 if b < 0 else 1 for b in lp.rhs]
    inverse = [[Fraction(sign[r]) if c == r else ZERO for c in range(m)] for r in range(m)]
    values = [sign[r] * b for r, b in enumerate(lp.rhs)]
    basis = [n + r for r in range(m)]
    _run_simplex(columns, [ZERO] * n + [Fraction(-1)] * m, inverse, values, basis)
    if any(v != 0 for b, v in zip(basis, values) if b >= n):
        return LPSolution(status="infeasible")

    # drive zero-level artificials out of the basis; rows with no original
    # pivot entry are redundant and get dropped
    for r in range(m - 1, -1, -1):
        if basis[r] < n:
            continue
        col = next((j for j, a in enumerate(columns) if _dot(inverse[r], a) != 0), None)
        if col is None:
            del inverse[r], values[r], basis[r]
        else:
            _pivot(inverse, values, basis, r, col, _column(inverse, columns[col]))

    # phase 2 over the original columns, from the feasible basis
    if not _run_simplex(columns, lp.objective, inverse, values, basis):
        return LPSolution(status="unbounded")

    primal = [ZERO] * n
    for b, v in zip(basis, values):
        primal[b] = v
    solution = LPSolution(
        status="optimal",
        value=sum((lp.objective[b] * v for b, v in zip(basis, values)), ZERO),
        primal=tuple(primal),
        basis=tuple(basis),
        dual=tuple(_prices(inverse, basis, lp.objective)) if basis else (ZERO,) * m,
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
