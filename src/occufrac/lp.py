"""Exact rational linear programming in equality standard form.

    maximize c . x   subject to   A x = b,  x >= 0

A program is held as integer columns: column j is (q_j, e_j, a_j) with
c_j = e_j / q_j and A_j = a_j / q_j, q_j > 0 and gcd(q_j, e_j, a_j) = 1,
so q_j is the least common denominator of the column. The rhs b is kept in
Fractions. `LinearProgram.from_columns` takes columns over any positive
scale, which is how the certify programs are built, and `make_lp` takes int
or Fraction entries and converts each column through the lcm of its
denominators. The Fraction views `objective` and `rows` are derived on
first use; the solver and the certificate checks read the columns.

Two-phase revised simplex. It keeps the basis inverse B^-1 (rows x rows)
and the basic values x_B as Fractions, and prices with y = c_B B^-1 written
as Y / D over integers: the reduced cost r_j = c_j - y . A_j is
(e_j D - Y . a_j) / (D q_j), so one integer numerator per column decides
its sign and, by cross-multiplication, its rank. It enters the column with
the largest reduced cost (Dantzig); the pivot after a degenerate one uses
Bland's smallest-index rule instead, so every solve terminates. The dual is
y itself. Every reported optimum, basis and dual vector is exact and
checked before it is returned; the programs solved here have at most a
dozen rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import CertificateError, StructureError

ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearProgram:
    """max c . x, A x = b, x >= 0 as integer columns and a Fraction rhs;
    build one with `from_columns` or `make_lp`."""

    integer_columns: tuple  # (q_j, e_j, a_j) per column, in lowest terms
    rhs: tuple

    def __post_init__(self):
        _check_exact(self.rhs, "rhs row {}")
        for j, (q, e, a) in enumerate(self.integer_columns):
            if len(a) != self.nrows:
                raise StructureError(f"column {j} has {len(a)} entries, need {self.nrows}")
            if not all(type(x) is int for x in (q, e, *a)) or q <= 0:
                raise StructureError(f"column {j} is not (q, e, a) over ints with q > 0")

    @classmethod
    def from_columns(cls, columns, rhs) -> LinearProgram:
        """The program whose column j is c_j = e_j / q_j, A_j = a_j / q_j for
        integers (q_j, e_j, a_j) with q_j > 0: each is divided by its gcd."""
        reduced = []
        for q, e, a in columns:
            g = gcd(q, e, *a) or 1  # an all-zero column is rejected below
            reduced.append((q // g, e // g, tuple(x // g for x in a)))
        return cls(tuple(reduced), _fractions(rhs))

    @property
    def ncols(self) -> int:
        return len(self.integer_columns)

    @property
    def nrows(self) -> int:
        return len(self.rhs)

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


def _column(inverse, column):
    """B^-1 A_j for an integer column (q_j, e_j, a_j), A_j = a_j / q_j."""
    q, _, a = column
    return [_dot(inv_row, a) / q for inv_row in inverse]


def _over_one_denominator(y):
    """(Y, D) with y = Y / D, Y integers and D > 0 the least common
    denominator."""
    den = lcm(*(p.denominator for p in y))
    return [p.numerator * (den // p.denominator) for p in y], den


def _run_simplex(columns, cost, inverse, values, basis):
    """Maximize cost . x from a feasible basis, keeping B^-1 (inverse) and
    x_B (values) current. `columns` are the integer columns (q_j, e_j, a_j)
    with e_j / q_j = cost[j]; `cost` also prices the artificial columns that
    may be basic. Enters the column with the largest reduced cost
    r_j = (e_j D - Y . a_j) / (D q_j), where y = c_B B^-1 = Y / D (Dantzig),
    except right after a degenerate pivot, where it enters the smallest
    improving index (Bland): a cycle consists of degenerate pivots only, so
    every pivot in it would follow Bland's rule, which cannot cycle. D and
    q_j are positive, so r_j > 0 iff its numerator is, and r_j > r_k iff
    num_j q_k > num_k q_j. The leaving row is the smallest ratio, ties to
    the smallest basic index. Returns True when optimal, False when
    unbounded."""
    bland = False
    while True:
        ys, den = _over_one_denominator(_prices(inverse, basis, cost))
        if bland:
            improving = (j for j, (_, e, a) in enumerate(columns) if e * den > sum(map(mul, ys, a)))
            entering = next(improving, -1)
        else:
            entering, best_num, best_q = -1, 0, 1
            for j, (q, e, a) in enumerate(columns):
                num = e * den - sum(map(mul, ys, a))
                if num > 0 and num * best_q > best_num * q:
                    entering, best_num, best_q = j, num, q
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
    columns = lp.integer_columns

    # phase 1: artificial basis, minimize the artificials' sum; an original
    # column costs nothing, so its cost numerator is 0
    sign = [-1 if b < 0 else 1 for b in lp.rhs]
    inverse = [[Fraction(sign[r]) if c == r else ZERO for c in range(m)] for r in range(m)]
    values = [sign[r] * b for r, b in enumerate(lp.rhs)]
    basis = [n + r for r in range(m)]
    phase_one = [(q, 0, a) for q, _, a in columns]
    _run_simplex(phase_one, [ZERO] * n + [Fraction(-1)] * m, inverse, values, basis)
    if any(v != 0 for b, v in zip(basis, values) if b >= n):
        return LPSolution(status="infeasible")

    # drive zero-level artificials out of the basis; rows with no original
    # pivot entry are redundant and get dropped
    for r in range(m - 1, -1, -1):
        if basis[r] < n:
            continue
        col = next((j for j, (_, _, a) in enumerate(columns) if _dot(inverse[r], a) != 0), None)
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
    first row with A x != b, or the first negative entry. With x_j / q_j
    = w_j / D over one denominator, row r is (sum w_j a_jr) / D."""
    if len(x) != lp.ncols:
        raise StructureError(f"point has {len(x)} entries for {lp.ncols} columns")
    for j, v in enumerate(x):
        if v < 0:
            raise CertificateError(f"negative entry {v} in column {j}", ("column", j))
    support, scaled = [], []
    for (q, e, a), v in zip(lp.integer_columns, x):
        if v != 0:
            support.append((e, a))
            scaled.append(Fraction(v, q))
    weights, den = _over_one_denominator(scaled)
    for r, b in enumerate(lp.rhs):
        lhs = Fraction(sum(w * a[r] for w, (_, a) in zip(weights, support)), den)
        if lhs != b:
            raise CertificateError(f"row {r} violated: A x = {lhs}, b = {b}", ("row", r))
    return Fraction(sum(w * e for w, (e, _) in zip(weights, support)), den)


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
    """Slack (dual^T A - c)_j per column; feasible iff all slacks >= 0.
    The dual entries must be ints or Fractions; with dual = Y / D over one
    denominator, slack j is (Y . a_j - e_j D) / (D q_j) on the integer
    columns."""
    if len(dual) != lp.nrows:
        raise StructureError(
            f"dual has {len(dual)} entries for {lp.nrows} rows"
        )
    for r, y in enumerate(dual):
        if not isinstance(y, (int, Fraction)):
            raise StructureError(f"dual entry {r} is {y!r}, not an int or a Fraction")
    ys, den = _over_one_denominator(dual)
    slacks = tuple(
        Fraction(sum(map(mul, ys, a)) - e * den, den * q) for q, e, a in lp.integer_columns
    )
    dual_obj = sum((y * b for y, b in zip(dual, lp.rhs)), ZERO)
    return DualSlackReport(
        slacks=slacks,
        feasible=all(s >= 0 for s in slacks),
        tight=tuple(j for j, s in enumerate(slacks) if s == 0),
        dual_objective=dual_obj,
    )
