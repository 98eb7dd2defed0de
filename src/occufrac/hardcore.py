"""The linear program over free-neighborhood distributions for independent
sets in d-regular graphs, with its hand-built dual certificate, plus the
exact laws of the free-neighborhood class and of the uncovered-neighbor
count of a uniform vertex in an actual graph.

The free neighborhood of a vertex v (given an independent set I) is the
subgraph induced by those neighbors of v with no neighbor in I outside
N(v). Columns of the program are isomorphism classes of graphs on at most
d vertices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import CapabilityError, CertificateError, DomainError
from .exactmath import IntPolynomial, degree, fugacity, last_program
from .graphs import (
    Graph,
    _classes_and_automorphisms,
    automorphism_orbits,
    canonical_key,
    mask_vertices,
    regular_degree,
)
from .lp import LinearProgram, dual_slacks, primal_value
from .polynomials import (
    ORACLE_LIMIT,
    _event_values,
    _mask_recursion,
    _pack,
    _state_model,
    _unpack,
    independence_poly,
    kdd_occupancy,
    occupancy,
)

MIN_D, MAX_D = 2, 7
FREE_LAW_LIMIT = 14


class NeighborhoodConfig(NamedTuple):
    """One isomorphism class of possible free neighborhoods."""

    index: int
    graph: Graph
    key: bytes
    poly: IntPolynomial  # independence polynomial of the class
    label: str  # "<n>v<m>e#<index>", the name reports give the class


@lru_cache(maxsize=None, typed=True)  # so 3.0 or True never reads 3's or 1's entry
def enumerate_configs(d: int):
    """All isomorphism classes on 0..d vertices, ordered by vertex count then
    canonical key. Column order of the primal program; the empty class
    comes first, at index 0.

    The classes below d vertices are those of enumerate_configs(d - 1).
    Each class's independence polynomial is grown from its parent record
    (i, S) of graphs._classes_and_automorphisms: the representative is
    class i on one vertex fewer plus a vertex with neighborhood S, so
    P = P(class i) + x P(class i - S), read packed from class i's memoized
    mask recursion, whose memo is cleared once the level is grown."""
    if degree(d) < MIN_D:
        raise DomainError(f"need d >= {MIN_D}")
    if d > MAX_D:
        raise CapabilityError(f"configuration enumeration supports {MIN_D} <= d <= {MAX_D}")
    configs = list(enumerate_configs(d - 1)) if d > MIN_D else []
    for n in range(d if configs else 0, d + 1):
        below = [cfg for cfg in configs if cfg.graph.n == n - 1]
        # a recursion on n - 1 vertices packs its polynomials in fields of
        # n bits, wide enough for the counts of the classes on n vertices
        recursions = [_mask_recursion(cfg.graph.adj, "hardcore", 1 << n, 1) for cfg in below]
        packed = [_pack(cfg.poly.coeffs, n) for cfg in below]
        classes, _, parents = _classes_and_automorphisms(n)
        for (key, h), parent in zip(classes, parents):
            coeffs = (1,)
            if parent is not None:
                i, mask = parent
                grown = packed[i] + (recursions[i]((1 << n - 1) - 1 & ~mask) << n)
                coeffs = _unpack(grown, n)
            index = len(configs)
            label = f"{n}v{h.edge_count}e#{index}"
            configs.append(NeighborhoodConfig(index, h, key, IntPolynomial(coeffs), label))
        for recursion in recursions:  # each refers to itself: free it now
            recursion.memo.clear()
    return tuple(configs)


def edgeless_config_index(d: int) -> int:
    """Index of the d-vertex edgeless class (first class on d vertices)."""
    return next(cfg.index for cfg in enumerate_configs(d) if cfg.graph.n == d)


def objective_scale(lam: Fraction) -> Fraction:
    lam = fugacity(lam)
    return lam / (2 * (1 + lam))


def _column(poly: IntPolynomial, d: int, p: int, q: int):
    """The column of a class with independence polynomial P at lam = p/q:
    the numerators over 2d(1+lam)P, times q^(d+1), of the objective
    lam (d + (1+lam) P'), the mass 2d(1+lam)P and the balance
    2(1+lam)(d - (1+lam) P')."""
    s = p + q  # q (1 + lam)
    top = d * q**d
    slope = s * poly.derivative().homogeneous(p, q, d - 1)  # q^d (1+lam) P'
    den = 2 * d * s * poly.homogeneous(p, q, d)
    return den, p * (top + slope), (den, 2 * s * (top - slope))


@last_program(degree)  # build, solve and certify share the last program
def build_primal(d: int, lam: Fraction) -> LinearProgram:
    """maximize scale * sum p_C (vacancy + crowding)
    s.t. sum p_C = 1 and sum p_C (vacancy - crowding) = 0, p >= 0, with
    scale = objective_scale(lam). The vacancy 1/P(lam) of class C is the
    probability that all its vertices are unoccupied, and its crowding
    (1+lam) P'(lam) / (d P(lam)) the scaled mean occupied-neighbor count.
    A column depends only on P, so each distinct P is evaluated once."""
    p, q = lam.numerator, lam.denominator
    made = {}
    columns = []
    for cfg in enumerate_configs(d):
        column = made.get(cfg.poly.coeffs)
        if column is None:
            column = made[cfg.poly.coeffs] = _column(cfg.poly, d, p, q)
        columns.append(column)
    return LinearProgram.from_columns(columns, [Fraction(1), Fraction(0)])


class CertificateReport(NamedTuple):
    """Self-contained dual-feasibility ledger: dual variable values, the
    slack of every constraint column, which columns are tight, the
    certified optimum and, for the matching certificate, the slack profile
    it checked."""

    dual_values: dict
    slacks: tuple  # (column id, slack) pairs
    tight: tuple  # column ids with slack exactly 0
    optimum: Fraction
    profile: tuple = ()  # F(0..d-1) of matching.check_slack_profile


def solver_dual_for_certificate(d: int, lam: Fraction):
    """The certificate prices as the dual of build_primal(d, lam)'s rows:
    scale * (norm, balance), where with u = (1+lam)^(-d) the mass row has
    norm = 2/(2-u) and the vacancy/crowding balance row balance = 1 - norm."""
    d, lam = degree(d), fugacity(lam)
    norm_price = 2 / (2 - Fraction(1) / (1 + lam) ** d)
    scale = objective_scale(lam)
    return (scale * norm_price, scale * (1 - norm_price))


def dual_certificate(d: int, lam: Fraction) -> CertificateReport:
    """Price build_primal(d, lam) with solver_dual_for_certificate and
    certify optimality. Slacks are reported divided by objective_scale(lam):
    norm + balance (vacancy - crowding) - (vacancy + crowding). Tight exactly
    on the empty class and the d-vertex edgeless class, strictly slack
    elsewhere; the dual objective is the occupancy fraction of K_{d,d}."""
    lam = fugacity(lam)
    dual = solver_dual_for_certificate(d, lam)
    program = build_primal(d, lam)
    report = dual_slacks(program, dual)
    configs = enumerate_configs(d)
    scale = objective_scale(lam)
    slacks, negative = [None] * len(configs), []
    for group in program.column_groups:  # equal columns share one slack
        slack = report.slacks[group[0]] / scale
        for j in group:
            slacks[j] = slack
        if slack < 0:
            negative.append(group[0])
    expected_tight = (0, edgeless_config_index(d))
    # the first failing class in column order is the one reported
    failing = negative + [j for j in expected_tight if slacks[j] > 0]
    if failing:
        cfg = configs[min(failing)]
        slack = slacks[cfg.index]
        if slack < 0:
            raise CertificateError(
                f"negative dual slack at configuration {cfg.label}", cfg, slack
            )
        raise CertificateError(
            f"expected tight configuration {cfg.label} has slack {slack}", cfg
        )
    unexpected = [configs[j].label for j in report.tight if j not in expected_tight]
    if unexpected:
        raise CertificateError(f"unexpected tight configurations {unexpected}")
    if report.dual_objective != kdd_occupancy(d, lam):
        raise CertificateError(f"strong duality fails: dual objective {report.dual_objective}")
    return CertificateReport(
        dual_values={"norm": dual[0] / scale, "balance": dual[1] / scale},
        slacks=tuple((cfg.label, s) for cfg, s in zip(configs, slacks)),
        tight=tuple(configs[j].label for j in report.tight),
        optimum=report.dual_objective,
    )


def ratio_gap_coefficients(c: Graph, d: int):
    """Integer coefficients s_1..s_2d of the polynomial
    R = (x T'(x))(P(x) - 1) - (x P'(x))(T(x) - 1), with T = independence
    polynomial of the d-vertex edgeless class and P that of c.

    Each s_k = sum_{i <= k/2} (k - 2i)(t_{k-i} r_i - t_i r_{k-i}) is
    non-negative, and for a nonempty c some s_k is positive unless P = T.
    So R(lam) > 0 at every lam > 0: the strict mean-size dominance
    lam P'/(P - 1) < lam T'/(T - 1). And x N = (1+x) R for the cleared
    slack numerator N = d P T - d T - (1+x) P' (T - 1) of c in the dual
    certificate, so N has non-negative coefficients too. (For the empty
    graph R vanishes identically.) Violations raise CertificateError.
    """
    if c.n > d:
        raise DomainError("configuration exceeds d vertices")
    r = independence_poly(c)

    def t(i):
        return comb(d, i)

    out = []
    for k in range(1, 2 * d + 1):
        s = 0
        for i in range(1, k // 2 + 1):
            s += (k - 2 * i) * (t(k - i) * r.coefficient(i) - t(i) * r.coefficient(k - i))
        out.append(s)
    if any(s < 0 for s in out):
        raise CertificateError(f"negative ratio-gap coefficient for {c!r}")
    edgeless = [t(i) for i in range(d + 1)]
    is_edgeless_poly = list(r.coeffs) == edgeless
    if c.n > 0 and not is_edgeless_poly and not any(s > 0 for s in out):
        raise CertificateError(f"ratio-gap coefficients all vanish for {c!r}")
    return out


def uncovered_count_distribution(g: Graph, lam: Fraction):
    """Exact law of the number of uncovered neighbors of a uniform vertex.

    A neighbor w of v is uncovered when no vertex of N(w) is occupied, so
    the law of v is weighed at lam by `polynomials._event_values` with one
    unit-weight event per neighbor; every vertex of one automorphism orbit
    has the same law (graphs.automorphism_orbits), so one representative
    per orbit is counted, weighted by the orbit size. Capped at
    ORACLE_LIMIT vertices, checked before the orbits are searched."""
    lam = fugacity(lam)
    d = regular_degree(g)
    if d is None:
        raise DomainError("graph must be regular")
    _state_model(g, "hardcore", ORACLE_LIMIT)
    orbits, _ = automorphism_orbits(g)
    by_count = [0] * (d + 1)
    for v, size in orbits:
        events = [(1, g.adj[w]) for w in g.neighbors(v)]
        for t, value in _event_values(g, "hardcore", lam, 0, events).items():
            by_count[t] += size * value
    z = _event_values(g, "hardcore", lam, 0, [])[0] * g.n
    return [Fraction(w, z) for w in by_count]


# ---------------------------------------------------------------------------
# Empirical free-neighborhood distribution of an actual graph

def free_neighborhood_distribution(g: Graph, lam: Fraction):
    """Exact law of the free-neighborhood class of a uniform vertex under
    the hard-core model, as a vector aligned with enumerate_configs(d).

    A neighbor w of v is free when no vertex of N(w) - N(v) is occupied;
    v is one of them, so an occupied v leaves no neighbor free. The states
    are weighed at lam by their free-neighborhood pattern, one bit per
    neighbor, by `polynomials._event_values`. An automorphism carries each
    independent set to one of the same size and the free neighborhood of v
    to that of its image, so every vertex of one orbit has the same law:
    one vertex per automorphism orbit is counted, weighted by the orbit size
    (graphs.automorphism_orbits).

    Verifies on the way out that the vector is a feasible point of
    build_primal(d, lam) (a distribution satisfying the balance constraint)
    whose objective is the true occupancy of g. With the balance holding,
    that objective is lam/(1+lam) E[vacancy] = lam/(1+lam) E[crowding].
    Capped at FREE_LAW_LIMIT vertices, checked before the orbits are
    searched.
    """
    lam = fugacity(lam)
    d = regular_degree(g)
    if d is None:
        raise DomainError("graph must be regular")
    _state_model(g, "hardcore", FREE_LAW_LIMIT)
    orbits, _ = automorphism_orbits(g)
    configs = enumerate_configs(d)
    by_graph = {cfg.graph: cfg.index for cfg in configs}
    by_key = {cfg.key: cfg.index for cfg in configs}
    weights = [0] * len(configs)
    for v, size in orbits:
        events = [(1 << w, g.adj[w] & ~g.adj[v]) for w in g.neighbors(v)]
        for mask, value in _event_values(g, "hardcore", lam, 0, events).items():
            # a class representative, as a labeled graph, needs no canonical form
            h = g.induced(mask_vertices(mask))
            idx = by_graph[h] if h in by_graph else by_key[canonical_key(h)]
            weights[idx] += size * value
    z = _event_values(g, "hardcore", lam, 0, [])[0] * g.n
    probs = [Fraction(w, z) for w in weights]
    if objective_value(probs, d, lam) != occupancy(g, lam):
        raise CertificateError("free-neighborhood law does not reproduce occupancy")
    return probs


def objective_value(probs, d: int, lam: Fraction) -> Fraction:
    """Program objective of a distribution vector aligned with the columns;
    raises CertificateError when it is not a feasible point of the program."""
    lam = fugacity(lam)
    return primal_value(build_primal(d, lam), probs)
