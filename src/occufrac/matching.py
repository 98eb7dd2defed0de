"""The linear program over edge free-neighborhood configurations for
matchings of d-regular graphs, with the full dual-certificate pipeline:
row prices from a downward recurrence, the telescoping slack profile in
its two forms, and the Laguerre-style polynomial identity behind them.

A configuration is a triple (i, j, k): the number of pendant edges at the
left and right endpoints of the chosen edge and the number of triangles
through it, restricted to i + k <= d-1 and j + k <= d-1 (each endpoint
meets only d-1 other edges).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .errors import CapabilityError, CertificateError, DomainError
from .exactmath import IntPolynomial, fugacity
from .graphs import Graph, automorphism_orbits, mask_vertices, regular_degree
from .hardcore import CertificateReport
from .lp import LinearProgram, _over_one_denominator, dual_slacks, primal_value
from .polynomials import (
    _event_polynomials,
    _state_model,
    edge_occupancy,
    kdd_edge_occupancy,
    kdd_matching_poly,
)

# the program has d(d+1)(2d+1)/6 columns, 9455 at d = 30; the cap keeps a
# certificate over a few fugacities well inside 10 s
MAX_D = 30


def enumerate_triples(d: int):
    """All admissible (i, j, k) in lexicographic order."""
    if d < 2:
        raise DomainError("need d >= 2")
    return [
        (i, j, k)
        for i in range(d)
        for j in range(d)
        for k in range(d - max(i, j))
    ]


def local_matching_poly(i: int, j: int, k: int) -> IntPolynomial:
    """Matching polynomial of the configuration graph:
    1 + (i+j+2k) x + (k^2 + k(i+j-1) + ij) x^2."""
    _check_triple_shape(i, j, k)
    return IntPolynomial((1, i + j + 2 * k, k * k + k * (i + j - 1) + i * j))


def _check_triple_shape(i, j, k):
    if min(i, j, k) < 0:
        raise DomainError("triple entries must be non-negative")


def _check_triple(i, j, k, d):
    _check_triple_shape(i, j, k)
    if i + k > d - 1 or j + k > d - 1:
        raise DomainError(f"triple ({i},{j},{k}) not admissible for d={d}")


def conditional_partition(i: int, j: int, k: int, lam: Fraction) -> Fraction:
    """Partition function of the local model with the chosen edge added:
    lam + M(lam)."""
    lam = fugacity(lam)
    return lam + local_matching_poly(i, j, k)(lam)


def local_edge_occupancy(i: int, j: int, k: int, lam: Fraction, d: int) -> Fraction:
    """Expected fraction of the 2(d-1) incident edges that are matched,
    conditioned on the configuration: lam M' / (2(d-1)(lam + M))."""
    lam = fugacity(lam)
    _check_triple(i, j, k, d)
    m = local_matching_poly(i, j, k)
    return lam * m.derivative()(lam) / (2 * (d - 1) * conditional_partition(i, j, k, lam))


def _star(t: int, lam: Fraction) -> Fraction:
    """Matching partition function of a t-edge star: 1 + t*lam."""
    return 1 + t * lam


def _marginal_gap(i: int, j: int, k: int, d: int, p: int, q: int) -> list:
    """Neighbor marginal minus edge marginal of (i, j, k) at lam = p/q for
    t = 0..d-2, times (d-1) q^2 (lam + M): each entry is a form of degree 2
    in (p, q). Conditioned on the configuration, the edge marginal is the
    law of the number of uncovered same-side neighbors of the chosen edge,
    and the neighbor marginal that of the number of uncovered neighbors, on
    the side of the chosen edge, of a uniform same-side neighboring edge."""
    pq, qq = p * q, q * q
    pend = i * p * (q + (j + k) * p) + k * p * (q + (j + k - 1) * p)
    a = i + k
    gap = [0] * (d - 1)
    for t, weight in (
        (0, pend - (d - 1) * pq),
        (1, (d - 1) * pq - pend),
        (a - 2, (a - 1) * k * pq),
        (a - 1, (a * j - (a - 1) * k) * pq),
        (a, (a - d + 1) * qq - a * j * pq),
        (a + 1, (d - 1 - a) * qq),
    ):
        if 0 <= t < d - 1:  # weights off 0..d-1 are zero, and t = d-1 has no row
            gap[t] += weight
    return gap


@lru_cache(maxsize=1)  # the last program: build, solve and certify share it
def build_primal(d: int, lam: Fraction) -> LinearProgram:
    """maximize sum q(i,j,k) * local_edge_occupancy subject to sum q = 1 and,
    for t = 0..d-2, equality of the symmetrized neighbor/edge marginals.

    Column (i, j, k) is over 2(d-1)(lam + M), M = local_matching_poly(i, j, k),
    with numerators evaluated as forms of degree 2 at lam = p/q: lam M' in
    the objective, the denominator itself in the mass row, and in marginal
    row t the gap of (i, j, k) plus the gap of its (j, i, k) twin, which
    has the same M: twins have equal columns, built once."""
    lam = fugacity(lam)  # 1 and Fraction(1) share a cache entry: build exactly
    p, q = lam.numerator, lam.denominator
    columns = {}
    for i, j, k in enumerate_triples(d):
        if j < i:  # the twin (j, i, k) came first and has the same column
            columns[i, j, k] = columns[j, i, k]
            continue
        m = local_matching_poly(i, j, k)
        den = 2 * (d - 1) * (p * q + m.homogeneous(p, q, 2))
        gap = _marginal_gap(i, j, k, d, p, q)
        twin = gap if i == j else _marginal_gap(j, i, k, d, p, q)
        marginal = [x + y for x, y in zip(gap, twin)]
        columns[i, j, k] = (den, p * m.derivative().homogeneous(p, q, 1), [den] + marginal)
    return LinearProgram.from_columns(columns.values(), [Fraction(1)] + [Fraction(0)] * (d - 1))


# ---------------------------------------------------------------------------
# Dual variables

class MatchingDuals(NamedTuple):
    """Row prices for the marginal constraints (index t = 0..d-1, the last
    pinned to 0) plus the certified optimum."""

    d: int
    lam: Fraction
    prices: tuple
    optimum: Fraction

    def price(self, t: int) -> Fraction:
        return self.prices[t]


def dual_row_prices(d: int, lam: Fraction) -> MatchingDuals:
    """Solve the diagonal-configuration equality constraints for the row
    prices: pin price[d-1] = 0, then for i = d-1 down to 1 solve the (i, i, 0)
    constraint for price[i-1], whose coefficient there is i^2 lam. Verifies
    every diagonal constraint afterwards, the i = 0 one the solve never
    used included."""
    lam = fugacity(lam)
    if d < 2:
        raise DomainError("need d >= 2")
    alpha = kdd_edge_occupancy(d, lam)
    prices = [Fraction(0)] * d
    partial = MatchingDuals(d=d, lam=lam, prices=prices, optimum=alpha)
    for i in range(d - 1, 0, -1):
        # price[i-1] is still 0, so the residual is the rest of the constraint
        prices[i - 1] = -_diagonal_residual(partial, i) / (i * i * lam)
    duals = MatchingDuals(d=d, lam=lam, prices=tuple(prices), optimum=alpha)
    for i in range(d):
        if _diagonal_residual(duals, i) != 0:
            raise CertificateError(f"diagonal constraint {i} violated", i)
    return duals


def _diagonal_residual(duals: MatchingDuals, i: int) -> Fraction:
    """(d-1) times the diagonal equality constraint at (i, i, 0); zero when
    the prices are consistent."""
    d, lam = duals.d, duals.lam
    star, ilam = _star(i, lam), i * lam
    res = star * (duals.optimum * ((d - 1) * star + ilam) - ilam)
    if i >= 1:
        res += duals.price(i - 1) * i * ilam
    res -= duals.price(i) * (d - 1 - i + i * ilam)
    if i + 1 <= d - 1:
        res += duals.price(i + 1) * (d - 1 - i)
    # for i = d-1 the price[d] coefficient (d-1-i) vanishes
    return res


def standard_dual_vector(duals: MatchingDuals):
    """(optimum, price_0..price_{d-2}) as the dual of build_primal's rows."""
    return (duals.optimum,) + duals.prices[: duals.d - 1]


# ---------------------------------------------------------------------------
# The slack profile F and the per-triple slack L

def slack_profile(t: int, duals: MatchingDuals) -> Fraction:
    """t * [lam (1 - d*optimum) + price_t - price_{t-1}] for 1 <= t <= d-1;
    0 at t = 0."""
    d, lam = duals.d, duals.lam
    if t == 0:
        return Fraction(0)
    if not 1 <= t <= d - 1:
        raise DomainError(f"slack profile defined for 0 <= t <= {d - 1}")
    return t * (
        lam * (1 - d * duals.optimum) + duals.price(t) - duals.price(t - 1)
    )


def slack_profile_explicit(t: int, lam: Fraction, kdd) -> Fraction:
    """Closed form: t(d-1)/M_d * sum_{l=t-1}^{d-2} (d-1-t)!/(l+1-t)! *
    lam^(d-l) * M_l, with kdd = (M_0(lam), ..., M_d(lam)) the matching
    polynomials of K_{s,s} evaluated at lam."""
    lam = fugacity(lam)
    d = len(kdd) - 1
    if t == 0:
        return Fraction(0)
    if not 1 <= t <= d - 1:
        raise DomainError(f"slack profile defined for 0 <= t <= {d - 1}")
    total = Fraction(0)
    for ell in range(t - 1, d - 1):  # ell + 1 - t <= d - 1 - t: the ratio is an int
        total += factorial(d - 1 - t) // factorial(ell + 1 - t) * lam ** (d - ell) * kdd[ell]
    return t * (d - 1) * total / kdd[d]


def check_slack_profile(d: int, lam: Fraction) -> dict:
    """Every identity of the slack profile F in one pass, with M_s the
    matching polynomial of K_{s,s} evaluated once at lam for s = 0..d: F
    agrees with its closed form, ends at (d-1)^2 lam^2 M_{d-2}/M_d, obeys
    (d-1-t) F(t+1) = (t+1)[t lam F(t) + (d-1) lam - (d-1) alpha (1+(d+t)lam)]
    for t = 1..d-2 with alpha the extremal edge occupancy, and increases
    strictly; and the crude star bound M_t > t lam M_{t-1} holds for
    t = 1..d. Each failure is a CertificateError naming its t.

    Returns the row prices ("duals"), F(0..d-1) ("profile"), the
    normalized increments M_d/(d-1) * (F(t+1) - F(t)) / (d-2-t)! for
    t = 1..d-2 ("increments") and the pairs (M_t, t lam M_{t-1}) ("crude")."""
    lam = fugacity(lam)
    duals = dual_row_prices(d, lam)
    kdd = [kdd_matching_poly(s)(lam) for s in range(d + 1)]
    profile = [slack_profile(t, duals) for t in range(d)]
    for t in range(1, d):
        if profile[t] != slack_profile_explicit(t, lam, kdd):
            raise CertificateError(f"slack profile forms disagree at t={t}", t)
    if profile[d - 1] != (d - 1) ** 2 * lam * lam * kdd[d - 2] / kdd[d]:
        raise CertificateError(f"slack profile end value mismatch at t={d - 1}", d - 1)
    for t in range(1, d - 1):
        tail = (d - 1) * lam - (d - 1) * duals.optimum * _star(d + t, lam)
        if (d - 1 - t) * profile[t + 1] != (t + 1) * (t * lam * profile[t] + tail):
            raise CertificateError(f"profile recurrence fails at t={t}", t)
    increments = []
    for t in range(1, d - 1):
        inc = profile[t + 1] - profile[t]
        if inc <= 0:
            raise CertificateError(f"profile not increasing at t={t}", t)
        increments.append(kdd[d] / (d - 1) * inc / factorial(d - 2 - t))
    crude = []
    for t in range(1, d + 1):
        pair = (kdd[t], t * lam * kdd[t - 1])
        if pair[0] <= pair[1]:
            raise CertificateError(f"crude star bound fails at t={t}", t)
        crude.append(pair)
    return {"duals": duals, "profile": profile, "increments": increments, "crude": crude}


def _scaled_duals(duals: MatchingDuals, profile=()):
    """(D, A, P, F): D > 0 the least common denominator of
    lam (1 - d optimum), the prices and the profile values, and as integers
    A = lam (1 - d optimum) D, the prices times D and the profile times D."""
    d = duals.d
    drift = duals.lam * (1 - d * duals.optimum)
    scaled, den = _over_one_denominator([drift, *duals.prices, *profile])
    return den, scaled[0], scaled[1 : d + 1], scaled[d + 1 :]


def _slack_numerator(i: int, j: int, k: int, drift: int, prices) -> int:
    """L(i,j,k) times D, from drift = lam (1 - d optimum) D and the prices
    times D (see _scaled_duals)."""
    val = drift * ((i - j) ** 2 + 2 * k)
    for a, b in ((i, j), (j, i)):
        for idx, coeff in (
            (a + k - 2, (a + k - 1) * k),
            (a + k - 1, k + (a + k) * (b - a - 2 * k)),
            (a + k, (a + k) * (a + k - b)),
        ):
            if coeff:
                val += prices[idx] * coeff
    return val


def check_dual_constraints(d: int, lam: Fraction) -> CertificateReport:
    """Full dual certificate: verifies the slack profile (check_slack_profile),
    strong duality on build_primal(d, lam), that each column's slack there
    times 2(d-1)(lam + M) is lam times the simplified slack, zero slack
    exactly on the diagonal (i, i, 0) triples, strict positivity everywhere
    else, the telescoping identity and the profile difference form. The
    simplified slacks and the profile are compared as integer numerators
    over one denominator D."""
    lam = fugacity(lam)
    if d > MAX_D:
        raise CapabilityError(f"matching certificate supports d <= {MAX_D}")
    checked = check_slack_profile(d, lam)
    duals, profile = checked["duals"], checked["profile"]
    priced = dual_slacks(build_primal(d, lam), standard_dual_vector(duals))
    if priced.dual_objective != duals.optimum:
        raise CertificateError(f"strong duality fails: dual objective {priced.dual_objective}")
    den, drift, prices, f = _scaled_duals(duals, profile)
    p, q = lam.numerator, lam.denominator
    pq = p * q
    slacks = []
    tight = []
    values = {}
    checked = {}  # (raw slack, L D, L) of each triple checked
    for (i, j, k), raw in zip(enumerate_triples(d), priced.slacks):
        label = f"({i},{j},{k})"
        twin = checked.get((j, i, k))
        if twin is not None and twin[0] == raw:
            # M and L are symmetric in i and j, so a twin (j, i, k) with the
            # same raw slack passed every check below with these values
            _, val, slack = twin
        else:
            val = _slack_numerator(i, j, k, drift, prices)
            # 2(d-1)(lam + M) raw = lam L, times q^2 D
            scale = 2 * (d - 1) * (pq + local_matching_poly(i, j, k).homogeneous(p, q, 2))
            if scale * raw.numerator * den != pq * val * raw.denominator:
                raise CertificateError(
                    f"raw and simplified slacks inconsistent at ({i},{j},{k})"
                )
            slack = Fraction(val, den)
            if i == j and k == 0:
                if val != 0:
                    raise CertificateError(f"diagonal triple {label} has slack {slack}")
                tight.append(label)
            elif val <= 0:
                raise CertificateError(f"non-diagonal triple {label} has slack {slack}")
            checked[i, j, k] = raw, val, slack
        values[i, j, k] = val
        slacks.append((label, slack))
    for i, j, k in enumerate_triples(d):
        if i >= 1 and j >= 1:
            step = f[i + k] - f[i + k - 1] + f[j + k] - f[j + k - 1]
            if values[i - 1, j - 1, k + 1] - values[i, j, k] != step:
                raise CertificateError(
                    f"telescoping identity fails at ({i},{j},{k})"
                )
    for i in range(d):
        for j in range(d):
            if values[i, j, 0] != (j - i) * (f[j] - f[i]):
                raise CertificateError(f"profile difference form fails at ({i},{j},0)")
    dual_values = {"optimum": duals.optimum}
    for t in range(d - 1):
        dual_values[f"price_{t}"] = duals.price(t)
    return CertificateReport(
        dual_values=dual_values,
        slacks=tuple(slacks),
        tight=tuple(tight),
        optimum=duals.optimum,
        profile=tuple(profile),
    )


def check_monotone_profile(d: int, lam: Fraction) -> dict:
    """Strict monotonicity of the slack profile plus the positivity of the
    normalized increments and the crude star bound M_t > t lam M_{t-1},
    as checked by check_slack_profile."""
    lam = fugacity(lam)
    if d < 3:
        raise DomainError("profile monotonicity needs d >= 3")
    checked = check_slack_profile(d, lam)
    return {key: checked[key] for key in ("profile", "increments", "crude")}


def laguerre_identity_residual(d: int) -> IntPolynomial:
    """M_d - (1 + (2d-1)x) M_{d-1} + (d-1)^2 x^2 M_{d-2} as a polynomial;
    identically zero for every d >= 2."""
    if d < 2:
        raise DomainError("need d >= 2")
    beta = IntPolynomial((1, 2 * d - 1))
    correction = ((d - 1) ** 2) * kdd_matching_poly(d - 2).shift(2)
    return kdd_matching_poly(d) - beta * kdd_matching_poly(d - 1) + correction


def laguerre_identity_holds(d: int) -> bool:
    return laguerre_identity_residual(d).is_zero


# ---------------------------------------------------------------------------
# Empirical configuration distribution of an actual graph

def edge_neighborhood_distribution(g: Graph, lam: Fraction, limit: int = 20):
    """Exact law of the (i, j, k) configuration of a uniform oriented edge
    under the monomer-dimer model, as a dict keyed by triple.

    A neighbor w of the edge (u, v) counts when it is unmatched or matched
    to u or v, that is when no edge of g - u - v covers it. So the
    matchings of g - u - v are counted by their triple by
    `polynomials._event_polynomials`, with one event per neighbor w, and
    u and v extend one with triple (i, j, k) in
    1 + (1 + i + j + 2k) x + ((i + k)(j + k) - k) x^2 ways: the edge (u, v),
    one edge from u or v to a counted neighbor, or one from each to two
    distinct ones. An automorphism carries each matching to one of the same
    size and the triple of an edge to that of its image, so one edge per
    automorphism orbit is counted, weighted by the orbit size
    (graphs.automorphism_orbits), and each triple of (u, v) also counts as
    its mirror, the triple of (v, u).

    Verifies that the law is a feasible point of build_primal(d, lam) and
    that its objective reproduces the edge occupancy of g. The edge cap
    `limit` is checked before the orbits are searched.
    """
    lam = fugacity(lam)
    d = regular_degree(g)
    if d is None or d < 2:
        raise DomainError("graph must be d-regular with d >= 2")
    _state_model(g, "matching", limit)
    _, orbits = automorphism_orbits(g)
    total = _event_polynomials(g, "matching", 0, [])[0]
    # weights as integers over the common denominator q^n at lam = p/q
    p, q, n = lam.numerator, lam.denominator, total.degree
    oriented = defaultdict(int)
    for (u, v), size in orbits:
        # each neighbor w of u or v other than u and v, weighted 1, d or d^2
        # as it neighbors u only, v only or both, so that a sum of weights
        # reads i + j d + k d^2
        events = []
        for w in mask_vertices((g.adj[u] | g.adj[v]) & ~(1 << u | 1 << v)):
            near_u, near_v = g.adj[u] >> w & 1, g.adj[v] >> w & 1
            events.append((d * d if near_u and near_v else 1 if near_u else d, 1 << w))
        ends = 1 << u | 1 << v
        for key, poly in _event_polynomials(g, "matching", ends, events).items():
            i, j, k = key % d, key // d % d, key // (d * d)
            extended = poly * IntPolynomial((1, 1 + i + j + 2 * k, (i + k) * (j + k) - k))
            weight = size * extended.homogeneous(p, q, n)
            oriented[i, j, k] += weight
            oriented[j, i, k] += weight
    denom = total.homogeneous(p, q, n) * g.edge_count * 2
    law = {t: Fraction(weight, denom) for t, weight in sorted(oriented.items())}
    if objective_value(law, d, lam) != edge_occupancy(g, lam):
        raise CertificateError("edge-neighborhood law misses the edge occupancy")
    return law


def objective_value(law: dict, d: int, lam: Fraction) -> Fraction:
    """Program objective of a law keyed by triple; raises CertificateError
    when it is not a feasible point of build_primal(d, lam), naming a
    violated marginal row by its t."""
    lam = fugacity(lam)
    column = {triple: c for c, triple in enumerate(enumerate_triples(d))}
    point = [Fraction(0)] * len(column)
    for triple, q in law.items():
        if triple not in column:
            raise CertificateError(f"triple {triple} is not admissible for d={d}", triple)
        point[column[triple]] = q
    try:
        return primal_value(build_primal(d, lam), point)
    except CertificateError as exc:
        kind, r = exc.args[1]
        if kind == "row" and r > 0:  # row r >= 1 is the marginal constraint at t = r - 1
            message = f"marginal constraint row t={r - 1} violated"
            raise CertificateError(message, exc.args[1]) from exc
        raise

