"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's recurrence/solver code paths:
polynomials come from raw subset enumeration, LP optima from basis
enumeration, conditional marginals from direct matching enumeration, the dense
tableau simplex with Bland's rule that the revised solver replaced, dual
slacks priced entry by entry in Fractions, the Graph-object deletion
recurrences that the vertex-mask recursion replaced, the Fraction-entry
builds of the two certify programs that the integer-column builds replaced,
the tree lower-bound verdict by bisection that the exact sign replaced, and
the canonical search with count-dict refinement and fixed-point orbits that
the mask-split refinement and union-find orbits replaced
(`reference_canonical_form`), the certificate of every leaf of that
search's tree walked without pruning (`reference_leaf_certificates`),
vertex and edge orbits from every
automorphism found by testing each degree-preserving bijection
(`brute_orbits`, `brute_edge_orbits`), and edge counts and induced
subgraphs read from the `neighbors` generator, which the adjacency-mask
versions replaced (`generator_edge_count`, `generator_induced`), and the
correlation check's events classified state by state through
`state_polynomials` (`classified_correlation`), where `fkg_check` reads
each probability from the deletion recurrence, and the recursive
independent-set and matching generators that the package's one
explicit-stack walk replaced (`reference_independent_sets`,
`reference_matchings`), which every reference here that needs states
uses, so no reference reads the walk it checks, and the slack-profile pass
in Fractions that the integer pass replaced (`reference_slack_profile`,
with its row prices, diagonal residual, profile and closed form). Other canonical keys come from
the labelling search `_canonical_form` itself. The three reference laws are
classified state by state by definition, counted in integers by state
size, and kept per (graph6, lam) for the life of the process, as read-only
values.
"""

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, permutations, product
from math import factorial
from types import MappingProxyType

from occufrac.bounds import DEFAULT_TOLERANCE, tree_occupancy
from occufrac.errors import CertificateError
from occufrac.exactmath import IntPolynomial, fugacity
from occufrac.graphs import (
    CANONICAL_LIMIT,
    Graph,
    _canonical_form,
    label_key,
    mask_vertices,
    regular_degree,
)
from occufrac.hardcore import enumerate_configs, objective_scale
from occufrac.lp import LPSolution
from occufrac.matching import (
    MatchingDuals,
    _check_triple,
    _scaled_duals,
    _slack_numerator,
    conditional_partition,
    enumerate_triples,
    local_edge_occupancy,
)
from occufrac.polynomials import kdd_matching_poly, occupancy, state_polynomials


def brute_independence_counts(g: Graph):
    """Count independent sets of each size by testing all 2^n subsets."""
    counts = [0] * (g.n + 1)
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if g.adj[v] & mask:
                ok = False
                break
            m ^= low
        if ok:
            counts[bin(mask).count("1")] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def brute_matching_counts(g: Graph):
    """Count matchings of each size by growing edge subsets one edge at a
    time in list order, dropping every subset that uses a vertex twice."""
    edges = g.edges()
    counts = [0] * (len(edges) + 1)

    def grow(start, used, size):
        counts[size] += 1
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            bits = 1 << u | 1 << v
            if not used & bits:
                grow(idx + 1, used | bits, size + 1)

    grow(0, 0, 0)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def reference_independent_sets(g: Graph):
    """Yield every independent set as a vertex bitmask (including 0), by a
    recursive generator: the enumeration that the explicit-stack walk of
    `polynomials._walk` replaced, in the same order."""

    # depth-first: extend sets only with vertices above the current maximum,
    # skipping blocked ones, so each set is produced exactly once
    def extend(mask, allowed, start):
        for v in range(start, g.n):
            if not (allowed >> v & 1):
                continue
            new_mask = mask | 1 << v
            yield new_mask
            yield from extend(new_mask, allowed & ~g.adj[v], v + 1)

    yield 0
    yield from extend(0, (1 << g.n) - 1, 0)


def reference_matchings(g: Graph):
    """Yield every matching as a frozenset of (u, v) edges with u < v, by
    a recursive generator that copies its list of chosen edges per matching:
    the enumeration that the explicit-stack walk of `polynomials._walk`
    replaced, in the same order."""
    edge_list = g.edges()

    def extend(chosen, used_mask, start):
        for idx in range(start, len(edge_list)):
            u, v = edge_list[idx]
            if used_mask >> u & 1 or used_mask >> v & 1:
                continue
            new = chosen + [(u, v)]
            yield frozenset(new)
            yield from extend(new, used_mask | 1 << u | 1 << v, idx + 1)

    yield frozenset()
    yield from extend([], 0, 0)


def graph6(g: Graph) -> str:
    """The short-format graph6 string of g (n < 63): the upper triangle
    column by column, six bits to a byte, each byte plus 63."""
    if g.n >= 63:
        raise ValueError(f"short graph6 needs n < 63, got {g.n}")
    bits = [g.adj[v] >> u & 1 for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = (
        chr(63 + sum(b << (5 - t) for t, b in enumerate(bits[i : i + 6])))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + g.n) + "".join(body)


def _kept_by_graph6(law):
    """law(g, lam), computed once per (graph6(g), lam) and kept for the
    life of the process: a list comes back as a tuple and a dict as a
    read-only view, so no caller can alter what the next one receives."""
    kept = {}

    @wraps(law)
    def cached(g: Graph, lam):
        key = graph6(g), lam
        if key not in kept:
            value = law(g, lam)
            kept[key] = MappingProxyType(value) if isinstance(value, dict) else tuple(value)
        return kept[key]

    return cached


def graph_deletion_poly(g: Graph, model: str) -> IntPolynomial:
    """Independence ("hardcore") or matching polynomial by deletion
    recurrences on relabelled Graph objects, with a maximum-degree pivot:
    P(G) = P(G - v) + x P(G - N[v]) and M(G) = M(G - e) + x M(G - u - v)
    on an edge e = uv. Connected components are memoized for this call by
    labelled key and, up to CANONICAL_LIMIT vertices, by canonical key."""
    memo = {}

    def split(g, component):
        poly = IntPolynomial.one()
        for comp in g.components():
            poly = poly * component(g.induced(comp))
        return poly

    def memoized(g, step):
        lkey = b"l" + label_key(g)
        if lkey not in memo:
            ckey = b"c" + _canonical_form(g)[0] if g.n <= CANONICAL_LIMIT else lkey
            if ckey not in memo:
                memo[ckey] = step(g)
            memo[lkey] = memo[ckey]
        return memo[lkey]

    def pivot(g):
        return max(range(g.n), key=lambda v: (g.degree(v), -v))

    def without(g, vertices):
        return g.induced([w for w in range(g.n) if w not in vertices])

    def independence(g):
        if g.n <= 1:
            return IntPolynomial((1,) * (g.n + 1))
        return memoized(g, independence_step)

    def independence_step(g):
        v = pivot(g)
        without_v = split(without(g, {v}), independence)
        without_nbhd = split(without(g, {v, *g.neighbors(v)}), independence)
        return without_v + without_nbhd.shift(1)

    def matching(g):
        if g.edge_count == 0:
            return IntPolynomial.one()
        return memoized(g, matching_step)

    def matching_step(g):
        u = pivot(g)
        v = next(g.neighbors(u))
        adj = list(g.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        without_e = split(Graph._from_adj(adj), matching)
        without_uv = split(without(g, {u, v}), matching)
        return without_e + without_uv.shift(1)

    return split(g, {"hardcore": independence, "matching": matching}[model])


def fraction_horner(coeffs, x):
    """sum coeffs[k] x^k by Horner's rule in Fractions, two Fraction
    operations per coefficient. Reference for IntPolynomial.__call__."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def brute_lp_max(objective, rows, rhs):
    """Optimal value of max c.x, Ax=b, x>=0 by enumerating candidate bases
    of a row-reduced copy of the system. Returns None if infeasible."""
    n = len(objective)
    aug = [
        [Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)
    ]
    # Gaussian elimination keeping only pivot rows
    reduced = []
    for row in aug:
        for prow in reduced:
            col = next(c for c in range(n + 1) if prow[c] != 0)
            if row[col] != 0:
                f = row[col] / prow[col]
                row = [a - f * p for a, p in zip(row, prow)]
        if any(a != 0 for a in row[:n]):
            reduced.append(row)
        elif row[n] != 0:
            return None  # inconsistent system
    m = len(reduced)
    if m == 0:
        return Fraction(0) if all(Fraction(c) <= 0 for c in objective) else None
    best = None
    for cols in combinations(range(n), m):
        matrix = [[reduced[r][c] for c in cols] for r in range(m)]
        sol = _solve_square(matrix, [reduced[r][n] for r in range(m)])
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        value = sum(Fraction(objective[c]) * x for c, x in zip(cols, sol))
        if best is None or value > best:
            best = value
    return best


def _solve_square(matrix, rhs):
    n = len(rhs)
    aug = [row[:] + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None  # singular basis
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * p for a, p in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


ZERO = Fraction(0)


def _tableau_pivot(tableau, basis, row, col):
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
    """cost - c_B B^-1 [A | I] over every column, then -c_B x_B."""
    priced = [(cost[b], tableau[r]) for r, b in enumerate(basis) if cost[b] != 0]
    return [
        c - sum(cb * row[j] for cb, row in priced)
        for j, c in enumerate(list(cost) + [ZERO])
    ]


def _run_tableau(tableau, basis, allowed_cols):
    """Maximize with Bland's rule over the tableau whose last row holds the
    reduced costs. Returns True when optimal, False when unbounded."""
    while True:
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
        _tableau_pivot(tableau, basis, leaving, entering)


def tableau_solve(lp) -> LPSolution:
    """Two-phase dense-tableau simplex with Bland's rule, the reduced costs
    kept as the tableau's last row. The dual is read off the reduced costs
    of the artificial columns: y_r = -sign_r * rc[n + r], sign_r = -1 on a
    row negated for its rhs. Reference for occufrac.lp.solve."""
    m, n = lp.nrows, lp.ncols
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
    _run_tableau(tableau, basis, range(n + m))
    if tableau[-1][-1] != 0:
        return LPSolution(status="infeasible")
    for r in range(m - 1, -1, -1):
        if basis[r] < n:
            continue
        col = next((j for j in range(n) if tableau[r][j] != 0), None)
        if col is None:
            del tableau[r]
            del basis[r]
        else:
            _tableau_pivot(tableau, basis, r, col)
    tableau.pop()
    tableau.append(_reduced_cost_row(tableau, basis, lp.objective + (ZERO,) * m))
    if not _run_tableau(tableau, basis, range(n)):
        return LPSolution(status="unbounded")
    primal = [ZERO] * n
    for r, b in enumerate(basis):
        primal[b] = tableau[r][-1]
    rc = tableau[-1]
    return LPSolution(
        status="optimal",
        value=-rc[-1],
        primal=tuple(primal),
        basis=tuple(basis),
        dual=tuple(-sign[r] * rc[n + r] for r in range(m)),
    )


def fraction_dual_slacks(lp, dual):
    """Slack (dual^T A - c)_j per column, one Fraction product per nonzero
    dual entry and row. Reference for occufrac.lp.dual_slacks, which prices
    the integer columns over one denominator."""
    slacks = []
    for j in range(lp.ncols):
        s = -lp.objective[j]
        for r in range(lp.nrows):
            if dual[r] != 0:
                s += dual[r] * lp.rows[r][j]
        slacks.append(s)
    return tuple(slacks)


def vacancy(cfg, lam: Fraction) -> Fraction:
    """Probability all vertices of the neighborhood class are unoccupied: 1/P(lam)."""
    return 1 / cfg.poly(fugacity(lam))


def crowding(cfg, lam: Fraction, d: int) -> Fraction:
    """(1+lam) P'(lam) / (d P(lam)): scaled mean occupied-neighbor count."""
    lam = fugacity(lam)
    return (1 + lam) * cfg.poly.derivative()(lam) / (d * cfg.poly(lam))


def fraction_hardcore_primal(d: int, lam: Fraction):
    """(objective, rows, rhs) of hardcore.build_primal(d, lam) in Fractions,
    entry by entry from the vacancy and crowding of each class."""
    scale = objective_scale(lam)
    objective, balance = [], []
    for cfg in enumerate_configs(d):
        a, b = vacancy(cfg, lam), crowding(cfg, lam, d)
        objective.append(scale * (a + b))
        balance.append(a - b)
    return objective, [[Fraction(1)] * len(objective), balance], [Fraction(1), Fraction(0)]


def _star(t: int, lam: Fraction) -> Fraction:
    return 1 + t * lam


def marginal_from_edge(i: int, j: int, k: int, lam: Fraction, d: int):
    """Law of the number of uncovered same-side neighbors of the chosen
    edge, conditioned on the configuration. Vector over t = 0..d-1;
    coinciding case values accumulate."""
    lam = fugacity(lam)
    z = conditional_partition(i, j, k, lam)
    out = [Fraction(0)] * d
    pend = i * lam * _star(j + k, lam) + k * lam * _star(j + k - 1, lam)
    for t, weight in (
        (0, lam),
        (1, pend),
        (i + k, _star(j, lam)),
        (i + k - 1, k * lam),
    ):
        if weight:
            out[t] += weight  # t is in range whenever the weight is nonzero
    return [w / z for w in out]


def marginal_from_neighbor(i: int, j: int, k: int, lam: Fraction, d: int):
    """Law of the number of uncovered neighbors, on the side of the chosen
    edge, of a uniform same-side neighboring edge. Vector over t = 0..d-1."""
    lam = fugacity(lam)
    z = (d - 1) * conditional_partition(i, j, k, lam)
    pend = i * lam * _star(j + k, lam) + k * lam * _star(j + k - 1, lam)
    out = [Fraction(0)] * d
    for t, weight in (
        (0, pend),
        (1, (d - 1) * lam + (d - 2) * pend),
        (i + k - 2, (i + k - 1) * k * lam),
        (i + k - 1, (d - i - k) * k * lam + (i + k) * j * lam),
        (i + k, (d - 1 - i - k) * j * lam + (i + k)),
        (i + k + 1, d - 1 - i - k),
    ):
        if weight:
            out[t] += weight
    return [w / z for w in out]


def fraction_matching_primal(d: int, lam: Fraction):
    """(objective, rows, rhs) of matching.build_primal(d, lam) in Fractions:
    the mass row, then for t = 0..d-2 half the neighbor-minus-edge marginal
    of each triple plus that of its (j, i, k) twin."""
    triples = enumerate_triples(d)
    objective = [local_edge_occupancy(i, j, k, lam, d) for i, j, k in triples]
    laws = {
        (i, j, k): (marginal_from_edge(i, j, k, lam, d), marginal_from_neighbor(i, j, k, lam, d))
        for i, j, k in triples
    }
    rows = [[Fraction(1)] * len(triples)]
    for t in range(d - 1):
        row = []
        for i, j, k in triples:
            ge_ij, gf_ij = laws[(i, j, k)]
            ge_ji, gf_ji = laws[(j, i, k)]
            row.append(Fraction(1, 2) * (gf_ij[t] + gf_ji[t] - ge_ij[t] - ge_ji[t]))
        rows.append(row)
    return objective, rows, [Fraction(1)] + [Fraction(0)] * (d - 1)


def reduced_slack(i: int, j: int, k: int, duals: MatchingDuals) -> Fraction:
    """Simplified dual slack L(i,j,k) as a Fraction: the package's integer
    numerator over its one denominator. Zero exactly on the diagonal
    triples (i, i, 0) and strictly positive elsewhere."""
    _check_triple(i, j, k, duals.d)
    den, drift, prices, _ = _scaled_duals(duals)
    return Fraction(_slack_numerator(i, j, k, drift, prices), den)


def reference_edge_occupancy(d: int, lam: Fraction) -> Fraction:
    """lam M_{d-1}(lam) / M_d(lam) in Fractions, for the matching
    polynomials M_s of K_{s,s}."""
    return lam * kdd_matching_poly(d - 1)(lam) / kdd_matching_poly(d)(lam)


def reference_row_prices(d: int, lam: Fraction) -> MatchingDuals:
    """matching.dual_row_prices in Fractions: price[d-1] = 0, then for
    i = d-1 down to 1 the (i, i, 0) constraint solved for price[i-1],
    whose coefficient there is i^2 lam; every diagonal constraint checked
    afterwards."""
    alpha = reference_edge_occupancy(d, lam)
    prices = [Fraction(0)] * d
    partial = MatchingDuals(d=d, lam=lam, prices=prices, optimum=alpha)
    for i in range(d - 1, 0, -1):
        # price[i-1] is still 0, so the residual is the rest of the constraint
        prices[i - 1] = -diagonal_residual(partial, i) / (i * i * lam)
    duals = MatchingDuals(d=d, lam=lam, prices=tuple(prices), optimum=alpha)
    for i in range(d):
        if diagonal_residual(duals, i) != 0:
            raise CertificateError(f"diagonal constraint {i} violated", i)
    return duals


def diagonal_residual(duals: MatchingDuals, i: int) -> Fraction:
    """(d-1) times the diagonal equality constraint at (i, i, 0) in
    Fractions; zero when the prices are consistent."""
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


def reference_profile_value(t: int, duals: MatchingDuals) -> Fraction:
    """F(t) = t [lam (1 - d optimum) + price_t - price_{t-1}] in Fractions."""
    if t == 0:
        return Fraction(0)
    return t * (
        duals.lam * (1 - duals.d * duals.optimum) + duals.price(t) - duals.price(t - 1)
    )


def reference_profile_explicit(t: int, lam: Fraction, kdd) -> Fraction:
    """The closed form t(d-1)/M_d * sum_{l=t-1}^{d-2} (d-1-t)!/(l+1-t)! *
    lam^(d-l) * M_l term by term in Fractions, kdd = (M_0(lam), ..., M_d(lam))."""
    d = len(kdd) - 1
    if t == 0:
        return Fraction(0)
    total = Fraction(0)
    for ell in range(t - 1, d - 1):  # ell + 1 - t <= d - 1 - t: the ratio is an int
        total += factorial(d - 1 - t) // factorial(ell + 1 - t) * lam ** (d - ell) * kdd[ell]
    return t * (d - 1) * total / kdd[d]


def reference_slack_profile(d: int, lam: Fraction) -> dict:
    """matching.check_slack_profile as a Fraction pass: the prices from
    the diagonal constraints, F against its closed form, its end value
    (d-1)^2 lam^2 M_{d-2}/M_d and its recurrence, strict increase with the
    normalized increments, and the crude pairs (M_t, t lam M_{t-1}); each
    failure a CertificateError with the package's message and t. Reference
    for the integer pass."""
    duals = reference_row_prices(d, lam)
    kdd = [kdd_matching_poly(s)(lam) for s in range(d + 1)]
    profile = [reference_profile_value(t, duals) for t in range(d)]
    for t in range(1, d):
        if profile[t] != reference_profile_explicit(t, lam, kdd):
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


def empirical_edge_marginals(g: Graph, lam: Fraction):
    """Conditional uncovered-neighbor marginals per configuration triple,
    straight from enumeration: triple -> (from-edge law, from-neighbor law)."""
    d = regular_degree(g)
    edges = g.edges()
    num_e: dict = {}
    num_f: dict = {}
    den: dict = {}
    for matching in reference_matchings(g):
        w = lam ** len(matching)

        def uncovered(a, b):
            for x, y in matching:
                if (x, y) != (min(a, b), max(a, b)) and (x in (a, b) or y in (a, b)):
                    return False
            return True

        for u, v in edges:
            for left, right in ((u, v), (v, u)):
                triple = edge_triple_by_definition(g, left, right, matching)
                den[triple] = den.get(triple, Fraction(0)) + w * (d - 1)
                t_edge = sum(
                    1
                    for w2 in g.neighbors(left)
                    if w2 != right and uncovered(left, w2)
                )
                num_e.setdefault(triple, {})
                num_e[triple][t_edge] = (
                    num_e[triple].get(t_edge, Fraction(0)) + w * (d - 1)
                )
                for w2 in g.neighbors(left):
                    if w2 == right:
                        continue
                    t_nbr = sum(
                        1
                        for w3 in g.neighbors(left)
                        if w3 not in (w2, right) and uncovered(left, w3)
                    )
                    if uncovered(left, right):
                        t_nbr += 1
                    num_f.setdefault(triple, {})
                    num_f[triple][t_nbr] = num_f[triple].get(t_nbr, Fraction(0)) + w
    out = {}
    for triple, total in den.items():
        ge = [num_e[triple].get(t, Fraction(0)) / total for t in range(d)]
        gf = [num_f.get(triple, {}).get(t, Fraction(0)) / total for t in range(d)]
        out[triple] = (ge, gf)
    return out


def edge_triple_by_definition(g: Graph, left: int, right: int, matching):
    """(i, j, k) of the oriented edge (left, right) under a matching: delete
    the vertices covered by matching edges that avoid both endpoints, then
    count the surviving neighbors of left only, of right only, and of both."""
    blocked = {x for e in matching if left not in e and right not in e for x in e}
    at_left = set(g.neighbors(left)) - {right} - blocked
    at_right = set(g.neighbors(right)) - {left} - blocked
    return (len(at_left - at_right), len(at_right - at_left), len(at_left & at_right))


# Reference laws by definition: each state is classified on its own, its
# labels counted in integers by the state's size, and each label's counts
# evaluated once at lam, against which the library's laws from the deletion
# recurrence are compared. Each is kept per (graph6, lam), as a tuple or a
# read-only dict view.

def _counted_law(states, width: int, labels_of, lam: Fraction):
    """({label: weight}, total weight) at lam: each (state, size) pair of
    `states` counted under its size, once in the total and once under each
    label that labels_of(state) yields, and each row of counts evaluated
    once by `fraction_horner`."""
    total, rows = [0] * width, {}
    for state, size in states:
        total[size] += 1
        for label in labels_of(state):
            rows.setdefault(label, [0] * width)[size] += 1
    weights = {label: fraction_horner(row, lam) for label, row in rows.items()}
    return weights, fraction_horner(total, lam)


@_kept_by_graph6
def reference_uncovered_law(g: Graph, lam: Fraction):
    """Law of the number of uncovered neighbors of a uniform vertex."""

    def counts(mask):
        for v in range(g.n):
            yield sum(1 for u in g.neighbors(v) if not (g.adj[u] & mask))

    states = ((mask, mask.bit_count()) for mask in reference_independent_sets(g))
    weights, total = _counted_law(states, g.n + 1, counts, lam)
    return [weights.get(t, Fraction(0)) / (total * g.n) for t in range(regular_degree(g) + 1)]


def classified_correlation(g: Graph, vertices, lam: Fraction, mode: str):
    """(joint, product) of bounds.fkg_check, with each state labelled by the
    vertices whose event holds in it, and by "joint" when all of them do."""
    targets = set(vertices)

    def holds(mask, v):
        return mask >> v & 1 if mode == "occupied" else not g.adj[v] & mask

    def classify(mask):
        hits = [v for v in targets if holds(mask, v)]
        return hits + ["joint"] if len(hits) == len(targets) else hits

    total, by_event = state_polynomials(g, "hardcore", classify)
    z, zero = total(lam), IntPolynomial.zero()
    product = Fraction(1)
    for v in vertices:
        product *= by_event.get(v, zero)(lam) / z
    return by_event.get("joint", zero)(lam) / z, product


def _free_neighborhood(g: Graph, v: int, iset: frozenset) -> Graph:
    """Induced subgraph on neighbors of v not blocked by the independent set
    outside N(v). If v itself is occupied the neighborhood is empty."""
    nbrs = list(g.neighbors(v))
    outside = iset.difference(nbrs)  # contains v itself whenever v is occupied
    free = [w for w in nbrs if not any(g.has_edge(w, x) for x in outside)]
    return g.induced(free)


@_kept_by_graph6
def reference_free_neighborhood_law(g: Graph, lam: Fraction):
    """Law of the free-neighborhood class of a uniform vertex, aligned with
    enumerate_configs(d)."""
    configs = enumerate_configs(regular_degree(g))
    by_key = {cfg.key: cfg.index for cfg in configs}

    def classes(mask):
        iset = frozenset(mask_vertices(mask))
        for v in range(g.n):
            yield by_key[_canonical_form(_free_neighborhood(g, v, iset))[0]]

    states = ((mask, mask.bit_count()) for mask in reference_independent_sets(g))
    weights, total = _counted_law(states, g.n + 1, classes, lam)
    return [weights.get(cfg.index, Fraction(0)) / (total * g.n) for cfg in configs]


@_kept_by_graph6
def reference_edge_law(g: Graph, lam: Fraction):
    """Law of the (i, j, k) triple of a uniform oriented edge, keyed by
    triple in sorted order."""
    edges = g.edges()

    def triples(matching):
        for u, v in edges:
            for left, right in ((u, v), (v, u)):
                yield edge_triple_by_definition(g, left, right, matching)

    states = ((matching, len(matching)) for matching in reference_matchings(g))
    weights, total = _counted_law(states, g.n // 2 + 1, triples, lam)
    denom = total * len(edges) * 2
    return {t: w / denom for t, w in sorted(weights.items())}


def brute_canonical_bits(g: Graph):
    """Smallest upper-triangle bit string over all n! relabelings."""
    n = g.n
    return min(
        tuple(g.adj[p[j]] >> p[i] & 1 for j in range(1, n) for i in range(j))
        for p in permutations(range(n))
    )


@lru_cache(maxsize=None)
def every_mask_classes(n: int):
    """(canonical key, representative) of every class on n vertices, sorted
    by key: each (n-1)-vertex representative extended by every neighborhood
    mask of a new vertex, deduplicated by canonical key."""
    if n == 0:
        return ((_canonical_form(Graph(0))[0], Graph(0)),)
    seen = {}
    for _, g in every_mask_classes(n - 1):
        for mask in range(1 << (n - 1)):
            edges = g.edges() + [(w, n - 1) for w in mask_vertices(mask)]
            h = Graph(n, edges)
            seen.setdefault(_canonical_form(h)[0], h)
    return tuple(sorted(seen.items()))


def _reference_refine(adj, cells, splitters):
    """Refine ordered cells until each vertex of a cell has the same number
    of neighbors in every cell; a split cell's fragments keep its place,
    ordered by that number. `splitters` are the cells not yet known to give
    uniform counts; one left out must follow from the others by subtraction,
    as the largest fragment of a split cell does."""
    queue = list(splitters)
    for w in queue:
        if len(cells) == len(adj):
            break
        out = []
        for cell in cells:
            groups = {}
            m = cell if cell & (cell - 1) else 0
            while m:
                low = m & -m
                c = (adj[low.bit_length() - 1] & w).bit_count()
                groups[c] = groups.get(c, 0) | low
                m ^= low
            if len(groups) > 1:
                parts = [groups[c] for c in sorted(groups)]
                big = max(parts, key=int.bit_count)
                queue += [p for p in parts if p != big]
                out += parts
            else:
                out.append(cell)
        cells = out
    return cells


def _reference_certificate(adj, order) -> int:
    """Upper-triangle bits of the graph relabeled by `order`, column by
    column, as one integer (the first bit is the most significant)."""
    cert = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            cert = cert << 1 | (row >> order[i] & 1)
    return cert


def _reference_orbit_reps(n: int, automorphisms):
    """Smallest vertex of each vertex's orbit under the generated group."""
    rep = list(range(n))
    changed = True
    while changed:
        changed = False
        for perm in automorphisms:
            for v, w in enumerate(perm):
                if rep[v] != rep[w]:
                    rep[v] = rep[w] = min(rep[v], rep[w])
                    changed = True
    return rep


def _reference_root(g: Graph):
    """The root of the search tree: the degree cells, refined."""
    n, adj = g.n, g.adj
    cells = [
        sum(1 << v for v in range(n) if adj[v].bit_count() == d)
        for d in sorted({m.bit_count() for m in adj})
    ]
    big = max(cells, key=int.bit_count, default=0)
    return _reference_refine(adj, cells, [c for c in cells if c != big])


def reference_leaf_certificates(g: Graph):
    """The set of the certificates of every leaf of the search tree of g,
    walked without pruning: each vertex of the first non-singleton cell is
    individualized in turn at every node."""
    n, adj = g.n, g.adj
    certificates = set()

    def visit(cells):
        if len(cells) == n:
            certificates.add(_reference_certificate(adj, [c.bit_length() - 1 for c in cells]))
            return
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        for v in mask_vertices(cells[t]):
            child = cells[:t] + [1 << v, cells[t] ^ 1 << v] + cells[t + 1 :]
            visit(_reference_refine(adj, child, [1 << v]))

    visit(_reference_root(g))
    return certificates


def reference_canonical_form(g: Graph):
    """(canonical key, smallest vertex of each vertex's automorphism orbit,
    automorphisms as image lists that generate a group with those orbits)."""
    n, adj = g.n, g.adj
    automorphisms = []
    leaves = []  # the first and the best leaf: (certificate, ordering, path)

    def visit(cells, path):
        # returns the depth at which to resume; len(path) carries on
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            cert = _reference_certificate(adj, order)
            for ref_cert, ref_order, ref_path in leaves:
                if cert == ref_cert:
                    automorphisms.append([b for _, b in sorted(zip(ref_order, order))])
                    # abandon the child of the deepest node shared with ref
                    return next(k for k, (a, b) in enumerate(zip(path, ref_path)) if a != b)
            if not leaves:
                leaves[:] = [(cert, order, path)] * 2
            elif cert < leaves[1][0]:
                leaves[1] = (cert, order, path)
            return len(path)
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        tried, known = [], 0
        for v in mask_vertices(cells[t]):
            if tried and known < len(automorphisms):
                # orbits under the automorphisms found so far that fix the path
                known = len(automorphisms)
                fixing = [p for p in automorphisms if all(p[u] == u for u in path)]
                rep = _reference_orbit_reps(n, fixing)
            if known and rep[v] in {rep[u] for u in tried}:
                continue
            tried.append(v)
            child = cells[:t] + [1 << v, cells[t] ^ 1 << v] + cells[t + 1 :]
            resume = visit(_reference_refine(adj, child, [1 << v]), path + [v])
            if resume < len(path):
                return resume
        return len(path)

    visit(_reference_root(g), [])
    nbits = n * (n - 1) // 2
    pad = -nbits % 8
    key = bytes([n]) + (leaves[1][0] << pad).to_bytes((nbits + pad) // 8, "big")
    return key, _reference_orbit_reps(n, automorphisms), automorphisms


def _brute_automorphisms(g: Graph):
    """Every automorphism of g as an image list, found by testing every
    bijection that maps each degree class onto itself."""
    classes = {}
    for v in range(g.n):
        classes.setdefault(g.degree(v), []).append(v)
    blocks = list(classes.values())
    edges = g.edges()
    for images in product(*(permutations(b) for b in blocks)):
        perm = [0] * g.n
        for block, image in zip(blocks, images):
            for v, w in zip(block, image):
                perm[v] = w
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges):
            yield perm


def brute_orbits(g: Graph):
    """Smallest vertex of each vertex's automorphism orbit."""
    rep = list(range(g.n))
    for perm in _brute_automorphisms(g):
        for v in range(g.n):
            rep[perm[v]] = min(rep[perm[v]], v)
    return rep


def brute_edge_orbits(g: Graph):
    """Smallest edge (u, v), u < v, of each edge's automorphism orbit, for
    the edges in the order of g.edges()."""
    edges = g.edges()
    rep = {e: e for e in edges}
    for perm in _brute_automorphisms(g):
        for u, v in edges:
            image = (min(perm[u], perm[v]), max(perm[u], perm[v]))
            rep[image] = min(rep[image], (u, v))
    return [rep[e] for e in edges]


def _extend_automorphism(g: Graph, perm: list, used: int, v: int) -> bool:
    """Backtracking: can the partial map perm[0..v-1] extend to an automorphism?"""
    n = g.n
    if v == n:
        return True
    deg_v = g.degree(v)
    for img in range(n):
        if used >> img & 1:
            continue
        if g.degree(img) != deg_v:
            continue
        ok = True
        for w in range(v):
            if g.has_edge(v, w) != g.has_edge(img, perm[w]):
                ok = False
                break
        if ok:
            perm.append(img)
            if _extend_automorphism(g, perm, used | 1 << img, v + 1):
                return True
            perm.pop()
    return False


def backtrack_orbit_of_zero(g: Graph):
    """Orbit of vertex 0: every vertex some automorphism maps 0 to, each
    found by an exhaustive backtracking search for an extension."""
    return [
        target
        for target in range(g.n)
        if g.degree(target) == g.degree(0)
        and _extend_automorphism(g, [target], 1 << target, 1)
    ]


def generator_edge_count(g: Graph) -> int:
    """Edge count as the sum of degrees from the `neighbors` generator,
    halved. Reference for Graph.edge_count, which counts adjacency bits."""
    return sum(1 for v in range(g.n) for _ in g.neighbors(v)) // 2


def generator_induced(g: Graph, vertices) -> Graph:
    """Subgraph induced by `vertices`, relabeled in the given order, by
    testing every neighbour from the `neighbors` generator. Reference for
    Graph.induced, which masks each row by the kept vertices first."""
    vs = list(vertices)
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for i, v in enumerate(vs):
        for w in g.neighbors(v):
            j = index.get(w)
            if j is not None:
                adj[i] |= 1 << j
    return Graph._from_adj(adj)


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation v -> perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g beside h, with h's vertices shifted up by g.n."""
    return Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


def bisection_lower_bound_status(g: Graph, lam: Fraction) -> str:
    """The tree lower-bound verdict by bisection: the occupancy of the
    d-regular g against tree_occupancy's bracket, tightened 16x up to 12
    times while the occupancy lies inside it, and "inconclusive" after."""
    d = regular_degree(g)
    alpha = occupancy(g, lam)
    tolerance = DEFAULT_TOLERANCE
    for _ in range(12):
        bracket = tree_occupancy(d, lam, tolerance)
        if alpha > bracket.alpha_high:
            return "pass"
        if alpha < bracket.alpha_low:
            return "fail"
        tolerance /= 16
    return "inconclusive"


def random_regular_graph(rng, n: int, d: int) -> Graph:
    """A random simple d-regular graph: pair up d copies of each vertex at
    random and start again until no loop or double edge appears."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == n * d // 2 and all(a != b for a, b in edges):
            return Graph(n, sorted(edges))


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)
