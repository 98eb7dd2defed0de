"""Tree fixed point and the lower occupancy bound, correlation checks for
same-side vertices of bipartite graphs, given-size counting bounds, mode
probabilities, and the empirical ratio conjecture report.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .errors import CapabilityError, CertificateError, DomainError
from .exactmath import IntPolynomial, degree, fugacity, vertex_count
from .graphs import Graph, bipartition, is_vertex_transitive, kdd_union, regular_degree
from .polynomials import (
    ORACLE_LIMIT,
    _event_values,
    _state_model,
    independence_poly,
    kdd_independence_poly,
    kdd_matching_poly,
    matching_poly,
    occupancy,
    size_distribution,
)

DEFAULT_TOLERANCE = Fraction(1, 10**9)
# caps of the tree bisection: an accepted (d, tolerance) finishes well inside
# 10 s, and its report stays within the interpreter's integer digit limit
TREE_MAX_D = 1000
TREE_TOLERANCE_DIGITS = 100  # the tolerance must be at least 1/10^this


class TreeOccupancy(NamedTuple):
    """Rational bracket around the occupancy fraction of the translation
    invariant hard-core measure on the infinite d-regular tree."""

    d: int
    lam: Fraction
    alpha_low: Fraction
    alpha_high: Fraction

    @property
    def width(self) -> Fraction:
        return self.alpha_high - self.alpha_low


def _tree_gap(alpha: Fraction, d: int, lam: Fraction) -> Fraction:
    """alpha/(lam(1-alpha)) - ((1-2 alpha)/(1-alpha))^d; strictly increasing
    on (0, 1/2) and zero at the tree occupancy, so its sign at alpha says on
    which side of the tree occupancy alpha lies."""
    return alpha / (lam * (1 - alpha)) - ((1 - 2 * alpha) / (1 - alpha)) ** d


def tree_occupancy(d: int, lam: Fraction, tolerance: Fraction = DEFAULT_TOLERANCE) -> TreeOccupancy:
    """Bisect the fixed-point equation exactly; the returned bracket has
    width <= tolerance, straddles the sign change, and sits inside (0, 1/2)."""
    d, lam = degree(d), fugacity(lam)
    if d < 2:
        raise DomainError("need d >= 2")
    if type(tolerance) not in (int, Fraction):  # a float would bracket in floats
        raise DomainError(f"tolerance {tolerance!r} is not an int or a Fraction")
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    if d > TREE_MAX_D:
        raise CapabilityError(f"tree bisection supports d <= {TREE_MAX_D}")
    if tolerance * 10**TREE_TOLERANCE_DIGITS < 1:
        raise CapabilityError(
            f"tree bisection supports tolerance >= 1/10^{TREE_TOLERANCE_DIGITS}"
        )
    lo, hi = Fraction(0), Fraction(1, 2)
    while hi - lo > tolerance or lo == 0:
        mid = (lo + hi) / 2
        g = _tree_gap(mid, d, lam)
        if g < 0:
            lo = mid
        elif g > 0:
            hi = mid
        else:
            # rational root hit exactly: shrink symmetrically around it
            quarter = min(tolerance / 4, (hi - lo) / 4, mid / 2)
            lo, hi = mid - quarter, mid + quarter
            break
    return TreeOccupancy(d=d, lam=lam, alpha_low=lo, alpha_high=hi)


def uniqueness_threshold(d: int) -> Fraction:
    """(d-1)^(d-1) / (d-2)^d for d >= 3."""
    if degree(d) < 3:
        raise DomainError("uniqueness threshold needs d >= 3")
    return Fraction((d - 1) ** (d - 1), (d - 2) ** d)


class LowerBoundVerdict(NamedTuple):
    status: str  # "pass" | "fail"
    alpha: Fraction
    gap: Fraction  # _tree_gap at alpha: positive exactly on "pass"


def verify_lower_bound(
    g: Graph,
    lam: Fraction,
    assume_vertex_transitive: bool = False,
) -> LowerBoundVerdict:
    """Check occupancy(g) > tree occupancy exactly: g is regular and
    bipartite, so its occupancy lies in (0, 1/2), where _tree_gap increases
    strictly through its one root, the tree occupancy."""
    lam = fugacity(lam)
    d = regular_degree(g)
    if d is None:
        raise DomainError("graph must be regular")
    if bipartition(g) is None:
        raise DomainError("graph must be bipartite")
    if not assume_vertex_transitive and not is_vertex_transitive(g):
        raise DomainError("graph must be vertex-transitive")
    if d < 2:
        raise DomainError("need d >= 2")
    alpha = occupancy(g, lam)
    gap = _tree_gap(alpha, d, lam)
    return LowerBoundVerdict("pass" if gap > 0 else "fail", alpha, gap)


# ---------------------------------------------------------------------------
# Same-side correlation (FKG-style) checks

class CorrelationVerdict(NamedTuple):
    joint: Fraction
    product: Fraction
    strict_expected: bool
    ok: bool


def fkg_check(g: Graph, vertices, lam: Fraction, mode: str = "occupied") -> CorrelationVerdict:
    """Exact check that same-side vertices of a bipartite graph are
    positively correlated, for occupation or uncoveredness, with strictness
    whenever two of them share a connected component.

    The hard-core model is Markov, so every vertex of a set S is occupied
    with weight x^|S| P(G - N[S]) and uncovered with weight P(G - N(S)),
    each read at lam in integers (polynomials._event_values) over P(G).
    The vertices must be distinct ints. Capped at ORACLE_LIMIT vertices,
    checked after the arguments."""
    lam = fugacity(lam)
    vs = list(vertices)
    for i, v in enumerate(vs):
        if type(v) is not int:  # a bool is not a vertex either
            raise DomainError(f"vertex {v!r} is not an int")
        if v in vs[:i]:
            raise DomainError(f"vertex {v} is repeated")
    if mode not in ("occupied", "uncovered"):
        raise DomainError(f"unknown mode {mode!r}")
    sides = bipartition(g)
    if sides is None:
        raise DomainError("graph must be bipartite")
    if len(vs) < 2:
        raise DomainError("need at least two vertices")
    if not (set(vs) <= set(sides[0]) or set(vs) <= set(sides[1])):
        raise DomainError("vertices must lie on one side of the bipartition")

    _state_model(g, "hardcore", ORACLE_LIMIT)
    p, q, z = lam.numerator, lam.denominator, _event_values(g, "hardcore", lam, 0, [])[0]

    def probability(targets):
        near = 0
        for v in targets:
            near |= g.adj[v] | (1 << v if mode == "occupied" else 0)
        s = len(targets) if mode == "occupied" else 0
        return Fraction(p**s * _event_values(g, "hardcore", lam, near, [])[0], q**s * z)

    joint = probability(set(vs))
    product = Fraction(1)
    for v in vs:
        product *= probability({v})
    comp_of = {}
    for idx, comp in enumerate(g.components()):
        for v in comp:
            comp_of[v] = idx
    strict = len({comp_of[v] for v in vs}) < len(vs)
    ok = joint > product if strict else joint >= product
    return CorrelationVerdict(joint=joint, product=product, strict_expected=strict, ok=ok)


# ---------------------------------------------------------------------------
# Counting by size

def counts(g: Graph):
    """(independent-set counts, matching counts) by size, as int lists."""
    return list(independence_poly(g).coeffs), list(matching_poly(g).coeffs)


def lampick_lambda(p: IntPolynomial, k: int):
    """The fugacity equalizing Pr[size = k] and Pr[size = k+1], and the
    resulting Pr[size = k] (which log-concavity makes the mode)."""
    ck, ck1 = p.coefficient(k), p.coefficient(k + 1)
    if ck <= 0 or ck1 <= 0:
        raise DomainError(f"coefficients {k} and {k + 1} must be positive")
    lam = Fraction(ck, ck1)
    prob = ck * lam**k / p(lam)
    return lam, prob


def mode_probability_exceeds_half_inv_sqrt(prob: Fraction, n: int) -> bool:
    """prob > 1/(2 sqrt(n)), decided in integers by squaring."""
    return 4 * vertex_count(n) * prob.numerator**2 > prob.denominator**2


def mode_probability_bound_check(d: int, n: int, model: str = "hardcore"):
    """For every size 1 <= k <= n/2, pick the equalizing fugacity (for the
    top size, the one equalizing k-1 and k) and check the mode probability
    beats 1/(2 sqrt(n)). Returns the per-k (lam, prob) list."""
    if degree(d) < 1:
        raise DomainError("need d >= 1")
    if vertex_count(n) % (2 * d):
        raise DomainError(f"2d = {2 * d} must divide n = {n}")
    copies = n // (2 * d)
    if model == "hardcore":
        p = kdd_independence_poly(d) ** copies
    elif model == "matching":
        p = kdd_matching_poly(d) ** copies
    else:
        raise DomainError(f"unknown model {model!r}")
    out = []
    for k in range(1, n // 2 + 1):
        if p.coefficient(k + 1) > 0:
            lam, prob = lampick_lambda(p, k)
        else:
            # top size: the defining equation has no solution; the fugacity
            # equalizing sizes k-1 and k gives both the same probability and
            # still makes k a mode by log-concavity
            lam, prob = lampick_lambda(p, k - 1)
        if not mode_probability_exceeds_half_inv_sqrt(prob, n):
            raise CertificateError(f"mode probability bound fails at k={k}", k)
        out.append((k, lam, prob))
    return out


def log_concavity_check(p: IntPolynomial, lam: Fraction) -> bool:
    """Pr[size=j]^2 >= Pr[size=j+1] Pr[size=j-1] across the distribution."""
    lam = fugacity(lam)
    dist = size_distribution(p, lam)
    return all(
        dist[j] ** 2 >= dist[j + 1] * dist[j - 1] for j in range(1, len(dist) - 1)
    )


def binomial_base_inequalities(d: int) -> bool:
    """C(d,j)^2 > C(d,j-1) C(d,j+1) and its matching analogue
    C(d,j)^4 j!^2 > C(d,j-1)^2 (j-1)! C(d,j+1)^2 (j+1)! for 1 <= j <= d-1."""
    for j in range(1, degree(d)):
        if comb(d, j) ** 2 <= comb(d, j - 1) * comb(d, j + 1):
            return False
        lhs = comb(d, j) ** 4 * factorial(j) ** 2
        rhs = comb(d, j - 1) ** 2 * factorial(j - 1) * comb(d, j + 1) ** 2 * factorial(j + 1)
        if lhs <= rhs:
            return False
    return True


def variance_check(d: int, lam: Fraction):
    """Exact size variances on K_{d,d} for both models, checked against the
    d/4 bound (one quarter of the vertex count over two)."""
    d, lam = degree(d), fugacity(lam)
    bound = Fraction(d, 4)
    var_hc = size_distribution(kdd_independence_poly(d), lam).variance()
    var_md = size_distribution(kdd_matching_poly(d), lam).variance()
    return {
        "hardcore": var_hc,
        "matching": var_md,
        "bound": bound,
        "ok": var_hc <= bound and var_md <= bound,
    }


class GivenSizeVerdict(NamedTuple):
    applicable: bool
    ok: bool
    d: int | None = None
    failures: tuple = ()


def given_size_bound(g: Graph) -> GivenSizeVerdict:
    """i_k(G) <= 2 sqrt(n) i_k(H) and m_k(G) <= 2 sqrt(n) m_k(H) for every k,
    where H is the disjoint union of n/(2d) copies of K_{d,d}; compared in
    integers after squaring. Not applicable unless 2d divides n."""
    d = regular_degree(g)
    if d is None:
        raise DomainError("graph must be regular")
    if d < 1:
        raise DomainError("graph must be d-regular with d >= 1")
    n = g.n
    if n % (2 * d):
        return GivenSizeVerdict(applicable=False, ok=True, d=d)
    h = kdd_union(d, n)
    failures = []
    for label, gv, hv in (
        ("independent", independence_poly(g), independence_poly(h)),
        ("matching", matching_poly(g), matching_poly(h)),
    ):
        for k in range(max(gv.degree, hv.degree) + 1):
            if gv.coefficient(k) ** 2 > 4 * n * hv.coefficient(k) ** 2:
                failures.append((label, k))
    return GivenSizeVerdict(applicable=True, ok=not failures, d=d, failures=tuple(failures))


def ratio_conjecture_report(corpus, d: int, n: int):
    """Per-size maxima of the successive count ratios over a corpus of
    d-regular n-vertex graphs, reporting whether the K_{d,d} union attains
    each maximum. Purely empirical; never raises on a counterexample."""
    if degree(d) < 1:
        raise DomainError("need d >= 1")
    if vertex_count(n) % (2 * d):
        raise DomainError(f"2d = {2 * d} must divide n = {n}")
    h = kdd_union(d, n)
    named = list(corpus)
    polys = {}
    for name, g in named:
        if regular_degree(g) != d or g.n != n:
            raise DomainError(f"corpus graph {name} is not {d}-regular on {n} vertices")
        polys[name] = (independence_poly(g), matching_poly(g))
    h_polys = (independence_poly(h), matching_poly(h))
    report = {}
    for which, idx in (("independent", 0), ("matching", 1)):
        rows = []
        hp = h_polys[idx]
        max_k = max(polys[name][idx].degree for name, _ in named)
        for k in range(1, max(max_k, hp.degree) + 1):
            ratios = {}
            for name, _ in named:
                p = polys[name][idx]
                if p.coefficient(k - 1) > 0 and p.coefficient(k) > 0:
                    ratios[name] = Fraction(p.coefficient(k), p.coefficient(k - 1))
            if hp.coefficient(k - 1) > 0 and hp.coefficient(k) > 0:
                h_ratio = Fraction(hp.coefficient(k), hp.coefficient(k - 1))
            else:
                h_ratio = None
            if not ratios:
                continue
            best = max(ratios.values())
            rows.append(
                {
                    "k": k,
                    "max": best,
                    "achievers": sorted(nm for nm, r in ratios.items() if r == best),
                    "extremal_candidate": h_ratio,
                    "candidate_attains_max": h_ratio is not None and h_ratio >= best,
                }
            )
        report[which] = rows
    return report
