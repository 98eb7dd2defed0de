"""The three benchmark workloads: seeded inputs and the exact checks on
every result.

`build_inputs` uses only `inputs.py` and the standard library, so the
inputs of a seed do not depend on the package. Everything else calls the
package through the module objects imported below (`lp.solve`, never a
function bound at import), so that the tracer in `spans.py` can swap in
traced views of those modules.

Each operation is one `Ledger.check`: it is attempted once and fails when
it raises or when its result differs from the expected value. Failures name
the operation.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

from inputs import random_fugacity, regular_graph6
from occufrac import bounds, corpus, graphs, hardcore, lp, matching, polynomials

HARDCORE_D = range(2, 8)
MATCHING_D = range(2, 10)

# (d, n) of the random graphs; the structure of each graph and every
# fugacity come from the seed, the sizes do not, so the amount of work
# stays comparable between seeds.
ORACLE_RANDOM = ((3, 10), (3, 10), (3, 12), (3, 12), (4, 10), (4, 10), (4, 10))
CORPUS_RANDOM = (
    (3, 12), (3, 12), (3, 14), (3, 14), (3, 16), (3, 16), (3, 18), (3, 18),
    (3, 20), (3, 22), (3, 24),
    (4, 16),
    (5, 12),
)
# graphs taken by name from the bundled corpora, so that a later change to
# those lists does not change the benchmark's inputs
ORACLE_BUNDLED = ("C4", "C6", "C8", "C10", "prism4", "Q3", "K22", "K33", "K44", "K55", "H2_8")
CORPUS_NAMED = ("prism12", "Q4", "petersen", "H3_12")
TRANSITIVE = ("C6", "C8", "C10", "C12", "K22", "K33", "K44", "Q3", "Q4", "prism4", "prism6")
ORACLE_PAIRS = 2  # seeded same-side pairs per graph
ORACLE_TRIPLES = 2  # seeded same-side triples per graph
EDGE_LAW_LIMIT = 25  # edge_neighborhood_distribution's cap; every oracle graph is within it


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def build_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload: graph6 strings, sampling seeds and
    fugacities as "p/q" strings. Equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")

    def fugacities(count):
        return [_rat(random_fugacity(rng, above_one=i % 2 == 1)) for i in range(count)]

    if workload == "certify":
        return {
            "hardcore": [list(p) for p in zip(HARDCORE_D, fugacities(len(HARDCORE_D)))],
            "matching": [list(p) for p in zip(MATCHING_D, fugacities(len(MATCHING_D)))],
        }
    if workload == "oracle":
        rows = [
            [f"rb{d}_{n}_{i}", regular_graph6(n, d, rng, bipartite=True)]
            for i, (d, n) in enumerate(ORACLE_RANDOM)
        ]
        rows += [[name, None] for name in ORACLE_BUNDLED]
        return {
            "graphs": [row + [lam] for row, lam in zip(rows, fugacities(len(rows)))],
            "sample_seed": rng.randrange(2**32),
        }
    if workload == "corpus":
        rows = [
            [f"r{d}_{n}_{i}", regular_graph6(n, d, rng)]
            for i, (d, n) in enumerate(CORPUS_RANDOM)
        ]
        rows += [[name, None] for name in CORPUS_NAMED]
        return {
            "graphs": [row + [lam] for row, lam in zip(rows, fugacities(len(rows)))],
            "transitive": [list(p) for p in zip(TRANSITIVE, fugacities(len(TRANSITIVE)))],
        }
    raise ValueError(f"unknown workload {workload!r}")


def digest(data: dict) -> str:
    """Short fingerprint of the inputs, compared between the runs of one seed."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Parsing into program objects (part of set-up)

def parse_inputs(workload: str, data: dict) -> dict:
    """Program objects for the plain-data inputs: graphs parsed from graph6
    or looked up by name, fugacities as Fractions."""
    if workload == "certify":
        return {
            key: [(d, Fraction(lam)) for d, lam in data[key]]
            for key in ("hardcore", "matching")
        }
    bundled = dict(corpus.bipartite_correlation_corpus(12))
    bundled.update(corpus.transitive_bipartite_corpus())
    bundled.update(
        prism12=graphs.prism(12),
        Q4=graphs.hypercube(4),
        petersen=graphs.petersen(),
        H3_12=graphs.kdd_union(3, 12),
    )

    def graph(name, g6):
        return graphs.parse_graph6(g6) if g6 is not None else bundled[name]

    out = {"graphs": [(name, graph(name, g6), Fraction(lam)) for name, g6, lam in data["graphs"]]}
    if workload == "oracle":
        out["rng"] = random.Random(data["sample_seed"])
    else:
        out["transitive"] = [(name, bundled[name], Fraction(lam)) for name, lam in data["transitive"]]
    return out


# ---------------------------------------------------------------------------
# The ledger of operations

class Ledger:
    """Counts attempted operations and records each failure by name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, name: str, op) -> None:
        """Run `op`; it returns None when every comparison held, otherwise a
        short description of the first mismatch."""
        self.attempted += 1
        try:
            problem = op()
        except Exception as exc:  # an exception is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{name}: {problem}")


def _expect(got, want, what: str):
    return None if got == want else f"{what}: got {got}, expected {want}"


def _first(*problems):
    return next((p for p in problems if p is not None), None)


# ---------------------------------------------------------------------------
# certify: LP relaxations and their dual certificates

def _hardcore(d: int, lam: Fraction):
    configs = hardcore.enumerate_configs(d)
    program = hardcore.build_primal(d, lam)
    sol = lp.solve(program)
    want = polynomials.kdd_occupancy(d, lam)
    tight = {
        c.index for c in configs if c.graph.n in (0, d) and c.graph.edge_count == 0
    }
    report = hardcore.dual_certificate(d, lam)  # raises on a violated slack
    scale = hardcore.objective_scale(lam)
    dual = (scale * report.dual_values["norm"], scale * report.dual_values["balance"])
    slacks = lp.dual_slacks(program, dual)
    return _first(
        _expect(sol.status, "optimal", "status"),
        _expect(sol.value, want, "LP optimum"),
        _expect(set(sol.support), tight, "LP support"),
        _expect(report.optimum, want, "certified optimum"),
        _expect(slacks.feasible, True, "dual feasibility"),
        _expect(slacks.dual_objective, want, "dual objective"),
        _expect(set(slacks.tight), tight, "tight columns"),
    )


def _matching(d: int, lam: Fraction):
    program = matching.build_primal(d, lam)
    sol = lp.solve(program)
    want = polynomials.kdd_edge_occupancy(d, lam)
    triples = matching.enumerate_triples(d)
    diagonal = {idx for idx, (i, j, k) in enumerate(triples) if i == j and k == 0}
    report = matching.check_dual_constraints(d, lam)  # raises on any violation
    labels = {f"({i},{j},{k})" for i, j, k in triples if i == j and k == 0}
    return _first(
        _expect(sol.status, "optimal", "status"),
        _expect(sol.value, want, "LP optimum"),
        _expect(set(sol.support) <= diagonal, True, "LP support on the diagonal"),
        _expect(report.optimum, want, "certified optimum"),
        _expect(set(report.tight), labels, "tight triples"),
    )


def _profile(d: int, lam: Fraction):
    profile = matching.check_monotone_profile(d, lam)  # raises when not monotone
    return _expect(len(profile["increments"]), d - 2, "profile increments")


def run_certify(inputs: dict, ledger: Ledger) -> None:
    for d, lam in inputs["hardcore"]:
        ledger.check(f"hardcore d={d} lam={lam}", lambda: _hardcore(d, lam))
    for d, lam in inputs["matching"]:
        ledger.check(f"matching d={d} lam={lam}", lambda: _matching(d, lam))
        if d >= 3:
            ledger.check(f"profile d={d} lam={lam}", lambda: _profile(d, lam))


# ---------------------------------------------------------------------------
# oracle: brute-force probabilities on bipartite regular graphs

def _same_side(sides, size: int, count: int, rng: random.Random):
    pool = [side for side in sides if len(side) >= size]
    if not pool:
        return []
    return [tuple(sorted(rng.sample(rng.choice(pool), size))) for _ in range(count)]


def _vertex_average(g, lam):
    total = sum(
        (
            polynomials.event_probability_oracle(
                g, "hardcore", lam, lambda iset, v=v: v in iset
            )
            for v in range(g.n)
        ),
        Fraction(0),
    )
    return _expect(total / g.n, polynomials.occupancy(g, lam), "vertex average")


def _edge_average(g, lam):
    edges = g.edges()
    limit = max(polynomials.ORACLE_LIMIT, len(edges))
    total = sum(
        (
            polynomials.event_probability_oracle(
                g, "matching", lam, lambda mset, e=e: e in mset, limit=limit
            )
            for e in edges
        ),
        Fraction(0),
    )
    return _expect(total / len(edges), polynomials.edge_occupancy(g, lam), "edge average")


def _free_law(g, d, lam):
    probs = hardcore.free_neighborhood_distribution(g, lam)  # checks balance
    return _first(
        _expect(sum(probs, Fraction(0)), 1, "total mass"),
        _expect(
            hardcore.objective_value(probs, d, lam),
            polynomials.occupancy(g, lam),
            "LP objective of the law",
        ),
    )


def _uncovered_law(g, d, lam):
    law = hardcore.uncovered_count_distribution(g, lam)
    mean = sum((t * p for t, p in enumerate(law)), Fraction(0))
    inv = sum((p / (1 + lam) ** t for t, p in enumerate(law)), Fraction(0))
    return _first(
        _expect(sum(law, Fraction(0)), 1, "total mass"),
        _expect(mean, d * inv, "triangle-free balance"),
        _expect(lam / (d * (1 + lam)) * mean, polynomials.occupancy(g, lam), "occupancy"),
    )


def _edge_law(g, d, lam):
    law = matching.edge_neighborhood_distribution(g, lam, limit=EDGE_LAW_LIMIT)
    objective = sum(
        (q * matching.local_edge_occupancy(i, j, k, lam, d) for (i, j, k), q in law.items()),
        Fraction(0),
    )
    return _first(
        _expect(sum(law.values(), Fraction(0)), 1, "total mass"),
        _expect(objective, polynomials.edge_occupancy(g, lam), "LP objective of the law"),
    )


def _fkg(g, vs, lam, mode):
    verdict = bounds.fkg_check(g, vs, lam, mode)
    return _expect(verdict.ok, True, f"correlation joint={verdict.joint} product={verdict.product}")


def run_oracle(inputs: dict, ledger: Ledger) -> None:
    rng = inputs["rng"]
    for name, g, lam in inputs["graphs"]:
        d = graphs.regular_degree(g)
        sides = graphs.bipartition(g)
        tag = f"{name} lam={lam}"
        ledger.check(f"vertex oracle {tag}", lambda: _vertex_average(g, lam))
        ledger.check(f"edge oracle {tag}", lambda: _edge_average(g, lam))
        ledger.check(f"free-neighbourhood law {tag}", lambda: _free_law(g, d, lam))
        ledger.check(f"uncovered law {tag}", lambda: _uncovered_law(g, d, lam))
        ledger.check(f"edge-neighbourhood law {tag}", lambda: _edge_law(g, d, lam))
        groups = _same_side(sides, 2, ORACLE_PAIRS, rng)
        groups += _same_side(sides, 3, ORACLE_TRIPLES, rng)
        for vs in groups:
            for mode in ("occupied", "uncovered"):
                ledger.check(f"fkg {mode} {vs} {tag}", lambda: _fkg(g, vs, lam, mode))


# ---------------------------------------------------------------------------
# corpus: polynomials and bounds over regular graphs

def _low_coefficients(g):
    n, m = g.n, g.edge_count
    ip = polynomials.independence_poly(g)
    mp = polynomials.matching_poly(g)
    paths = sum(comb(g.degree(v), 2) for v in range(n))
    return _first(
        _expect([ip.coefficient(k) for k in range(3)], [1, n, comb(n, 2) - m], "i_0..i_2"),
        _expect([mp.coefficient(k) for k in range(3)], [1, m, comb(m, 2) - paths], "m_0..m_2"),
    )


def _extremal(g, d, lam):
    tight = corpus.is_kdd_union(g, d)
    problems = []
    for kind, value, bound in (
        ("occupancy", polynomials.occupancy(g, lam), polynomials.kdd_occupancy(d, lam)),
        (
            "edge occupancy",
            polynomials.edge_occupancy(g, lam),
            polynomials.kdd_edge_occupancy(d, lam),
        ),
    ):
        if value > bound or (value == bound) != tight:
            problems.append(f"{kind} {value} against K_dd {bound}, tight={tight}")
    return problems[0] if problems else None


def _given_size(g, d):
    verdict = bounds.given_size_bound(g)
    return _first(
        _expect(verdict.applicable, g.n % (2 * d) == 0, "applicable"),
        _expect(verdict.ok, True, f"bound failures {verdict.failures}"),
    )


def _ratio_rows(polys, h_poly):
    """Expected report rows, recomputed from the coefficient lists."""
    rows = []
    top = max([p.degree for p in polys.values()] + [h_poly.degree])
    for k in range(1, top + 1):
        ratios = {
            name: Fraction(p.coefficient(k), p.coefficient(k - 1))
            for name, p in polys.items()
            if p.coefficient(k - 1) > 0 and p.coefficient(k) > 0
        }
        if not ratios:
            continue
        h = (
            Fraction(h_poly.coefficient(k), h_poly.coefficient(k - 1))
            if h_poly.coefficient(k - 1) > 0 and h_poly.coefficient(k) > 0
            else None
        )
        best = max(ratios.values())
        rows.append(
            {
                "k": k,
                "max": best,
                "achievers": sorted(nm for nm, r in ratios.items() if r == best),
                "extremal_candidate": h,
                "candidate_attains_max": h is not None and h >= best,
            }
        )
    return rows


def _ratio_report(group, d, n):
    report = bounds.ratio_conjecture_report(group, d, n)
    blocks = n // (2 * d)
    problems = []
    for which, poly_fn, kdd in (
        ("independent", polynomials.independence_poly, polynomials.kdd_independence_poly(d)),
        ("matching", polynomials.matching_poly, polynomials.kdd_matching_poly(d)),
    ):
        polys = {name: poly_fn(g) for name, g in group}
        h_poly = kdd ** blocks
        problems.append(_expect(report[which], _ratio_rows(polys, h_poly), which))
    return _first(*problems)


def _lower_bound(g, lam):
    return _expect(bounds.verify_lower_bound(g, lam).status, "pass", "tree lower bound")


def run_corpus(inputs: dict, ledger: Ledger) -> None:
    groups: dict = {}
    for name, g, lam in inputs["graphs"]:
        d = graphs.regular_degree(g)
        tag = f"{name} lam={lam}"
        ledger.check(f"low coefficients {name}", lambda: _low_coefficients(g))
        ledger.check(f"extremal bound {tag}", lambda: _extremal(g, d, lam))
        ledger.check(f"given-size bound {name}", lambda: _given_size(g, d))
        if g.n % (2 * d) == 0:
            groups.setdefault((d, g.n), []).append((name, g))
    for (d, n), group in sorted(groups.items()):
        ledger.check(f"ratio report d={d} n={n}", lambda: _ratio_report(group, d, n))
    for name, g, lam in inputs["transitive"]:
        ledger.check(f"lower bound {name} lam={lam}", lambda: _lower_bound(g, lam))


RUNNERS = {"certify": run_certify, "oracle": run_oracle, "corpus": run_corpus}
