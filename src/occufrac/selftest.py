"""The acceptance suite: every mandatory exact check behind the `selftest`
command, reusable from tests. Each criterion returns a CriterionResult;
nothing here tolerates approximation, all comparisons are rational.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import bounds, corpus, hardcore, matching
from .exactmath import format_rational
from .graphs import bipartition, complete_bipartite, regular_degree
from .lp import solve
from .polynomials import (
    edge_occupancy,
    kdd_edge_occupancy,
    kdd_independence_poly,
    kdd_matching_poly,
    kdd_occupancy,
    occupancy,
    state_polynomials,
)

GRID_D = (2, 3, 4, 5)


class CriterionResult:
    """The outcome of one criterion: mutable, since `_run` fails a result
    that ran past its budget; equal when every field is, and unhashable."""

    __slots__ = ("number", "name", "passed", "seconds", "budget", "failures", "details")

    def __init__(
        self,
        number: int,
        name: str,
        passed: bool,
        seconds: float,
        budget: float | None = None,
        failures: list | None = None,
        details: dict | None = None,
    ):
        self.number, self.name, self.passed, self.seconds = number, name, passed, seconds
        self.budget = budget
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"CriterionResult({fields})"

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.seconds < self.budget

    def to_json(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "seconds": round(self.seconds, 3),
            "budget_seconds": self.budget,
            "within_budget": self.within_budget,
            "failures": [str(f) for f in self.failures],
            "details": self.details,
        }


def _grid(quick: bool):
    return corpus.QUICK_GRID if quick else corpus.FUGACITY_GRID


def _run(number, name, budget, fn, quick):
    start = time.monotonic()
    failures: list = []
    details: dict = {}
    try:
        fn(failures, details, quick)
    except Exception as exc:  # a raised check is a failure, not a crash
        failures.append(f"{type(exc).__name__}: {exc}")
    seconds = time.monotonic() - start
    result = CriterionResult(
        number=number,
        name=name,
        passed=not failures,
        seconds=seconds,
        budget=budget,
        failures=failures,
        details=details,
    )
    result.passed = result.passed and result.within_budget
    if not result.within_budget:
        result.failures.append(f"runtime {seconds:.1f}s exceeds budget {budget}s")
    return result


# --- criterion 1 -----------------------------------------------------------

def _c1(failures, details, quick):
    checks = 0
    for d in GRID_D if not quick else (2, 3):
        edgeless_idx = hardcore.edgeless_config_index(d)
        for lam in _grid(quick):
            sol = solve(hardcore.build_primal(d, lam))
            expected = kdd_occupancy(d, lam)
            if sol.status != "optimal" or sol.value != expected:
                failures.append(f"optimum mismatch d={d} lam={format_rational(lam)}")
            if set(sol.support) != {0, edgeless_idx}:  # 0 is the empty class
                failures.append(f"support mismatch d={d} lam={format_rational(lam)}")
            checks += 1
    details["lp_solves"] = checks


# --- criterion 2 -----------------------------------------------------------

def _c2(failures, details, quick):
    checks = 0
    for d in GRID_D if not quick else (2, 3):
        n_configs = len(hardcore.enumerate_configs(d))
        for lam in _grid(quick):
            report = hardcore.dual_certificate(d, lam)  # raises on violation
            if len(report.tight) != 2:
                failures.append(f"tight set size d={d} lam={format_rational(lam)}")
            strict = sum(1 for _, s in report.slacks if s > 0)
            if strict != n_configs - 2:
                failures.append(f"strict count d={d} lam={format_rational(lam)}")
            checks += 1
    details["certificates"] = checks


# --- criterion 3 -----------------------------------------------------------

def _c3(failures, details, quick):
    checks = 0
    for d in GRID_D if not quick else (2, 3):
        kdd = complete_bipartite(d)
        for lam in _grid(quick):
            sol = solve(matching.build_primal(d, lam))
            expected = kdd_edge_occupancy(d, lam)
            if sol.status != "optimal" or sol.value != expected:
                failures.append(f"optimum mismatch d={d} lam={format_rational(lam)}")
            if expected != edge_occupancy(kdd, lam):
                failures.append(f"closed form vs polynomial d={d} lam={format_rational(lam)}")
            diagonal = {
                i for i, (a, b, k) in enumerate(matching.enumerate_triples(d))
                if a == b and k == 0
            }
            if not set(sol.support) <= diagonal:
                failures.append(f"support off diagonal d={d} lam={format_rational(lam)}")
            checks += 1
    details["lp_solves"] = checks


# --- criterion 4 -----------------------------------------------------------

def _c4(failures, details, quick):
    # check_dual_constraints runs the slack-profile pass itself, so each
    # (d, lam) gets one pass: with the certificate, or on its own
    certified = GRID_D if not quick else (2, 3)
    certificates = 0
    profile_checks = 0
    for d in range(2, 13 if not quick else 7):
        for lam in _grid(quick):
            if d in certified:
                matching.check_dual_constraints(d, lam)  # raises on any violation
                certificates += 1
            else:
                matching.check_slack_profile(d, lam)  # raises on any violation
            profile_checks += d - 1
    details["certificates"] = certificates
    details["profile_comparisons"] = profile_checks


# --- criterion 5 -----------------------------------------------------------

def _c5(failures, details, quick):
    top = 51 if not quick else 21
    for d in range(2, top):
        if not matching.laguerre_identity_holds(d):
            failures.append(f"laguerre identity fails at d={d}")
    details["laguerre_range"] = f"2..{top - 1}"
    recurrences = 0
    for d in range(2, 13 if not quick else 7):
        for lam in _grid(quick):
            # the end value and the recurrence, among the profile identities
            matching.check_slack_profile(d, lam)  # raises on any violation
            recurrences += 1
    details["recurrence_checks"] = recurrences


# --- criterion 6 -----------------------------------------------------------

def _c6(failures, details, quick):
    graphs = corpus.regular_corpus(12)
    if quick:
        graphs = graphs[::2]
    checks = 0
    for name, g in graphs:
        d = regular_degree(g)
        extremal = corpus.is_kdd_union(g, d)
        for lam in _grid(quick):
            pairs = (
                (occupancy(g, lam), kdd_occupancy(d, lam), "vertex"),
                (edge_occupancy(g, lam), kdd_edge_occupancy(d, lam), "edge"),
            )
            for value, bound, kind in pairs:
                if extremal:
                    if value != bound:
                        failures.append(f"{name} {kind} not tight at lam={format_rational(lam)}")
                elif value >= bound:
                    failures.append(f"{name} {kind} not strict at lam={format_rational(lam)}")
                checks += 1
    details["graphs"] = len(graphs)
    details["comparisons"] = checks


# --- criterion 7 -----------------------------------------------------------

def _c7(failures, details, quick):
    graphs = corpus.transitive_bipartite_corpus()
    if quick:
        graphs = [(n, g) for n, g in graphs if g.n <= 8]
    for name, g in graphs:
        for lam in _grid(quick):
            verdict = bounds.verify_lower_bound(g, lam)
            if verdict.status != "pass":
                failures.append(f"{name} lam={format_rational(lam)}: {verdict.status}")
    details["graphs"] = len(graphs)


# --- criterion 8 -----------------------------------------------------------

def _c8(failures, details, quick):
    rng = random.Random(20160811)
    graphs = corpus.bipartite_correlation_corpus(12)
    if quick:
        graphs = [(n, g) for n, g in graphs if g.n <= 8]
    lam = Fraction(1)
    pair_checks = triple_checks = 0
    for name, g in graphs:
        sides = bipartition(g)
        pairs = [
            (a, b)
            for side in sides
            for i, a in enumerate(side)
            for b in side[i + 1 :]
        ]
        triples = [
            (a, b, c)
            for side in sides
            for i, a in enumerate(side)
            for j, b in enumerate(side[i + 1 :], i + 1)
            for c in side[j + 1 :]
        ]
        if len(triples) > 100:
            triples = rng.sample(triples, 100)
        for mode in ("occupied", "uncovered"):
            for vs in pairs:
                if not bounds.fkg_check(g, vs, lam, mode).ok:
                    failures.append(f"{name} pair {vs} mode={mode}")
                pair_checks += 1
            for vs in triples:
                if not bounds.fkg_check(g, vs, lam, mode).ok:
                    failures.append(f"{name} triple {vs} mode={mode}")
                triple_checks += 1
    details["graphs"] = len(graphs)
    details["pairs"] = pair_checks
    details["triples"] = triple_checks


# --- criterion 9 -----------------------------------------------------------

def _c9(failures, details, quick):
    top_n = 24 if not quick else 12
    mode_checks = 0
    for d in (2, 3):
        for n in range(2 * d, top_n + 1, 2 * d):
            for model in ("hardcore", "matching"):
                try:
                    rows = bounds.mode_probability_bound_check(d, n, model)
                    mode_checks += len(rows)
                except Exception as exc:
                    failures.append(f"mode bound d={d} n={n} {model}: {exc}")
    details["mode_checks"] = mode_checks

    for d in range(2, 7):
        if not bounds.binomial_base_inequalities(d):
            failures.append(f"binomial base inequalities fail at d={d}")
        for lam in _grid(quick):
            report = bounds.variance_check(d, lam)
            if not report["ok"]:
                failures.append(f"variance d={d} lam={format_rational(lam)}")
            if not bounds.log_concavity_check(kdd_independence_poly(d), lam):
                failures.append(f"log-concavity hardcore d={d} lam={format_rational(lam)}")
            if not bounds.log_concavity_check(kdd_matching_poly(d), lam):
                failures.append(f"log-concavity matching d={d} lam={format_rational(lam)}")

    applicable = 0
    for name, g in corpus.given_size_corpus():
        verdict = bounds.given_size_bound(g)
        if verdict.applicable:
            applicable += 1
        if not verdict.ok:
            failures.append(f"given-size bound fails on {name}: {verdict.failures}")
    details["given_size_graphs"] = applicable


# --- criterion 10 ----------------------------------------------------------

def _c10(failures, details, quick):
    lams = (Fraction(1, 2), Fraction(1)) if not quick else (Fraction(1),)
    graphs = corpus.regular_corpus(12)
    if quick:
        graphs = [(n, g) for n, g in graphs if g.n <= 8]
    oracle_checks = law_checks = 0
    for name, g in graphs:
        # one enumeration per model. Every occupied vertex, uncovered vertex
        # and matched edge yields its label once, so a label counts the sum
        # of its per-vertex (per-edge) events. The totals come from the
        # enumeration, not the recurrences, so the checks cross-check both.
        def vertex_events(mask):
            for v in range(g.n):
                if mask >> v & 1:
                    yield "occupied"
                if not g.adj[v] & mask:
                    yield "uncovered"

        z_ind, ind = state_polynomials(g, "hardcore", vertex_events)
        edges = g.edges()
        z_match, match = state_polynomials(
            g, "matching", lambda mset: ("matched",) * len(mset), max(36, len(edges))
        )
        for lam in lams:
            alpha = occupancy(g, lam)
            per_vertex = z_ind(lam) * g.n
            if ind["occupied"](lam) / per_vertex != alpha:
                failures.append(f"{name} vertex oracle lam={format_rational(lam)}")
            # occupancy again through uncovered probabilities
            if lam / (1 + lam) * ind["uncovered"](lam) / per_vertex != alpha:
                failures.append(f"{name} uncovered oracle lam={format_rational(lam)}")
            per_edge = z_match(lam) * len(edges)
            if match["matched"](lam) / per_edge != edge_occupancy(g, lam):
                failures.append(f"{name} edge oracle lam={format_rational(lam)}")
            oracle_checks += 1

        # the laws count the states just enumerated again, from the kept
        # states of each model. They verify feasibility and the objective
        # identity internally and raise when either fails.
        d = regular_degree(g)
        lam = Fraction(1)
        try:
            probs = hardcore.free_neighborhood_distribution(g, lam)
            if hardcore.objective_value(probs, d, lam) > kdd_occupancy(d, lam):
                failures.append(f"{name} free-neighborhood objective above optimum")
            law_checks += 1
        except Exception as exc:
            failures.append(f"{name} free-neighborhood law: {exc}")
        if g.edge_count <= 25:
            try:
                law = matching.edge_neighborhood_distribution(g, lam, limit=25)
                objective = matching.objective_value(law, d, lam)
                if objective > kdd_edge_occupancy(d, lam):
                    failures.append(f"{name} edge-neighborhood objective above optimum")
                law_checks += 1
            except Exception as exc:
                failures.append(f"{name} edge-neighborhood law: {exc}")
    details["oracle_checks"] = oracle_checks
    details["law_checks"] = law_checks


CRITERIA = (
    (1, "hard-core LP optimum", 10.0, _c1),
    (2, "hard-core dual certificate", None, _c2),
    (3, "matching LP optimum", 60.0, _c3),
    (4, "matching dual certificate", None, _c4),
    (5, "polynomial identity suite", 30.0, _c5),
    (6, "corpus occupancy maxima", None, _c6),
    (7, "tree lower bound corpus", None, _c7),
    (8, "same-side correlation suite", None, _c8),
    (9, "given-size counting suite", None, _c9),
    (10, "oracle consistency", None, _c10),
)


def run_criterion(number: int, quick: bool = False) -> CriterionResult:
    for num, name, budget, fn in CRITERIA:
        if num == number:
            return _run(num, name, budget, fn, quick)
    raise ValueError(f"no criterion {number}")


def run_all(quick: bool = False):
    return [_run(num, name, budget, fn, quick) for num, name, budget, fn in CRITERIA]
