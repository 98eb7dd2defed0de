"""The neighbourhood laws and correlation checks from the deletion
recurrence: `polynomials._event_polynomials` against a per-state count by
definition, the four callers against the reference laws of `_oracles` and,
for the correlation check, against the per-state classifier path, and the
uncovered law on dense graphs at the oracle cap. The free and edge laws on
the bundled graphs and on asymmetric graphs are also checked in
test_orbit_laws, and all three laws on seeded random regular graphs in
test_polynomials."""

import random
import time
from fractions import Fraction

import pytest

from _oracles import (
    classified_correlation,
    disjoint_union,
    random_graph,
    random_regular_graph,
    reference_edge_law,
    reference_free_neighborhood_law,
    reference_matchings,
    reference_uncovered_law,
)
from occufrac import graphs, polynomials
from occufrac.bounds import fkg_check
from occufrac.corpus import bipartite_correlation_corpus, transitive_bipartite_corpus
from occufrac.exactmath import IntPolynomial
from occufrac.graphs import (
    Graph,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    kdd_union,
    mask_vertices,
    petersen,
)
from occufrac.hardcore import free_neighborhood_distribution, uncovered_count_distribution
from occufrac.matching import edge_neighborhood_distribution
from occufrac.polynomials import clear_memo_tables

LAM = Fraction(7, 5)
BUNDLED = sorted(dict(bipartite_correlation_corpus(12) + transitive_bipartite_corpus()).items())


def _random_regular():
    rng = random.Random(29)
    return [random_regular_graph(rng, n, d) for n, d in ((8, 3), (10, 3), (12, 3), (9, 4), (10, 4))]


def _groups(g):
    # same-side pairs and triples, and one vertex named twice
    side = max(bipartition(g), key=len)
    return [vs for vs in (side[:2], side[1:3], side[:3], [side[0], side[0]]) if len(vs) > 1]


def _states_by_definition(g, model, base):
    # (vertices occupied or covered, size) of every state of g - base: the
    # independent sets among all 2^n vertex sets, the matchings from the
    # recursive reference generator
    if model == "hardcore":
        for mask in range(1 << g.n):
            if not mask & base and not any(g.adj[v] & mask for v in mask_vertices(mask)):
                yield mask, mask.bit_count()
    else:
        for matching in reference_matchings(g):
            covered = sum(1 << u | 1 << v for u, v in matching)
            if not covered & base:
                yield covered, len(matching)


def _counted_by_definition(g, model, base, events):
    # each state under the sum of the weights of the events it leaves
    # holding, counted by size
    counts = {}
    for touched, size in _states_by_definition(g, model, base):
        label = sum(weight for weight, blockers in events if not blockers & touched)
        row = counts.setdefault(label, [0] * (size + 1))
        row += [0] * (size + 1 - len(row))
        row[size] += 1
    return {label: IntPolynomial(row) for label, row in counts.items()}


def _event_cases():
    # named graphs, disconnected ones included, and seeded random graphs
    # with isolated vertices; random bases and events, with bit, unit and
    # mixed weights, empty blockers and blockers that meet the base
    rng = random.Random(61)
    named = [
        cycle(7),
        petersen(),
        complete(5),
        kdd_union(2, 8),
        disjoint_union(cycle(3), cycle(4)),
        disjoint_union(complete_bipartite(3), cycle(5)),
    ]
    named += [random_graph(rng, rng.randint(5, 11), rng.choice((0.2, 0.4, 0.7))) for _ in range(6)]
    for g in named:
        for model in ("hardcore", "matching"):
            for count in (0, 1, 3, 6):
                base = rng.getrandbits(g.n) & rng.getrandbits(g.n) & rng.getrandbits(g.n)
                bits, units = [1 << t for t in range(count)], [1] * count
                weights = rng.choice((bits, units, [rng.randint(0, 9) for _ in range(count)]))
                events = [(w, rng.getrandbits(g.n) & rng.getrandbits(g.n)) for w in weights]
                yield g, model, base, events


def test_event_polynomials_count_each_state_under_its_weight_sum():
    cases = 0
    for g, model, base, events in _event_cases():
        clear_memo_tables()
        assert polynomials._event_polynomials(g, model, base, events) == _counted_by_definition(
            g, model, base, events
        )
        cases += 1
    assert cases == 96
    clear_memo_tables()


def test_event_polynomials_with_no_events_give_the_polynomial():
    for g in (petersen(), disjoint_union(cycle(3), hypercube(3))):
        assert polynomials._event_polynomials(g, "hardcore", 0, []) == {
            0: polynomials.independence_poly(g)
        }
        assert polynomials._event_polynomials(g, "matching", 0, []) == {
            0: polynomials.matching_poly(g)
        }
    clear_memo_tables()


@pytest.mark.parametrize("g", [g for _, g in BUNDLED], ids=[name for name, _ in BUNDLED])
def test_uncovered_law_and_correlations_match_on_bundled_graphs(g):
    assert tuple(uncovered_count_distribution(g, LAM)) == reference_uncovered_law(g, LAM)
    for vs in _groups(g):
        for mode in ("occupied", "uncovered"):
            verdict = fkg_check(g, vs, LAM, mode)
            assert (verdict.joint, verdict.product) == classified_correlation(g, vs, LAM, mode)


def test_uncovered_law_and_correlations_match_on_random_regular_graphs():
    for g in _random_regular():
        lam = Fraction(g.n, 7)
        assert tuple(uncovered_count_distribution(g, lam)) == reference_uncovered_law(g, lam)
        if bipartition(g) is not None:
            for vs in _groups(g):
                for mode in ("occupied", "uncovered"):
                    verdict = fkg_check(g, vs, lam, mode)
                    assert (verdict.joint, verdict.product) == classified_correlation(
                        g, vs, lam, mode
                    )


def test_equal_orbits_with_one_triple_add_up():
    # C6 beside two triangles: two edge orbits of six edges each, and both
    # give their edge the triple (0, 0, 0) in some matchings, so the two
    # orbits' counts under one label must add
    g = disjoint_union(cycle(6), disjoint_union(cycle(3), cycle(3)))
    assert [size for _, size in graphs.automorphism_orbits(g)[1]] == [6, 6]
    lam = Fraction(3, 2)
    law = edge_neighborhood_distribution(g, lam)
    assert (0, 0, 0) in law
    assert law == reference_edge_law(g, lam)
    assert tuple(free_neighborhood_distribution(g, lam)) == reference_free_neighborhood_law(g, lam)


def test_a_hard_core_graph_above_the_bound_is_counted_in_chunks(monkeypatch):
    # C22 has 39603 independent sets: the classifier path counts them in two
    # chunks, neither kept, and the correlations equal it; the law meets the
    # triangle-free balance E[Y] = d E[(1+lam)^-Y]. With a larger bound the
    # classifier path keeps one table and gives the same values
    clear_memo_tables()
    g, vs = cycle(22), [0, 2, 10]
    assert polynomials.independence_poly(g)(1) > polynomials._STATE_BOUND
    law = uncovered_count_distribution(g, LAM)
    verdicts = [fkg_check(g, vs, LAM, mode) for mode in ("occupied", "uncovered")]
    for verdict, mode in zip(verdicts, ("occupied", "uncovered")):
        assert (verdict.joint, verdict.product) == classified_correlation(g, vs, LAM, mode)
    assert polynomials._STATES == {}
    mean = sum(t * p for t, p in enumerate(law))
    assert sum(law) == 1 and mean == 2 * sum(p / (1 + LAM) ** t for t, p in enumerate(law))
    monkeypatch.setattr(polynomials, "_STATE_BOUND", 1 << 16)
    for verdict, mode in zip(verdicts, ("occupied", "uncovered")):
        assert (verdict.joint, verdict.product) == classified_correlation(g, vs, LAM, mode)
    assert polynomials._STATES["hardcore"].graph == g
    assert uncovered_count_distribution(g, LAM) == law
    clear_memo_tables()


@pytest.mark.parametrize("bound", [1, 7, 37])
def test_laws_in_small_chunks_equal_the_references(monkeypatch, bound):
    # every law through many chunks, down to one state per chunk
    monkeypatch.setattr(polynomials, "_STATE_BOUND", bound)
    several = graphs.parse_graph6("K??AtRCUDGE_")  # 5 vertex orbits, 4 edge orbits
    for g in (cycle(8), several, disjoint_union(complete_bipartite(2), cycle(6))):
        clear_memo_tables()
        assert tuple(uncovered_count_distribution(g, LAM)) == reference_uncovered_law(g, LAM)
        assert tuple(free_neighborhood_distribution(g, LAM)) == reference_free_neighborhood_law(g, LAM)
        assert edge_neighborhood_distribution(g, LAM) == reference_edge_law(g, LAM)
        vs = _groups(g)[2]
        for mode in ("occupied", "uncovered"):
            verdict = fkg_check(g, vs, LAM, mode)
            assert (verdict.joint, verdict.product) == classified_correlation(g, vs, LAM, mode)
        assert polynomials._STATES == {}
    clear_memo_tables()


def _dense_regular(rng, n, d, swaps):
    # the circulant with steps 1..d/2, then random double-edge swaps, which
    # keep every degree: a dense d-regular graph that is likely asymmetric
    edges = {tuple(sorted((u, (u + s) % n))) for u in range(n) for s in range(1, d // 2 + 1)}
    for _ in range(swaps):
        (a, b), (c, e) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted((a, c))), tuple(sorted((b, e)))}
        if len({a, b, c, e}) == 4 and not new & edges:
            edges = edges - {(a, b), (c, e)} | new
    return Graph(n, sorted(edges))


def test_uncovered_law_is_fast_on_dense_graphs_at_the_cap():
    # K24: the inclusion-exclusion over a vertex's 23 neighbors merges its
    # terms by union, where 2^23 plain terms would not run. The empty set
    # leaves all 23 neighbors uncovered, v alone none, any other vertex u
    # alone just u
    lam = LAM
    z = 1 + 24 * lam
    started = time.perf_counter()
    law = uncovered_count_distribution(complete(24), lam)
    assert time.perf_counter() - started < 2
    assert law == [lam / z, 23 * lam / z] + [0] * 21 + [1 / z]
    # a dense 12-regular graph on 24 vertices with every vertex its own orbit
    g = _dense_regular(random.Random(7), 24, 12, 200)
    assert graphs.regular_degree(g) == 12
    assert len(graphs.automorphism_orbits(g)[0]) == 24
    clear_memo_tables()
    started = time.perf_counter()
    law = uncovered_count_distribution(g, lam)
    assert time.perf_counter() - started < 2
    assert sum(law) == 1
    clear_memo_tables()
