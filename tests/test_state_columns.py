"""The bit-sliced state columns and the four laws counted from them: the
column layout itself, and differential tests against the reference laws of
`_oracles` and, for the correlation check, the per-state classifier path.
The free and edge laws on the bundled graphs and on asymmetric graphs are
also checked in test_orbit_laws, and all three laws on seeded random
regular graphs in test_polynomials."""

import random
from fractions import Fraction

import pytest

from _oracles import (
    classified_correlation,
    disjoint_union,
    random_regular_graph,
    reference_edge_law,
    reference_free_neighborhood_law,
    reference_uncovered_law,
)
from occufrac import graphs, polynomials
from occufrac.bounds import fkg_check
from occufrac.corpus import bipartite_correlation_corpus, transitive_bipartite_corpus
from occufrac.graphs import Graph, bipartition, complete_bipartite, cycle, hypercube, petersen
from occufrac.hardcore import free_neighborhood_distribution, uncovered_count_distribution
from occufrac.matching import edge_neighborhood_distribution
from occufrac.polynomials import clear_memo_tables, state_polynomials

LAM = Fraction(7, 5)
BUNDLED = sorted(dict(bipartite_correlation_corpus(12) + transitive_bipartite_corpus()).items())


def _random_regular():
    rng = random.Random(29)
    return [random_regular_graph(rng, n, d) for n, d in ((8, 3), (10, 3), (12, 3), (9, 4), (10, 4))]


def _groups(g):
    # same-side pairs and triples, and one vertex named twice
    side = max(bipartition(g), key=len)
    return [vs for vs in (side[:2], side[1:3], side[:3], [side[0], side[0]]) if len(vs) > 1]


def _kept_table(g, model):
    clear_memo_tables()
    state_polynomials(g, model, lambda state: ())
    return polynomials._STATES[model]


@pytest.mark.parametrize(
    "g", [cycle(7), petersen(), hypercube(3), complete_bipartite(4)], ids=["C7", "P", "Q3", "K44"]
)
def test_columns_hold_each_state_bit_and_size(g):
    # bit i of item column b says whether state i holds vertex (edge) b, and
    # bit i of size column k whether state i has k elements
    edges = g.edges()
    for model, mask in (
        ("hardcore", lambda state: state),
        ("matching", lambda state: sum(1 << edges.index(e) for e in state)),
    ):
        table = _kept_table(g, model)
        items, by_size = table.columns()
        assert len(items) == (g.n if model == "hardcore" else len(edges))
        assert len(by_size) == len(table.total.coeffs)
        for i, state in enumerate(table.states):
            assert [column >> i & 1 for column in items] == [
                mask(state) >> b & 1 for b in range(len(items))
            ]
            assert [column >> i & 1 for column in by_size] == [
                int(k == table.sizes[i]) for k in range(len(by_size))
            ]
        assert max(items).bit_length() <= len(table.states)
        assert sum(by_size) == (1 << len(table.states)) - 1  # one size per state
    clear_memo_tables()


def test_split_states_adds_weights_and_merges_equal_sums():
    split = polynomials._split_states
    assert split(0b1111, [(1, 0b0011), (2, 0b0101)]) == {3: 0b0001, 1: 0b0010, 2: 0b0100, 0: 0b1000}
    assert split(0b1111, [(1, 0b0011), (1, 0b0101)]) == {2: 0b0001, 1: 0b0110, 0: 0b1000}
    assert split(0b0110, [(1, 0b1111)]) == {1: 0b0110}
    assert split(0b0110, []) == {0: 0b0110}


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
    # C22 has 39603 independent sets: two chunks, neither kept. The chunked
    # law equals the law from one kept table and meets the triangle-free
    # balance E[Y] = d E[(1+lam)^-Y]; the correlations equal the classifier
    # path's
    clear_memo_tables()
    g, vs = cycle(22), [0, 2, 10]
    assert polynomials.independence_poly(g)(1) > polynomials._STATE_BOUND
    law = uncovered_count_distribution(g, LAM)
    for mode in ("occupied", "uncovered"):
        verdict = fkg_check(g, vs, LAM, mode)
        assert (verdict.joint, verdict.product) == classified_correlation(g, vs, LAM, mode)
    assert polynomials._STATES == {}
    mean = sum(t * p for t, p in enumerate(law))
    assert sum(law) == 1 and mean == 2 * sum(p / (1 + LAM) ** t for t, p in enumerate(law))
    monkeypatch.setattr(polynomials, "_STATE_BOUND", 1 << 16)
    assert uncovered_count_distribution(g, LAM) == law
    assert polynomials._STATES["hardcore"].graph == g
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


def test_kept_columns_are_built_once():
    g = Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    table = _kept_table(g, "hardcore")
    uncovered_count_distribution(g, LAM)
    columns = table.columns()
    fkg_check(g, [0, 1], LAM, "uncovered")
    assert polynomials._STATES["hardcore"] is table and table.columns() is columns
    clear_memo_tables()
