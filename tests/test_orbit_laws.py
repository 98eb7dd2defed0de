"""The neighbourhood laws classify one vertex or edge per automorphism orbit,
weighted by the orbit size: differential tests against the reference laws,
which classify every vertex and every oriented edge of every state, and
mutations of the orbits that must not go unnoticed."""

import random
from fractions import Fraction

import pytest

from _oracles import (
    disjoint_union,
    random_regular_graph,
    reference_edge_law,
    reference_free_neighborhood_law,
)
from occufrac import graphs, hardcore, matching
from occufrac.corpus import bipartite_correlation_corpus, transitive_bipartite_corpus
from occufrac.errors import CapabilityError, CertificateError
from occufrac.graphs import automorphism_orbits, complete_bipartite, cycle, hypercube
from occufrac.hardcore import FREE_LAW_LIMIT, free_neighborhood_distribution
from occufrac.matching import edge_neighborhood_distribution
from occufrac.polynomials import clear_memo_tables

LAM = Fraction(7, 5)
EDGE_LIMIT = 25  # the reference edge law stays within a second up to here


BUNDLED = sorted(dict(bipartite_correlation_corpus(12) + transitive_bipartite_corpus()).items())


def _asymmetric():
    # seeded 4-regular graphs whose automorphism group is trivial
    return [random_regular_graph(random.Random(s), n, 4) for n, s in ((10, 3), (10, 4), (12, 1))]


# a random bipartite 3-regular graph on 12 vertices with 5 vertex orbits and
# 4 edge orbits
SEVERAL_ORBITS = graphs.parse_graph6("K??AtRCUDGE_")
TWO_COMPONENTS = disjoint_union(complete_bipartite(3), hypercube(3))


def _check_laws(g, lam):
    if g.n <= FREE_LAW_LIMIT:
        assert tuple(free_neighborhood_distribution(g, lam)) == reference_free_neighborhood_law(g, lam)
    if g.edge_count <= EDGE_LIMIT:
        law = edge_neighborhood_distribution(g, lam, limit=EDGE_LIMIT)
        assert law == reference_edge_law(g, lam)


@pytest.mark.parametrize("g", [g for _, g in BUNDLED], ids=[name for name, _ in BUNDLED])
def test_laws_match_reference_on_bundled_bipartite_graphs(g):
    _check_laws(g, LAM)


def test_laws_match_reference_on_asymmetric_regular_graphs():
    for g in _asymmetric():
        vertex_orbits, edge_orbits = automorphism_orbits(g)
        assert len(vertex_orbits) == g.n and len(edge_orbits) == g.edge_count
        _check_laws(g, Fraction(1, 3))


def test_laws_match_reference_with_several_orbits():
    vertex_orbits, edge_orbits = automorphism_orbits(SEVERAL_ORBITS)
    assert (len(vertex_orbits), len(edge_orbits)) == (5, 4)
    _check_laws(SEVERAL_ORBITS, LAM)


def test_laws_match_reference_on_non_isomorphic_components():
    # K_{3,3} beside Q3: two vertex orbits and two edge orbits of unequal size
    assert [size for _, size in automorphism_orbits(TWO_COMPONENTS)[1]] == [9, 12]
    _check_laws(TWO_COMPONENTS, Fraction(2, 3))


@pytest.mark.parametrize(
    "g", [cycle(6), SEVERAL_ORBITS, TWO_COMPONENTS], ids=["C6", "rb3_12", "K33+Q3"]
)
@pytest.mark.parametrize(
    "module, law",
    [
        (hardcore, free_neighborhood_distribution),
        (matching, lambda g, lam: edge_neighborhood_distribution(g, lam, limit=EDGE_LIMIT)),
    ],
    ids=["free", "edge"],
)
def test_unit_orbit_weights_fail(monkeypatch, module, law, g):
    # every orbit weighed once in place of its size leaves mass off the law
    original = graphs.automorphism_orbits

    def unweighted(h):
        vertex_orbits, edge_orbits = original(h)
        return [(v, 1) for v, _ in vertex_orbits], [(e, 1) for e, _ in edge_orbits]

    monkeypatch.setattr(module, "automorphism_orbits", unweighted)
    with pytest.raises(CertificateError):
        law(g, LAM)


@pytest.mark.parametrize(
    "law", [free_neighborhood_distribution, edge_neighborhood_distribution], ids=["free", "edge"]
)
def test_non_automorphism_generator_raises(monkeypatch, law):
    # swapping vertices 0 and 1 of the 6-cycle is no automorphism
    original = graphs._canonical_form

    def corrupted(g):
        key, reps, automorphisms = original(g)
        return key, reps, automorphisms + [[1, 0, 2, 3, 4, 5]]

    clear_memo_tables()  # the orbits of a graph searched before are kept
    monkeypatch.setattr(graphs, "_canonical_form", corrupted)
    with pytest.raises(CertificateError, match="is not an automorphism"):
        law(cycle(6), LAM)


def test_caps_raise_before_any_canonical_search(monkeypatch):
    def refusing(g):
        raise AssertionError("canonical search before the cap")

    clear_memo_tables()  # the orbits of a graph searched before are kept
    monkeypatch.setattr(graphs, "_canonical_form", refusing)
    with pytest.raises(CapabilityError, match="^oracle limit is 14 vertices, got 16$"):
        free_neighborhood_distribution(cycle(16), LAM)
    with pytest.raises(CapabilityError, match="^oracle limit is 20 edges, got 25$"):
        edge_neighborhood_distribution(complete_bipartite(5), LAM)
    with pytest.raises(CapabilityError, match="^oracle limit is 24 edges, got 25$"):
        edge_neighborhood_distribution(complete_bipartite(5), LAM, limit=24)
