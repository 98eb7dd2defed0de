"""The explicit-stack matching walk: differential tests against the
recursive generator it replaced (`_oracles.reference_matchings`), against
brute force over edge subsets, of each matching's edge mask, and of the
chunked path against one kept table."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from _oracles import disjoint_union, random_graph, random_regular_graph, reference_matchings
from occufrac import polynomials
from occufrac.exactmath import IntPolynomial
from occufrac.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    petersen,
    prism,
)
from occufrac.polynomials import (
    clear_memo_tables,
    event_probability_oracle,
    matchings,
    state_polynomials,
)

BRUTE_EDGES = 14  # the subset check visits 2^m edge sets; never more edges than this

NAMED = [
    ("empty", Graph(0)),
    ("edgeless", Graph(4)),
    ("K2", complete(2)),
    ("C7", cycle(7)),
    ("K5", complete(5)),
    ("K33", complete_bipartite(3)),
    ("prism4", prism(4)),
    ("Q3", hypercube(3)),
    ("petersen", petersen()),
    ("C3+C4", disjoint_union(cycle(3), cycle(4))),
]


def _random_graphs():
    # seeded graphs of every density, including isolated vertices, and
    # random regular ones
    rng = random.Random(53)
    out = [random_graph(rng, rng.randint(4, 9), rng.choice((0.2, 0.4, 0.7))) for _ in range(24)]
    out += [random_regular_graph(rng, n, d) for n, d in ((8, 3), (10, 3), (9, 4), (12, 3))]
    return out


GRAPHS = [g for _, g in NAMED] + _random_graphs()
IDS = [name for name, _ in NAMED] + [f"random{i}" for i in range(len(GRAPHS) - len(NAMED))]


def _walked(g, bound):
    # the concatenated chunks of one walk, and the chunk lengths
    states, masks, lengths = [], [], []
    for chunk_states, chunk_masks in polynomials._matching_walk(g, bound):
        assert len(chunk_states) == len(chunk_masks)
        states += chunk_states
        masks += chunk_masks
        lengths.append(len(chunk_states))
    return states, masks, lengths


def _disjoint_edge_subsets(g):
    # every set of pairwise vertex-disjoint edges, by testing all 2^m subsets
    edges = g.edges()
    assert len(edges) <= BRUTE_EDGES
    out = []
    for size in range(len(edges) + 1):
        for subset in combinations(edges, size):
            if len({x for e in subset for x in e}) == 2 * size:
                out.append(frozenset(subset))
    return out


@pytest.mark.parametrize("g", GRAPHS, ids=IDS)
def test_matchings_come_in_the_reference_order(g):
    assert list(matchings(g)) == list(reference_matchings(g))


@pytest.mark.parametrize("bound", [1, 7, 1 << 15])
def test_chunks_of_any_bound_give_the_same_matchings(bound):
    for g in (cycle(7), petersen(), complete(5)):
        states, _, lengths = _walked(g, bound)
        assert states == list(reference_matchings(g))
        assert all(n == bound for n in lengths[:-1]) and 0 < lengths[-1] <= bound


@pytest.mark.parametrize(
    "g", [g for g in GRAPHS if g.edge_count <= BRUTE_EDGES],
    ids=[i for i, g in zip(IDS, GRAPHS) if g.edge_count <= BRUTE_EDGES],
)
def test_each_matching_comes_exactly_once(g):
    walked = list(matchings(g))
    brute = _disjoint_edge_subsets(g)
    assert len(walked) == len(brute) == len(set(walked))
    assert set(walked) == set(brute)


@pytest.mark.parametrize("g", GRAPHS, ids=IDS)
def test_mask_bit_i_says_whether_edge_i_is_matched(g):
    edges = g.edges()
    states, masks, _ = _walked(g, 1 << 15)
    for state, mask in zip(states, masks):
        assert mask >> len(edges) == 0
        assert [mask >> i & 1 for i in range(len(edges))] == [int(e in state) for e in edges]


def _chunked_laws(g, lam):
    # an event probability and a classifier over the 16 disjoint edges of
    # g, each a law of the whole enumeration
    first, last = g.edges()[0], g.edges()[-1]
    probability = event_probability_oracle(g, "matching", lam, lambda m: first in m and last not in m)
    classified = state_polynomials(g, "matching", lambda m: [e for e in (first, last) if e in m])
    return probability, classified


def test_chunked_matchings_give_the_laws_of_one_table(monkeypatch):
    # 16 disjoint edges: 2^16 matchings, two chunks and nothing kept; the
    # same laws from one kept table of all of them
    lam = Fraction(2, 3)
    loose = Graph(32, [(2 * i, 2 * i + 1) for i in range(16)])
    clear_memo_tables()
    chunked = _chunked_laws(loose, lam)
    assert polynomials._STATES == {}
    probability, (total, classified) = chunked
    x = IntPolynomial((1, 1))
    assert total == x**16
    assert probability == lam / (1 + lam) / (1 + lam)
    edge_once = IntPolynomial((0, 1)) * x**15
    assert classified[loose.edges()[0]] == classified[loose.edges()[-1]] == edge_once
    monkeypatch.setattr(polynomials, "_STATE_BOUND", 1 << 16)
    clear_memo_tables()
    assert _chunked_laws(loose, lam) == chunked
    assert len(polynomials._STATES["matching"].states) == 1 << 16
    clear_memo_tables()
