import random

import pytest

import inputs
import workloads
from occufrac import graphs


def _graph_inputs(data):
    return [row for row in data.get("graphs", []) if row[1] is not None]


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_one_seed_gives_identical_inputs(workload):
    first = workloads.build_inputs(workload, 11)
    second = workloads.build_inputs(workload, 11)
    assert first == second
    assert workloads.digest(first) == workloads.digest(second)
    assert first != workloads.build_inputs(workload, 12)


def test_one_seed_gives_identical_graph6_and_fugacities():
    for workload in ("oracle", "corpus"):
        a = _graph_inputs(workloads.build_inputs(workload, 5))
        b = _graph_inputs(workloads.build_inputs(workload, 5))
        assert [row[1] for row in a] == [row[1] for row in b]
        assert a == b
    cert = workloads.build_inputs("certify", 5)
    assert cert == workloads.build_inputs("certify", 5)
    assert all("/" in lam for _, lam in cert["hardcore"] + cert["matching"])


def test_generated_graphs_are_simple_regular_and_bipartite_where_asked():
    for name, g6, _ in _graph_inputs(workloads.build_inputs("oracle", 3)):
        g = graphs.parse_graph6(g6)
        d = int(name[2])
        assert graphs.regular_degree(g) == d
        assert graphs.bipartition(g) is not None
    for name, g6, _ in _graph_inputs(workloads.build_inputs("corpus", 3)):
        g = graphs.parse_graph6(g6)
        assert graphs.regular_degree(g) == int(name[1])
        assert max(len(c) for c in g.components()) * int(name[1]) // 2 <= 40


def test_graph6_encoding_matches_the_package():
    rng = random.Random(0)
    edges = inputs.random_regular_edges(14, 3, rng)
    g6 = inputs.to_graph6(14, edges)
    assert graphs.parse_graph6(g6) == graphs.Graph(14, edges)
    assert graphs.to_graph6(graphs.Graph(14, edges)) == g6


def test_check_graph_rejects_bad_graphs():
    with pytest.raises(ValueError):
        inputs.check_graph(4, [(0, 1), (0, 1), (2, 3)], 1)  # repeated edge
    with pytest.raises(ValueError):
        inputs.check_graph(4, [(0, 1), (1, 2)], 1)  # not regular
    with pytest.raises(ValueError):
        inputs.check_graph(3, [(0, 1), (1, 2), (0, 2)], 2, bipartite=True)
    inputs.check_graph(3, [(0, 1), (1, 2), (0, 2)], 2)


def test_fugacities_are_positive_rationals_in_range():
    rng = random.Random(1)
    for _ in range(100):
        low = inputs.random_fugacity(rng, above_one=False)
        high = inputs.random_fugacity(rng, above_one=True)
        assert 0 < low < 1 < high
        for lam in (low, high):
            assert {lam.numerator, lam.denominator} <= set(inputs.FUGACITY_TERMS)
