"""Bundled graph corpora used by the verification commands and the
acceptance suite. Every graph is a spec of `graphs.FAMILIES`, built and
named by `graphs.parse_spec`, so reports stay readable."""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, bipartition, mask_components, parse_spec, regular_degree

FUGACITY_GRID = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(4),
)

QUICK_GRID = (Fraction(1), Fraction(2))


def regular_corpus(max_n: int = 12):
    """All bundled d-regular graphs on at most max_n vertices: cycles,
    prisms, hypercubes, the Petersen graph, complete graphs, complete
    bipartite graphs and their disjoint unions."""
    specs = [f"cycle:{n}" for n in range(3, max_n + 1)]
    specs += [f"prism:{n}" for n in range(3, max_n // 2 + 1)]
    if max_n >= 8:
        specs.append("hypercube:3")
    if max_n >= 16:
        specs.append("hypercube:4")
    if max_n >= 10:
        specs.append("petersen")
    specs += [f"complete:{n}" for n in range(4, min(6, max_n) + 1)]
    specs += [f"kdd:{d}" for d in range(2, max_n // 2 + 1)]
    specs += [f"hdn:{d}:{n}" for d, n in ((2, 8), (2, 12), (3, 12)) if n <= max_n]
    return [parse_spec(spec) for spec in specs]


def transitive_bipartite_corpus():
    """Vertex-transitive bipartite graphs for the lower-bound checks."""
    specs = ["cycle:6", "cycle:8", "cycle:10", "cycle:12", "kdd:2", "kdd:3", "kdd:4"]
    specs += ["hypercube:3", "hypercube:4", "prism:4", "prism:6"]
    return [parse_spec(spec) for spec in specs]


def bipartite_correlation_corpus(max_n: int = 12):
    """Bipartite members of the regular corpus, for the correlation suite."""
    return [(name, g) for name, g in regular_corpus(max_n) if bipartition(g) is not None]


def given_size_corpus():
    """d-regular graphs with 2d | n within the counting budgets."""
    specs = ["cycle:4", "cycle:8", "cycle:12", "cycle:16", "hdn:2:8", "hdn:2:12"]
    specs += ["hdn:2:16", "prism:3", "prism:6", "kdd:3", "hdn:3:12", "kdd:4", "kdd:5", "kdd:6"]
    return [parse_spec(spec) for spec in specs]


def is_kdd_union(g: Graph, d: int) -> bool:
    """Every connected component is a complete bipartite K_{d,d}. For a
    d-regular graph this holds iff each component has 2d vertices and the
    graph is bipartite."""
    return (
        regular_degree(g) == d
        and all(c.bit_count() == 2 * d for c in mask_components(g.adj, (1 << g.n) - 1))
        and bipartition(g) is not None
    )
