"""Bundled graph corpora used by the verification commands and the
acceptance suite. Every graph is named so reports stay readable."""

from __future__ import annotations

from fractions import Fraction

from .graphs import (
    Graph,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    kdd_union,
    petersen,
    prism,
    regular_degree,
)

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
    out = []
    out += [(f"C{n}", cycle(n)) for n in range(3, max_n + 1)]
    out += [(f"prism{n}", prism(n)) for n in range(3, max_n // 2 + 1)]
    if max_n >= 8:
        out.append(("Q3", hypercube(3)))
    if max_n >= 16:
        out.append(("Q4", hypercube(4)))
    if max_n >= 10:
        out.append(("petersen", petersen()))
    out += [(f"K{n}", complete(n)) for n in range(4, min(6, max_n) + 1)]
    out += [
        (f"K{d}{d}", complete_bipartite(d)) for d in range(2, max_n // 2 + 1)
    ]
    for d, n in ((2, 8), (2, 12), (3, 12)):
        if n <= max_n:
            out.append((f"H{d}_{n}", kdd_union(d, n)))
    return out


def transitive_bipartite_corpus():
    """Vertex-transitive bipartite graphs for the lower-bound checks."""
    return [
        ("C6", cycle(6)),
        ("C8", cycle(8)),
        ("C10", cycle(10)),
        ("C12", cycle(12)),
        ("K22", complete_bipartite(2)),
        ("K33", complete_bipartite(3)),
        ("K44", complete_bipartite(4)),
        ("Q3", hypercube(3)),
        ("Q4", hypercube(4)),
        ("prism4", prism(4)),
        ("prism6", prism(6)),
    ]


def bipartite_correlation_corpus(max_n: int = 12):
    """Bipartite members of the regular corpus, for the correlation suite."""
    return [(name, g) for name, g in regular_corpus(max_n) if bipartition(g) is not None]


def given_size_corpus():
    """d-regular graphs with 2d | n within the counting budgets."""
    out = [
        ("C4", cycle(4)),
        ("C8", cycle(8)),
        ("C12", cycle(12)),
        ("C16", cycle(16)),
        ("H2_8", kdd_union(2, 8)),
        ("H2_12", kdd_union(2, 12)),
        ("H2_16", kdd_union(2, 16)),
        ("prism3", prism(3)),
        ("prism6", prism(6)),
        ("K33", complete_bipartite(3)),
        ("H3_12", kdd_union(3, 12)),
        ("K44", complete_bipartite(4)),
        ("K55", complete_bipartite(5)),
        ("K66", complete_bipartite(6)),
    ]
    return out


def is_kdd_union(g: Graph, d: int) -> bool:
    """Every connected component is a complete bipartite K_{d,d}. For a
    d-regular graph this holds iff each component has 2d vertices and is
    bipartite."""
    if regular_degree(g) != d:
        return False
    for comp in g.components():
        sub = g.induced(comp)
        if sub.n != 2 * d or bipartition(sub) is None:
            return False
    return True
