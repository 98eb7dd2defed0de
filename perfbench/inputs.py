"""Seeded input generators for the benchmark.

Everything here is pure Python on `random.Random(seed)`, independent of the
occufrac package, so a change to the package cannot change the inputs a
seed produces. Graphs leave this module as graph6 strings; the program under
test only ever sees those strings and the fugacities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

MAX_TRIES = 100_000


def random_regular_edges(n: int, d: int, rng: random.Random):
    """Random simple d-regular graph on n vertices by the pairing model:
    n*d points are paired uniformly and the pairing is rejected when it
    makes a loop or a repeated edge."""
    if n * d % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    points = [v for v in range(n) for _ in range(d)]
    for _ in range(MAX_TRIES):
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)
    raise RuntimeError(f"pairing model found no simple graph for n={n} d={d}")


def random_bipartite_regular_edges(n: int, d: int, rng: random.Random):
    """Random bipartite d-regular graph: sides 0..n/2-1 and n/2..n-1, the
    union of d uniform perfect matchings, each redrawn while it repeats an
    edge of the ones before it."""
    half = n // 2
    if n % 2 or d > half:
        raise ValueError(f"no bipartite {d}-regular graph on {n} vertices")
    edges: set = set()
    perm = list(range(half))
    for _ in range(d):
        for _ in range(MAX_TRIES):
            rng.shuffle(perm)
            matching = {(u, half + perm[u]) for u in range(half)}
            if not edges & matching:
                edges |= matching
                break
        else:
            raise RuntimeError(f"no disjoint perfect matching for n={n} d={d}")
    return sorted(edges)


FUGACITY_TERMS = range(5, 10)


def random_fugacity(rng: random.Random, above_one: bool) -> Fraction:
    """Rational fugacity p/q in lowest terms with p != q both in
    FUGACITY_TERMS, above 1 when `above_one` and below 1 otherwise.

    The cost of exact arithmetic depends on the size of p and q and on
    which side of 1 the fugacity lies. Terms of one size, and callers
    alternating the two sides, keep the work of one seed within a few
    percent of another's; with terms from 1..9 the cost of the largest
    matching LP varied by a factor of 1.6 between fugacities.
    """
    while True:
        a, b = rng.sample(FUGACITY_TERMS, 2)
        if gcd(a, b) == 1:
            return Fraction(max(a, b), min(a, b)) if above_one else Fraction(min(a, b), max(a, b))


def check_graph(n: int, edges, d: int, bipartite: bool = False):
    """Raise ValueError unless the edge list is a simple d-regular graph on
    n vertices (and bipartite when asked)."""
    seen = set()
    degree = [0] * n
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < v < n) or (u, v) in seen:
            raise ValueError(f"edge ({u},{v}) is a loop, repeated or out of range")
        seen.add((u, v))
        degree[u] += 1
        degree[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    if any(k != d for k in degree):
        raise ValueError(f"graph is not {d}-regular: degrees {degree}")
    if bipartite:
        colour = [-1] * n
        for start in range(n):
            if colour[start] != -1:
                continue
            colour[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if colour[w] == -1:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        raise ValueError("graph is not bipartite")


def to_graph6(n: int, edges) -> str:
    """Short-format graph6 encoding (n < 63)."""
    edge_set = set(edges)
    bits = [
        1 if (u, v) in edge_set else 0 for v in range(1, n) for u in range(v)
    ]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


def regular_graph6(n: int, d: int, rng: random.Random, bipartite: bool = False) -> str:
    """A checked random (bipartite) d-regular graph as a graph6 string."""
    if bipartite:
        edges = random_bipartite_regular_edges(n, d, rng)
    else:
        edges = random_regular_edges(n, d, rng)
    check_graph(n, edges, d, bipartite)
    return to_graph6(n, edges)
