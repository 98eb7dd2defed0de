"""Simple undirected graphs: representation, parsing, named families,
canonical forms and structural predicates.

Adjacency is stored as one bitmask per vertex, which keeps the deletion
recurrences and subset enumerations fast. Graphs are immutable; all
mutating-style operations return new instances.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache

from .errors import CapabilityError, CertificateError, DomainError, FormatError
from .exactmath import ASCII_WHITESPACE, parse_int, vertex_count

CANONICAL_LIMIT = 10
TRANSITIVITY_LIMIT = 16
CLASS_LIMIT = 7


class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops, no multi-edges)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def _from_adj(cls, adj) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", tuple(adj))
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int):
        m = self.adj[v]
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def induced(self, vertices) -> "Graph":
        """Subgraph induced by `vertices`, relabeled 0..k-1 in the given order."""
        vs = list(vertices)
        index = {v: i for i, v in enumerate(vs)}
        kept = 0
        for v in index:
            kept |= 1 << v
        adj = []
        for v in vs:
            row, m = 0, self.adj[v] & kept
            while m:
                low = m & -m
                row |= 1 << index[low.bit_length() - 1]
                m ^= low
            adj.append(row)
        return Graph._from_adj(adj)

    def components(self):
        """Vertex lists of connected components, each sorted, in order of minimum."""
        return [mask_vertices(c) for c in mask_components(self.adj, (1 << self.n) - 1)]

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def mask_vertices(mask: int):
    """The set bits of a vertex bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_component(adj, mask: int, touch: int) -> int:
    """The component of the vertex bitmask `mask` in the adjacency `adj`
    that holds the lowest vertex of `touch`, a set that meets every
    component of mask: a breadth-first search over bitmasks from that
    vertex, which returns mask as soon as it has reached all of touch."""
    seen = frontier = touch & -touch
    while touch & ~seen:
        if not frontier:
            return seen
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~seen
        seen |= frontier
    return mask


def mask_components(adj, mask: int):
    """Yield the connected components of the vertex bitmask `mask` in the
    adjacency `adj`, as masks in order of lowest vertex."""
    while mask:
        comp = mask_component(adj, mask, mask)
        yield comp
        mask ^= comp


# ---------------------------------------------------------------------------
# Parsers

def parse_graph6(text: str) -> Graph:
    """Decode a short-format graph6 string (n < 63) between ASCII
    whitespace; error offsets count from the start of `text`."""
    s = text.strip(ASCII_WHITESPACE)
    if not s:
        raise FormatError("empty graph6 string at byte offset 0")
    at = len(text) - len(text.lstrip(ASCII_WHITESPACE))
    header = ord(s[0])
    if header == 126:
        raise FormatError(
            f"long-format graph6 (n >= 63) not supported, header byte offset {at}"
        )
    if not 63 <= header <= 125:
        raise FormatError(f"bad graph6 header byte {header} at byte offset {at}")
    n = header - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    data = s[1:]
    if len(data) != nbytes:
        raise FormatError(
            f"graph6 body for n={n} needs {nbytes} bytes, got {len(data)}"
            f" (byte offset {at + 1 + min(len(data), nbytes)})"
        )
    bits = []
    for i, ch in enumerate(data):
        b = ord(ch) - 63
        if not 0 <= b < 64:
            raise FormatError(f"bad graph6 data byte at byte offset {at + 1 + i}")
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise FormatError(f"nonzero padding bits at byte offset {at + len(s) - 1}")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph (n < 63) as a short-format graph6 string."""
    if g.n >= 63:
        raise CapabilityError("graph6 short format requires n < 63")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


def parse_edge_list(text: str) -> Graph:
    """Parse "n" on the first line then one "u v" edge per line, each
    number read by parse_int. Lines end at "\n" only and lose surrounding
    ASCII whitespace, so line N of a message is line N of the file, and
    only ASCII whitespace separates u from v."""
    lines = [ln.strip(ASCII_WHITESPACE) for ln in text.split("\n")]
    if not lines[0]:
        raise FormatError("line 1: expected vertex count")
    try:
        n = parse_int(lines[0])
    except FormatError:
        raise FormatError(f"line 1: bad vertex count {lines[0]!r}") from None
    if n < 0:
        raise FormatError("line 1: vertex count must be non-negative")
    seen = set()
    edges = []
    for lineno, s in enumerate(lines[1:], start=2):
        if not s:
            continue
        parts = re.split(f"[{ASCII_WHITESPACE}]+", s)
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {s!r}")
        try:
            u, v = parse_int(parts[0]), parse_int(parts[1])
        except FormatError:
            raise FormatError(f"line {lineno}: non-integer vertex in {s!r}") from None
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex out of range 0..{n - 1}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Named families

def complete_bipartite(d: int) -> Graph:
    """K_{d,d}: vertices 0..d-1 on the left, d..2d-1 on the right."""
    if d <= 0:
        raise DomainError("complete_bipartite needs d >= 1")
    return Graph(2 * d, [(u, d + v) for u in range(d) for v in range(d)])


def kdd_union(d: int, n: int) -> Graph:
    """Disjoint union of n/(2d) copies of K_{d,d}; requires 2d | n."""
    if d <= 0 or vertex_count(n) <= 0:
        raise DomainError("kdd_union needs positive d and n")
    if n % (2 * d):
        raise DomainError(f"2d = {2 * d} must divide n = {n}")
    edges = []
    for block in range(n // (2 * d)):
        base = block * 2 * d
        edges.extend(
            (base + u, base + d + v) for u in range(d) for v in range(d)
        )
    return Graph(n, edges)


def cycle(n: int) -> Graph:
    if vertex_count(n) < 3:
        raise DomainError("cycle needs n >= 3")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def complete(n: int) -> Graph:
    if vertex_count(n) <= 0:
        raise DomainError("complete needs n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def hypercube(k: int) -> Graph:
    if k <= 0:
        raise DomainError("hypercube needs k >= 1")
    n = 1 << k
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(k) if v < v ^ (1 << b)]
    return Graph(n, edges)


def prism(n: int) -> Graph:
    """Circular ladder: two n-cycles 0..n-1 and n..2n-1 joined by rungs."""
    if vertex_count(n) < 3:
        raise DomainError("prism needs n >= 3")
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges += [(n + v, n + (v + 1) % n) for v in range(n)]
    edges += [(v, n + v) for v in range(n)]
    return Graph(2 * n, edges)


def petersen() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return Graph(10, outer + spokes + inner)


# each family's builder, its parameter names (colon-separated as in a graph
# spec such as hdn:D:N) and its short name, formatted with the parameters
FAMILIES = {
    "kdd": (complete_bipartite, "D", "K{0}{0}"),
    "hdn": (kdd_union, "D:N", "H{0}_{1}"),
    "cycle": (cycle, "N", "C{0}"),
    "complete": (complete, "N", "K{0}"),
    "prism": (prism, "N", "prism{0}"),
    "hypercube": (hypercube, "K", "Q{0}"),
    "petersen": (petersen, "", "petersen"),
}


def generate(family: str, *params: int) -> Graph:
    """Build a named graph family with a fixed deterministic labeling."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    fn, names, _ = FAMILIES[family]
    arity = len(names.split(":")) if names else 0
    if len(params) != arity:
        raise DomainError(f"family {family!r} takes {arity} parameter(s)")
    return fn(*params)


def parse_spec(spec: str):
    """(short name, graph) of a spec FAMILY:P1:P2 naming a family of
    FAMILIES and its integer parameters in the order and number named there
    (hdn:2:8 is H2_8, petersen takes none)."""
    family, _, rest = spec.partition(":")
    try:
        params = [parse_int(text) for text in rest.split(":")] if rest else []
    except FormatError as exc:
        raise DomainError(f"bad graph spec {spec!r}: {exc}") from None
    g = generate(family, *params)
    return FAMILIES[family][2].format(*params), g


# ---------------------------------------------------------------------------
# Canonical form and automorphism orbits
#
# Individualization-refinement (McKay and Piperno, "Practical graph
# isomorphism, II") over ordered partitions held as lists of vertex bitmasks:
# refine the degree cells to an equitable partition, then individualize each
# vertex of the first non-singleton cell in turn. A leaf orders the vertices;
# the canonical order is the leaf whose relabeled upper triangle is smallest.
# Leaves with equal certificates give automorphisms, which prune siblings in
# one orbit and abandon subtrees mapped onto explored ones. Only cell
# positions and neighbor counts steer the search, never vertex labels.


def _refine(adj, cells, splitters):
    """Refine ordered cells until each vertex of a cell has the same number
    of neighbors in every cell; a split cell's fragments keep its place,
    ordered by that number. `splitters` are the cells not yet known to give
    uniform counts; one left out must follow from the others by subtraction,
    as the largest fragment of a split cell does."""
    queue = list(splitters)
    for w in queue:
        if len(cells) == len(adj):
            break
        out = []
        if w & (w - 1):
            counts = w.bit_count() + 1
            for cell in cells:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                groups = [0] * counts  # the cell's vertices by neighbors in w
                m = cell
                while m:
                    low = m & -m
                    groups[(adj[low.bit_length() - 1] & w).bit_count()] |= low
                    m ^= low
                parts = [part for part in groups if part]
                if len(parts) > 1:
                    big = max(parts, key=int.bit_count)
                    queue += [p for p in parts if p != big]
                    out += parts
                else:
                    out.append(cell)
        else:
            # a singleton splitter {u}, the common case: the counts are 0
            # and 1, so a cell splits into the rest and `cell & adj[u]`
            row = adj[w.bit_length() - 1]
            for cell in cells:
                high = cell & row
                if high and high != cell:
                    low = cell ^ high
                    out += (low, high)
                    queue.append(high if low.bit_count() >= high.bit_count() else low)
                else:
                    out.append(cell)
        cells = out
    return cells


def _join_orbits(rep, automorphisms):
    """Union-find over vertices: merge each vertex with its images under
    `automorphisms`. Every vertex points to a vertex no larger, so a root is
    the smallest vertex of its orbit, and one pass in increasing order
    leaves each vertex pointing at its root."""
    for perm in automorphisms:
        for v, w in enumerate(perm):
            while rep[v] != v:
                v = rep[v]
            while rep[w] != w:
                w = rep[w]
            if v < w:
                rep[w] = v
            elif w < v:
                rep[v] = w
    for v, parent in enumerate(rep):
        rep[v] = rep[parent]
    return rep


@lru_cache(maxsize=None)
def _triangle(n: int):
    """The (i, j) pairs i < j < n column by column: the order in which a
    leaf's certificate takes the upper-triangle bits of the graph relabeled
    by the leaf's order, the first bit the most significant."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _canonical_form(g: Graph, seen=None, seeds=()):
    """(canonical key, smallest vertex of each vertex's automorphism orbit,
    automorphisms as image lists that generate a group with those orbits).

    `seen`, kept by class growth, is a set of leaf certificates of graphs
    on g.n vertices. The search tree never depends on labels, and every
    leaf it prunes is an automorphic image of a visited one, so the
    certificates of the visited leaves are those of every leaf: one set per
    isomorphism class, disjoint from any other class's. If the first
    leaf's certificate is in `seen`, g is isomorphic to a graph searched
    with it: the search stops there and returns None. Otherwise it runs in
    full and adds each visited leaf's certificate to `seen`.

    `seeds` are automorphisms of g already known, as image lists: any
    set of them, but each must be an automorphism. The search starts its
    list of automorphisms from them, so orbit pruning can skip a vertex
    before the leaf that would show it equivalent is reached, and the
    returned list begins with them. The first child of each node is never
    skipped, so the first path and a stop at the first leaf are those of
    the unseeded search, and each skipped subtree is still the image of an
    explored one under an automorphism: the key and the certificates added
    to `seen` stay those of the unseeded search."""
    n, adj = g.n, g.adj
    by_degree = {}
    for v, m in enumerate(adj):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    pairs = _triangle(n)
    automorphisms = list(seeds)
    leaves = []  # the first and the best leaf: (certificate, ordering, path)

    def visit(cells, path):
        # returns the depth at which to resume; len(path) carries on, and
        # -1, below every depth, unwinds the whole search
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            rows = [adj[v] for v in order]
            cert = 0
            for i, j in pairs:
                cert = cert << 1 | rows[j] >> order[i] & 1
            if seen is not None:
                if not leaves and cert in seen:
                    return -1
                seen.add(cert)
            for ref_cert, ref_order, ref_path in leaves:
                if cert == ref_cert:
                    perm = [0] * n
                    for a, b in zip(ref_order, order):
                        perm[a] = b
                    automorphisms.append(perm)
                    # abandon the child of the deepest node shared with ref
                    return next(k for k, (a, b) in enumerate(zip(path, ref_path)) if a != b)
            if not leaves:
                leaves[:] = [(cert, order, path)] * 2
            elif cert < leaves[1][0]:
                leaves[1] = (cert, order, path)
            return len(path)
        for t, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        # orbits under the automorphisms found so far that fix the path: they
        # map the cell onto itself, and its vertices go in increasing order,
        # so the smallest of each orbit has been tried by the time any other
        # comes up, and a vertex is tried iff it is the smallest of its orbit;
        # `rep` stays None until some automorphism fixes the path
        rep, known, rest, first = None, 0, cell, cell & -cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if low != first and known < len(automorphisms):
                fixing = [p for p in automorphisms[known:] if all(p[u] == u for u in path)]
                known = len(automorphisms)
                if fixing:
                    rep = _join_orbits(rep or list(range(n)), fixing)
            if rep is not None and rep[v] != v:
                continue
            child = cells.copy()
            child[t] = cell ^ low
            child.insert(t, low)
            resume = visit(_refine(adj, child, [low]), path + [v])
            if resume < len(path):
                return resume
        return len(path)

    big = max(cells, key=int.bit_count, default=0)
    if visit(_refine(adj, cells, [c for c in cells if c != big]), []) < 0:
        return None
    nbits = n * (n - 1) // 2
    pad = -nbits % 8
    key = bytes([n]) + (leaves[1][0] << pad).to_bytes((nbits + pad) // 8, "big")
    return key, _join_orbits(list(range(n)), automorphisms), automorphisms


def canonical_key(g: Graph) -> bytes:
    """Isomorphism-invariant key: equal keys iff isomorphic (n <= CANONICAL_LIMIT).
    A vertex count byte, then the canonical upper triangle column by column,
    so the edgeless graph has the smallest key on its vertex count.
    A pure function of g that searches on every call: class growth hands
    its representatives' keys and parent records to its callers instead."""
    if g.n > CANONICAL_LIMIT:
        raise CapabilityError(
            f"canonical_key supports at most {CANONICAL_LIMIT} vertices, got {g.n}"
        )
    return _canonical_form(g)[0]


@lru_cache(maxsize=1)  # the neighbourhood laws of one graph share one search
def automorphism_orbits(g: Graph):
    """(vertex orbits, edge orbits) of the automorphism group of g, each a
    tuple of (representative, orbit size) pairs in increasing order of
    representative: the smallest vertex of each vertex orbit, and the
    smallest edge (u, v), u < v, in the order of g.edges() of each edge
    orbit. One canonical search gives the generators; each is checked to
    be a permutation mapping adj onto adj, else CertificateError, and the
    edge orbits join each edge with its images under them."""
    _, vertex_reps, automorphisms = _canonical_form(g)
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    edge_perms = []
    for perm in automorphisms:
        if sorted(perm) != list(range(g.n)) or any(
            sum(1 << perm[w] for w in mask_vertices(row)) != g.adj[perm[v]]
            for v, row in enumerate(g.adj)
        ):
            raise CertificateError(f"generator {perm} is not an automorphism", perm)
        edge_perms.append([index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in edges])
    edge_reps = _join_orbits(list(range(len(edges))), edge_perms)
    edge_orbits = sorted(Counter(edge_reps).items())
    return (
        tuple(sorted(Counter(vertex_reps).items())),
        tuple((edges[i], size) for i, size in edge_orbits),
    )


def label_key(g: Graph) -> bytes:
    """Labeling-dependent key: equal keys iff equal labeled graphs."""
    width = (g.n + 7) // 8 or 1
    return g.n.to_bytes(2, "big") + b"".join(m.to_bytes(width, "big") for m in g.adj)


# ---------------------------------------------------------------------------
# Predicates

def regular_degree(g: Graph):
    """The common degree d if g is regular (n >= 1), else None."""
    if g.n == 0:
        return None
    d = g.degree(0)
    return d if all(g.degree(v) == d for v in range(g.n)) else None


def bipartition(g: Graph):
    """BFS 2-coloring: (side0, side1) as sorted lists, or None if odd cycle."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = [v for v in range(g.n) if color[v] == 0]
    side1 = [v for v in range(g.n) if color[v] == 1]
    return side0, side1


def is_vertex_transitive(g: Graph) -> bool:
    """All vertices lie in one orbit of the automorphism group."""
    if g.n > TRANSITIVITY_LIMIT:
        raise CapabilityError(
            f"automorphism orbit supports at most {TRANSITIVITY_LIMIT} vertices, got {g.n};"
            " pass an explicit vertex-transitivity assertion instead"
        )
    return len(set(_canonical_form(g)[1])) <= 1


# ---------------------------------------------------------------------------
# Isomorphism classes on a fixed number of vertices

def _least_degree_masks(adj):
    """(need, bar), indexed by the size k of a neighborhood mask for a new
    vertex: need[k] holds the vertices of degree < k and bar[k] those of
    degree < k-1. The new vertex has minimum degree in the extended graph
    iff its mask holds every vertex of need[k] and none of bar[k]: a vertex
    outside the mask keeps its degree, one inside gains 1."""
    need = [0] * (len(adj) + 1)
    for w, m in enumerate(adj):
        for k in range(m.bit_count() + 1, len(need)):
            need[k] |= 1 << w
    return need, [0] + need[:-1]


def _mask_orbit_reps(n: int, automorphisms, need, bar):
    """Smallest mask of each orbit of the group generated by `automorphisms`
    on vertex masks of 0..n-1, over the masks m that hold need[|m|] and
    avoid bar[|m|]; those sets must be unions of orbits. Images are taken
    only of accepted masks, as their orbits are walked."""
    seen = bytearray(1 << n)
    reps = []
    for mask in range(1 << n):
        if seen[mask]:
            continue
        k = mask.bit_count()
        if mask & need[k] != need[k] or mask & bar[k]:
            continue
        reps.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            vs = mask_vertices(stack.pop())
            for perm in automorphisms:
                image = 0
                for w in vs:
                    image |= 1 << perm[w]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    return reps


def isomorphism_classes(n: int):
    """All isomorphism classes on exactly n vertices, sorted by canonical key.

    Grown from the (n-1)-vertex classes by attaching one new vertex with a
    neighborhood mask, canonicalizing only two kinds of extension:
    - masks whose new vertex has minimum degree in the extended graph.
      Deleting a vertex of minimum degree from any n-vertex graph leaves
      some (n-1)-vertex class, so every class is reached this way;
    - one mask per orbit of the class's automorphisms on masks. Masks in
      one orbit give isomorphic extensions, and automorphisms preserve
      degrees, so the first filter keeps or drops whole orbits. A
      generating set of only a subgroup leaves more orbits, which is
      still exhaustive.
    Each level keeps the leaf certificates of the classes found so far,
    and an extension whose first leaf's certificate is among them stops
    its canonical search there, so no class appears twice and each class
    is searched in full once: on 0..7 vertices 1253 full searches and 388
    first-leaf stops (McKay, "Isomorph-free exhaustive generation", 1998).
    The searches on the last level, CLASS_LIMIT vertices, start from the
    parent's automorphisms that fix the new vertex's neighborhood, which
    prunes without changing what is found; the lower levels are not
    seeded, so the generators that they hand on stay those their searches
    found (see `_classes_and_automorphisms`).
    """
    if vertex_count(n) > CLASS_LIMIT:
        raise CapabilityError(
            f"isomorphism class enumeration capped at {CLASS_LIMIT} vertices"
        )
    if n < 0:
        raise DomainError("vertex count must be non-negative")
    return _classes_and_automorphisms(n)[0]


@lru_cache(maxsize=None)
def _classes_and_automorphisms(n: int):
    """(classes, generators, parents): the (canonical key, representative)
    pairs of isomorphism_classes(n) and, aligned with them, the automorphism
    generators of each representative from the canonical form that found
    it, so growing the next level canonicalizes no representative twice,
    and the parent record (i, S) of each class: its representative is
    representative i on n-1 vertices plus vertex n-1 with neighborhood
    mask S (the record is None at n = 0). A representative is the first
    extension of its class; the later ones stop at their first leaf
    against the level's leaf certificates (see `_canonical_form`).
    Classes on CLASS_LIMIT vertices are never grown and keep none: at 7
    vertices their generators would hold about 0.4 MB.

    On CLASS_LIMIT vertices each search is seeded with the generators of
    g (representative i) that map S onto itself, extended to fix vertex
    n-1: automorphisms of the extension, which orbit pruning then need not
    find again (McKay and Piperno, "Practical graph isomorphism, II").
    Only there: seeded generator lists hold the seeds as well, and the
    lists of the lower levels are what the next level reads and what
    callers get, so seeding them would change them, though not the groups
    they generate."""
    if n == 0:
        key, _, automorphisms = _canonical_form(Graph(0))
        return ((key, Graph(0)),), (automorphisms,), (None,)
    last = n == CLASS_LIMIT
    found = {}  # canonical key -> (key, representative), generators, parent
    seen = set()  # the leaf certificates of the classes in found
    below = _classes_and_automorphisms(n - 1)
    for i, ((_, g), automorphisms) in enumerate(zip(*below[:2])):
        need, bar = _least_degree_masks(g.adj)
        for mask in _mask_orbit_reps(n - 1, automorphisms, need, bar):
            vs = mask_vertices(mask)
            adj = list(g.adj) + [mask]
            for w in vs:
                adj[w] |= 1 << (n - 1)
            h = Graph._from_adj(adj)
            seeds = ()
            if last:
                seeds = [
                    perm + [n - 1]
                    for perm in automorphisms
                    if sum(1 << perm[w] for w in vs) == mask
                ]
            form = _canonical_form(h, seen, seeds)
            if form is not None:  # the first of its class
                key, _, generators = form
                found[key] = (key, h), () if last else generators, (i, mask)
    return tuple(zip(*(found[key] for key in sorted(found))))
