"""Independence and matching polynomials, occupancy fractions, size
distributions, and the brute-force enumeration engine (with the probability
oracle built on it) for the hard-core and monomer-dimer models. Everything
is exact.

"Matching polynomial" throughout means the generating polynomial
sum_k m_k * x^k counting matchings by size, not the signed characteristic
version.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, islice, repeat
from math import comb, factorial
from operator import or_

from .errors import CapabilityError, DomainError
from .exactmath import IntPolynomial, binomial_poly, fugacity
from .graphs import (
    _ORBITS,
    CANONICAL_LIMIT,
    Graph,
    canonical_key,
    label_key,
    mask_component,
    mask_components,
    mask_vertices,
)

INDEPENDENCE_BUDGET = 30
MATCHING_BUDGET = 40
ORACLE_LIMIT = 24

# Memo tables keyed by the connected components of the graphs passed in:
# b"l" + label_key for the labeled component and, up to CANONICAL_LIMIT
# vertices, b"c" + canonical_key for its isomorphism class, both of the
# component as given. The recursion inside a component runs on a
# breadth-first relabeling of it and memoizes its vertex masks in a table
# of its own.
# Inserts are idempotent (same key, same polynomial), so plain dicts are
# safe to share between threads under the GIL.
_IND_MEMO: dict = {}
_MATCH_MEMO: dict = {}

# The states that the oracles last enumerated under each model, as one
# _StateTable per model: the graph, its states with their masks and sizes
# as the walk gave them, and what is made from them on first request. A
# table is replaced whole, so a reader never pairs one graph with another's
# states. An enumeration of more than _STATE_BOUND states is not kept: it is
# walked in tables of at most _STATE_BOUND states.
_STATES: dict = {}
_STATE_BOUND = 1 << 15


def _memoized(memo: dict, g: Graph, compute) -> IntPolynomial:
    """compute(g), looked up by the cheap labeled key first and by the
    canonical key only when that misses; the result is stored under both."""
    lkey = b"l" + label_key(g)
    poly = memo.get(lkey)
    if poly is not None:
        return poly
    ckey = b"c" + canonical_key(g) if g.n <= CANONICAL_LIMIT else lkey
    poly = memo.get(ckey)
    if poly is None:
        poly = memo[ckey] = compute(g)
    memo[lkey] = poly
    return poly


def independence_poly(g: Graph) -> IntPolynomial:
    """Independence polynomial: coefficient of x^k counts independent k-sets.

    Deletion recurrence P(S) = P(S - v) + x * P(S - N[v]) over vertex
    masks S of each connected component relabeled in breadth-first order,
    with v the lowest vertex of S in that order (see `_mask_recursion`).
    The budget applies per component, as in matching_poly.
    """
    return _by_components(g, _IND_MEMO, (1, 1), _independence_step, _vertex_budget)


def matching_poly(g: Graph) -> IntPolynomial:
    """Matching generating polynomial: coefficient of x^k counts k-matchings.

    Vertex recurrence M(S) = M(S - v) + x * sum_{u in N(v) & S} M(S - u - v)
    over vertex masks S of each connected component relabeled in
    breadth-first order, with v the lowest vertex of S in that order
    (Godsil, "Algebraic Combinatorics", 1993, ch. 1; see `_mask_recursion`).
    The budget applies per component, which is where the recursion cost
    lives.
    """
    return _by_components(g, _MATCH_MEMO, (1,), _matching_step, _edge_budget)


def _vertex_budget(adj, comps) -> None:
    largest = max((comp.bit_count() for comp in comps), default=0)
    if largest > INDEPENDENCE_BUDGET:
        raise CapabilityError(
            f"independence_poly budget is {INDEPENDENCE_BUDGET} vertices"
            f" per component, got {largest}"
        )


def _edge_budget(adj, comps) -> None:
    for comp in comps:
        edges = sum((adj[v] & comp).bit_count() for v in mask_vertices(comp)) // 2
        if edges > MATCHING_BUDGET:
            raise CapabilityError(
                f"matching_poly budget is {MATCHING_BUDGET} edges per component,"
                f" got {edges}"
            )


def _by_components(g: Graph, memo: dict, single, step, budget) -> IntPolynomial:
    """The product of the polynomials of g's components under
    `_mask_recursion`, after budget(adj, component masks) has had its say,
    so an over-budget graph raises before any subgraph is built. A
    connected g is its own component and is not induced again."""
    full = (1 << g.n) - 1
    comps = list(mask_components(g.adj, full))
    budget(g.adj, comps)

    def compute(sub):
        top = (1 << sub.n) - 1
        adj = sub.induced(_bfs_order(sub.adj, top)).adj
        poly = _mask_recursion(adj, single, step)
        packed = poly(top)
        poly.memo.clear()
        return IntPolynomial(_unpack(packed, _field_width(adj, single)))

    one, out = IntPolynomial(single), IntPolynomial.one()
    for comp in comps:
        if comp.bit_count() == 1:
            p = one
        else:
            p = _memoized(memo, g if comp == full else g.induced(mask_vertices(comp)), compute)
        out = out * p
    return out


# The recursion inside one connected component. Each top-level component
# is relabeled once, in breadth-first order, so the lowest vertex of a mask
# sits next to the part already removed and the masks it reaches stay few,
# whatever the input's labels. Subproblems are vertex masks of that
# relabeled adjacency: induced subgraphs, so a mask is an exact key and no
# Graph is built. A polynomial is one int (Kronecker substitution):
# coefficient k sits in bits [kW, (k+1)W) for the field width W of
# `_field_width`, wide enough that no field ever carries into the next, so
# x * P is P << W and the product of two polynomials is one int product.

def _bfs_order(adj, comp):
    """The vertices of the connected mask `comp`, breadth-first from its
    lowest vertex, each vertex's new neighbours in increasing order."""
    seen = comp & -comp
    order = [seen.bit_length() - 1]
    for v in order:
        new = adj[v] & comp & ~seen
        seen |= new
        order += mask_vertices(new)
    return order


def _field_width(adj, single) -> int:
    """Bits per packed coefficient of the polynomials of `adj`'s masks. A
    model whose one-vertex polynomial `single` has an x term counts vertex
    sets (hard-core), and fewer than 2^n of them have any one size; else it
    counts edge sets (matchings), fewer than 2^m of any one size."""
    if len(single) > 1:
        return len(adj) + 1
    return sum(map(int.bit_count, adj)) // 2 + 1


def _pack(coeffs, width: int) -> int:
    """The polynomial with coefficient tuple `coeffs` in fields of `width` bits."""
    return sum(c << k * width for k, c in enumerate(coeffs))


def _unpack(packed: int, width: int) -> tuple:
    """The coefficients, lowest first, of a polynomial packed in fields of
    `width` bits; () for 0."""
    field = (1 << width) - 1
    out = []
    while packed:
        out.append(packed & field)
        packed >>= width
    return tuple(out)


def _mask_recursion(adj, single, step):
    """The memoized poly(mask, touch=0): the polynomial of any vertex mask
    of the adjacency `adj`, packed in fields of `_field_width(adj, single)`
    bits, where `single` is the coefficient tuple of one vertex and
    step(adj, mask, poly) gives (A, B), packed, with P = A + x B for a
    connected mask of two or more vertices, from poly of smaller masks.
    `adj` is used as labelled: `_by_components` passes a breadth-first
    relabeling, while `hardcore.enumerate_configs` asks for masks in a
    class representative's own labels.

    `touch` is a set of the mask's vertices that meets each of its
    components; the whole mask when not given, any one vertex for a mask
    known to be connected. A step cuts a set X from a connected mask S and
    passes N(X) & (S - X) on, which meets every component of S - X. A mask
    is looked up whole first. On a miss, `graphs.mask_component` searches
    from one vertex of touch: a mask in which it reaches all of touch is
    connected and stepped; otherwise the component found and the rest of
    the mask are looked up apart and multiplied. Either way the result is
    memoized under the mask. The memo is `poly.memo`; poly refers to
    itself, so a caller done with it clears the memo rather than leave it
    to the cycle collector."""
    width = _field_width(adj, single)
    unit = _pack(single, width)
    memo = {1 << v: unit for v in range(len(adj))}
    memo[0] = 1

    def poly(mask, touch=0):
        out = memo.get(mask)
        if out is None:
            touch = touch or mask
            comp = mask_component(adj, mask, touch)
            if comp == mask:
                low, high = step(adj, mask, poly)
                out = low + (high << width)
            else:
                out = poly(comp, comp & -comp) * poly(mask ^ comp, touch & ~comp)
            memo[mask] = out
        return out

    poly.memo = memo
    return poly


def _independence_step(adj, mask, poly):
    # P(S) = P(S - v) + x P(S - N[v]) at the lowest vertex v of S, each cut
    # mask passed on with its vertices next to what was cut
    low = mask & -mask
    rest = mask ^ low
    near = adj[low.bit_length() - 1] & rest
    far = rest & ~near
    touch, nbrs = 0, near
    while nbrs:
        u = nbrs & -nbrs
        touch |= adj[u.bit_length() - 1]
        nbrs ^= u
    return poly(rest, near), poly(far, touch & far)


def _matching_step(adj, mask, poly):
    # M(S) = M(S - v) + x sum_{u in N(v) & S} M(S - u - v), v lowest in S,
    # each cut mask passed on with its vertices next to what was cut
    low = mask & -mask
    rest = mask ^ low
    near = adj[low.bit_length() - 1] & rest
    without_v = poly(rest, near)
    high, nbrs = 0, near
    while nbrs:
        u = nbrs & -nbrs
        cut = rest ^ u
        high += poly(cut, (near | adj[u.bit_length() - 1]) & cut)
        nbrs ^= u
    return without_v, high


def kdd_independence_poly(d: int) -> IntPolynomial:
    """Independence polynomial of K_{d,d}: 2(1+x)^d - 1."""
    if d <= 0:
        raise DomainError("need d >= 1")
    return 2 * binomial_poly(d) - IntPolynomial.one()


def kdd_matching_poly(d: int) -> IntPolynomial:
    """Matching polynomial of K_{d,d}: sum_k C(d,k)^2 k! x^k. K_{0,0} gives 1."""
    if d < 0:
        raise DomainError("need d >= 0")
    return IntPolynomial(comb(d, k) ** 2 * factorial(k) for k in range(d + 1))


# ---------------------------------------------------------------------------
# Occupancy fractions

def occupancy(g: Graph, lam: Fraction) -> Fraction:
    """Expected fraction of vertices in the weighted random independent set:
    lam * P'(lam) / (n * P(lam))."""
    lam = fugacity(lam)
    if g.n == 0:
        raise DomainError("occupancy needs a nonempty graph")
    p = independence_poly(g)
    return lam * p.derivative()(lam) / (g.n * p(lam))


def edge_occupancy(g: Graph, lam: Fraction) -> Fraction:
    """Expected fraction of edges in the weighted random matching:
    lam * M'(lam) / (|E| * M(lam))."""
    lam = fugacity(lam)
    m = g.edge_count
    if m == 0:
        raise DomainError("edge_occupancy needs at least one edge")
    p = matching_poly(g)
    return lam * p.derivative()(lam) / (m * p(lam))


def kdd_occupancy(d: int, lam: Fraction) -> Fraction:
    """Closed form lam(1+lam)^(d-1) / (2(1+lam)^d - 1)."""
    lam = fugacity(lam)
    return lam * (1 + lam) ** (d - 1) / (2 * (1 + lam) ** d - 1)


def kdd_edge_occupancy(d: int, lam: Fraction) -> Fraction:
    """lam * M_{K_{d-1,d-1}}(lam) / M_{K_{d,d}}(lam)."""
    lam = fugacity(lam)
    return lam * kdd_matching_poly(d - 1)(lam) / kdd_matching_poly(d)(lam)


# ---------------------------------------------------------------------------
# Size distributions

class SizeDistribution:
    """Probabilities of each size k under weights c_k * lam^k / Z."""

    __slots__ = ("probabilities", "fugacity")

    def __init__(self, probabilities: tuple, fugacity: Fraction):
        if sum(probabilities, Fraction(0)) != 1:
            raise DomainError("size distribution must sum to 1")
        object.__setattr__(self, "probabilities", probabilities)
        object.__setattr__(self, "fugacity", fugacity)

    def __setattr__(self, name, value):
        raise AttributeError("SizeDistribution is immutable")

    def __delattr__(self, name):
        raise AttributeError("SizeDistribution is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.probabilities, self.fugacity) == (other.probabilities, other.fugacity)

    def __hash__(self):
        return hash((self.probabilities, self.fugacity))

    def __repr__(self):
        return f"SizeDistribution(probabilities={self.probabilities!r}, fugacity={self.fugacity!r})"

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.probabilities):
            return self.probabilities[k]
        return Fraction(0)

    def __len__(self):
        return len(self.probabilities)

    def mean(self) -> Fraction:
        return sum((k * p for k, p in enumerate(self.probabilities)), Fraction(0))

    def variance(self) -> Fraction:
        mu = self.mean()
        second = sum(
            (k * k * p for k, p in enumerate(self.probabilities)), Fraction(0)
        )
        return second - mu * mu


def size_distribution(poly: IntPolynomial, lam: Fraction) -> SizeDistribution:
    lam = fugacity(lam)
    if poly.is_zero:
        raise DomainError("zero polynomial has no size distribution")
    total = poly(lam)
    probs = tuple(
        Fraction(poly.coefficient(k)) * lam**k / total
        for k in range(poly.degree + 1)
    )
    return SizeDistribution(probs, lam)


# ---------------------------------------------------------------------------
# Exhaustive enumeration and the probability oracle

def independent_sets(g: Graph):
    """Yield every independent set as a vertex bitmask (including 0)."""

    # depth-first: extend sets only with vertices above the current maximum,
    # skipping blocked ones, so each set is produced exactly once
    def extend(mask, allowed, start):
        for v in range(start, g.n):
            if not (allowed >> v & 1):
                continue
            new_mask = mask | 1 << v
            yield new_mask
            yield from extend(new_mask, allowed & ~g.adj[v], v + 1)

    yield 0
    yield from extend(0, (1 << g.n) - 1, 0)


def matchings(g: Graph):
    """Yield every matching as a frozenset of (u, v) edges with u < v, once
    each, in the order of `_matching_walk`."""
    for states, _ in _matching_walk(g, _STATE_BOUND):
        yield from states


def _matching_walk(g: Graph, bound: int):
    """The matchings of g as (states, masks) chunks of at most `bound`:
    states[i] is a frozenset of edges and masks[i] the same matching over
    g.edges(), bit i for edge i. A depth-first walk on an explicit stack
    records each matching it pops, then pushes its extensions by one later
    edge disjoint from it, last first: a matching comes before its
    extensions, and these come in the order of the edge added."""
    edges = g.edges()
    ends = [1 << u | 1 << v for u, v in edges]
    # each edge as a frozenset, its bit, and the edges disjoint from it
    extend = [
        (frozenset((e,)), 1 << i, sum(1 << j for j, other in enumerate(ends) if not end & other))
        for i, (e, end) in enumerate(zip(edges, ends))
    ]
    states, masks = [], []
    stack = [(frozenset(), 0, (1 << len(edges)) - 1)]
    while stack:
        state, mask, free = stack.pop()
        states.append(state)
        masks.append(mask)
        if len(states) == bound:
            yield tuple(states), tuple(masks)
            states, masks = [], []
        rest = free
        while rest:
            edge, bit, disjoint = extend[rest.bit_length() - 1]
            rest ^= bit
            stack.append((state | edge, mask | bit, (free ^ rest) & disjoint))
    if states:
        yield tuple(states), tuple(masks)


def _independent_walk(g: Graph, bound: int):
    """`independent_sets` in (states, masks) chunks of at most `bound`."""
    states = independent_sets(g)
    while chunk := tuple(islice(states, bound)):
        yield chunk, chunk


def state_polynomials(g: Graph, model: str, classify, limit: int = ORACLE_LIMIT):
    """Enumerate every state of the model on g once and count states by size.

    A state is an independent set as a vertex bitmask (hardcore) or a
    matching as a frozenset of (u, v) edges (matching), as the model's walk
    gives it together with its mask (see `_state_model`). `classify(state)`
    yields labels; each yield counts the state once under that label.
    Returns (total, {label: IntPolynomial}), where coefficient k counts the
    states (with multiplicity) of size k, so a probability at fugacity lam
    is a ratio of two polynomials evaluated once. The total comes from the
    enumeration, never from the deletion recurrences, so it cross-checks
    them. The default size cap keeps enumeration at desk scale; pass a
    larger `limit` explicitly to override it.

    The states of the last graph enumerated under each model are kept with
    their masks and sizes (see `_state_tables`), so further questions about
    an equal graph classify them again without a walk. The cap is checked
    first, whatever is kept. `column_polynomials` counts from bit-sliced
    columns of the masks instead, with no call per state.
    """
    width, tables = _state_tables(g, model, limit)
    counts, total = defaultdict(lambda: [0] * width), IntPolynomial.zero()
    for table in tables:
        for state, k in zip(table.states, table.sizes):
            for label in classify(state):
                counts[label][k] += 1
        total = total + table.total
    return total, {label: IntPolynomial(row) for label, row in counts.items()}


def column_polynomials(g: Graph, model: str, split, limit: int = ORACLE_LIMIT):
    """`state_polynomials` from bit-sliced columns, with no call per state.

    A set of states is an int whose bit i selects state i. split(items,
    everyone) receives items[b], the set of the states that hold vertex b
    (hardcore) or edge b of g.edges() (matching), and everyone, the set of
    all states; it yields (label, states) pairs, and each pair counts the
    states it selects once under the label. An enumeration of more than
    _STATE_BOUND states goes through the same code in chunks (see
    `_state_tables`), split once per chunk. Returns (total, {label:
    IntPolynomial}) as state_polynomials does, with the same cap.
    """
    width, tables = _state_tables(g, model, limit)
    counts, total = defaultdict(lambda: [0] * width), IntPolynomial.zero()
    for table in tables:
        items, by_size = table.columns()
        for label, part in split(items, (1 << len(table.states)) - 1):
            if part:
                row = counts[label]
                for k, sized in enumerate(by_size):
                    row[k] += (part & sized).bit_count()
        total = total + table.total
    return total, {label: IntPolynomial(row) for label, row in counts.items()}


def _split_states(states: int, columns) -> dict:
    """{key: part}: the set `states` split by the (weight, column) pairs of
    `columns`, each state under the sum of the weights of the columns that
    hold it. States with equal sums share one part, and no part is empty:
    distinct bits as weights key a part by its whole pattern, unit weights
    by a count."""
    parts = {0: states}
    for weight, column in columns:
        grown = {}
        for key, part in parts.items():
            inside = part & column
            if inside:
                grown[key + weight] = grown.get(key + weight, 0) | inside
            if part ^ inside:
                grown[key] = grown.get(key, 0) | part ^ inside
        parts = grown
    return parts


def _union(items, mask: int) -> int:
    """The set of the states that hold any vertex or edge of `mask`."""
    return reduce(or_, map(items.__getitem__, mask_vertices(mask)), 0)


# Row t maps a byte to b"1" when its bit t is set and to b"0" otherwise.
_BIT_ROWS = tuple((b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8))


def _bit_column(column: bytes, row: bytes) -> int:
    """The int whose bit i is row[column[i]], for a 256-byte row of b"0"s
    and b"1"s: the translated bytes, last first, read in binary."""
    return int(column.translate(row)[::-1], 2)


class _StateTable:
    """States of one graph under one model: all of them when kept, else one
    chunk of an enumeration. `masks[i]` is the walk's mask of `states[i]`
    over the vertices or the edges of g.edges(), `sizes[i]` its bit count,
    and `total` counts the states by size. The hard-core vertex sets and the
    bit-sliced columns are made on the first request."""

    __slots__ = ("graph", "states", "masks", "sizes", "total", "_count", "_vertex_sets", "_columns")

    def __init__(self, graph: Graph, states: tuple, masks: tuple, count: int, width: int):
        self.graph, self.states, self.masks, self._count = graph, states, masks, count
        self.sizes = bytes(map(int.bit_count, masks))
        self.total = IntPolynomial(self.sizes.count(k) for k in range(width))
        self._vertex_sets = self._columns = None

    def vertex_sets(self):
        """Each mask as a frozenset of vertices, as hard-core predicates take it."""
        if self._vertex_sets is None:
            self._vertex_sets = tuple(map(frozenset, map(mask_vertices, self.masks)))
        return self._vertex_sets

    def columns(self):
        """(items, by_size): items[b] is the int whose bit i says whether
        state i holds vertex or edge b, by_size[k] the int of the states of
        size k. C-level passes make them: the masks are packed into bytes,
        and each column is one stride of bytes translated to binary digits."""
        if self._columns is None:
            count = self._count
            step = (count + 7) // 8 or 1
            packed = b"".join(map(int.to_bytes, self.masks, repeat(step), repeat("little")))
            items = [_bit_column(packed[b >> 3 :: step], _BIT_ROWS[b & 7]) for b in range(count)]
            by_size = [
                _bit_column(self.sizes, b"0" * k + b"1" + b"0" * (255 - k))
                for k in range(len(self.total.coeffs))
            ]
            self._columns = items, by_size
        return self._columns


def _state_model(g: Graph, model: str, limit: int):
    """(walk, count, width) of the model on g once g is within the cap of
    `limit` vertices (hardcore) or edges (matching), else CapabilityError:
    walk(g, bound) gives (states, masks) chunks, each mask over `count`
    vertices or edges, and a state has one of `width` sizes. Callers that
    work on g before enumerating check here."""
    if model == "hardcore":
        if g.n > limit:
            raise CapabilityError(f"oracle limit is {limit} vertices, got {g.n}")
        return _independent_walk, g.n, g.n + 1
    if model == "matching":
        if g.edge_count > limit:
            raise CapabilityError(f"oracle limit is {limit} edges, got {g.edge_count}")
        return _matching_walk, g.edge_count, g.n // 2 + 1
    raise DomainError(f"unknown model {model!r}")


def _state_tables(g: Graph, model: str, limit: int):
    """(width, tables), `width` the number of possible sizes: g's kept table
    under the model; else a fresh walk, kept when it gives at most
    _STATE_BOUND states and otherwise streamed once in tables of at most
    _STATE_BOUND states, none kept. The cap is checked first, whatever is kept."""
    walk, count, width = _state_model(g, model, limit)
    table = _STATES.get(model)
    if table is None or table.graph != g:
        chunks = walk(g, _STATE_BOUND)
        head = tuple(islice(chunks, 2))
        if len(head) > 1:
            return width, (_StateTable(g, *c, count, width) for c in chain(head, chunks))
        table = _STATES[model] = _StateTable(g, *head[0], count, width)
    return width, (table,)


def event_probability_oracle(
    g: Graph, model: str, lam: Fraction, predicate, limit: int = ORACLE_LIMIT
) -> Fraction:
    """Exact probability of an event under the hard-core or monomer-dimer
    model, by full enumeration (see `state_polynomials`).

    `predicate` receives a frozenset of vertices (hardcore) or of (u, v)
    edges (matching). One pass counts the states it accepts by size. The
    matching walk gives each frozenset with its mask; the hard-core
    frozensets are made from the masks on the first call and kept with the
    table, so the predicate is the only work per state.
    """
    lam = fugacity(lam)
    width, tables = _state_tables(g, model, limit)
    hits, total = [0] * width, IntPolynomial.zero()
    for table in tables:
        views = table.vertex_sets() if model == "hardcore" else table.states
        for k in compress(table.sizes, map(predicate, views)):
            hits[k] += 1
        total = total + table.total
    return IntPolynomial(hits)(lam) / total(lam)


def clear_memo_tables():
    """Drop memoized polynomials, kept oracle state tables and the kept
    automorphism orbits (mainly for benchmarks and tests)."""
    _IND_MEMO.clear()
    _MATCH_MEMO.clear()
    _STATES.clear()
    _ORBITS.clear()
