"""Independence and matching polynomials, the event weights behind the
neighborhood laws and correlation checks, occupancy fractions, size
distributions, and the brute-force enumeration engine, with the probability
oracle on it: one walk over the states of the hard-core and monomer-dimer
models as sets of pairwise non-conflicting vertices or edges. All exact.

"Matching polynomial" throughout means the generating polynomial
sum_k m_k * x^k counting matchings by size, not the signed characteristic
version.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress, islice
from math import comb, factorial

from .errors import CapabilityError, DomainError
from .exactmath import IntPolynomial, binomial_poly, degree, fugacity
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
# _StateTable per model: the graph, its states as sets and masks, as the
# walk gave them, their sizes and their size polynomial. A table is
# replaced whole, so a reader never pairs one graph with another's
# states. An enumeration of more than _STATE_BOUND states is not kept: it is
# walked in tables of at most _STATE_BOUND states.
_STATES: dict = {}
_STATE_BOUND = 1 << 15

# The deletion recurrence behind the neighborhood laws and the correlation
# checks, kept for the last graph and fugacity asked about under each model
# as (graph, fugacity, position of each vertex in the relabeling, value).
_RECURSIONS: dict = {}


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
    return _by_components(g, _IND_MEMO, "hardcore", _vertex_budget)


def matching_poly(g: Graph) -> IntPolynomial:
    """Matching generating polynomial: coefficient of x^k counts k-matchings.

    Vertex recurrence M(S) = M(S - v) + x * sum_{u in N(v) & S} M(S - u - v)
    over vertex masks S of each connected component relabeled in
    breadth-first order, with v the lowest vertex of S in that order
    (Godsil, "Algebraic Combinatorics", 1993, ch. 1; see `_mask_recursion`).
    The budget applies per component, which is where the recursion cost
    lives.
    """
    return _by_components(g, _MATCH_MEMO, "matching", _edge_budget)


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


def _by_components(g: Graph, memo: dict, model: str, budget) -> IntPolynomial:
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
        width = _field_width(adj, model)
        value = _mask_recursion(adj, model, 1 << width, 1)
        packed = value(top)
        value.memo.clear()
        return IntPolynomial(_unpack(packed, width))

    one, out = IntPolynomial((1, 1) if model == "hardcore" else (1,)), IntPolynomial.one()
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
# Graph is built. Mask S gets V(S) = q^|S| P_S(p/q) at a fugacity p/q; a
# polynomial is V at (p, q) = (2^W, 1), one int (Kronecker substitution)
# with coefficient k in bits [kW, (k+1)W) for the field width W of
# `_field_width`, wide enough that no field ever carries into the next.

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


def _field_width(adj, model: str) -> int:
    """Bits per packed coefficient of the polynomials of `adj`'s masks. The
    hard-core model counts vertex sets, fewer than 2^n of any one size; the
    matching model counts edge sets, fewer than 2^m of any one size."""
    if model == "hardcore":
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


def _mask_recursion(adj, model: str, p: int, q: int):
    """The memoized value(mask, touch=0): V(S) = q^|S| P_S(p/q) for any
    vertex mask S of the adjacency `adj`, P_S the polynomial of S under the
    model, "hardcore" or "matching"; at (p, q) = (2^W, 1), W the
    `_field_width(adj, model)`, it is P_S packed. One vertex is p + q or q,
    a connected mask is stepped from smaller ones by the model's step, and
    a split mask is the product of its parts. `adj` is used as labelled:
    `_by_components` and `_event_values` pass a breadth-first relabeling,
    while `hardcore.enumerate_configs` asks for masks in a class
    representative's own labels.

    `touch` is a set of the mask's vertices that meets each of its
    components; the whole mask when not given, any one vertex for a mask
    known to be connected. A step cuts a set X from a connected mask S and
    passes N(X) & (S - X) on, which meets every component of S - X. A mask
    is looked up whole first. On a miss, `graphs.mask_component` searches
    from one vertex of touch: a mask in which it reaches all of touch is
    connected and stepped; otherwise the component found and the rest of
    the mask are looked up apart and multiplied. Either way the result is
    memoized under the mask. The memo is `value.memo`; value refers to
    itself, so a caller done with it clears the memo rather than leave it
    to the cycle collector."""
    if model == "hardcore":
        step, unit = _independence_step, p + q
    else:
        step, unit = _matching_step, q
    memo = {1 << v: unit for v in range(len(adj))}
    memo[0] = 1

    def value(mask, touch=0):
        out = memo.get(mask)
        if out is None:
            touch = touch or mask
            comp = mask_component(adj, mask, touch)
            if comp == mask:
                out = step(adj, mask, value, p, q)
            else:
                out = value(comp, comp & -comp) * value(mask ^ comp, touch & ~comp)
            memo[mask] = out
        return out

    value.memo = memo
    return value


def _independence_step(adj, mask, value, p, q):
    # P(S) = P(S - v) + x P(S - N[v]) at the lowest vertex v of S, so
    # V(S) = q V(S - v) + p q^|N(v) & S| V(S - N[v]), each cut mask passed
    # on with its vertices next to what was cut
    low = mask & -mask
    rest = mask ^ low
    near = adj[low.bit_length() - 1] & rest
    far = rest & ~near
    touch, nbrs = 0, near
    while nbrs:
        u = nbrs & -nbrs
        touch |= adj[u.bit_length() - 1]
        nbrs ^= u
    return q * value(rest, near) + p * q ** near.bit_count() * value(far, touch & far)


def _matching_step(adj, mask, value, p, q):
    # M(S) = M(S - v) + x sum_{u in N(v) & S} M(S - u - v), v lowest in S,
    # so V(S) = q V(S - v) + p q sum_u V(S - u - v), each cut mask passed
    # on with its vertices next to what was cut
    low = mask & -mask
    rest = mask ^ low
    near = adj[low.bit_length() - 1] & rest
    without_v = value(rest, near)
    pairs, nbrs = 0, near
    while nbrs:
        u = nbrs & -nbrs
        cut = rest ^ u
        pairs += value(cut, (near | adj[u.bit_length() - 1]) & cut)
        nbrs ^= u
    return q * (without_v + p * pairs)


def _event_values(g: Graph, model: str, lam: Fraction, base: int, events) -> dict:
    """{label: q^n W(p/q)} at the fugacity lam = p/q, n = g.n, where W
    counts by size the states of the model on g - base, independent sets
    (hardcore) or matchings (matching), that carry the label: `events` is a
    list of (weight, blockers) pairs, vertex masks of g, and event i holds
    when no vertex of blockers_i is occupied (hardcore) or covered
    (matching). A state is labelled by the sum of the weights of the events
    that hold in it, so that distinct bits key a label by its pattern and
    unit weights by a count. With no events the one label 0 holds q^n times
    the polynomial of g - base at lam.

    Both models are Markov, so the states in which the events of a set U
    hold are those of g - base - (the union of blockers_U), and the product
    over events of 1 + (z^weight - 1)[event holds] expands, by
    inclusion-exclusion, into signed terms keyed by (union of blockers,
    label). Equal keys merge as the events are taken in turn, and each
    distinct union U is one lookup, V(g - U) q^|U|, in the deletion
    recurrence of g at lam (`_mask_recursion`). That recurrence runs over g
    relabeled breadth-first, one component after another, and is kept for
    the last graph and fugacity under each model (see `_RECURSIONS`).
    """
    n, full = g.n, (1 << g.n) - 1
    kept = _RECURSIONS.get(model)
    if kept is None or kept[1] != lam or kept[0] != g:
        if kept is not None:  # the old recursion refers to itself: free it now
            kept[3].memo.clear()
        order = [v for comp in mask_components(g.adj, full) for v in _bfs_order(g.adj, comp)]
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        value = _mask_recursion(g.induced(order).adj, model, lam.numerator, lam.denominator)
        kept = _RECURSIONS[model] = (g, lam, position, value)
    _, _, position, value = kept
    q = lam.denominator

    def relabeled(mask):
        return sum(1 << position[v] for v in mask_vertices(mask))

    # a term is keyed by label << n | union: union the relabeled base and
    # blockers of the events it requires to hold, label the weight it gives
    terms = {relabeled(base): 1}
    for weight, blockers in events:
        blocked, step, grown = relabeled(blockers), weight << n, {}
        for key, sign in terms.items():
            joined = key | blocked
            if joined != key:  # the states where the event fails keep the label
                grown[key] = grown.get(key, 0) + sign
                grown[joined] = grown.get(joined, 0) - sign
            grown[joined + step] = grown.get(joined + step, 0) + sign
        terms = grown
    lookups, values = {}, defaultdict(int)
    for key, sign in terms.items():
        if sign:
            union = key & full
            looked = lookups.get(union)
            if looked is None:
                looked = lookups[union] = value(full ^ union) * q ** union.bit_count()
            values[key >> n] += sign * looked
    # every state weighs a positive amount at lam > 0, so a label
    # whose sum is 0 holds no state
    return {label: v for label, v in values.items() if v}


def kdd_independence_poly(d: int) -> IntPolynomial:
    """Independence polynomial of K_{d,d}: 2(1+x)^d - 1."""
    if degree(d) <= 0:
        raise DomainError("need d >= 1")
    return 2 * binomial_poly(d) - IntPolynomial.one()


def kdd_matching_poly(d: int) -> IntPolynomial:
    """Matching polynomial of K_{d,d}: sum_k C(d,k)^2 k! x^k. K_{0,0} gives 1."""
    if degree(d) < 0:
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
    d, lam = degree(d), fugacity(lam)
    return lam * (1 + lam) ** (d - 1) / (2 * (1 + lam) ** d - 1)


def kdd_edge_occupancy(d: int, lam: Fraction) -> Fraction:
    """lam * M_{K_{d-1,d-1}}(lam) / M_{K_{d,d}}(lam): p K_{d-1} / K_d in
    integers at lam = p/q, with K_s = q^s M_{K_{s,s}}(p/q)."""
    d, lam = degree(d), fugacity(lam)
    if d < 1:
        raise DomainError("need d >= 1")
    p, q = lam.numerator, lam.denominator
    low = kdd_matching_poly(d - 1).homogeneous(p, q, d - 1)
    return Fraction(p * low, kdd_matching_poly(d).homogeneous(p, q, d))


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
    """Yield every independent set as a vertex bitmask (including 0), once
    each, in the order of `_walk`."""
    for _, masks in _walk(g, "hardcore", _STATE_BOUND):
        yield from masks


def matchings(g: Graph):
    """Yield every matching as a frozenset of (u, v) edges with u < v, once
    each, in the order of `_walk`."""
    for sets, _ in _walk(g, "matching", _STATE_BOUND):
        yield from sets


def _walk(g: Graph, model: str, bound: int):
    """The states of the model on g as (sets, masks) chunks of at most
    `bound`. A state is a set of items no two of which conflict: vertices,
    each conflicting with its closed neighbourhood (hardcore), or the edges
    of g.edges(), each conflicting with the edges at its ends (matching), a
    matching being an independent set of the line graph. sets[i] is a
    frozenset of items and masks[i] has bit j for each item j in it. A
    depth-first walk on an explicit stack records each set it pops, then
    pushes its extensions by one later item that conflicts with none of
    its items, last first: a set comes before its extensions, and these
    come in the order of the item added."""
    if model == "hardcore":
        items = range(g.n)
        conflicts = [nbrs | 1 << v for v, nbrs in enumerate(g.adj)]
    else:
        items = g.edges()
        ends = [1 << u | 1 << v for u, v in items]
        conflicts = [sum(1 << j for j, other in enumerate(ends) if end & other) for end in ends]
    # each item as a frozenset, its bit, and the items it conflicts with
    extend = [(frozenset((item,)), 1 << i, c) for i, (item, c) in enumerate(zip(items, conflicts))]
    sets, masks = [], []
    stack = [(frozenset(), 0, (1 << len(extend)) - 1)]
    while stack:
        state, mask, free = stack.pop()
        sets.append(state)
        masks.append(mask)
        if len(sets) == bound:
            yield tuple(sets), tuple(masks)
            sets, masks = [], []
        rest = free
        while rest:
            single, bit, conflict = extend[rest.bit_length() - 1]
            rest ^= bit
            stack.append((state | single, mask | bit, (free ^ rest) & ~conflict))
    if sets:
        yield tuple(sets), tuple(masks)


def state_polynomials(g: Graph, model: str, classify, limit: int = ORACLE_LIMIT):
    """Enumerate every state of the model on g once and count states by size.

    A state is an independent set as a vertex bitmask (hardcore) or a
    matching as a frozenset of (u, v) edges (matching), as `_walk` gives
    it. `classify(state)` yields labels; each yield counts the state once
    under that label.
    Returns (total, {label: IntPolynomial}), where coefficient k counts the
    states (with multiplicity) of size k, so a probability at fugacity lam
    is a ratio of two polynomials evaluated once. The total comes from the
    enumeration, never from the deletion recurrences, so it cross-checks
    them. The default size cap keeps enumeration at desk scale; pass a
    larger `limit` explicitly to override it.

    The states of the last graph enumerated under each model are kept with
    their masks and sizes (see `_state_tables`), so further questions about
    an equal graph classify them again without a walk. The cap is checked
    first, whatever is kept.
    """
    width, tables = _state_tables(g, model, limit)
    counts, total = defaultdict(lambda: [0] * width), IntPolynomial.zero()
    for table in tables:
        states = table.masks if model == "hardcore" else table.sets
        for state, k in zip(states, table.sizes):
            for label in classify(state):
                counts[label][k] += 1
        total = total + table.total
    return total, {label: IntPolynomial(row) for label, row in counts.items()}


class _StateTable:
    """States of one graph under one model: all of them when kept, else one
    chunk of an enumeration, as `_walk` gives them. `sets[i]` is a state as
    a frozenset of items, `masks[i]` the same state as a mask over the
    items, `sizes[i]` its size, and `total` counts the states by size."""

    __slots__ = ("graph", "sets", "masks", "sizes", "total")

    def __init__(self, graph: Graph, sets: tuple, masks: tuple, width: int):
        self.graph, self.sets, self.masks = graph, sets, masks
        self.sizes = bytes(map(int.bit_count, masks))
        self.total = IntPolynomial(self.sizes.count(k) for k in range(width))


def _state_model(g: Graph, model: str, limit: int) -> int:
    """The number of sizes a state of the model on g can have, once g is
    within the cap of `limit` vertices (hardcore) or edges (matching), else
    CapabilityError. The laws and correlation checks, which enumerate
    nothing, check their caps here too, before any other work."""
    if model == "hardcore":
        if g.n > limit:
            raise CapabilityError(f"oracle limit is {limit} vertices, got {g.n}")
        return g.n + 1
    if model == "matching":
        if g.edge_count > limit:
            raise CapabilityError(f"oracle limit is {limit} edges, got {g.edge_count}")
        return g.n // 2 + 1
    raise DomainError(f"unknown model {model!r}")


def _state_tables(g: Graph, model: str, limit: int):
    """(width, tables), `width` the number of possible sizes: g's kept table
    under the model; else a fresh walk, kept when it gives at most
    _STATE_BOUND states and otherwise streamed once in tables of at most
    _STATE_BOUND states, none kept. The cap is checked first, whatever is kept."""
    width = _state_model(g, model, limit)
    table = _STATES.get(model)
    if table is None or table.graph != g:
        chunks = _walk(g, model, _STATE_BOUND)
        head = tuple(islice(chunks, 2))
        if len(head) > 1:
            return width, (_StateTable(g, *c, width) for c in chain(head, chunks))
        table = _STATES[model] = _StateTable(g, *head[0], width)
    return width, (table,)


def event_probability_oracle(
    g: Graph, model: str, lam: Fraction, predicate, limit: int = ORACLE_LIMIT
) -> Fraction:
    """Exact probability of an event under the hard-core or monomer-dimer
    model, by full enumeration (see `state_polynomials`).

    `predicate` receives a frozenset of vertices (hardcore) or of (u, v)
    edges (matching), as `_walk` gives it with the state. One pass counts
    the states it accepts by size, so the predicate is the only work per
    state.
    """
    lam = fugacity(lam)
    width, tables = _state_tables(g, model, limit)
    hits, total = [0] * width, IntPolynomial.zero()
    for table in tables:
        for k in compress(table.sizes, map(predicate, table.sets)):
            hits[k] += 1
        total = total + table.total
    return IntPolynomial(hits)(lam) / total(lam)


def clear_memo_tables():
    """Drop memoized polynomials, kept oracle state tables, the kept
    recurrences of the laws and the kept automorphism orbits (mainly for
    benchmarks and tests)."""
    _IND_MEMO.clear()
    _MATCH_MEMO.clear()
    _STATES.clear()
    for _, _, _, value in _RECURSIONS.values():  # each refers to itself
        value.memo.clear()
    _RECURSIONS.clear()
    _ORBITS.clear()
