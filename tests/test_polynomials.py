import hashlib
import inspect
import random
import re
import textwrap
from fractions import Fraction

import pytest

from _oracles import (
    brute_independence_counts,
    brute_matching_counts,
    disjoint_union,
    graph6,
    graph_deletion_poly,
    random_graph,
    random_regular_graph,
    reference_edge_law,
    reference_free_neighborhood_law,
    reference_independent_sets,
    reference_matchings,
    reference_uncovered_law,
    relabel,
)
from occufrac import polynomials
from occufrac.corpus import given_size_corpus, regular_corpus, transitive_bipartite_corpus
from occufrac.errors import CapabilityError, DomainError
from occufrac.exactmath import IntPolynomial
from occufrac.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    kdd_union,
    label_key,
    mask_vertices,
    parse_graph6,
    petersen,
    prism,
)
from occufrac.matching import edge_neighborhood_distribution
from occufrac.polynomials import (
    MATCHING_BUDGET,
    clear_memo_tables,
    edge_occupancy,
    event_probability_oracle,
    independence_poly,
    independent_sets,
    kdd_edge_occupancy,
    kdd_independence_poly,
    kdd_matching_poly,
    kdd_occupancy,
    matching_poly,
    matchings,
    occupancy,
    size_distribution,
    state_polynomials,
)

ONE = Fraction(1)


def test_independence_poly_known_values():
    assert independence_poly(complete_bipartite(2)).coeffs == (1, 4, 2)
    assert independence_poly(Graph(1)).coeffs == (1, 1)
    assert independence_poly(cycle(6)).coeffs == (1, 6, 9, 2)
    assert kdd_independence_poly(2).coeffs == (1, 4, 2)


def test_matching_poly_known_values():
    assert matching_poly(complete_bipartite(2)).coeffs == (1, 4, 2)
    assert matching_poly(complete_bipartite(3)).coeffs == (1, 9, 18, 6)
    assert matching_poly(Graph(4)).coeffs == (1,)


def test_polys_match_brute_force_enumeration():
    rng = random.Random(5)
    graphs = [cycle(5), petersen(), prism(3), hypercube(3), complete(5)]
    graphs += [random_graph(rng, rng.randint(1, 8), 0.4) for _ in range(12)]
    for g in graphs:
        assert list(independence_poly(g).coeffs) == brute_independence_counts(g)
        if g.edge_count <= 16:
            assert list(matching_poly(g).coeffs) == brute_matching_counts(g)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_memoized_polys_match_brute_force_cold_and_warm():
    # connected cubic graphs above the canonical limit are keyed by label
    # only; their subproblems are memoized within each call, not in the tables
    rng = random.Random(7)
    graphs = [random_regular_graph(rng, n, 3) for n in (12, 14, 16, 16)]
    assert all(len(g.components()) == 1 for g in graphs)
    expected = [(brute_independence_counts(g), brute_matching_counts(g)) for g in graphs]
    relabeled = []

    def check(g, counts):
        assert list(independence_poly(g).coeffs) == counts[0]
        assert list(matching_poly(g).coeffs) == counts[1]

    for g, counts in zip(graphs, expected):
        clear_memo_tables()
        check(g, counts)
    for g, counts in zip(graphs, expected):
        relabeled.append(_relabeled(g, rng))
        check(relabeled[-1], counts)  # a new label key: recomputed
        check(g, counts)
    sizes = len(polynomials._IND_MEMO), len(polynomials._MATCH_MEMO)
    for g, counts in zip(graphs, expected):
        check(g, counts)  # each labeled graph is now a hit
    assert (len(polynomials._IND_MEMO), len(polynomials._MATCH_MEMO)) == sizes
    assert b"l" + label_key(graphs[-1]) in polynomials._IND_MEMO
    top_level = {b"l" + label_key(g) for g in graphs + relabeled}
    for memo in (polynomials._IND_MEMO, polynomials._MATCH_MEMO):
        assert set(memo) == top_level


def test_small_components_are_probed_by_label_then_class():
    clear_memo_tables()
    g = disjoint_union(disjoint_union(cycle(7), Graph(1)), petersen())
    h = _relabeled(g, random.Random(3))
    assert independence_poly(h) == independence_poly(g)
    assert matching_poly(h) == matching_poly(g)
    # two labelled components of each graph, one class each; the isolated
    # vertex needs no entry
    for memo in (polynomials._IND_MEMO, polynomials._MATCH_MEMO):
        assert sorted(key[:1] for key in memo) == [b"c"] * 2 + [b"l"] * 4


def _six_regular(rng, n):
    # two edge-disjoint random cubic graphs on one vertex set; drawing a
    # 6-regular graph whole by rejection takes thousands of tries
    first, second = random_regular_graph(rng, n, 3), random_regular_graph(rng, n, 3)
    while True:
        other = _relabeled(second, rng)
        if not any(a & b for a, b in zip(first.adj, other.adj)):
            return Graph(n, first.edges() + other.edges())


def test_mask_recursion_matches_graph_deletion_reference():
    # components at or near the budgets of 40 edges and 30 vertices, and
    # sparse random graphs with many components, each under shuffled labellings
    rng = random.Random(17)
    cases = [("matching", matching_poly, g) for g in (
        prism(12),
        hypercube(4),
        random_regular_graph(rng, 26, 3),
        random_regular_graph(rng, 20, 4),
        random_regular_graph(rng, 16, 5),
    )]
    cases += [("hardcore", independence_poly, random_regular_graph(rng, 30, d)) for d in (3, 4)]
    cases += [("hardcore", independence_poly, _six_regular(rng, 30))]
    for _ in range(4):
        g = random_graph(rng, 18, 0.15)
        cases += [("hardcore", independence_poly, g), ("matching", matching_poly, g)]
    for model, poly, g in cases:
        want = graph_deletion_poly(g, model)
        for h in [g] + [_relabeled(g, rng) for _ in range(3)]:
            clear_memo_tables()
            assert poly(h) == want


def _connected_regular(rng, n, d):
    while True:
        g = random_regular_graph(rng, n, d)
        if len(g.components()) == 1:
            return g


def test_polynomial_output_is_pinned():
    # both polynomials of the bundled corpora, prism(12), Q4 and random
    # components at the budgets (30 vertices; 39 and 40 edges), each as
    # given and under three shuffled labellings, in order, as one digest;
    # the 30-vertex components are over the matching budget
    rng = random.Random(41)
    corpora = (regular_corpus(), transitive_bipartite_corpus(), given_size_corpus())
    graphs = [g for corpus in corpora for _, g in corpus] + [prism(12), hypercube(4)]
    graphs += [
        _connected_regular(rng, n, d) for n, d in ((30, 3), (30, 4), (26, 3), (20, 4), (16, 5))
    ]
    digest = hashlib.sha256()
    for g in graphs:
        for h in [g] + [relabel(g, rng.sample(range(g.n), g.n)) for _ in range(3)]:
            matching = matching_poly(h).coeffs if h.edge_count <= MATCHING_BUDGET else None
            record = (h.n, h.edges(), independence_poly(h).coeffs, matching)
            digest.update(repr(record).encode())
    assert len(graphs) == 59
    assert digest.hexdigest() == (
        "46ff464c4651ef048092882dfccfe686e326d094e14ba41aa65c04295569e529"
    )


def _cold_steps(model, g):
    """How many masks a cold call of the model's polynomial on g steps on,
    each mask once."""
    poly, name = {
        "hardcore": (independence_poly, "_independence_step"),
        "matching": (matching_poly, "_matching_step"),
    }[model]
    steps = []
    original = getattr(polynomials, name)

    def counted(adj, mask, *rest):
        steps.append(mask)
        return original(adj, mask, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, name, counted)
        clear_memo_tables()
        poly(g)
    assert len(steps) == len(set(steps))
    return len(steps)


def test_cold_matching_recursion_takes_few_steps():
    # one step per connected vertex mask of two or more vertices of the
    # component in breadth-first order; in the input's own labels these
    # took 594 and 586 matching steps, and 289 and 197 independence steps
    for g, matching_steps, independence_steps in (
        (prism(12), 149, 82),
        (random_regular_graph(random.Random(0), 24, 3), 440, 144),
    ):
        assert _cold_steps("matching", g) == matching_steps
        assert _cold_steps("hardcore", g) == independence_steps


def test_cold_recursion_steps_hardly_depend_on_labels():
    # in the input's own labels, shuffled prism(12) took 222 to 683 matching
    # steps and Q4 540 to 694; the independence counts never spread as far
    rng = random.Random(11)
    for g, matching_bound, independence_bound in (
        (prism(12), 160, 90),
        (hypercube(4), 300, 80),
    ):
        for h in [g] + [_relabeled(g, rng) for _ in range(4)]:
            assert _cold_steps("matching", h) <= matching_bound
            assert _cold_steps("hardcore", h) <= independence_bound


def test_bfs_order_is_breadth_first_from_the_lowest_vertex():
    rng = random.Random(13)
    for g in [prism(5), hypercube(3), petersen()] + [
        _relabeled(random_regular_graph(rng, 12, 3), rng) for _ in range(4)
    ]:
        order = polynomials._bfs_order(g.adj, (1 << g.n) - 1)
        assert sorted(order) == list(range(g.n)) and order[0] == 0
        depth, level, k = {}, {0}, 0
        while level:
            depth.update(dict.fromkeys(level, k))
            level = {w for v in level for w in g.neighbors(v) if w not in depth}
            k += 1
        assert [depth[v] for v in order] == sorted(depth.values())
        # within one depth, vertices come in order of their earliest
        # neighbour one level up, then by label
        first_parent = {
            v: min(order.index(w) for w in g.neighbors(v) if depth[w] == depth[v] - 1)
            for v in order[1:]
        }
        assert order[1:] == sorted(order[1:], key=lambda v: (first_parent[v], v))


def test_fast_path_mutants_differ_from_graph_deletion(monkeypatch):
    cubic = random_regular_graph(random.Random(19), 14, 3)
    cases = [
        (matching_poly, prism(6), graph_deletion_poly(prism(6), "matching")),
        (independence_poly, cubic, graph_deletion_poly(cubic, "hardcore")),
    ]
    for poly, g, want in cases:
        clear_memo_tables()
        assert poly(g) == want

    original = polynomials._bfs_order

    def repeat_first(adj, comp):
        # the first vertex twice, the last one dropped
        order = original(adj, comp)
        return order[:-1] + order[:1]

    # `_mask_recursion` as written, but storing each whole mask's product
    # under the mask less its lowest vertex
    source = textwrap.dedent(inspect.getsource(polynomials._mask_recursion))
    assert source.count("memo[mask] = out") == 1
    namespace = dict(vars(polynomials))
    exec(source.replace("memo[mask] = out", "memo[mask ^ (mask & -mask)] = out"), namespace)

    wrong_key = namespace["_mask_recursion"]
    for name, mutant in (("_bfs_order", repeat_first), ("_mask_recursion", wrong_key)):
        with monkeypatch.context() as patch:
            patch.setattr(polynomials, name, mutant)
            for poly, g, want in cases:
                clear_memo_tables()
                assert poly(g) != want
    clear_memo_tables()


def test_too_narrow_packed_fields_differ_from_graph_deletion(monkeypatch):
    # fields one bit narrower than the largest coefficient needs: the
    # packed ints still hold P(2^W), but its base-2^W digits are no longer
    # the coefficients
    cubic = random_regular_graph(random.Random(19), 14, 3)
    for poly, g, model in ((matching_poly, prism(6), "matching"), (independence_poly, cubic, "hardcore")):
        want = graph_deletion_poly(g, model)
        narrow = max(want.coeffs).bit_length() - 1
        assert narrow < polynomials._field_width(g.adj, model)
        with monkeypatch.context() as patch:
            patch.setattr(polynomials, "_field_width", lambda adj, model: narrow)
            clear_memo_tables()
            assert poly(g) != want
        clear_memo_tables()
        assert poly(g) == want


def test_disconnected_cut_masks_are_split():
    # ternary trees, each vertex i > 0 a child of (i - 1) // 3: splitting
    # every disconnected mask takes 14 matching steps on 41 vertices and 10
    # independence steps on 30; a recursion that stepped every mask,
    # connected or not, took 969,926 matching steps on 41 vertices
    def ternary(n):
        return Graph(n, [((i - 1) // 3, i) for i in range(1, n)])

    assert _cold_steps("matching", ternary(41)) <= 20
    assert _cold_steps("hardcore", ternary(30)) <= 15


def test_clear_memo_tables_empties_every_table():
    independence_poly(petersen())
    matching_poly(prism(6))
    tables = [t for name, t in vars(polynomials).items() if name.endswith("_MEMO")]
    assert len(tables) == 2 and all(tables)
    clear_memo_tables()
    assert not any(tables)


def test_disjoint_union_multiplicativity():
    rng = random.Random(9)
    for _ in range(10):
        g1 = random_graph(rng, rng.randint(1, 6), 0.5)
        g2 = random_graph(rng, rng.randint(1, 6), 0.5)
        u = disjoint_union(g1, g2)
        assert independence_poly(u) == independence_poly(g1) * independence_poly(g2)
        assert matching_poly(u) == matching_poly(g1) * matching_poly(g2)


def test_kdd_union_power_identity():
    for d in range(2, 5):
        for copies in range(1, 5):
            n = 2 * d * copies
            if n > 8 * d:
                break
            union = kdd_union(d, n)
            assert independence_poly(union) == kdd_independence_poly(d) ** copies
            assert matching_poly(union) == kdd_matching_poly(d) ** copies


def test_closed_forms_match_recurrences():
    for d in range(1, 7):
        g = complete_bipartite(d)
        assert independence_poly(g) == kdd_independence_poly(d)
        assert matching_poly(g) == kdd_matching_poly(d)


def test_occupancy_known_values():
    assert occupancy(complete_bipartite(2), ONE) == Fraction(2, 7)
    assert occupancy(cycle(6), ONE) == Fraction(5, 18)
    assert occupancy(Graph(1), ONE) == Fraction(1, 2)
    assert occupancy(cycle(6), ONE) < occupancy(complete_bipartite(2), ONE)


def test_edge_occupancy_known_values():
    assert edge_occupancy(complete_bipartite(2), ONE) == Fraction(2, 7)
    assert edge_occupancy(complete_bipartite(3), ONE) == Fraction(7, 34)
    assert edge_occupancy(cycle(6), ONE) == Fraction(5, 18)


def test_occupancy_closed_forms():
    for d in range(2, 6):
        for lam in (Fraction(1, 3), ONE, Fraction(5, 2)):
            assert occupancy(complete_bipartite(d), lam) == kdd_occupancy(d, lam)
            assert edge_occupancy(complete_bipartite(d), lam) == kdd_edge_occupancy(d, lam)


def test_integer_fugacity_gives_fractions():
    # an int lam must compute exactly, not through int / int floats
    for d, lam in ((2, 1), (3, 1), (3, 2)):
        kdd = complete_bipartite(d)
        exact = Fraction(lam)
        for got, want in (
            (occupancy(kdd, lam), occupancy(kdd, exact)),
            (edge_occupancy(kdd, lam), edge_occupancy(kdd, exact)),
            (kdd_occupancy(d, lam), kdd_occupancy(d, exact)),
            (kdd_edge_occupancy(d, lam), kdd_edge_occupancy(d, exact)),
        ):
            assert type(got) is Fraction
            assert got == want


def test_occupancy_domain_errors():
    with pytest.raises(DomainError):
        occupancy(cycle(4), Fraction(0))
    with pytest.raises(DomainError):
        occupancy(cycle(4), Fraction(-1))
    with pytest.raises(DomainError):
        edge_occupancy(Graph(3), ONE)


def test_budget_capability_errors():
    with pytest.raises(
        CapabilityError,
        match="^independence_poly budget is 30 vertices per component, got 31$",
    ):
        independence_poly(cycle(31))
    with pytest.raises(
        CapabilityError,
        match="^matching_poly budget is 40 edges per component, got 66$",
    ):
        matching_poly(complete(12))  # 66 edges in one component


def test_independence_budget_applies_per_component():
    # 32 vertices in four components of 8: within the budget without an override
    assert independence_poly(kdd_union(4, 32)) == kdd_independence_poly(4) ** 4
    with pytest.raises(CapabilityError, match="got 31$"):
        independence_poly(disjoint_union(cycle(31), cycle(4)))


def test_budget_messages_name_the_right_component():
    # with two components over budget, independence names the largest and
    # matching the first in component order (by lowest vertex)
    with pytest.raises(CapabilityError, match="vertices per component, got 33$"):
        independence_poly(disjoint_union(cycle(31), cycle(33)))
    with pytest.raises(CapabilityError, match="vertices per component, got 33$"):
        independence_poly(disjoint_union(cycle(33), cycle(31)))
    with pytest.raises(CapabilityError, match="edges per component, got 45$"):
        matching_poly(disjoint_union(complete(10), complete(11)))  # 45, then 55 edges
    with pytest.raises(CapabilityError, match="edges per component, got 55$"):
        matching_poly(disjoint_union(complete(11), complete(10)))


def test_size_distribution_known_values():
    dist = size_distribution(kdd_independence_poly(2), Fraction(2))
    assert dist.probabilities == (
        Fraction(1, 17),
        Fraction(8, 17),
        Fraction(8, 17),
    )
    assert sum(dist.probabilities, Fraction(0)) == 1
    single = size_distribution(IntPolynomial((1,)), Fraction(3))
    assert single.probabilities == (Fraction(1),)


def test_size_distribution_normalizes_on_random_polys():
    rng = random.Random(13)
    for _ in range(20):
        p = IntPolynomial([1] + [rng.randint(0, 9) for _ in range(rng.randint(1, 6))])
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert sum(size_distribution(p, lam).probabilities, Fraction(0)) == 1


def test_oracle_known_values():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert event_probability_oracle(p3, "hardcore", ONE, lambda s: 0 in s) == Fraction(2, 5)
    assert event_probability_oracle(p3, "hardcore", ONE, lambda s: True) == 1
    k2 = Graph(2, [(0, 1)])
    assert event_probability_oracle(k2, "matching", ONE, lambda m: len(m) == 1) == Fraction(1, 2)


def test_oracle_limit():
    with pytest.raises(CapabilityError):
        event_probability_oracle(cycle(25), "hardcore", ONE, lambda s: True)
    with pytest.raises(CapabilityError):
        event_probability_oracle(complete_bipartite(5), "matching", ONE, lambda m: True)
    # explicit override is allowed
    assert (
        event_probability_oracle(
            complete_bipartite(5), "matching", ONE, lambda m: True, limit=25
        )
        == 1
    )


def test_engine_total_counts_states_by_brute_force():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.4, 0.6)))
        total, labels = state_polynomials(g, "hardcore", lambda mask: ())
        assert list(total.coeffs) == brute_independence_counts(g)
        assert labels == {}
        total, _ = state_polynomials(g, "matching", lambda m: ())
        assert list(total.coeffs) == brute_matching_counts(g)


def test_engine_counts_each_yield_by_size():
    p3 = Graph(3, [(0, 1), (1, 2)])
    # sets: {}, {0}, {1}, {2}, {0, 2}; each yields one label per member
    total, by_vertex = state_polynomials(p3, "hardcore", mask_vertices)
    assert total == IntPolynomial((1, 3, 1))
    assert by_vertex == {
        0: IntPolynomial((0, 1, 1)),
        1: IntPolynomial((0, 1)),
        2: IntPolynomial((0, 1, 1)),
    }
    total, by_size = state_polynomials(cycle(4), "matching", lambda m: ["x"] * len(m))
    assert total == IntPolynomial((1, 4, 2))
    assert by_size == {"x": IntPolynomial((0, 4, 4))}


def test_engine_limits_and_models():
    with pytest.raises(CapabilityError, match="^oracle limit is 24 vertices, got 25$"):
        state_polynomials(cycle(25), "hardcore", lambda s: ())
    with pytest.raises(CapabilityError, match="^oracle limit is 24 edges, got 25$"):
        state_polynomials(complete_bipartite(5), "matching", lambda s: ())
    total, _ = state_polynomials(complete_bipartite(5), "matching", lambda s: (), limit=25)
    assert total == matching_poly(complete_bipartite(5))
    with pytest.raises(DomainError):
        state_polynomials(cycle(4), "potts", lambda s: ())


def _has_triangle(g):
    return any(g.adj[u] & g.adj[v] for u, v in g.edges())


def _law_cases():
    # seeded random regular graphs, three with and three without triangles,
    # each with its own fugacity
    rng = random.Random(41)
    drawn = {True: [], False: []}
    while min(len(v) for v in drawn.values()) < 3:
        n, d = rng.choice(((8, 3), (10, 3), (9, 4)))
        g = random_regular_graph(rng, n, d)
        kind = drawn[_has_triangle(g)]
        if len(kind) < 3:
            kind.append(g)
    return [
        (g, Fraction(rng.randint(1, 7), rng.randint(1, 7)))
        for g in drawn[True] + drawn[False]
    ]


def _laws(g, lam):
    from occufrac.hardcore import (
        free_neighborhood_distribution,
        uncovered_count_distribution,
    )
    from occufrac.matching import edge_neighborhood_distribution

    return (
        tuple(uncovered_count_distribution(g, lam)),
        tuple(free_neighborhood_distribution(g, lam)),
        edge_neighborhood_distribution(g, lam),
    )


def test_engine_laws_equal_fraction_references():
    # random regular graphs, both with and without triangles: the laws
    # built from integer counts equal the state-by-state Fraction sums
    for g, lam in _law_cases():
        assert _laws(g, lam) == (
            reference_uncovered_law(g, lam),
            reference_free_neighborhood_law(g, lam),
            reference_edge_law(g, lam),
        )


def test_reference_laws_are_kept_read_only_per_graph6():
    g, lam = _law_cases()[0]
    laws = (reference_uncovered_law, reference_free_neighborhood_law, reference_edge_law)
    kept = [law(g, lam) for law in laws]
    # an equal graph built anew gets the kept values themselves
    assert all(law(Graph(g.n, g.edges()), lam) is value for law, value in zip(laws, kept))
    assert isinstance(kept[0], tuple) and isinstance(kept[1], tuple)
    with pytest.raises(TypeError):
        kept[2][next(iter(kept[2]))] = Fraction(0)
    assert reference_uncovered_law(g, lam + 1) != kept[0]


def test_graph6_keys_round_trip():
    for g in (Graph(0), Graph(1), complete(2), cycle(7), petersen(), hypercube(4), complete(12)):
        assert parse_graph6(graph6(g)) == g
    assert graph6(complete(2)) == "A_"
    assert graph6(parse_graph6("K??AtRCUDGE_")) == "K??AtRCUDGE_"


def test_enumerators_agree_with_polynomials():
    for g in (cycle(7), petersen(), complete_bipartite(3)):
        by_size = {}
        for mask in independent_sets(g):
            by_size[mask.bit_count()] = by_size.get(mask.bit_count(), 0) + 1
        assert [by_size.get(k, 0) for k in range(max(by_size) + 1)] == list(
            independence_poly(g).coeffs
        )
        by_size = {}
        for m in matchings(g):
            by_size[len(m)] = by_size.get(len(m), 0) + 1
        assert [by_size.get(k, 0) for k in range(max(by_size) + 1)] == list(
            matching_poly(g).coeffs
        )


def test_occupancy_equals_oracle_mean():
    for g in (cycle(6), petersen(), complete_bipartite(3), prism(3)):
        for lam in (Fraction(1, 2), ONE):
            mean = sum(
                (
                    event_probability_oracle(g, "hardcore", lam, lambda s, v=v: v in s)
                    for v in range(g.n)
                ),
                Fraction(0),
            ) / g.n
            assert mean == occupancy(g, lam)


def test_occupancy_via_uncovered_probability():
    # occupancy = lam/(1+lam) * mean probability of being uncovered
    for g in (cycle(6), complete_bipartite(3)):
        lam = Fraction(3, 2)
        unc = sum(
            (
                event_probability_oracle(
                    g,
                    "hardcore",
                    lam,
                    lambda s, v=v: not any(u in s for u in g.neighbors(v)),
                )
                for v in range(g.n)
            ),
            Fraction(0),
        ) / g.n
        assert lam / (1 + lam) * unc == occupancy(g, lam)


def test_triangle_free_uncovered_identity():
    # E[Y] = d * E[(1+lam)^-Y] for triangle-free regular graphs
    for g, d in ((cycle(6), 2), (petersen(), 3), (complete_bipartite(3), 3)):
        lam = Fraction(2)
        from occufrac.hardcore import uncovered_count_distribution

        law = uncovered_count_distribution(g, lam)
        mean = sum((t * p for t, p in enumerate(law)), Fraction(0))
        inv = sum((p / (1 + lam) ** t for t, p in enumerate(law)), Fraction(0))
        assert mean == d * inv


def test_mkdd_derivative_identity():
    # M'_{K_{d,d}} = d^2 M_{K_{d-1,d-1}}, the identity behind the
    # edge-occupancy closed form
    for d in range(1, 8):
        assert kdd_matching_poly(d).derivative() == d * d * kdd_matching_poly(d - 1)


# ---------------------------------------------------------------------------
# Kept oracle states

@pytest.fixture
def enumerations(monkeypatch):
    """Count the walks that the engine starts, per model."""
    clear_memo_tables()
    counts = {"hardcore": 0, "matching": 0}
    walk = polynomials._walk

    def counted(g, model, bound):
        counts[model] += 1
        return walk(g, model, bound)

    monkeypatch.setattr(polynomials, "_walk", counted)
    yield counts
    clear_memo_tables()


def _ask_everything(g, lam):
    # questions about g under both models, in interleaved order
    from occufrac.bounds import fkg_check

    edge = g.edges()[0]
    return [
        event_probability_oracle(g, "hardcore", lam, lambda s: 0 in s),
        event_probability_oracle(g, "matching", lam, lambda m: edge in m),
        fkg_check(g, [0, 1], lam, "occupied"),
        *_laws(g, lam),
        fkg_check(g, [0, 1], lam, "uncovered"),
    ]


def _kept_recursions():
    return {model: kept[3] for model, kept in polynomials._RECURSIONS.items()}


def test_states_are_enumerated_once_per_graph_and_model(enumerations):
    # K_{3,3} with vertices 0 and 1 on one side. The oracles walk each model
    # once; the laws and correlation checks start no walk, and read one kept
    # recursion per model
    g = Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    lam = Fraction(3, 2)
    first = _ask_everything(g, lam)
    assert enumerations == {"hardcore": 1, "matching": 1}
    kept = _kept_recursions()
    assert set(kept) == {"hardcore", "matching"}
    assert _ask_everything(g, lam) == first
    assert enumerations == {"hardcore": 1, "matching": 1}
    # an equal graph built anew reuses the kept states and recursions
    assert _ask_everything(Graph(6, g.edges()), lam) == first
    assert enumerations == {"hardcore": 1, "matching": 1}
    assert all(_kept_recursions()[model] is poly for model, poly in kept.items())
    # a different graph of the same order does not
    other = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)])  # a 6-cycle
    _ask_everything(other, lam)
    assert enumerations == {"hardcore": 2, "matching": 2}
    assert all(_kept_recursions()[model] is not poly for model, poly in kept.items())
    assert all(not poly.memo for poly in kept.values())  # the replaced memos are freed


def test_warm_states_give_the_cold_results(enumerations):
    for g, lam in _law_cases():
        clear_memo_tables()
        cold = _laws(g, lam)
        assert _laws(g, lam) == cold
        assert cold == (
            reference_uncovered_law(g, lam),
            reference_free_neighborhood_law(g, lam),
            reference_edge_law(g, lam),
        )
    assert enumerations == {"hardcore": 0, "matching": 0}  # the laws start no walk


def test_warm_states_still_meet_the_caps():
    clear_memo_tables()
    g = cycle(10)
    state_polynomials(g, "hardcore", lambda s: ())
    state_polynomials(g, "matching", lambda s: ())
    assert set(polynomials._STATES) == {"hardcore", "matching"}
    with pytest.raises(CapabilityError, match="^oracle limit is 9 vertices, got 10$"):
        event_probability_oracle(g, "hardcore", ONE, lambda s: True, limit=9)
    with pytest.raises(CapabilityError, match="^oracle limit is 9 edges, got 10$"):
        event_probability_oracle(g, "matching", ONE, lambda m: True, limit=9)


@pytest.mark.parametrize("limit", ["30", True, 3.5, None], ids=["str", "bool", "float", "None"])
@pytest.mark.parametrize(
    "run",
    [
        lambda g, limit: state_polynomials(g, "matching", lambda m: (), limit),
        lambda g, limit: event_probability_oracle(g, "matching", ONE, lambda m: True, limit),
        lambda g, limit: edge_neighborhood_distribution(g, ONE, limit),
    ],
    ids=["state_polynomials", "oracle", "edge_law"],
)
def test_a_limit_that_is_no_int_raises(run, limit):
    # a bool would be read as 0 or 1, a float or a string compared as given
    with pytest.raises(DomainError, match=f"^limit {re.escape(repr(limit))} is not an int$"):
        run(hypercube(3), limit)


def test_only_enumerations_within_the_bound_are_kept(enumerations):
    assert polynomials._STATE_BOUND == 2**15
    kept = Graph(15)  # edgeless: exactly 2^15 independent sets
    total, _ = state_polynomials(kept, "hardcore", lambda s: ())
    assert total == IntPolynomial((1, 1)) ** 15
    assert polynomials._STATES["hardcore"].graph is kept
    big = Graph(16)  # 2^16 sets: counted as ever, and not kept
    for _ in range(2):
        total, by_size = state_polynomials(big, "hardcore", lambda s: [s.bit_count()])
        assert total == IntPolynomial((1, 1)) ** 16
        assert by_size[16] == IntPolynomial((0,) * 16 + (1,))
    assert polynomials._STATES["hardcore"].graph is kept
    assert enumerations["hardcore"] == 3


def test_kept_tables_hold_each_state_size_and_the_size_polynomial():
    from occufrac.corpus import regular_corpus

    for _, g in regular_corpus(12):
        if g.edge_count > 24:
            continue
        clear_memo_tables()
        state_polynomials(g, "hardcore", lambda s: ())
        state_polynomials(g, "matching", lambda m: ())
        ind, match = polynomials._STATES["hardcore"], polynomials._STATES["matching"]
        assert ind.graph == g and match.graph == g
        assert ind.total == independence_poly(g)
        assert match.total == matching_poly(g)
        assert list(ind.sizes) == [int.bit_count(s) for s in ind.masks]
        assert list(match.sizes) == [len(m) for m in match.sets]
        # a hard-core state's mask has bit v for vertex v; a matching's mask
        # has bit i for edge i of g.edges()
        assert list(ind.sets) == [frozenset(mask_vertices(mask)) for mask in ind.masks]
        edges = g.edges()
        assert list(match.masks) == [sum(1 << edges.index(e) for e in m) for m in match.sets]
    clear_memo_tables()


def _brute_probability(g, model, lam, predicate):
    # a Fraction sum over the states of a fresh enumeration, one by one
    if model == "hardcore":
        states = (frozenset(mask_vertices(mask)) for mask in reference_independent_sets(g))
    else:
        states = reference_matchings(g)
    hit = total = Fraction(0)
    for state in states:
        weight = lam ** len(state)
        total += weight
        if predicate(state):
            hit += weight
    return hit / total


def test_warm_event_oracle_equals_cold_and_brute_force(enumerations):
    k33 = Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    for g, lam in _law_cases() + [(k33, Fraction(3, 2))]:
        questions = [("hardcore", lambda s, v=v: v in s) for v in range(g.n)]
        questions += [("matching", lambda m, e=e: e in m) for e in g.edges()]
        cold = []
        for model, predicate in questions:
            clear_memo_tables()
            cold.append(event_probability_oracle(g, model, lam, predicate))
        clear_memo_tables()
        state_polynomials(g, "hardcore", lambda s: ())
        state_polynomials(g, "matching", lambda m: ())
        before = dict(enumerations)
        warm = [event_probability_oracle(g, model, lam, p) for model, p in questions]
        assert enumerations == before  # every warm answer read the kept tables
        assert warm == cold
        assert cold == [_brute_probability(g, model, lam, p) for model, p in questions]


def test_event_oracle_streams_enumerations_over_the_bound(enumerations):
    lam = Fraction(2, 3)
    occupied = lam / (1 + lam)  # of a vertex without neighbors, or of an isolated edge
    big = Graph(16)  # edgeless: 2^16 independent sets
    loose = Graph(32, [(2 * i, 2 * i + 1) for i in range(16)])  # 2^16 matchings
    for calls in (1, 2):
        assert event_probability_oracle(big, "hardcore", lam, lambda s: 0 in s) == occupied
        assert event_probability_oracle(loose, "matching", lam, lambda m: (0, 1) in m) == occupied
        assert polynomials._STATES == {}
        assert enumerations == {"hardcore": calls, "matching": calls}
    everything = event_probability_oracle(big, "hardcore", lam, lambda s: len(s) == 16)
    assert everything == occupied**16


def test_clear_memo_tables_drops_kept_states():
    state_polynomials(cycle(6), "hardcore", lambda s: ())
    state_polynomials(cycle(6), "matching", lambda s: ())
    assert polynomials._STATES
    clear_memo_tables()
    assert polynomials._STATES == {}


def test_clear_memo_tables_drops_and_frees_kept_recursions():
    from occufrac.hardcore import uncovered_count_distribution
    from occufrac.matching import edge_neighborhood_distribution

    uncovered_count_distribution(cycle(6), ONE)
    edge_neighborhood_distribution(cycle(6), ONE)
    kept = _kept_recursions()
    assert set(kept) == {"hardcore", "matching"} and all(poly.memo for poly in kept.values())
    clear_memo_tables()
    assert polynomials._RECURSIONS == {}
    assert all(not poly.memo for poly in kept.values())  # each closure refers to itself


def test_budgets_are_checked_before_any_subgraph_is_built(monkeypatch):
    def refuse(self, vertices):
        raise AssertionError("Graph.induced called before the budget check")

    monkeypatch.setattr(Graph, "induced", refuse)
    with pytest.raises(
        CapabilityError,
        match="^independence_poly budget is 30 vertices per component, got 32$",
    ):
        independence_poly(hypercube(5))
    with pytest.raises(
        CapabilityError,
        match="^matching_poly budget is 40 edges per component, got 45$",
    ):
        matching_poly(disjoint_union(complete(10), complete(11)))
