import hashlib
import random
import re
import sys
from collections import Counter, defaultdict

import pytest

from _oracles import (
    backtrack_orbit_of_zero,
    brute_canonical_bits,
    brute_edge_orbits,
    brute_orbits,
    disjoint_union,
    every_mask_classes,
    generator_edge_count,
    generator_induced,
    random_graph,
    random_regular_graph,
    reference_canonical_form,
    reference_leaf_certificates,
    relabel,
)
from occufrac import graphs, polynomials
from occufrac.errors import CapabilityError, CertificateError, DomainError, FormatError
from occufrac.graphs import (
    Graph,
    _canonical_form,
    automorphism_orbits,
    bipartition,
    canonical_key,
    complete,
    complete_bipartite,
    cycle,
    generate,
    hypercube,
    isomorphism_classes,
    is_vertex_transitive,
    kdd_union,
    mask_component,
    mask_components,
    mask_vertices,
    parse_edge_list,
    parse_graph6,
    parse_spec,
    petersen,
    prism,
    regular_degree,
    to_graph6,
)
from occufrac.hardcore import enumerate_configs
from occufrac.polynomials import clear_memo_tables


def test_parse_graph6_known_values():
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6("A?").edges() == []
    g = parse_graph6("C~")
    assert g.n == 4 and g.edge_count == 6


GRAPH6_ERRORS = {
    "": "empty graph6 string at byte offset 0",
    "~??": "long-format graph6 (n >= 63) not supported, header byte offset 0",
    "A": "graph6 body for n=2 needs 1 bytes, got 0 (byte offset 1)",
    "A_X": "graph6 body for n=2 needs 1 bytes, got 2 (byte offset 2)",
    # only ASCII whitespace is stripped: chr(30) is a header byte, not space
    chr(30) + "_": "bad graph6 header byte 30 at byte offset 0",
    chr(160) + "A_": "bad graph6 header byte 160 at byte offset 0",
    # offsets count from the start of the caller's string
    "  A_X": "graph6 body for n=2 needs 1 bytes, got 2 (byte offset 4)",
}


@pytest.mark.parametrize("bad", list(GRAPH6_ERRORS))
def test_parse_graph6_errors_name_offset(bad):
    with pytest.raises(FormatError) as err:
        parse_graph6(bad)
    assert str(err.value) == GRAPH6_ERRORS[bad]


def test_parse_graph6_strips_ascii_whitespace():
    assert parse_graph6("  A_") == parse_graph6("\tA_\r\n") == Graph(2, [(0, 1)])


def test_graph6_roundtrip_corpus():
    from occufrac.corpus import regular_corpus

    graphs = [
        cycle(5),
        hypercube(4),
        Graph(1),
        Graph(0),
    ] + [g for _, g in regular_corpus(12)]
    for g in graphs:
        assert parse_graph6(to_graph6(g)) == g


def test_parse_edge_list():
    assert parse_edge_list("2\n0 1") == Graph(2, [(0, 1)])
    assert parse_edge_list("3\n0 1\n1 2") == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("3\n0 0")
    with pytest.raises(FormatError, match="line 3"):
        parse_edge_list("3\n0 1\n1 0")
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("2\n0 5")


def test_edge_list_lines_end_at_newline_only():
    # line N of a message is line N of the file: NEL and form feed do not
    # end a line, and ASCII whitespace around a line (a CR included) goes
    assert parse_edge_list("3\r\n0 1\r\n\x0c\n1 2\t\r\n") == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(FormatError, match=r"^line 2: expected 'u v', got '0 1\\x851 1'$"):
        parse_edge_list("3\n0 1\x851 1")
    with pytest.raises(FormatError, match=r"^line 2: expected 'u v', got '0 1\\x0c1 2'$"):
        parse_edge_list("3\n0 1\x0c1 2")


@pytest.mark.parametrize(
    "lines, message",
    # numbers are ASCII digits after an optional "-", and only ASCII
    # whitespace separates a line's two vertices; the last line is the bad one
    [(("3", "+0 \u0661"), "line 2: non-integer vertex in {!r}"),
     (("3", "0 \u0661"), "line 2: non-integer vertex in {!r}"),
     (("3", "0 1_0"), "line 2: non-integer vertex in {!r}"),
     (("+3",), "line 1: bad vertex count {!r}"),
     (("1_0",), "line 1: bad vertex count {!r}"),
     (("\u0663",), "line 1: bad vertex count {!r}"),
     (("3", "0\u20031"), "line 2: expected 'u v', got {!r}"),
     (("3", "0\xa01"), "line 2: expected 'u v', got {!r}")],
)
def test_edge_list_numbers_are_ascii_integers(lines, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message.format(lines[-1]))}$"):
        parse_edge_list("\n".join(lines))


def test_generate_families():
    assert generate("kdd", 2) == complete_bipartite(2)
    g = generate("hdn", 2, 8)
    assert [len(c) for c in g.components()] == [4, 4]
    with pytest.raises(DomainError):
        generate("hdn", 2, 6)
    with pytest.raises(DomainError):
        generate("H", 2, 8)
    with pytest.raises(DomainError):
        generate("cycle", 2)
    with pytest.raises(DomainError):
        generate("nonsense", 1)
    assert generate("petersen").n == 10


def test_mask_components_partition_a_mask_into_ordered_components():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 16), rng.choice((0.08, 0.15, 0.3)))
        mask = rng.getrandbits(g.n)
        comps = list(mask_components(g.adj, mask))
        assert sum(comps) == mask  # pairwise disjoint and covering
        assert all(a & b == 0 for i, a in enumerate(comps) for b in comps[i + 1 :])
        lows = [c & -c for c in comps]
        assert lows == sorted(lows)
        for i, comp in enumerate(comps):
            # no edge leaves the component inside the mask
            others = mask & ~comp
            assert all(g.adj[v] & others == 0 for v in mask_vertices(comp))
            # and it is connected: a search from its lowest vertex reaches all
            reached = frontier = lows[i]
            while frontier:
                step = 0
                for v in mask_vertices(frontier):
                    step |= g.adj[v] & comp
                frontier = step & ~reached
                reached |= frontier
            assert reached == comp
    assert list(mask_components((), 0)) == []
    g = Graph(6, [(0, 3), (1, 4), (3, 5)])
    assert g.components() == [[0, 3, 5], [1, 4], [2]]
    # without vertex 3, its component falls apart
    assert list(mask_components(g.adj, 0b110111)) == [0b1, 0b10010, 0b100, 0b100000]


def test_edge_count_and_induced_match_the_generator_references():
    # induced on random vertex lists: subsets in shuffled order, a whole
    # permutation, and the empty list
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 16), rng.choice((0.1, 0.3, 0.6)))
        assert g.edge_count == generator_edge_count(g) == len(g.edges())
        for vertices in (
            rng.sample(range(g.n), rng.randint(0, g.n)),
            rng.sample(range(g.n), g.n),
            [],
        ):
            assert g.induced(vertices) == generator_induced(g, vertices)
            assert g.induced(iter(vertices)) == generator_induced(g, vertices)


def test_mask_component_stops_once_it_reaches_the_touch_set():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])  # a path of 4 beside one of 3
    full = (1 << 7) - 1
    assert mask_component(g.adj, full, 0b1) == full  # one vertex: nothing to search
    assert mask_component(g.adj, 0b1111, 0b1001) == 0b1111  # 0 reaches 3
    assert mask_component(g.adj, full, 0b10001) == 0b1111  # 0 cannot reach 4
    assert mask_component(g.adj, full & ~0b100, 0b1001) == 0b11  # nor 3 without 2

    read = []

    class Recorded(tuple):
        def __getitem__(self, v):
            read.append(v)
            return tuple.__getitem__(self, v)

    path = Recorded(Graph(10, [(v, v + 1) for v in range(9)]).adj)
    assert mask_component(path, (1 << 10) - 1, 0b110) == (1 << 10) - 1
    assert read == [1]  # vertex 1's neighbours include 2: no second level


def test_kdd_is_cycle4():
    assert canonical_key(complete_bipartite(2)) == canonical_key(cycle(4))


def test_canonical_key_distinguishes():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert canonical_key(p3) != canonical_key(complete(3))
    # same degree sequence, non-isomorphic: C6 vs two triangles
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_key(cycle(6)) != canonical_key(two_triangles)


def test_canonical_key_relabel_invariance():
    rng = random.Random(3)
    graphs = [
        petersen(),
        cycle(7),
        prism(4),
        complete_bipartite(3),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 5)]),
    ]
    for g in graphs:
        base = canonical_key(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == base


def test_canonical_key_capability_limit(monkeypatch):
    # the cap is checked before any search
    def refusing_form(g):
        raise AssertionError("canonical form searched above the cap")

    monkeypatch.setattr(graphs, "_canonical_form", refusing_form)
    with pytest.raises(
        CapabilityError, match="^canonical_key supports at most 10 vertices, got 11$"
    ):
        canonical_key(cycle(11))


def test_predicates_known_values():
    c6 = cycle(6)
    assert regular_degree(c6) == 2
    assert bipartition(c6) is not None
    assert is_vertex_transitive(c6)

    p = petersen()
    assert regular_degree(p) == 3
    assert bipartition(p) is None
    assert is_vertex_transitive(p)

    k4 = complete(4)
    assert regular_degree(k4) == 3
    assert bipartition(k4) is None


def test_vertex_transitivity_negative():
    path = Graph(3, [(0, 1), (1, 2)])
    assert not is_vertex_transitive(path)
    with pytest.raises(CapabilityError):
        is_vertex_transitive(cycle(17))


def test_bipartition_witness_is_proper():
    for g in (cycle(8), hypercube(3), kdd_union(2, 8), prism(6)):
        side0, side1 = bipartition(g)
        assert sorted(side0 + side1) == list(range(g.n))
        for u, v in g.edges():
            assert (u in side0) != (v in side0)


def test_complete_bipartite_regular_bipartite():
    for d in range(1, 6):
        g = complete_bipartite(d)
        assert regular_degree(g) == d
        assert bipartition(g) is not None


def test_class_counts_match_known_sequence():
    counts = [len(isomorphism_classes(n)) for n in range(8)]
    assert counts == [1, 1, 2, 4, 11, 34, 156, 1044]
    for n in range(8):
        assert isomorphism_classes(n)[0][1].edge_count == 0


def test_isomorphism_classes_domain_and_cap_messages():
    with pytest.raises(DomainError, match="^vertex count must be non-negative$"):
        isomorphism_classes(-1)
    with pytest.raises(
        CapabilityError, match="^isomorphism class enumeration capped at 7 vertices$"
    ):
        isomorphism_classes(8)


def test_isomorphism_classes_reject_a_non_int_vertex_count():
    # checked before the class table's cache, whose entries for 2 and 1
    # would answer for 2.0 and True
    isomorphism_classes(2)
    for bad in (2.0, True, "2"):
        with pytest.raises(DomainError, match=f"^vertex count {re.escape(repr(bad))} is not an int$"):
            isomorphism_classes(bad)


@pytest.mark.parametrize("n", range(8))
def test_isomorphism_classes_match_every_mask_growth(n):
    classes = isomorphism_classes(n)
    assert [key for key, _ in classes] == [key for key, _ in every_mask_classes(n)]
    for key, rep in classes:
        assert rep.n == n and _canonical_form(rep)[0] == key


def _moved(rep, rng):
    """rep relabelled by a seeded non-identity permutation that is not an
    automorphism, where one exists: the edgeless and complete graphs have
    none, and n <= 1 has no non-identity permutation at all."""
    n = rep.n
    if n < 2:
        return rep
    symmetric = rep.edge_count in (0, n * (n - 1) // 2)
    while True:
        perm = rng.sample(range(n), n)
        h = relabel(rep, perm)
        if h != rep or (symmetric and perm != list(range(n))):
            return h


def test_relabelled_representatives_key_to_their_class():
    # a representative and a relabelled copy of it have the class's key
    rng = random.Random(17)
    for n in range(8):
        for key, rep in isomorphism_classes(n):
            assert canonical_key(rep) == key
            h = _moved(rep, rng)
            assert canonical_key(h) == key == _canonical_form(h)[0]


def test_cold_configs_canonicalize_only_in_class_growth(monkeypatch):
    # every canonical form of a cold enumerate_configs(2..7) is class growth,
    # and class polynomials grow from their parents without a memo probe
    callers = Counter()
    probes = []
    original_form = graphs._canonical_form
    original_key = polynomials.canonical_key

    def counted_form(g, seen=None, seeds=()):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original_form(g, seen, seeds)

    def counted_key(g):
        probes.append(g.n)
        return original_key(g)

    monkeypatch.setattr(graphs, "_canonical_form", counted_form)
    monkeypatch.setattr(polynomials, "canonical_key", counted_key)
    clear_memo_tables()
    graphs._classes_and_automorphisms.cache_clear()
    enumerate_configs.cache_clear()
    for d in range(2, 8):
        enumerate_configs(d)
    assert callers == {"_classes_and_automorphisms": 1641}
    assert probes == []


def test_each_class_is_its_parent_plus_one_vertex():
    # the parent records that hardcore.enumerate_configs grows on
    assert graphs._classes_and_automorphisms(0)[2] == (None,)
    for n in range(1, 8):
        below = isomorphism_classes(n - 1)
        classes, _, parents = graphs._classes_and_automorphisms(n)
        assert len(parents) == len(classes)
        for (_, h), (i, mask) in zip(classes, parents):
            g = below[i][1]
            edges = g.edges() + [(w, n - 1) for w in mask_vertices(mask)]
            assert h == Graph(n, edges)


def test_cold_class_enumeration_canonicalizes_few_extensions(monkeypatch):
    # extending every class by every mask takes 11292 canonical forms; each
    # level reuses the automorphisms found with its representatives, so the
    # 209 classes on 0..6 vertices are not canonicalized a second time; the
    # 388 extensions of an already found class stop at their first leaf, so
    # only the 1253 classes on 0..7 vertices are searched in full
    calls = []
    forms = []
    refinements = []
    original = graphs._canonical_form
    original_refine = graphs._refine

    def counted(g, seen=None, seeds=()):
        calls.append(g.n)
        form = original(g, seen, seeds)
        if form is not None:
            forms.append(g.n)
        return form

    def counted_refine(adj, cells, splitters):
        refinements.append(len(adj))
        return original_refine(adj, cells, splitters)

    monkeypatch.setattr(graphs, "_canonical_form", counted)
    monkeypatch.setattr(graphs, "_refine", counted_refine)
    graphs._classes_and_automorphisms.cache_clear()
    assert len(isomorphism_classes(7)) == 1044
    assert len(calls) < 2500
    assert len(calls) == 1641
    # 8091 refinements unseeded; the parent's automorphisms seeded into
    # every level's searches prune the rest
    assert len(refinements) == 5240
    assert len(forms) == 1253
    assert Counter(forms) == {n: len(isomorphism_classes(n)) for n in range(8)}


def _growth_graphs(monkeypatch, passed=None):
    """Every graph that a cold class growth on 0..7 vertices canonicalizes,
    in the order it does so, and {n: the leaf certificates it keeps on n
    vertices} for n = 1..7; the one class on 0 vertices is searched alone.
    A list `passed` receives (graph, seeds) of each search, in order."""
    seen, kept = [], {}
    original = graphs._canonical_form

    def recorded(g, certificates=None, seeds=()):
        seen.append(g)
        if certificates is not None:
            kept[g.n] = certificates
        if passed is not None:
            passed.append((g, list(seeds)))
        return original(g, certificates, seeds)

    monkeypatch.setattr(graphs, "_canonical_form", recorded)
    graphs._classes_and_automorphisms.cache_clear()
    graphs._classes_and_automorphisms(7)
    monkeypatch.setattr(graphs, "_canonical_form", original)
    return seen, kept


def _is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        sum(1 << perm[w] for w in mask_vertices(row)) == g.adj[perm[v]]
        for v, row in enumerate(g.adj)
    )


def test_growth_seeds_every_level_and_only_with_automorphisms(monkeypatch):
    # each seed is a permutation mapping adj onto adj that fixes the new
    # vertex, and every level from 3 vertices up has seeded searches
    passed = []
    _growth_graphs(monkeypatch, passed)
    assert len(passed) == 1641
    seeded = Counter()
    for h, seeds in passed:
        for perm in seeds:
            assert _is_automorphism(h, perm) and perm[h.n - 1] == h.n - 1, (h, perm)
        seeded[h.n] += bool(seeds)
    assert all(seeded[n] > 0 for n in range(3, 8)), seeded


def test_growth_seeds_are_those_of_the_per_mask_filter(monkeypatch):
    # every level's seeds, read from the image tables, are the parent's
    # generators that map the new vertex's neighborhood onto itself, in order
    passed = []
    _growth_graphs(monkeypatch, passed)
    searches = Counter(h.n for h, _ in passed)
    assert searches == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 37, 6: 184, 7: 1401}
    for n in range(1, graphs.CLASS_LIMIT + 1):
        classes, generators, _ = graphs._classes_and_automorphisms(n - 1)
        parents = {rep: perms for (_, rep), perms in zip(classes, generators)}
        level = [(h, seeds) for h, seeds in passed if h.n == n]
        for h, seeds in level:
            mask = h.adj[n - 1]
            vs = mask_vertices(mask)
            expected = [
                perm + [n - 1]
                for perm in parents[h.induced(range(n - 1))]
                if sum(1 << perm[w] for w in vs) == mask
            ]
            assert seeds == expected, h
        assert n < 3 or sum(bool(seeds) for _, seeds in level) > 0, n


def test_mask_image_tables_map_every_mask():
    # every generator of every class that class growth extends, on every mask
    for n in range(graphs.CLASS_LIMIT):
        for perms in graphs._classes_and_automorphisms(n)[1]:
            for perm in perms:
                low, high = graphs._mask_images(perm)
                assert (len(low), len(high)) == (1 << n // 2, 1 << n - n // 2)
                for mask in range(1 << n):
                    image = low[mask & len(low) - 1] | high[mask >> n // 2]
                    assert image == sum(1 << perm[w] for w in mask_vertices(mask)), (perm, mask)


def _compare_seeded(g, seeds):
    plain, certificates = set(), set()
    form = _canonical_form(g, plain)
    seeded = _canonical_form(g, certificates, seeds)
    assert seeded[:2] == form[:2] and certificates == plain, (g, seeds)
    assert seeded[2][: len(seeds)] == list(seeds)


def test_seeded_growth_searches_find_what_unseeded_ones_do(monkeypatch):
    # every search of every level, in order and against its level's
    # certificates so far, stops or finishes as the unseeded search does,
    # with the same key, orbits and certificates
    passed = []
    _growth_graphs(monkeypatch, passed)
    assert len(passed) == 1641
    plain, certificates = defaultdict(set), defaultdict(set)
    for h, seeds in passed:
        form = _canonical_form(h, plain[h.n])
        seeded = _canonical_form(h, certificates[h.n], seeds)
        assert (seeded is None) == (form is None), h
        if form is not None:
            assert seeded[:2] == form[:2], h
        assert certificates[h.n] == plain[h.n], h
        _compare_seeded(h, seeds)


def test_searches_seeded_with_their_own_generators_are_unchanged():
    # random graphs, and symmetric ones shuffled, seeded with random subsets
    # of their generators in random order
    rng = random.Random(38)
    cases = [random_graph(rng, rng.randint(0, 10), rng.random()) for _ in range(300)]
    specs = ("petersen", "hypercube:3", "prism:5", "kdd:5", "cycle:10", "complete:6")
    cases += [_shuffled(parse_spec(spec)[1], rng) for spec in specs]
    for g in cases:
        generators = _canonical_form(g)[2]
        for _ in range(3):
            seeds = rng.sample(generators, rng.randint(0, len(generators)))
            _compare_seeded(g, seeds)


def test_canonical_form_matches_the_reference_search(monkeypatch):
    # the mask-split refinement and union-find orbits walk the same search
    # tree: the same key, orbit representatives and generators, in order
    rng = random.Random(24)
    cases, _ = _growth_graphs(monkeypatch)
    assert len(cases) == 1641
    for _ in range(4000):
        n = rng.randint(0, 16)
        cases.append(random_graph(rng, n, rng.random()))
    specs = ("petersen", "hypercube:4", "prism:8", "kdd:8", "cycle:16", "complete:9", "hdn:3:12")
    cases += [parse_spec(spec)[1] for spec in specs]
    for g in cases:
        assert _canonical_form(g) == reference_canonical_form(g), g


@pytest.mark.parametrize("n", range(8))
def test_visited_leaves_give_every_leaf_certificate_of_a_class(n):
    # automorphism pruning skips only images of visited leaves, so the full
    # search collects the certificates of the whole unpruned tree, under
    # any labelling, and finds what it finds without a set; C3 + C4 and its
    # complement are the only classes here with more than one certificate
    rng = random.Random(40 + n)
    for _, rep in isomorphism_classes(n):
        for h in (rep, _shuffled(rep, rng), _shuffled(rep, rng)):
            certificates = set()
            assert _canonical_form(h, certificates) == _canonical_form(h)
            assert certificates == reference_leaf_certificates(h), h


def test_visited_leaves_give_every_leaf_certificate_of_random_graphs():
    # random cubic graphs on 8 and 10 vertices often have several
    rng = random.Random(41)
    cases = [random_graph(rng, rng.randint(0, 7), rng.random()) for _ in range(300)]
    cases += [random_regular_graph(rng, n, 3) for n in (8, 10) for _ in range(20)]
    for g in cases:
        certificates = set()
        _canonical_form(g, certificates)
        assert certificates == reference_leaf_certificates(g), g


def test_relabelled_classes_stop_at_their_first_leaf(monkeypatch):
    # against the certificates its level kept, a relabelled representative
    # stops at its first leaf and adds nothing; against none it is searched
    # in full, and the classes' own sets are disjoint and make up the level's
    _, kept = _growth_graphs(monkeypatch)
    assert sorted(kept) == list(range(1, 8))
    rng = random.Random(19)
    for n in range(1, 8):
        level = set(kept[n])
        total = 0
        for key, rep in isomorphism_classes(n):
            h = _moved(rep, rng)
            assert _canonical_form(h, kept[n]) is None
            fresh = set()
            assert _canonical_form(h, fresh)[0] == key
            assert fresh <= level
            total += len(fresh)
        assert kept[n] == level and total == len(level)


def test_class_growth_output_is_pinned():
    # every key, representative, generator list and parent record of class
    # growth on 0..7 vertices, in order, as one digest; and the classes
    # alone, without the generators, which seeding may lengthen but never
    # lets change what is found
    digest, classes_digest = hashlib.sha256(), hashlib.sha256()
    for n in range(8):
        classes, generators, parents = graphs._classes_and_automorphisms(n)
        for (key, rep), perms, parent in zip(classes, generators, parents):
            record = (n, key.hex(), rep.edges(), [list(p) for p in perms], parent)
            digest.update(repr(record).encode())
            classes_digest.update(repr((n, key.hex(), rep.edges(), parent)).encode())
    assert digest.hexdigest() == (
        "71d74270e58fd985e515cb2f365633b60af190d06ed712d09c332812989681fb"
    )
    assert classes_digest.hexdigest() == (
        "f58355cf95432f1c962ec03a7ee9f7082f5252343da6245f7225d17724bdf972"
    )


@pytest.mark.parametrize("n", range(7))
def test_least_degree_masks_accept_the_least_degree_masks(n):
    # masks that give the new vertex minimum degree in the extended graph,
    # tested vertex by vertex, against the two masks per mask size; with no
    # automorphisms every accepted mask is its own orbit
    for _, g in isomorphism_classes(n):
        degrees = [g.degree(w) for w in range(n)]

        def least_degree(mask):
            k = mask.bit_count()
            return all(k <= deg + (mask >> w & 1) for w, deg in enumerate(degrees))

        accepted = [mask for mask in range(1 << n) if least_degree(mask)]
        assert graphs._mask_orbit_reps(n, [], *graphs._least_degree_masks(g.adj)) == accepted


def _labelled_graphs(n):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


@pytest.mark.parametrize("n", range(6))
def test_canonical_key_agrees_with_brute_force_minimum(n):
    # equal keys iff equal minima over all relabelings, on every labelled graph
    pairs = {(brute_canonical_bits(g), canonical_key(g)) for g in _labelled_graphs(n)}
    assert len({b for b, _ in pairs}) == len({k for _, k in pairs}) == len(pairs)


def _decode_key(key):
    n = key[0]
    bits = int.from_bytes(key[1:], "big")
    nbits = n * (n - 1) // 2
    bits >>= 8 * len(key[1:]) - nbits
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [e for k, e in enumerate(pairs) if bits >> (nbits - 1 - k) & 1])


def test_canonical_key_is_an_upper_triangle_of_a_relabeling():
    # the vertex count byte, then the column-wise upper-triangle bits
    rng = random.Random(5)
    for n in range(8):
        assert canonical_key(Graph(n)) == bytes([n]) + bytes((n * (n - 1) // 2 + 7) // 8)
    for n in range(2, 7):
        for _ in range(20):
            g = Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
            h = _decode_key(canonical_key(g))
            assert brute_canonical_bits(h) == brute_canonical_bits(g)
            assert canonical_key(h) == canonical_key(g)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_canonical_key_relabel_invariance_up_to_the_limit():
    rng = random.Random(11)
    graphs = [
        Graph(10),
        complete(10),
        complete_bipartite(5),
        petersen(),
        cycle(10),
        prism(5),
        disjoint_union(cycle(5), cycle(5)),
    ] + [random_regular_graph(rng, 10, 3) for _ in range(10)]
    for g in graphs:
        base = canonical_key(g)
        for _ in range(20):
            assert canonical_key(_shuffled(g, rng)) == base
    assert canonical_key(petersen()) != canonical_key(prism(5))
    assert canonical_key(cycle(10)) != canonical_key(disjoint_union(cycle(5), cycle(5)))


@pytest.mark.parametrize("n", range(8))
def test_orbits_match_brute_force(n):
    rng = random.Random(n)
    for _, g in isomorphism_classes(n):
        h = _shuffled(g, rng)
        assert _canonical_form(h)[1] == brute_orbits(h)


def _counted(reps):
    return tuple(sorted(Counter(reps).items()))


@pytest.mark.parametrize("n", range(8))
def test_automorphism_orbits_match_brute_force(n):
    rng = random.Random(n)
    for _, g in isomorphism_classes(n):
        h = _shuffled(g, rng)
        assert automorphism_orbits(h) == (
            _counted(brute_orbits(h)),
            _counted(brute_edge_orbits(h)),
        ), h


def test_automorphism_orbits_of_named_graphs():
    # K_{3,3} beside Q3: two vertex orbits and two edge orbits; a path: the
    # middle edge is its own orbit
    assert automorphism_orbits(disjoint_union(complete_bipartite(3), hypercube(3))) == (
        ((0, 6), (6, 8)),
        (((0, 3), 9), ((6, 7), 12)),
    )
    assert automorphism_orbits(Graph(4, [(0, 1), (1, 2), (2, 3)])) == (
        ((0, 2), (1, 2)),
        (((0, 1), 2), ((1, 2), 1)),
    )
    assert automorphism_orbits(Graph(0)) == ((), ())


@pytest.mark.parametrize(
    "bad", [[1, 0, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5]], ids=["non-automorphism", "non-bijection"]
)
def test_automorphism_orbits_reject_a_bad_generator(monkeypatch, bad):
    # swapping 0 and 1 of the 6-cycle is no automorphism; a map that sends
    # two vertices to one is no permutation
    original = graphs._canonical_form

    def corrupted(g):
        key, reps, automorphisms = original(g)
        return key, reps, automorphisms + [bad]

    clear_memo_tables()  # the orbits of a graph searched before are kept
    monkeypatch.setattr(graphs, "_canonical_form", corrupted)
    with pytest.raises(CertificateError, match="is not an automorphism"):
        automorphism_orbits(cycle(6))


@pytest.mark.parametrize("n", range(8))
def test_canonical_form_generators_are_automorphisms(n):
    # the orbit filter of isomorphism_classes extends one mask per orbit of
    # these generators, so each must map edges onto edges
    rng = random.Random(n)
    for _, g in isomorphism_classes(n):
        for h in (g, _shuffled(g, rng), _shuffled(g, rng)):
            for perm in _canonical_form(h)[2]:
                assert sorted(perm) == list(range(n))
                assert all(h.has_edge(perm[u], perm[v]) for u, v in h.edges())


def test_orbits_agree_with_backtracking_search():
    from occufrac.corpus import transitive_bipartite_corpus

    graphs = [g for _, g in transitive_bipartite_corpus()] + [hypercube(4), petersen()]
    graphs += [Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), disjoint_union(prism(3), cycle(3))]
    for g in graphs:
        orbit_of_zero = [v for v, r in enumerate(_canonical_form(g)[1]) if r == 0]
        assert orbit_of_zero == backtrack_orbit_of_zero(g)


def _shrikhande():
    # Cayley graph of Z4 x Z4 with connection set {±(0,1), ±(1,0), ±(1,1)}
    steps = ((0, 1), (1, 0), (1, 1))
    edges = [
        (4 * a + b, 4 * ((a + s) % 4) + (b + t) % 4)
        for a in range(4)
        for b in range(4)
        for s, t in steps
    ]
    return Graph(16, edges)


def test_orbit_pruning_keeps_the_shrikhande_graph_transitive():
    # srg(16,6,2,2): every pair of vertices has two common neighbours, so
    # refinement gives the search little to go on and the verdict rests on
    # pruning siblings by automorphisms. Pruning by automorphisms that do
    # not fix the path so far skips whole orbits: it judged 6 of these 50
    # labellings not transitive.
    g = _shrikhande()
    assert regular_degree(g) == 6
    assert all((g.adj[u] & g.adj[v]).bit_count() == 2 for v in range(16) for u in range(v))
    rng = random.Random(0)
    for _ in range(50):
        assert is_vertex_transitive(_shuffled(g, rng))


def test_hypercube_prism():
    assert regular_degree(hypercube(3)) == 3
    assert regular_degree(prism(5)) == 3
    assert prism(4).n == 8


def test_graph_is_immutable_and_hashable():
    g = cycle(4)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError, match="^Graph is immutable$"):
        del g.adj
    assert g == cycle(4)
    assert hash(g) == hash(cycle(4))
    assert g in {cycle(4)}


def test_graph_rejects_bad_edges():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 5)])
    with pytest.raises(DomainError):
        Graph(-1)


def test_kdd_union_recognizer():
    from occufrac.corpus import is_kdd_union

    assert is_kdd_union(complete_bipartite(3), 3)
    assert is_kdd_union(kdd_union(2, 12), 2)
    assert is_kdd_union(cycle(4), 2)  # C4 is K_{2,2}
    assert not is_kdd_union(cycle(8), 2)
    assert not is_kdd_union(cycle(6), 2)
    assert not is_kdd_union(complete(4), 3)
    assert not is_kdd_union(complete_bipartite(3), 2)


def test_parse_graph6_rejects_nonzero_padding():
    # n=3 uses 3 data bits; the trailing 3 bits must be zero
    with pytest.raises(FormatError, match="padding"):
        parse_graph6("B~")
