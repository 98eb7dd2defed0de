"""The bundled corpora pinned as literal data, and the K_{d,d}-union
recognizer against its definition by induced subgraphs."""

import pytest

from occufrac import corpus
from occufrac.graphs import bipartition, kdd_union, regular_degree, to_graph6

# every bundled graph by its short name; a name means the same graph in
# every corpus
GRAPH6 = {
    "C3": "Bw",
    "C4": "Cl",
    "C5": "Dhc",
    "C6": "EhEG",
    "C7": "FhCKG",
    "C8": "GhCGKC",
    "C9": "HhCGGE@",
    "C10": "IhCGGC@_G",
    "C11": "JhCGGC@?K?_",
    "C12": "KhCGGC@?G?o@",
    "C13": "LhCGGC@?G?_@_@",
    "C14": "MhCGGC@?G?_@?@_?_",
    "C15": "NhCGGC@?G?_@?@??o?G",
    "C16": "OhCGGC@?G?_@?@??_?K?@",
    "prism3": "E{Sw",
    "prism4": "Gl`HGs",
    "prism5": "IheAHCPBG",
    "prism6": "KhEKAC`CGO_p",
    "prism7": "MhCKK@@GG_`@@@?o_",
    "prism8": "OhCGKE?OH?a@A@@?_OGB@",
    "Q3": "Gr`HOk",
    "Q4": "Or`HOm?OH@ABAG@C_POAJ",
    "petersen": "IheA@GUAo",
    "K4": "C~",
    "K5": "D~{",
    "K6": "E~~w",
    "K22": "C]",
    "K33": "EFz_",
    "K44": "G?~vf_",
    "K55": "I?B~vrw}?",
    "K66": "K??F~z{~Fw^_",
    "K77": "M???F~}~f{^o~_~_?",
    "K88": "O????B~~v}^w~o~o^wF}?",
    "H2_8": "G]??WW",
    "H2_12": "K]??WW???@_E",
    "H2_16": "O]??WW???@_E??????W?E",
    "H3_12": "KFz_????wF?[",
}

CORPORA = {
    "regular_corpus(8)": (
        lambda: corpus.regular_corpus(8),
        "C3 C4 C5 C6 C7 C8 prism3 prism4 Q3 K4 K5 K6 K22 K33 K44 H2_8",
    ),
    "regular_corpus(10)": (
        lambda: corpus.regular_corpus(10),
        "C3 C4 C5 C6 C7 C8 C9 C10 prism3 prism4 prism5 Q3 petersen K4 K5 K6"
        " K22 K33 K44 K55 H2_8",
    ),
    "regular_corpus(12)": (
        lambda: corpus.regular_corpus(12),
        "C3 C4 C5 C6 C7 C8 C9 C10 C11 C12 prism3 prism4 prism5 prism6 Q3 petersen"
        " K4 K5 K6 K22 K33 K44 K55 K66 H2_8 H2_12 H3_12",
    ),
    "regular_corpus(16)": (
        lambda: corpus.regular_corpus(16),
        "C3 C4 C5 C6 C7 C8 C9 C10 C11 C12 C13 C14 C15 C16 prism3 prism4 prism5"
        " prism6 prism7 prism8 Q3 Q4 petersen K4 K5 K6 K22 K33 K44 K55 K66 K77 K88"
        " H2_8 H2_12 H3_12",
    ),
    "transitive_bipartite_corpus()": (
        corpus.transitive_bipartite_corpus,
        "C6 C8 C10 C12 K22 K33 K44 Q3 Q4 prism4 prism6",
    ),
    "bipartite_correlation_corpus(12)": (
        lambda: corpus.bipartite_correlation_corpus(12),
        "C4 C6 C8 C10 C12 prism4 prism6 Q3 K22 K33 K44 K55 K66 H2_8 H2_12 H3_12",
    ),
    "given_size_corpus()": (
        corpus.given_size_corpus,
        "C4 C8 C12 C16 H2_8 H2_12 H2_16 prism3 prism6 K33 H3_12 K44 K55 K66",
    ),
}


@pytest.mark.parametrize("which", list(CORPORA))
def test_bundled_corpus_is_pinned(which):
    build, names = CORPORA[which]
    named = build()
    assert [name for name, _ in named] == names.split()
    assert [to_graph6(g) for _, g in named] == [GRAPH6[name] for name, _ in named]


def _kdd_union_by_subgraphs(g, d):
    """Every component, as an induced subgraph, has 2d vertices and is
    bipartite, in a d-regular graph."""
    if regular_degree(g) != d:
        return False
    for comp in g.components():
        sub = g.induced(comp)
        if sub.n != 2 * d or bipartition(sub) is None:
            return False
    return True


def test_kdd_union_recognizer_matches_its_definition_by_subgraphs():
    graphs = [g for _, g in corpus.regular_corpus(16)]
    graphs += [kdd_union(d, 2 * d * k) for d in range(1, 5) for k in (1, 2, 3)]
    hits = 0
    for g in graphs:
        for d in range(9):
            expected = _kdd_union_by_subgraphs(g, d)
            assert corpus.is_kdd_union(g, d) == expected
            hits += expected
    # K22..K88, C4 (= K22), H2_8, H2_12, H3_12 and the 12 unions above
    assert hits == 23
