import itertools

import pytest

from loghurwitz import strata
from loghurwitz.cli import example_graphs
from loghurwitz.strata import (
    AS,
    FROB,
    GraphError,
    HurwitzData,
    LevelGraph,
    Marking,
    SourceEdge,
    SourceVertex,
    TargetEdge,
    TargetVertex,
    canonical_form,
    enumerate_components,
    generic_dimension,
    monoid_rank,
    stratum_dimension,
    validate,
)

A4 = HurwitzData(2, 1, 0, 4, (2, 2, 2, 2))


def test_hurwitz_datum():
    assert A4.rh_holds()
    assert A4.b == 4
    assert A4.errors() == []
    bad = HurwitzData(2, 2, 0, 4, (2, 2, 2, 2))
    assert not bad.rh_holds()
    mixed_xi = HurwitzData(2, 3, 0, 4, (2, 2, 2, 2), (1, 1, 1, 1), "mixed")
    assert "xi" in "".join(mixed_xi.errors())
    with pytest.raises(GraphError):
        HurwitzData(2, 1, 0, 4, (2, 2), regime="nonsense")


def test_generic_dimension():
    assert generic_dimension(A4) == 1
    Ae = HurwitzData(2, 3, 0, 4, (2, 2, 2, 2), (1, 1, 1, 1), "equicharacteristic")
    assert generic_dimension(Ae) == 5
    with pytest.raises(GraphError):
        generic_dimension(HurwitzData(2, 2, 0, 4, (2, 2, 2, 2)))


# -- the three degenerations of the worked genus-1 family ---------------------


def test_example_ledgers():
    two_level, three_level, horizontal = example_graphs()
    expected = [
        # (total, mod_as, mod_ex, mod_quex, e_d_hor, v_c_ex, rank)
        (1, 0, 0, 1, 0, 0, 1),
        (0, 0, 0, 0, 0, 1, 2),
        (0, 0, 0, 0, 1, 0, 2),
    ]
    for G, (total, mas, mex, mqu, hor, vex, rank) in zip(
        (two_level, three_level, horizontal), expected
    ):
        assert validate(G, A4).ok
        L = stratum_dimension(G, A4)
        assert (L.total, L.mod_as, L.mod_ex, L.mod_quex) == (total, mas, mex, mqu)
        assert (L.e_d_hor, L.v_c_ex) == (hor, vex)
        assert L.closed_form == total
        assert L.monoid_rank == rank
        assert L.monoid_free  # p = 2
        assert monoid_rank(G, A4) == (rank, True)


def test_ledger_contribution_labels():
    G = example_graphs()[1]
    L = stratum_dimension(G, A4)
    labels = [lab for lab, _ in L.contributions]
    assert any(lab.startswith("AS:") for lab in labels)
    assert any(lab.startswith("exact:") for lab in labels)
    assert sum(1 for lab in labels if lab.startswith("quasi-exact:")) == 2


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    for G in example_graphs():
        text = G.to_json()
        G2 = LevelGraph.from_json(text)
        assert G2.to_json() == text
        assert canonical_form(G2) == canonical_form(G)


def test_json_schema_errors():
    with pytest.raises(GraphError):
        LevelGraph.from_json("not json")
    with pytest.raises(GraphError):
        LevelGraph.from_json("{}")
    obj = example_graphs()[0].to_json_obj()
    obj["source"]["edges"][0]["v2"] = "missing"
    with pytest.raises(GraphError):
        LevelGraph.from_json_obj(obj)


def test_dot_output():
    dot = example_graphs()[2].to_dot()
    assert dot.startswith("digraph")
    assert "style=dashed" in dot  # horizontal edges
    assert "rank=same" in dot


# -- canonical labeling -------------------------------------------------------


def relabeled_three_level():
    return LevelGraph(
        2, "mixed",
        [SourceVertex("a", 0, -2, FROB, "ta"), SourceVertex("b", 0, -2, FROB, "tb"),
         SourceVertex("c", 1, 0, AS, "tc0"), SourceVertex("m", 0, -1, FROB, "tm")],
        [SourceEdge("x", "m", "a", 1, "fx"), SourceEdge("y", "c", "m", 3, "fy"),
         SourceEdge("z", "b", "m", 1, "fz")],
        [TargetVertex("ta", -2), TargetVertex("tb", -2),
         TargetVertex("tc0", 0), TargetVertex("tm", -1)],
        [TargetEdge("fx", "tm", "ta"), TargetEdge("fy", "tc0", "tm"),
         TargetEdge("fz", "tb", "tm")],
        [Marking("a", 2, 0, "q0"), Marking("a", 2, 0, "q1"),
         Marking("b", 2, 0, "q2"), Marking("b", 2, 0, "q3")],
    )


def test_canonical_form_invariant_under_relabeling():
    G = example_graphs()[1]
    assert canonical_form(relabeled_three_level()) == canonical_form(G)


def test_canonical_form_distinguishes_marking_split():
    G = example_graphs()[1]
    swapped = LevelGraph(
        2, "mixed", G.source_vertices, G.source_edges, G.target_vertices, G.target_edges,
        [Marking("v2", 2, 0, "q0"), Marking("v3", 2, 0, "q1"),
         Marking("v2", 2, 0, "q2"), Marking("v3", 2, 0, "q3")],
    )
    assert canonical_form(swapped) != canonical_form(G)


def test_monoid_rank_iso_invariant():
    assert monoid_rank(relabeled_three_level(), A4) == monoid_rank(example_graphs()[1], A4)


# -- validation rules ---------------------------------------------------------


def two_level(slope=3, genus=1, lam=2):
    return LevelGraph(
        2, "mixed",
        [SourceVertex("v0", genus, 0, AS, "d0"), SourceVertex("v1", 0, -1, FROB, "d1")],
        [SourceEdge("e0", "v0", "v1", slope, "f0")],
        [TargetVertex("d0", 0), TargetVertex("d1", -1)],
        [TargetEdge("f0", "d0", "d1")],
        [Marking("v1", lam, 0, f"q{i}") for i in range(4)],
    )


def test_validate_rejects_even_slope():
    rep = validate(two_level(slope=2), A4)
    assert not rep.ok
    rules = {e["rule"] for e in rep.errors}
    assert "as-balance" in rules or "slope" in rules


def test_validate_rejects_wrong_genus():
    rep = validate(two_level(genus=2), A4)
    assert not rep.ok
    assert "genus" in {e["rule"] for e in rep.errors}


def test_validate_rejects_bad_fiber():
    rep = validate(two_level(lam=1), A4)
    assert not rep.ok
    assert "markings" in {e["rule"] for e in rep.errors}


def test_validate_rejects_datum_mismatch():
    A_bad = HurwitzData(2, 1, 0, 4, (2, 2, 2, 2), regime="equicharacteristic")
    rep = validate(two_level(), A_bad)
    assert not rep.ok


def test_stratum_dimension_raises_on_invalid():
    with pytest.raises(GraphError):
        stratum_dimension(two_level(slope=2), A4)


def test_equicharacteristic_single_vertex():
    Ae = HurwitzData(2, 3, 0, 4, (2, 2, 2, 2), (1, 1, 1, 1), "equicharacteristic")
    G = LevelGraph(
        2, "equicharacteristic",
        [SourceVertex("v0", 3, 0, AS, "d0")], [],
        [TargetVertex("d0", 0)], [],
        [Marking("v0", 2, 1, f"q{i}") for i in range(4)],
    )
    assert validate(G, Ae).ok
    L = stratum_dimension(G, Ae)
    assert L.total == 5 == generic_dimension(Ae)
    assert L.monoid_rank == 0  # no horizontal edges, no exact levels, equichar


def test_slope_order_dictionary_identity():
    # ceil(l/p) + floor(l/(p(p-1))) = l/(p-1) for slopes divisible by p-1
    for p in (2, 3, 5):
        for l in range(p - 1, 20 * (p - 1), p - 1):
            assert -(-l // p) + l // (p * (p - 1)) == l // (p - 1)


# -- enumeration --------------------------------------------------------------


def test_enumerate_four_components():
    comps = enumerate_components(A4, max_vertices=6)
    assert len(comps) == 4
    # exactly one graph with a single bottom vertex (all four markings together)
    singles = [G for G in comps if len(G.source_vertices) == 2]
    assert len(singles) == 1
    for G in comps:
        assert validate(G, A4).ok
        L = stratum_dimension(G, A4)
        assert L.total == L.closed_form


def test_enumerate_empty_for_small_datum():
    A = HurwitzData(2, 0, 0, 2, (2, 2))
    assert enumerate_components(A, max_vertices=5) == []


def test_enumerate_rejects_unsupported():
    with pytest.raises(GraphError):
        enumerate_components(HurwitzData(3, 1, 0, 3, (3, 3, 2)), 5)
    with pytest.raises(GraphError):
        enumerate_components(
            HurwitzData(2, 3, 0, 4, (2, 2, 2, 2), (1, 1, 1, 1), "equicharacteristic"), 5
        )


def test_enumerate_deterministic():
    a = [G.to_json() for G in enumerate_components(A4, 6)]
    b = [G.to_json() for G in enumerate_components(A4, 6)]
    assert a == b


def test_enumerate_respects_max_vertices():
    assert len(enumerate_components(A4, max_vertices=2)) == 1


def test_enumerate_large_vertex_bound_is_cheap():
    # a bottom vertex carries at least two markings, so b = 4 allows two bottoms
    # whatever the bound; Pruefer decoding at n = 40 would never finish
    big = [G.to_json() for G in enumerate_components(A4, max_vertices=40)]
    assert big == [G.to_json() for G in enumerate_components(A4, max_vertices=6)]


# -- enumeration against the build-everything reference -----------------------


def reference_candidates(A, max_vertices):
    """Every raw candidate (t, genera, n, tree, slope, assignment), in generation order."""
    for t in range(1, A.h + 1):
        for genera in strata._compositions(A.h, t):
            for s in range(1, max_vertices - t + 1):
                n = t + s
                for tree in strata._labeled_trees(n):
                    if any((u < t) == (v < t) for u, v in tree):
                        continue
                    deg = [0] * n
                    incident = [[] for _ in range(n)]
                    for i, (u, v) in enumerate(tree):
                        deg[u] += 1
                        deg[v] += 1
                        incident[u].append(i)
                        incident[v].append(i)
                    if any(deg[v] > genera[v] + 1 for v in range(t)):
                        continue
                    slope_choices = [
                        list(strata._odd_compositions(2 * genera[v] + 2 - deg[v], deg[v]))
                        for v in range(t)
                    ]
                    for slopes_per_top in itertools.product(*slope_choices):
                        slope = [0] * len(tree)
                        for v in range(t):
                            for ei, sl in zip(incident[v], slopes_per_top[v]):
                                slope[ei] = sl
                        mark_counts = [2 + sum(slope[ei] - 1 for ei in incident[w]) for w in range(t, n)]
                        if sum(mark_counts) != A.b:
                            continue
                        for assignment in strata._partitions_into_sizes(list(range(A.b)), mark_counts):
                            yield t, genera, n, tree, slope, assignment


def reference_enumerate(A, max_vertices):
    """Build every candidate and keep the first of each canonical_form class."""
    seen = {}
    for cand in reference_candidates(A, max_vertices):
        G = strata._build_two_level(A, *cand)
        seen.setdefault(canonical_form(G), G)
    return [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("b", [4, 6])
@pytest.mark.parametrize("max_vertices", [4, 5, 6])
def test_enumerate_matches_reference(b, max_vertices):
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    got = [G.to_json() for G in enumerate_components(A, max_vertices)]
    assert got == [G.to_json() for G in reference_enumerate(A, max_vertices)]


def test_enumeration_bound_counts_every_raw_candidate(monkeypatch):
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)
    raw = sum(1 for _ in reference_candidates(A, 6))
    monkeypatch.setattr(strata, "MAX_ENUM_CANDIDATES", raw - 1)
    with pytest.raises(GraphError, match=str(raw - 1)):
        enumerate_components(A, 6)
    monkeypatch.setattr(strata, "MAX_ENUM_CANDIDATES", raw)
    assert len(enumerate_components(A, 6)) == 92


def test_iso_key_partition_equals_canonical_form():
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)
    key_to_canon, canon_to_key = {}, {}
    count = 0
    for t, genera, n, tree, slope, assignment in reference_candidates(A, 6):
        key = strata._iso_key(genera, tree, slope, assignment)
        canon = canonical_form(strata._build_two_level(A, t, genera, n, tree, slope, assignment))
        assert key_to_canon.setdefault(key, canon) == canon
        assert canon_to_key.setdefault(canon, key) == key
        count += 1
    assert len(key_to_canon) == 92 < count


def test_enumerated_classes_pairwise_non_isomorphic():
    nx = pytest.importorskip("networkx")
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)

    def to_nx(G):
        H = nx.Graph()
        for v in G.source_vertices:
            marks = tuple(i for i, m in enumerate(G.markings) if m.vertex == v.id)
            H.add_node(v.id, attrs=(v.level, v.genus, v.cover_type, marks))
        for e in G.source_edges:
            H.add_edge(e.v1, e.v2, slope=e.slope)
        return H

    graphs = [to_nx(G) for G in enumerate_components(A, 6)]
    assert len(graphs) == 92
    for G, H in itertools.combinations(graphs, 2):
        assert not nx.is_isomorphic(
            G, H,
            node_match=lambda a, b: a["attrs"] == b["attrs"],
            edge_match=lambda a, b: a["slope"] == b["slope"],
        )
