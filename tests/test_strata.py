import ast
import gc
import itertools
import json
import pathlib
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest

from loghurwitz import strata
from loghurwitz.cli import example_graphs
from loghurwitz.strata import (
    AS,
    ETALE,
    FROB,
    GraphError,
    HurwitzData,
    LevelGraph,
    Marking,
    SourceEdge,
    SourceVertex,
    StratumLedger,
    TargetEdge,
    TargetVertex,
    ValidationReport,
    _monoid,
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


def test_integral_numbers_in_graph_fields_are_read_as_integers():
    """A number with no fractional part reads as that integer; test_cli refuses a fraction and a bool."""
    G = example_graphs()[0]
    obj = G.to_json_obj()
    obj["p"], obj["source"]["edges"][0]["slope"], obj["markings"][0]["xi"] = 2.0, float(G.source_edges[0].slope), 0.0
    assert LevelGraph.from_json_obj(obj).to_json() == G.to_json()


@pytest.mark.parametrize("name", ["p", "regime", "source_vertices", "source_edges", "target_vertices", "target_edges"])
def test_frame_records_are_read_only(name):
    """A class shares its frame's records with its siblings, so none can be set or deleted through it."""
    G = example_graphs()[0]
    assert validate(G, A4).ok
    before = G.to_json(), G.to_dot(), getattr(G, name)
    changed = {"p": 3, "regime": "equicharacteristic", "source_edges": (G.source_edges[0]._replace(slope=4),)}
    with pytest.raises(AttributeError):
        setattr(G, name, changed.get(name, ()))
    with pytest.raises(AttributeError):
        delattr(G, name)
    assert (G.to_json(), G.to_dot(), getattr(G, name)) == before
    assert validate(G, A4).ok and validate(LevelGraph.from_json(G.to_json()), A4).ok


def test_duplicate_ids_raise_in_order():
    """Each kind of duplicate id has its message; of several kinds, the first in this order is reported."""
    kinds = [("source", "vertices", "source vertex"), ("target", "vertices", "target vertex"),
             ("source", "edges", "source edge"), ("target", "edges", "target edge")]
    for first in range(len(kinds)):
        obj = example_graphs()[0].to_json_obj()
        for side, part, _ in kinds[first:]:
            obj[side][part].append(dict(obj[side][part][0]))
        with pytest.raises(GraphError) as exc:
            LevelGraph.from_json_obj(obj)
        assert str(exc.value) == f"malformed level graph JSON: duplicate {kinds[first][2]} id"


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


def test_validate_names_each_frobenius_end_of_an_edge_once():
    """e1 of the three-level graph joins two Frobenius vertices: slope 2 gives one error per end, lower end first."""
    G = example_graphs()[1]
    edges = [SourceEdge(e.id, e.v1, e.v2, 2, e.image) if e.id == "e1" else e for e in G.source_edges]
    bad = LevelGraph(G.p, G.regime, G.source_vertices, edges, G.target_vertices, G.target_edges, G.markings)
    rep = validate(bad, A4)
    frob = [e["detail"] for e in rep.errors if "is 0 mod p" in e["detail"]]
    assert frob == ["edge e1: slope 2 is 0 mod p at Frobenius vertex v2", "edge e1: slope 2 is 0 mod p at Frobenius vertex v1"]
    assert rep.errors == reference_validate(bad, A4).errors


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


def test_enumerate_rejects_a_datum_that_fails_its_checks():
    """Data that HurwitzData.errors() refuses raise with the joined errors, as generic_dimension does."""
    for A in (HurwitzData(2, 2, 0, 4, (2, 2, 2, 2)), HurwitzData(2, 1, 0, 4, (2, 2, 2, 2), (1, 1, 1, 1))):
        assert A.errors()
        with pytest.raises(GraphError) as info:
            enumerate_components(A, max_vertices=6)
        assert str(info.value) == "; ".join(A.errors())
        with pytest.raises(GraphError, match=re.escape(str(info.value))):
            generic_dimension(A)


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


# -- classes that share their shape's frame ------------------------------------


@pytest.mark.parametrize("b", [4, 6, 8])
def test_shared_frame_classes_answer_as_their_json_copies(b):
    """Every query gives the same answer on an enumerated class as on the graph its JSON builds afresh."""
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    mismatched = HurwitzData(2, A.h + 1, 0, b, (2,) * (b - 1) + (1,))
    queries = [
        LevelGraph.to_json, LevelGraph.to_dot, canonical_form, LevelGraph.marking_groups,
        lambda G: validate(G, A).errors, lambda G: validate(G, mismatched).errors,
        lambda G: vars(stratum_dimension(G, A)), lambda G: monoid_rank(G, A),
    ]
    for G in enumerate_components(A, 6):
        answers = [query(G) for query in queries]
        assert answers[5]  # the mismatched datum takes the error path
        assert answers == [query(LevelGraph.from_json(G.to_json())) for query in queries]


def test_enumerated_list_retains_under_2_kb_a_class():
    """Classes share their shape's frame: at b = 8 the list held about 6.8 KB a class when each built its own."""
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        comps = enumerate_components(A, 6)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(comps) == 3510
    assert retained / len(comps) <= 2048


def test_with_markings_checks_markings_as_init_does():
    G = example_graphs()[0]
    bad = [*G.markings[:3], Marking("v9", 2, 0, "q3")]
    with pytest.raises(GraphError) as by_init:
        LevelGraph(G.p, G.regime, G.source_vertices, G.source_edges, G.target_vertices, G.target_edges, bad)
    with pytest.raises(GraphError) as by_frame:
        G._with_markings(bad)
    assert str(by_frame.value) == str(by_init.value) == "marking on unknown vertex v9"
    moved = [G.markings[0]._replace(vertex="v0"), *G.markings[1:]]
    H = G._with_markings(moved)
    assert H._frame is G._frame
    fresh = LevelGraph(G.p, G.regime, G.source_vertices, G.source_edges, G.target_vertices, G.target_edges, moved)
    assert (H.markings, H._marks_at) == (fresh.markings, fresh._marks_at)
    assert H._marks_at == {"v0": (0,), "v1": (1, 2, 3)}
    assert G._marks_at == {"v0": (), "v1": (0, 1, 2, 3)} and not hasattr(G, "__dict__")
    for K in (G, H):  # to_json writes the frame's shared text after the markings
        assert K.to_json() == json.dumps(K.to_json_obj(), sort_keys=True, separators=(",", ":"))


def test_enumeration_validates_every_class(monkeypatch):
    calls = []

    def counted(G, A):
        calls.append(G)
        return validate(G, A)

    monkeypatch.setattr(strata, "validate", counted)
    comps = enumerate_components(HurwitzData(2, 2, 0, 6, (2,) * 6), 6)
    assert len(calls) == len(comps) == 92 and {id(G) for G in calls} == {id(G) for G in comps}

    def failing(G, A):
        report = validate(G, A)
        report.add("test", "rejected")
        return report

    monkeypatch.setattr(strata, "validate", failing)
    with pytest.raises(GraphError, match="generated an invalid level graph"):
        enumerate_components(A4, 6)


# -- enumeration against the build-everything reference -----------------------


def test_compositions_list_every_tuple_of_allowed_summands_in_order():
    """_compositions(total, parts, step) against the lexicographic product of the summands 1, 1 + step, ..."""
    for step, top in ((1, 12), (2, 24)):
        for parts in range(5):
            tuples = list(itertools.product(range(1, top + 1, step), repeat=parts))
            for total in range(top + 1):
                assert list(strata._compositions(total, parts, step)) == [c for c in tuples if sum(c) == total]


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
                        list(strata._compositions(2 * genera[v] + 2 - deg[v], deg[v], step=2))
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


# One two-level candidate as its own graph, from public constructors alone: the
# keyed reference below builds every raw candidate with it.
def _build_two_level(A, t, genera, n, tree, slope, assignment):
    vname = [f"v{v}" for v in range(n)]
    dname = [f"d{v}" for v in range(n)]
    svs = []
    tvs = []
    for v in range(n):
        level = 0 if v < t else -1
        ct = AS if v < t else FROB
        genus = genera[v] if v < t else 0
        svs.append(SourceVertex(vname[v], genus, level, ct, dname[v]))
        tvs.append(TargetVertex(dname[v], level))
    ses = []
    tes = []
    for i, (u, v) in enumerate(tree):
        fname = f"f{i}"
        ses.append(SourceEdge(f"e{i}", vname[u], vname[v], slope[i], fname))
        tes.append(TargetEdge(fname, dname[u], dname[v]))
    marks = [None] * A.b
    for wi, idxs in enumerate(assignment):
        for mi in idxs:
            marks[mi] = Marking(vname[t + wi], 2, 0, f"q{mi}")
    return LevelGraph(A.p, A.regime, svs, ses, tvs, tes, marks)


def test_enumeration_bound_counts_every_raw_candidate(monkeypatch):
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)
    raw = sum(1 for _ in reference_candidates(A, 6))
    monkeypatch.setattr(strata, "MAX_ENUM_CANDIDATES", raw - 1)
    with pytest.raises(GraphError, match=str(raw - 1)):
        enumerate_components(A, 6)
    monkeypatch.setattr(strata, "MAX_ENUM_CANDIDATES", raw)
    assert len(enumerate_components(A, 6)) == 92


def _iso_key(genera, tree, slope, assignment):
    """Isomorphism class of the two-level candidate built by _build_two_level.

    Complete invariant: every bottom vertex w carries m_w = 2 + sum(slope - 1)
    >= 2 labeled markings, and markings are never permuted, so every
    isomorphism fixes each bottom vertex, which is named by its marking
    block.  In a tree a top vertex is then fixed up to swapping by
    (genus, sorted (block, slope) over its edges), so the sorted tuple of
    these top signatures is complete.
    """
    t = len(genera)
    tops = [[g] for g in genera]
    for ei, (u, v) in enumerate(tree):
        top, bottom = (u, v) if u < t else (v, u)
        tops[top].append((assignment[bottom - t], slope[ei]))
    return tuple(sorted((sig[0], *sorted(sig[1:])) for sig in tops))


def reference_keyed_enumerate(A, max_vertices):
    """The keyed loop: the first raw candidate of each _iso_key class, sorted by canonical_form.

    reference_candidates takes genera before s, where enumerate_components
    takes s first; a class has one (t, s), so each class's first candidate
    is the same in both orders.
    """
    reps = {}
    for cand in reference_candidates(A, max_vertices):
        t, genera, n, tree, slope, assignment = cand
        key = _iso_key(genera, tree, slope, assignment)
        if key not in reps:
            reps[key] = _build_two_level(A, *cand)
    return sorted(reps.values(), key=canonical_form)


@pytest.mark.parametrize(
    "b, max_vertices", [(b, mv) for b in (4, 6) for mv in range(2, 8)] + [(8, 6)]
)
def test_enumerate_matches_keyed_reference(b, max_vertices):
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    got = [G.to_json() for G in enumerate_components(A, max_vertices)]
    assert got == [G.to_json() for G in reference_keyed_enumerate(A, max_vertices)]


@pytest.mark.parametrize("b", [4, 6])
@pytest.mark.parametrize("max_vertices", [4, 5, 6])
def test_enumerate_matches_reference(b, max_vertices):
    """The first raw candidate of each brute_force_canonical_form class, sorted by that key.

    This reference reads neither the package's canonical_form nor _iso_key, so
    it checks the classes and their order independently of both.
    """
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    reps = {}
    for cand in reference_candidates(A, max_vertices):
        G = _build_two_level(A, *cand)
        reps.setdefault(brute_force_canonical_form(G), G)
    got = [G.to_json() for G in enumerate_components(A, max_vertices)]
    assert got == [reps[key].to_json() for key in sorted(reps)]


def test_shape_symmetry_and_orbit_least():
    # a genus-2 top joined to three bottoms by slope 1: every bottom permutation is an automorphism
    tree, slope = [(0, 1), (0, 2), (0, 3)], [1, 1, 1]
    key, perms = strata._shape_symmetry(1, 4, (2,), tree, slope)
    assert perms == set(itertools.permutations(range(3))) - {(0, 1, 2)}
    assert strata._shape_symmetry(1, 4, (2,), [(3, 0), (0, 1), (2, 0)], slope)[0] == key
    kept = list(strata._orbit_least(6, [2, 2, 2], perms))
    first = {}
    for assignment in strata._partitions_into_sizes(range(6), [2, 2, 2]):
        first.setdefault(_iso_key((2,), tree, slope, assignment), assignment)
    assert kept == list(first.values()) and len(kept) == 15  # the set partitions of 6 into pairs
    # two genus-1 tops on one bottom, and a genus-1 top on two bottoms
    assert strata._shape_symmetry(2, 3, (1, 1), [(0, 2), (1, 2)], [3, 3])[1] == set()
    key2, perms2 = strata._shape_symmetry(1, 3, (1,), [(0, 1), (2, 0)], [1, 1])
    assert perms2 == {(1, 0)} and key2 != key
    assert list(strata._orbit_least(4, [2, 2], perms2)) == [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    assert len(list(strata._orbit_least(4, [2, 2], set()))) == 6


def test_iso_key_partition_equals_canonical_form():
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)
    key_to_canon, canon_to_key = {}, {}
    count = 0
    for t, genera, n, tree, slope, assignment in reference_candidates(A, 6):
        key = _iso_key(genera, tree, slope, assignment)
        canon = canonical_form(_build_two_level(A, t, genera, n, tree, slope, assignment))
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


# -- canonical_form against the brute-force minimum -----------------------------


def reference_encode(G, sigma):
    """The encoding canonical_form minimises, written out plainly."""
    verts = tuple(
        (sigma[v.id], -v.level, v.genus, v.cover_type)
        for v in sorted(G.source_vertices, key=lambda v: sigma[v.id])
    )
    edge_reps = {}
    for e in G.source_edges:
        a, b = sigma[e.v1], sigma[e.v2]
        edge_reps[e.id] = (min(a, b), max(a, b), e.slope)
    edges = tuple(sorted(edge_reps.values()))
    vgroups = {}
    for v in G.source_vertices:
        vgroups.setdefault(v.image, []).append(sigma[v.id])
    vgrouping = tuple(sorted(tuple(sorted(g)) for g in vgroups.values()))
    egroups = {}
    for e in G.source_edges:
        egroups.setdefault(e.image, []).append(edge_reps[e.id])
    egrouping = tuple(sorted(tuple(sorted(g)) for g in egroups.values()))
    marks = tuple((sigma[m.vertex], m.lam, m.xi) for m in G.markings)
    mgroups = {}
    for i, m in enumerate(G.markings):
        mgroups.setdefault(m.image, []).append(i)
    mgrouping = tuple(sorted(tuple(g) for g in mgroups.values()))
    return (verts, edges, vgrouping, egrouping, marks, mgrouping)


def invariant_classes(G):
    """The vertex ids grouped by invariant, in invariant order, each group in source_vertices order."""
    invariants = {}
    for v in G.source_vertices:
        slopes = []
        for e in G.edges_at(v.id):
            if G.is_horizontal(e):
                slopes.append((0, 0))
            else:
                down, up = G.edge_down_up(e)
                slopes.append((1 if up.id == v.id else -1, e.slope))
        marks = tuple(i for i, m in enumerate(G.markings) if m.vertex == v.id)
        invariants[v.id] = (-v.level, v.genus, v.cover_type, tuple(sorted(slopes)), marks)
    classes = {}
    for v in G.source_vertices:
        classes.setdefault(invariants[v.id], []).append(v.id)
    return [ids for _, ids in sorted(classes.items())]


def brute_force_canonical_form(G):
    """The minimum of reference_encode over every permutation within every invariant class."""
    perms = [list(itertools.permutations(ids)) for ids in invariant_classes(G)]
    return min(
        reference_encode(G, {vid: i for i, vid in enumerate(itertools.chain.from_iterable(combo))})
        for combo in itertools.product(*perms)
    )


def relabel(G, rng):
    """G with its vertices, edges and target objects renamed and listed in a random order."""
    def names(objs, prefix):
        ids = [o.id for o in objs]
        return dict(zip(ids, rng.sample([f"{prefix}{i}" for i in range(len(ids))], len(ids))))

    def shuffled(objs):
        objs = list(objs)
        return rng.sample(objs, len(objs))

    sv, se, tv, te = (names(objs, pre) for objs, pre in (
        (G.source_vertices, "x"), (G.source_edges, "y"), (G.target_vertices, "s"), (G.target_edges, "r")))
    return LevelGraph(
        G.p, G.regime,
        shuffled(SourceVertex(sv[v.id], v.genus, v.level, v.cover_type, tv[v.image]) for v in G.source_vertices),
        shuffled(SourceEdge(se[e.id], sv[e.v2], sv[e.v1], e.slope, te[e.image]) for e in G.source_edges),
        shuffled(TargetVertex(tv[v.id], v.level) for v in G.target_vertices),
        shuffled(TargetEdge(te[e.id], tv[e.v1], tv[e.v2]) for e in G.target_edges),
        [Marking(sv[m.vertex], m.lam, m.xi, m.image) for m in G.markings],
    )


def base_order(G):
    return tuple(itertools.chain.from_iterable(invariant_classes(G)))


def class_layout(G):
    """The invariant classes as a tuple of tuples, the key of a frame's least frame parts."""
    return tuple(map(tuple, invariant_classes(G)))


@pytest.mark.parametrize("b", [4, 6, 8])
def test_canonical_form_equals_the_reference(b):
    """Every class at 6 vertices, with its frame's shared encodings, against brute_force_canonical_form.

    The enumeration is sorted by the brute-force key.
    """
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    comps = enumerate_components(A, 6)
    brute = {G: brute_force_canonical_form(G) for G in comps}
    for G in comps:  # the sort keyed every class, and each keeps its own key
        assert G._key is not None and canonical_form(G) is G._key
        assert canonical_form(G) == brute[G]
    assert comps == sorted(comps, key=brute.get)


@pytest.mark.parametrize("b", [4, 6, 8])
def test_canonical_form_equals_brute_force(b):
    """The example graphs, and relabelled copies of them and of every class at 6 vertices, which build their own frames.

    A relabelled copy's frame holds one least frame part, of its layout: the orderings loop stores nothing else.
    """
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    rng = random.Random(b)
    examples = list(example_graphs())
    for G in examples:
        assert canonical_form(G) == brute_force_canonical_form(G)
    for G in examples + enumerate_components(A, 6):
        for H in (relabel(G, rng) for _ in range(3)):
            assert canonical_form(H) == brute_force_canonical_form(H)
            assert list(H._frame.least) == [class_layout(H)]


def random_graph(rng):
    """A small, usually invalid graph: loops, parallel edges, shared images and markings."""
    n, ntv, nte = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 3)
    svs = [SourceVertex(f"v{i}", rng.choice([0, 0, 1]), rng.choice([0, 0, -1]), rng.choice([AS, AS, FROB]),
                        f"d{rng.randrange(ntv)}") for i in range(n)]
    ses = [SourceEdge(f"e{i}", f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", rng.choice([1, 1, 3]),
                      f"f{rng.randrange(nte)}") for i in range(rng.randint(0, 7))]
    marks = [Marking(f"v{rng.randrange(n)}", 2, 0, f"q{rng.randrange(2)}") for _ in range(rng.randint(0, 2))]
    return LevelGraph(2, "mixed", svs, ses, [TargetVertex(f"d{i}", 0) for i in range(ntv)],
                      [TargetEdge(f"f{i}", "d0", "d0") for i in range(nte)], marks)


def test_canonical_form_equals_brute_force_on_random_graphs():
    """Random graphs, each with two siblings on its frame whose markings moved, so that layouts are shared or not."""
    rng = random.Random(7)
    for _ in range(400):
        G = random_graph(rng)
        vids = [v.id for v in G.source_vertices]
        siblings = [G._with_markings([m._replace(vertex=rng.choice(vids)) for m in G.markings]) for _ in range(2)]
        for H in (G, *siblings):
            assert canonical_form(H) == brute_force_canonical_form(H), H.to_json()


def test_equal_neighbours_are_not_twins_across_images():
    # three bare top vertices; a and c share a target vertex, so a and b are not twins
    G = LevelGraph(2, "mixed", [SourceVertex(v, 0, 0, AS, img) for v, img in (("a", "d0"), ("b", "d1"), ("c", "d0"))],
                   [], [TargetVertex("d0", 0), TargetVertex("d1", 0)], [], [])
    assert canonical_form(G) == brute_force_canonical_form(G)


def star(t, genus=1, slope=3):
    """t equal tops, each joined to one bottom that carries every marking."""
    b = 2 + t * (slope - 1)
    A = HurwitzData(2, t * genus, 0, b, (2,) * b)
    tree = [(i, t) for i in range(t)]
    return _build_two_level(A, t, (genus,) * t, t + 1, tree, [slope] * t, (tuple(range(b)),))


def test_canonical_form_fixes_twin_order():
    G = star(9)
    start = time.perf_counter()
    key = canonical_form(G)
    assert time.perf_counter() - start < 0.1  # 9! = 362,880 orderings without the twin rule
    assert key == canonical_form(relabel(G, random.Random(0)))
    assert canonical_form(star(5)) == brute_force_canonical_form(star(5))


def test_canonical_form_ordering_bound(monkeypatch):
    # three equal tops on three bottoms with distinct markings: no twins, 3! orderings
    A = HurwitzData(2, 3, 0, 12, (2,) * 12)
    G = _build_two_level(A, 3, (1, 1, 1), 6, [(0, 3), (1, 4), (2, 5)], [3, 3, 3],
                                ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)))
    monkeypatch.setattr(strata, "MAX_CANON_ORDERINGS", 5)
    for _ in range(2):  # a refusal keeps nothing, on the graph or its frame, so a repeat call is refused again
        with pytest.raises(GraphError, match="MAX_CANON_ORDERINGS = 5"):
            canonical_form(G)
        assert G._key is None and G._frame.least == {}
    monkeypatch.setattr(strata, "MAX_CANON_ORDERINGS", 6)
    assert canonical_form(G) == brute_force_canonical_form(G)


def test_canonical_form_keeps_its_key_on_the_graph(monkeypatch):
    """A repeat call encodes nothing, and a graph built or re-marked from a keyed one starts without a key."""
    G = example_graphs()[0]
    assert G._key is None
    calls = []
    encode = strata._encode_frame
    monkeypatch.setattr(strata, "_encode_frame", lambda *args: calls.append(args) or encode(*args))
    key = canonical_form(G)
    assert G._key is key and len(calls) == 1
    assert canonical_form(G) is key and len(calls) == 1
    moved = [G.markings[0]._replace(vertex="v0"), *G.markings[1:]]
    fresh = LevelGraph(G.p, G.regime, G.source_vertices, G.source_edges, G.target_vertices, G.target_edges, moved)
    same, H = G._with_markings(G.markings), G._with_markings(moved)
    assert same._key is H._key is fresh._key is None
    assert canonical_form(H) == brute_force_canonical_form(H) != key
    assert len(calls) == 1 and G._key is key  # H has G's frame and base order, so it takes G's frame part
    assert canonical_form(fresh) == canonical_form(H) and len(calls) == 2  # a frame of its own is encoded once


# -- validate and stratum_dimension against the per-class code they replaced ----
#
# validate and stratum_dimension take the marking-free part of their work from
# facts their frame computes once per datum.  The per-class code they replaced
# is kept below as their oracle, the only definition of the error messages and
# their order; it reads only public LevelGraph attributes, so a change to the
# frame's layout leaves it as it is.


def reference_marks_at(G: LevelGraph, vid):
    """The positions of the markings on vertex vid, in markings order."""
    return [i for i, m in enumerate(G.markings) if m.vertex == vid]


def reference_out_inc(G: LevelGraph, vid):
    """The level-crossing edges whose upper, and whose lower, endpoint is vid, each in source_edges order."""
    crossing = [(e, G.edge_down_up(e)) for e in G.edges_at(vid) if not G.is_horizontal(e)]
    return [e for e, (_, up) in crossing if up.id == vid], [e for e, (down, _) in crossing if down.id == vid]


def reference_ramified_points(G: LevelGraph, vid):
    """(kind, slope-or-xi) for the ramified points of an AS vertex."""
    pts = [("edge", e.id, e.slope) for e in reference_out_inc(G, vid)[0]]
    return pts + [("marking", str(i), G.markings[i].xi) for i in reference_marks_at(G, vid) if G.markings[i].lam == G.p]


def reference_frobenius_orders(G: LevelGraph, vid):
    """Plain orders of the component form at the special points of a Frobenius vertex."""
    p = G.p
    out, inc = reference_out_inc(G, vid)
    orders = [e.slope + (p - 1) for e in out]
    orders += [(p - 1) - e.slope for e in inc]
    return orders + [G.markings[i].xi + (p - 1) for i in reference_marks_at(G, vid)]


def reference_validate(G: LevelGraph, A: HurwitzData) -> ValidationReport:
    report = ValidationReport()
    p = A.p
    sv, tv, te = ({x.id: x for x in xs} for xs in (G.source_vertices, G.target_vertices, G.target_edges))
    if G.p != A.p:
        report.add("datum", f"graph p={G.p} differs from datum p={A.p}")
    if G.regime != A.regime:
        report.add("datum", f"graph regime {G.regime} differs from datum {A.regime}")
    for err in A.errors():
        report.add("riemann-hurwitz", err)

    # level structure
    levels = G.levels()
    if not levels or levels[0] != 0 or levels != list(range(0, min(levels) - 1, -1)):
        report.add("levels", f"levels {levels} are not a contiguous set {{0,...,-L}}")
    tlevels = sorted({v.level for v in G.target_vertices}, reverse=True)
    if tlevels != levels:
        report.add("levels", f"target levels {tlevels} differ from source levels {levels}")
    for v in G.source_vertices:
        if tv[v.image].level != v.level:
            report.add("levels", f"vertex {v.id} and its image are on different levels")

    # cover types; loops that read three or more fields of a record unpack
    # it, as a named-tuple field read costs about twice a slots-class one
    for vid, _, level, cover_type, _ in G.source_vertices:
        if cover_type not in (AS, FROB, ETALE):
            report.add("cover-type", f"unknown cover type {cover_type} at {vid}")
        elif level == 0 and cover_type == FROB:
            report.add("cover-type", f"frobenius vertex {vid} at the top level")
        elif level < 0 and cover_type != FROB:
            report.add("cover-type", f"separable vertex {vid} below the top level")

    # connectivity
    b1, comps = G.source_betti()
    if comps != 1:
        report.add("connectivity", f"source graph has {comps} components")
    g, tcomps = G.target_betti()  # target components have genus 0, so g is b1
    if tcomps != 1:
        report.add("connectivity", f"target graph has {tcomps} components")

    # genus bookkeeping
    h = sum(v.genus for v in G.source_vertices) + b1
    if h != A.h:
        report.add("genus", f"source arithmetic genus {h} differs from datum h={A.h}")
    if g != A.g:
        report.add("genus", f"target arithmetic genus {g} differs from datum g={A.g}")

    # markings against the datum
    if len(G.markings) != A.b:
        report.add("markings", f"{len(G.markings)} markings, datum has b={A.b}")
    else:
        for i, m in enumerate(G.markings):
            if m.lam != A.Lam[i] or m.xi != A.Xi[i]:
                report.add("markings", f"marking {i} carries ({m.lam},{m.xi}), datum says ({A.Lam[i]},{A.Xi[i]})")
    groups = G.marking_groups()
    if len(groups) != A.N:
        report.add("markings", f"{len(groups)} target markings, datum has N={A.N}")
    for label, idxs in groups.items():
        if sum(G.markings[i].lam for i in idxs) != p:
            report.add("markings", f"target marking {label} has fiber multiplicities summing to != p")
        if len({sv[G.markings[i].vertex].image for i in idxs}) != 1:
            report.add("markings", f"target marking {label} spread over several target vertices")

    # edges: slopes, images, horizontality
    for eid, v1, v2, slope, image in G.source_edges:
        if slope < 0:
            report.add("slope", f"edge {eid} has negative slope")
        _, t1, t2 = te[image]
        _, _, level1, type1, image1 = sv[v1]
        _, _, level2, type2, image2 = sv[v2]
        if {image1, image2} != {t1, t2}:
            report.add("edge-image", f"edge {eid} endpoints do not map onto its image edge")
        if level1 == level2:  # horizontal
            if slope != 0:
                report.add("slope", f"horizontal edge {eid} has nonzero slope {slope}")
            if level1 != 0:
                report.add("slope", f"horizontal edge {eid} below the top level")
        else:
            if slope == 0:
                report.add("slope", f"level-crossing edge {eid} has slope 0")
            (down, down_type), (up, up_type) = ((v1, type1), (v2, type2)) if level1 < level2 else ((v2, type2), (v1, type1))
            if down_type == FROB and slope % p == 0:
                report.add("slope", f"edge {eid}: slope {slope} is 0 mod p at Frobenius vertex {down}")
            if up_type == FROB and slope % p == 0:
                report.add("slope", f"edge {eid}: slope {slope} is 0 mod p at Frobenius vertex {up}")
            if up_type == AS and slope % (p - 1) != 0:
                report.add("slope", f"edge {eid}: top-level outgoing slope {slope} not divisible by p-1")

    # per-AS-vertex conductor balance
    for v in G.source_vertices:
        if v.cover_type != AS:
            continue
        if 2 * v.genus % (p - 1) != 0:
            report.add("as-balance", f"2g({v.id}) not divisible by p-1")
            continue
        conductors = []
        bad = False
        for kind, ident, val in reference_ramified_points(G, v.id):
            if val % (p - 1) != 0:
                report.add("as-balance", f"ramified {kind} {ident} at {v.id}: value {val} not divisible by p-1")
                bad = True
                continue
            e = val // (p - 1) + 1
            if e % p == 1:
                report.add("as-balance", f"ramified {kind} {ident} at {v.id}: conductor {e} is 1 mod p")
                bad = True
            conductors.append(e)
        if not bad and sum(conductors) != 2 * v.genus // (p - 1) + 2:
            report.add(
                "as-balance",
                f"vertex {v.id}: conductors {conductors} sum to {sum(conductors)}, "
                f"expected {2 * v.genus // (p - 1) + 2}",
            )

    # per-Frobenius-vertex degree balance of the component form
    for v in G.source_vertices:
        if v.cover_type != FROB:
            continue
        total = sum(reference_frobenius_orders(G, v.id))
        expected = (2 * v.genus - 2) * (1 - p)
        if total != expected:
            report.add(
                "frobenius-balance",
                f"vertex {v.id}: plain orders sum to {total}, expected {expected}",
            )

    # etale sheets, each target where its first sheet is listed
    for tv_id in dict.fromkeys(v.image for v in G.source_vertices if v.cover_type == ETALE):
        sheets = [v for v in G.source_vertices if v.image == tv_id]
        if len(sheets) != p or any(v.cover_type != ETALE for v in sheets):
            report.add("etale", f"target vertex {tv_id} is not covered by exactly p degree-1 sheets")
        for v in sheets:
            for e in G.edges_at(v.id):
                if not G.is_horizontal(e):
                    report.add("etale", f"etale sheet {v.id} has a level-crossing edge {e.id}")

    # stability of the source curve
    for vid, genus, _, _, _ in G.source_vertices:
        special = len(G.edges_at(vid)) + len(reference_marks_at(G, vid))
        if special < 3 - 2 * genus:
            report.add("stability", f"vertex {vid} (genus {genus}) has only {special} special points")

    # mixed regime needs no check: levels are contiguous, so nothing lies below log(p)
    return report


def reference_stratum_dimension(G: LevelGraph, A: HurwitzData) -> StratumLedger:
    report = reference_validate(G, A)
    if not report.ok:
        raise GraphError(f"invalid level graph: {report.errors}")
    p = A.p
    hor = G.horizontal_target_edges()
    # per target vertex: its half-edges (target edge ends and target markings)
    # and, among them, its etale special points (ends of horizontal target
    # edges and unramified target markings); a loop counts twice
    half_edges, etale_points = Counter(), Counter()
    sv = {v.id: v for v in G.source_vertices}
    for te in G.target_edges:
        for end in (te.v1, te.v2):
            half_edges[end] += 1
            etale_points[end] += te.id in hor
    for idxs in G.marking_groups().values():
        end = sv[G.markings[idxs[0]].vertex].image
        half_edges[end] += 1
        etale_points[end] += all(G.markings[i].lam == 1 for i in idxs)

    contributions = []
    mod_as = mod_ex = mod_quex = v_c_ex = 0
    for v in G.source_vertices:
        if v.cover_type == AS:
            ram = sum(s // (p * (p - 1)) for _, _, s in reference_ramified_points(G, v.id))
            val = 2 * v.genus // (p - 1) + etale_points[v.image] - 1 - ram
            mod_as += val
            contributions.append((f"AS:{v.id}", val))
    for tv_id in sorted(G.etale_target_vertices()):
        val = half_edges[tv_id] - 3
        mod_as += val
        contributions.append((f"etale-target:{tv_id}", val))

    # below the top level: quasi-exact on the bottom level in the mixed
    # regime, exact everywhere else (see LevelGraph.exact_vertices)
    lmin = G.min_level
    for v in G.source_vertices:
        if v.level < 0:
            orders = reference_frobenius_orders(G, v.id)
            val = len(orders) + sum(o // p for o in orders)
            if G.regime == "mixed" and v.level == lmin:
                mod_quex += val - 3
                contributions.append((f"quasi-exact:{v.id}", val - 3))
            else:
                mod_ex += val - 4
                v_c_ex += 1
                contributions.append((f"exact:{v.id}", val - 4))

    total = mod_as + mod_ex + mod_quex
    e_d_hor = len(hor)
    closed = None
    if A.g == 0 and A.regime == "mixed":
        closed = A.N - 3 - e_d_hor - v_c_ex
        if total != closed:
            raise GraphError(f"ledger total {total} != closed form {closed}")
    rank, free = _monoid(A, e_d_hor, v_c_ex)
    return StratumLedger(
        contributions=contributions, mod_as=mod_as, mod_ex=mod_ex, mod_quex=mod_quex, total=total,
        closed_form=closed, e_d_hor=e_d_hor, v_c_ex=v_c_ex, monoid_rank=rank, monoid_free=free,
    )


def _same_answers(G, A):
    """validate and stratum_dimension on G agree with the oracle: errors in order, and the ledger or its error."""
    report, expected = validate(G, A), reference_validate(G, A)
    assert (report.ok, report.errors) == (expected.ok, expected.errors)
    if expected.ok:
        assert vars(stratum_dimension(G, A)) == vars(reference_stratum_dimension(G, A))
    else:
        with pytest.raises(GraphError) as got:
            stratum_dimension(G, A)
        with pytest.raises(GraphError) as want:
            reference_stratum_dimension(G, A)
        assert str(got.value) == str(want.value)
    return expected.errors


@pytest.mark.parametrize("b", [4, 6, 8])
def test_validate_and_ledger_equal_the_reference_on_every_class(b):
    """Every class at 6 vertices, on its shared frame, and a relabelled copy that computes its own facts."""
    A = HurwitzData(2, (b - 2) // 2, 0, b, (2,) * b)
    rng = random.Random(b)
    for G in enumerate_components(A, 6):
        assert _same_answers(G, A) == []
        assert _same_answers(relabel(G, rng), A) == []


def _frames(A):
    """The enumerated classes of A grouped by the frame they share, in enumeration order."""
    frames = {}
    for G in enumerate_components(A, 6):
        frames.setdefault(id(G._frame), []).append(G)
    return list(frames.values())


def test_frame_facts_follow_the_datum():
    """One shared frame checked against A, a mismatched datum, an equal copy of A, then A again."""
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    mismatched = HurwitzData(2, A.h + 1, 0, 8, (2,) * 7 + (1,))
    equicharacteristic = HurwitzData(2, 3, 0, 8, (2,) * 8, regime="equicharacteristic")
    for classes in _frames(A)[::3]:
        for datum in (A, mismatched, equicharacteristic, HurwitzData(*A), A):
            for G in classes[:5]:
                assert bool(_same_answers(G, datum)) == (datum != A)


def test_changed_markings_on_a_shared_frame_equal_the_reference():
    """A changed xi, lambda = 1, a marking moved to another bottom and too few markings, between valid siblings.

    Two unramified markings over one target marking, on a top vertex, keep a class valid under a datum with
    them; its ledger reads the frame's etale-point counts, which a class must not change.
    """
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)
    unramified = A._replace(N=7, Lam=A.Lam + (1, 1), Xi=A.Xi + (0, 0))
    moved = 0
    for classes in _frames(A):
        G = classes[0]
        marks = list(G.markings)
        top = G.source_vertices[0].id
        H = G._with_markings(marks + [Marking(top, 1, 0, "q6"), Marking(top, 1, 0, "q6")])
        for _ in range(2):
            assert _same_answers(H, unramified) == []
        bottoms = [v.id for v in G.source_vertices if v.level < 0]
        other = next((w for w in bottoms if w != marks[0].vertex), None)
        variants = [
            [marks[0]._replace(xi=1), *marks[1:]],
            [marks[0]._replace(lam=1), *marks[1:]],
            marks[:-1],
        ]
        if other is not None:
            variants.append([marks[0]._replace(vertex=other), *marks[1:]])
            moved += 1
        for markings in variants:
            assert _same_answers(G._with_markings(markings), A)
            assert _same_answers(classes[-1], A) == []
    assert moved > 0


def hand_built_graphs():
    """(graph, datum, whether valid): target markings spread over two target vertices, and ledger terms no class has.

    Every enumerated class has one marking per target marking, lambda = p and xi = 0, so none spreads a target
    marking, mixes lambda within one or reads a marking's xi // p.  The last graph's datum has a twist -1, which the
    validator admits though no cover has one: lambda 1 and 2 over one target marking need a twist sum of -1 there.
    """
    T = two_level()  # an AS top of genus 1 over a Frobenius bottom by one slope-3 edge
    frame = (T.source_vertices, T.source_edges, T.target_vertices, T.target_edges)
    odd_xi = LevelGraph(2, "equicharacteristic", *frame, [Marking("v1", 2, 1, "q0"), Marking("v1", 2, 1, "q1")])
    marks = [Marking("v0", 1, -1, "q0"), Marking("v0", 2, 0, "q0"), *(Marking("v0", 3, 2, f"q{i}") for i in (1, 2))]
    mixed_lambda = LevelGraph(3, "equicharacteristic", [SourceVertex("v0", 2, 0, AS, "d0")], [],
                              [TargetVertex("d0", 0)], [], marks)
    return [
        # q0 on the top and the bottom with lambda sum 4 != p, its top marking ramified at the AS vertex
        (T._with_markings([Marking("v0", 2, 0, "q0"), *(Marking("v1", 2, 0, f"q{i}") for i in (0, 2, 3))]), A4, False),
        # q0 on the top and the bottom with lambda sum 1 + 1 = p
        (T._with_markings([Marking("v0", 1, 0, "q0"), Marking("v1", 1, 0, "q0"), Marking("v1", 2, 0, "q2"),
                           Marking("v1", 2, 0, "q3")]), A4, False),
        # each bottom marking's plain order xi + p - 1 = 2 adds 2 // p = 1 to the bottom's exact term
        (odd_xi, HurwitzData(2, 1, 0, 2, (2, 2), (1, 1), "equicharacteristic"), True),
        # q0 has lambda 1 and 2, so it is no etale point of the AS vertex
        (mixed_lambda, HurwitzData(3, 2, 0, 3, (1, 2, 3, 3), (-1, 0, 2, 2), "equicharacteristic"), True),
    ]


@pytest.mark.parametrize("case", range(4))
def test_validate_and_ledger_equal_the_reference_on_hand_built_graphs(case):
    G, A, valid = hand_built_graphs()[case]
    assert bool(_same_answers(G, A)) != valid


def test_validate_and_ledger_never_group_the_markings_again(monkeypatch):
    """validate and stratum_dimension group each class's markings in their own pass, never through marking_groups."""
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    comps = enumerate_components(A, 6)
    calls = []
    groups = LevelGraph.marking_groups
    monkeypatch.setattr(LevelGraph, "marking_groups", lambda G: calls.append(G) or groups(G))
    fresh = HurwitzData(*A)  # an equal datum object, so every class is validated again
    assert all(validate(G, fresh).ok for G in comps)
    assert all(L.total == L.closed_form for L in (stratum_dimension(G, fresh) for G in comps))
    assert len(comps) == 3510 and calls == []
    assert canonical_form(comps[0]._with_markings(comps[0].markings)) and len(calls) == 1  # the patch counts


def test_validate_and_ledger_equal_the_reference_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    st = hypothesis.strategies
    data = [A4, HurwitzData(3, 1, 0, 2, (3, 3)), HurwitzData(2, 1, 0, 1, (2,)),
            HurwitzData(2, 3, 0, 4, (2, 2, 2, 2), (1, 1, 1, 1), "equicharacteristic")]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(0, 2**32), st.sampled_from(data))
    def check(seed, A):
        G = random_graph(random.Random(seed))
        for B in (A, A4, A):  # the graph's facts follow each datum
            _same_answers(G, B)
        for vertices, edges in ((G.source_vertices, G.source_edges), (G.target_vertices, G.target_edges)):
            H = nx.MultiGraph()
            H.add_nodes_from(v.id for v in vertices)
            H.add_edges_from((e.v1, e.v2) for e in edges)
            components = nx.number_connected_components(H)
            assert LevelGraph._betti(vertices, edges) == (len(edges) - len(vertices) + components, components)

    check()


def test_frame_facts_are_built_once_per_frame(monkeypatch):
    """At b = 8, 3,510 classes on 18 frames: 18 fills of the frame facts and one validate call per class.

    A fill counts the components of the source graph and of the target graph, and nothing else does.
    """
    fills, calls = [], []
    betti, validate_ = LevelGraph._betti, strata.validate
    monkeypatch.setattr(LevelGraph, "_betti", staticmethod(lambda vs, es: fills.append(vs) or betti(vs, es)))
    monkeypatch.setattr(strata, "validate", lambda G, A: calls.append(G) or validate_(G, A))
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    comps = enumerate_components(A, 6)
    assert len(comps) == len(calls) == 3510 and len({id(G._frame) for G in comps}) == len(fills) // 2 == 18
    for G in comps:
        strata.validate(G, A)
        strata.stratum_dimension(G, A)
    assert len(calls) == 3 * 3510 and len(fills) == 2 * 18


def test_each_ledger_belongs_to_its_caller():
    """A caller's changes to one ledger reach neither the next call on that class nor a sibling of its frame.

    A sibling with two unramified markings on a top vertex, as in the changed-markings test above, adds to the
    frame's etale-point counts in its own copy, so its second ledger equals its first.
    """
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    unramified = A._replace(N=9, Lam=A.Lam + (1, 1), Xi=A.Xi + (0, 0))
    for classes in _frames(A):
        G = classes[0]
        top = G.source_vertices[0].id
        U = G._with_markings([*G.markings, Marking(top, 1, 0, "q8"), Marking(top, 1, 0, "q8")])
        for H, B in ((G, A), (classes[-1], A), (G, A), (U, unramified), (U, unramified), (G, A)):
            L = stratum_dimension(G, A)
            L.contributions.append(("changed", 1))
            L.contributions[0] = ("changed", 2)
            L.total += 1
            assert vars(stratum_dimension(H, B)) == vars(reference_stratum_dimension(H, B))


@pytest.mark.parametrize("field, args", [("h", (2, -1, 0, 0, ())), ("g", (2, 1, -1, 4, (2,) * 4)),
                                         ("N", (2, 1, 0, -2, (2,) * 4))])
def test_negative_datum_fields_are_errors(field, args):
    A = HurwitzData(*args)
    message = f"{field} = {args['hgN'.index(field) + 1]} must be at least 0"
    assert message in A.errors()
    with pytest.raises(GraphError, match=message):
        generic_dimension(A)
    assert {"rule": "riemann-hurwitz", "detail": message} in validate(example_graphs()[0], A).errors


@pytest.mark.parametrize("args, messages", [
    ((2, 0, 0, 2, (0, 2, 2, 2)), ["lambda_0 = 0 must be at least 1"]),
    ((2, 0, 0, 3, (-1, 2, 2, 2, 2)), ["lambda_0 = -1 must be at least 1"]),
    ((3, 0, 0, 3, (3, 0, 3, -2, 3)), ["lambda_1 = 0 must be at least 1", "lambda_3 = -2 must be at least 1"]),
])
def test_fiber_multiplicities_below_one_are_errors(args, messages):
    """Each lambda_i < 1 is listed, in order; the first two data pass the Riemann-Hurwitz count."""
    A = HurwitzData(*args)
    assert [e for e in A.errors() if e.startswith("lambda_")] == messages
    with pytest.raises(GraphError, match=messages[0]):
        generic_dimension(A)
    assert {"rule": "riemann-hurwitz", "detail": messages[0]} in validate(example_graphs()[0], A).errors
    assert HurwitzData(2, 0, 0, 2, (0, 2, 2, 2)).rh_holds() and HurwitzData(2, 0, 0, 3, (-1, 2, 2, 2, 2)).rh_holds()
    assert HurwitzData(2, 1, 0, 4, (1, 1, 3, 3)).errors() == []  # lambda_i = 1 is allowed


# -- a class validated once per datum -------------------------------------------
#
# validate remembers, on the class, the datum object it last passed, and
# answers a repeat call with that object at once; a failure is never
# remembered.


def _data_and_graphs():
    """A, a mismatched B and an equal but distinct copy of A; classes, relabelled copies and failing graphs."""
    A = HurwitzData(2, 2, 0, 6, (2,) * 6)
    B = HurwitzData(2, 3, 0, 6, (2,) * 5 + (1,))
    rng = random.Random(6)
    graphs = []
    for classes in _frames(A):
        G = classes[0]
        graphs += [*classes[:3], relabel(G, rng), G._with_markings(G.markings[:-1]),
                   G._with_markings([G.markings[0]._replace(xi=1), *G.markings[1:]])]
    return A, B, HurwitzData(*A), graphs + list(example_graphs())


def test_remembered_validation_equals_the_reference():
    """Every report equals the reference's across A, then B, then an equal copy of A, then A again."""
    A, B, A_copy, graphs = _data_and_graphs()
    assert A_copy == A and A_copy is not A
    passed = 0
    for G in graphs:
        for datum in (A, B, A_copy, A):
            report, expected = validate(G, datum), reference_validate(G, datum)
            assert (report.ok, report.errors) == (expected.ok, expected.errors)
            passed += report.ok
    assert passed > len(graphs)  # most graphs pass A, and A_copy, and A again


def test_failing_graph_and_equal_datum_are_checked_again(monkeypatch):
    A, B, A_copy, graphs = _data_and_graphs()
    fills = []
    frame_facts = strata._frame_facts
    monkeypatch.setattr(strata, "_frame_facts", lambda G, A: fills.append(G) or frame_facts(G, A))
    G = graphs[0]
    bad = G._with_markings(G.markings[:-1])
    first = validate(bad, A).errors
    for datum in (A, A, B, A):
        assert validate(bad, datum).errors == reference_validate(bad, datum).errors
    assert first and len(fills) == 5 and bad._valid_for is None
    validate(G, A)
    assert G._valid_for is A
    validate(G, B)  # fails; the datum it passed stays remembered
    assert G._valid_for is A and len(fills) == 6
    assert validate(G, A_copy).ok and G._valid_for is A_copy and len(fills) == 7  # identity, not equality


def test_each_call_returns_a_new_report():
    A, _, _, graphs = _data_and_graphs()
    G = graphs[0]
    first = validate(G, A)
    assert G._valid_for is A
    first.add("test", "changed by the caller")
    second = validate(G, A)
    assert second is not first and (second.ok, second.errors) == (True, [])
    second.errors.append("also changed")
    assert validate(G, A).errors == []


def test_with_markings_starts_unvalidated():
    A, _, _, graphs = _data_and_graphs()
    G = graphs[0]
    assert validate(G, A).ok and G._valid_for is A
    same, bad = G._with_markings(G.markings), G._with_markings(G.markings[:-1])
    assert same._valid_for is None and bad._valid_for is None
    assert validate(bad, A).errors == reference_validate(bad, A).errors != []
    assert validate(same, A).ok and same._valid_for is A


# -- each frame's least frame parts shared by its classes -----------------------
#
# canonical_form finds the least frame part over the orderings once per frame
# and class layout, the vertex ids grouped by invariant.  Its oracle is
# brute_force_canonical_form above: test_canonical_form_equals_the_reference
# checks every enumerated class on its shared frame, and
# test_canonical_form_equals_brute_force relabelled copies that fill their own.


def test_classes_of_one_frame_share_its_encodings():
    """At b = 8 each frame holds one least frame part per layout of its classes, and their keys share it."""
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    shared = layouts = 0
    for classes in _frames(A):
        least = classes[0]._frame.least
        assert set(least) == {class_layout(G) for G in classes}
        layouts += len(least)
        keys = [canonical_form(G) for G in classes]  # all taken before any is compared
        assert len({id(key[5]) for key in keys}) == 1  # one grouping of the markings, and one object per triple
        triples = {}
        assert all(triples.setdefault(m, m) is m for key in keys for m in key[4])
        for G, key in zip(classes, keys):
            part, _ = least[class_layout(G)]
            assert all(own is mine for own, mine in zip(key[:4], part))
            shared += key == reference_encode(G, {vid: i for i, vid in enumerate(base_order(G))})  # base is least
    # 21 layouts on 18 frames; the other 420 classes take a least ordering other than their base one, and share it too
    assert layouts == 21 and shared == 3090


def test_each_layout_pays_for_its_least_frame_part_once(monkeypatch):
    """At b = 8 the enumeration's sort fills 21 least frame parts, one per (frame, layout); keyed again, none is encoded."""
    A = HurwitzData(2, 3, 0, 8, (2,) * 8)
    fills, encodes = [], []
    least_frame_part, encode = strata._least_frame_part, strata._encode_frame
    monkeypatch.setattr(strata, "_least_frame_part", lambda F, L: fills.append((id(F), L)) or least_frame_part(F, L))
    monkeypatch.setattr(strata, "_encode_frame", lambda *args: encodes.append(args) or encode(*args))
    comps = enumerate_components(A, 6)
    frames = {id(G._frame): G._frame for G in comps}
    assert len(fills) == len(set(fills)) == sum(len(F.least) for F in frames.values()) == 21 and len(frames) == 18
    keys = [G._key for G in comps]
    fills.clear()
    encodes.clear()
    for G in comps:
        G._key = None
    assert [canonical_form(G) for G in comps] == keys and fills == encodes == []


def test_layouts_with_one_base_order_keep_their_own_least_frame_parts():
    """Tops a and b share an invariant but not an image, so they swap in one class and not in the other.

    Bare, they are one class (a, b) and swapping them lowers the frame part; with b marked, they are (a,), (b,),
    the same base order, and the base frame part is least.  The frame keys the two apart.
    """
    G = LevelGraph(2, "mixed", [SourceVertex("a", 0, 0, AS, "d0"), SourceVertex("b", 0, 0, AS, "d1"),
                                SourceVertex("c", 1, 0, AS, "d0")], [],
                   [TargetVertex("d0", 0), TargetVertex("d1", 0)], [], [Marking("c", 2, 0, "q0")])
    H = G._with_markings([Marking("b", 2, 0, "q0")])
    assert class_layout(G) == (("a", "b"), ("c",)) and class_layout(H) == (("a",), ("b",), ("c",))
    for X in (G, H, G._with_markings(G.markings), H._with_markings(H.markings)):
        assert canonical_form(X) == brute_force_canonical_form(X)
    assert set(G._frame.least) == {class_layout(G), class_layout(H)}
    assert canonical_form(G)[:4] != canonical_form(H)[:4] == reference_encode(H, {"a": 0, "b": 1, "c": 2})[:4]


def test_orderings_loop_adds_no_encoding():
    """Three equal tops with distinct markings below try 3! orderings and keep one least frame part, of the layout."""
    A = HurwitzData(2, 3, 0, 12, (2,) * 12)
    G = _build_two_level(A, 3, (1, 1, 1), 6, [(0, 3), (1, 4), (2, 5)], [3, 3, 3],
                         ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)))
    for H in (G, star(5)):
        assert canonical_form(H) == brute_force_canonical_form(H)
        assert list(H._frame.least) == [class_layout(H)]
        assert H._frame.least[class_layout(H)][0] == canonical_form(H)[:4]
        H._key = None
        canonical_form(H)
        assert len(H._frame.least) == 1


# -- oracles read only the public API ---------------------------------------------

ORACLE_NAME = re.compile(r"reference_|brute_force_|invariant_classes$|_iso_key$")
PRIVATE_STATE = {"_frame", "_marks_at", "_valid_for", "_key"}


def private_reads(source):
    """(oracle, name) for each read of a graph's private state inside a function of source that ORACLE_NAME matches."""
    return {
        (node.name, sub.attr if isinstance(sub, ast.Attribute) else sub.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and ORACLE_NAME.match(node.name)
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Attribute) and sub.attr in PRIVATE_STATE)
        or (isinstance(sub, ast.Constant) and sub.value in PRIVATE_STATE)
    }


def test_oracles_read_only_public_attributes():
    """An oracle that reads the frame checks the package against its own layout, and breaks when the layout changes."""
    assert private_reads(pathlib.Path(__file__).read_text()) == set()
    sample = 'def reference_validate(G, A):\n    return G._frame.tv, getattr(G, "_marks_at")\n\ndef other(G):\n    return G._frame\n'
    assert private_reads(sample) == {("reference_validate", "_frame"), ("reference_validate", "_marks_at")}
