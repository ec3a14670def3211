"""Independent reference computations used to check the program's answers.

None of these reuse the code path they check: ranks come from a plain
elimination over the integers mod p, dimensions from the closed forms of
the paper, level-graph isomorphism from a direct search for a vertex
bijection, and the component oracle from brute force over multiplicity
matrices filtered by the validator (the style of acceptance criterion 7).
"""

from __future__ import annotations

import itertools

# -- linear algebra -----------------------------------------------------------


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of a matrix of integers, by row reduction."""
    rows = [[c % p for c in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(c * inv) % p for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- closed forms ----------------------------------------------------------------


def locus_dimension(m, p: int, kind: str) -> int:
    """Dimension of the exact / quasi-exact locus of pattern m (the paper's formula)."""
    base = sum(v // p for v in m)
    return len(m) - 4 + base if kind == "exact" else len(m) - 3 + base


def cover_genus(p: int, conductors) -> int:
    """Riemann-Hurwitz for y^p - y = g: 2h - 2 = -2p + (p-1) sum e_i."""
    return (p - 1) * (sum(conductors) - 2) // 2


def pattern_pool(p: int, n: int):
    """Zero/pole patterns of length n with entries in [-2p, 2p] \\ {0} and sum 2p-2."""
    values = [v for v in range(-2 * p, 2 * p + 1) if v != 0]
    return [m for m in itertools.combinations_with_replacement(values, n) if sum(m) == 2 * p - 2]


# -- level graphs -----------------------------------------------------------------


def _shape(G):
    """Plain tuples describing G: vertex attributes, edges, markings, target groupings."""
    verts = {v.id: (v.level, v.genus, v.cover_type) for v in G.source_vertices}
    vimage = {v.id: v.image for v in G.source_vertices}
    edges = [(e.v1, e.v2, e.slope, e.image) for e in G.source_edges]
    marks = [(m.vertex, m.lam, m.xi, m.image) for m in G.markings]
    return verts, vimage, edges, marks


def _partition(keys):
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return sorted(tuple(g) for g in groups.values())


def graph_invariant(G):
    """A key that isomorphic level graphs share (markings are labelled)."""
    verts, _, edges, marks = _shape(G)
    by_vertex = {}
    for i, (vid, lam, xi, _) in enumerate(marks):
        by_vertex.setdefault(vid, []).append((i, lam, xi))
    return (
        tuple(sorted(verts.values())),
        tuple(sorted(e[2] for e in edges)),
        frozenset(tuple(ms) for ms in by_vertex.values()),
        tuple(_partition([m[3] for m in marks])),
    )


def isomorphic_graphs(G1, G2) -> bool:
    """Whether a level- and genus-preserving vertex bijection carries G1 onto G2.

    Markings keep their labels.  The bijection must carry edges (with
    slopes) onto edges and respect which source vertices and edges share
    a target image.
    """
    v1, img1, e1, m1 = _shape(G1)
    v2, img2, e2, m2 = _shape(G2)
    if len(v1) != len(v2) or len(e1) != len(e2) or len(m1) != len(m2):
        return False
    if [(l, x) for _, l, x, _ in m1] != [(l, x) for _, l, x, _ in m2]:
        return False
    if _partition([m[3] for m in m1]) != _partition([m[3] for m in m2]):
        return False
    forced = {}
    for (a, *_), (b, *_) in zip(m1, m2):
        if forced.setdefault(a, b) != b:
            return False
    ids1 = sorted(v1)
    free1 = [a for a in ids1 if a not in forced]
    free2 = [b for b in sorted(v2) if b not in set(forced.values())]
    if len(set(forced.values())) != len(forced):
        return False
    if any(v1[a] != v2[b] for a, b in forced.items()):
        return False
    target_edges = sorted((tuple(sorted((a, b))), s) for a, b, s, _ in e2)
    target_vgroups = sorted(sorted(b for b in v2 if img2[b] == t) for t in set(img2.values()))
    egroups2 = {}
    for a, b, s, t in e2:
        egroups2.setdefault(t, []).append((tuple(sorted((a, b))), s))
    target_egroups = sorted(sorted(g) for g in egroups2.values())
    for perm in itertools.permutations(free2):
        sigma = dict(forced)
        sigma.update(zip(free1, perm))
        if any(v1[a] != v2[sigma[a]] for a in free1):
            continue
        mapped = sorted((tuple(sorted((sigma[a], sigma[b]))), s) for a, b, s, _ in e1)
        if mapped != target_edges:
            continue
        vgroups = sorted(
            sorted(sigma[a] for a in v1 if img1[a] == t) for t in set(img1.values())
        )
        if vgroups != target_vgroups:
            continue
        egroups1 = {}
        for a, b, s, t in e1:
            egroups1.setdefault(t, []).append((tuple(sorted((sigma[a], sigma[b]))), s))
        if sorted(sorted(g) for g in egroups1.values()) == target_egroups:
            return True
    return False


def isomorphic_pairs(graphs):
    """Index pairs (i, j), i < j, of isomorphic graphs in the list."""
    buckets = {}
    for i, G in enumerate(graphs):
        buckets.setdefault(graph_invariant(G), []).append(i)
    out = []
    for idxs in buckets.values():
        for i, j in itertools.combinations(idxs, 2):
            if isomorphic_graphs(graphs[i], graphs[j]):
                out.append((i, j))
    return out


def _odd_tuples(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    first = 1
    while first <= total - (parts - 1):
        for rest in _odd_tuples(total - first, parts - 1):
            yield (first,) + rest
        first += 2


def brute_force_components(strata, A, max_vertices):
    """Two-level graphs (tops at level 0, bottoms at -1) that pass validation, up to isomorphism.

    Brute force over top genera, top-bottom edge multiplicities 0..2,
    odd slopes meeting each top's conductor balance and every placement
    of the labelled markings on the bottom vertices.
    """
    b = A.b
    classes = []
    by_key = {}
    for t in range(1, 4):
        for s in range(1, max_vertices - t + 1):
            cells = [(i, j) for i in range(t) for j in range(s)]
            for genera in itertools.product(range(A.h + 1), repeat=t):
                for mults in itertools.product(range(3), repeat=len(cells)):
                    edges = [(i, t + j) for (i, j), k in zip(cells, mults) for _ in range(k)]
                    if not edges or len(edges) > t + s:
                        continue
                    deg = [0] * (t + s)
                    for u, v in edges:
                        deg[u] += 1
                        deg[v] += 1
                    # validation rules applied before the slope and marking loops:
                    # no isolated vertex, and source genus sum(g) + b1 equal to h
                    if 0 in deg or sum(genera) + len(edges) - (t + s) + 1 != A.h:
                        continue
                    per_top = [list(_odd_tuples(2 * genera[i] + 2 - deg[i], deg[i])) for i in range(t)]
                    if any(not c for c in per_top):
                        continue
                    incident = [[ei for ei, (u, _) in enumerate(edges) if u == i] for i in range(t)]
                    for combo in itertools.product(*per_top):
                        slope = [0] * len(edges)
                        for i in range(t):
                            for ei, sl in zip(incident[i], combo[i]):
                                slope[ei] = sl
                        for assignment in itertools.product(range(s), repeat=b):
                            G = _two_level(strata, A, t, s, genera, edges, slope, assignment)
                            if not strata.validate(G, A).ok:
                                continue
                            key = graph_invariant(G)
                            bucket = by_key.setdefault(key, [])
                            if not any(isomorphic_graphs(G, H) for H in bucket):
                                bucket.append(G)
                                classes.append(G)
    return classes


def _two_level(strata, A, t, s, genera, edges, slope, assignment):
    svs, tvs = [], []
    for v in range(t + s):
        top = v < t
        svs.append(strata.SourceVertex(f"v{v}", genera[v] if top else 0, 0 if top else -1,
                                       strata.AS if top else strata.FROB, f"d{v}"))
        tvs.append(strata.TargetVertex(f"d{v}", 0 if top else -1))
    ses = [strata.SourceEdge(f"e{i}", f"v{u}", f"v{v}", slope[i], f"f{i}") for i, (u, v) in enumerate(edges)]
    tes = [strata.TargetEdge(f"f{i}", f"d{u}", f"d{v}") for i, (u, v) in enumerate(edges)]
    marks = [strata.Marking(f"v{t + w}", 2, 0, f"q{i}") for i, w in enumerate(assignment)]
    return strata.LevelGraph(A.p, A.regime, svs, ses, tvs, tes, marks)


def relabel(strata, G, rng):
    """G with its vertex and edge ids renamed and reordered at random (markings keep their order)."""
    vids = [v.id for v in G.source_vertices]
    vnames = dict(zip(vids, rng.sample([f"s{i}" for i in range(len(vids))], len(vids))))
    tids = [v.id for v in G.target_vertices]
    tnames = dict(zip(tids, rng.sample([f"t{i}" for i in range(len(tids))], len(tids))))
    eids = [e.id for e in G.source_edges]
    enames = dict(zip(eids, rng.sample([f"a{i}" for i in range(len(eids))], len(eids))))
    teids = [e.id for e in G.target_edges]
    tenames = dict(zip(teids, rng.sample([f"b{i}" for i in range(len(teids))], len(teids))))
    svs = [strata.SourceVertex(vnames[v.id], v.genus, v.level, v.cover_type, tnames[v.image])
           for v in G.source_vertices]
    ses = []
    for e in G.source_edges:
        a, b = vnames[e.v1], vnames[e.v2]
        if rng.random() < 0.5:
            a, b = b, a
        ses.append(strata.SourceEdge(enames[e.id], a, b, e.slope, tenames[e.image]))
    tvs = [strata.TargetVertex(tnames[v.id], v.level) for v in G.target_vertices]
    tes = [strata.TargetEdge(tenames[e.id], tnames[e.v1], tnames[e.v2]) for e in G.target_edges]
    marks = [strata.Marking(vnames[m.vertex], m.lam, m.xi, m.image) for m in G.markings]
    rng.shuffle(svs)
    rng.shuffle(ses)
    rng.shuffle(tvs)
    rng.shuffle(tes)
    return strata.LevelGraph(G.p, G.regime, svs, ses, tvs, tes, marks)
