"""Enhanced level graphs and stratum dimension ledgers.

A level graph describes a degree-p admissible cover of nodal curves:
source vertices carry genus, level in {0, ..., -L} and a cover type
(artin_schreier or etale at the top level, frobenius below), source
edges carry integer slopes and map to target edges, and markings carry
the ramification data (lambda_i, xi_i) of the discrete Hurwitz datum.

The validator enforces the Riemann-Hurwitz count, the per-vertex
conductor balance at Artin-Schreier vertices, the degree balance of
component forms at Frobenius vertices through the slope/order
dictionary (zero order = slope + (p-1) at downward points and markings,
pole order = slope - (p-1) at points incoming from above), slope
congruence rules, level contiguity, and stability of the source curve.

The dimension ledger splits a stratum's dimension into Mod^AS (covers
at the top level), Mod^ex (exact forms at intermediate levels) and
Mod^qu-ex (quasi-exact forms at the bottom level in mixed
characteristic); for genus-0 targets the total is checked against the
closed form N - 3 - #E_D^hor - #V_C^ex.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
import json
import math
from operator import attrgetter
from types import SimpleNamespace

AS = "artin_schreier"
FROB = "frobenius"
ETALE = "etale"
MAX_ENUM_CANDIDATES = 5 * 10**6  # raw candidates one enumerate_components may list
MAX_CANON_ORDERINGS = 10**5  # vertex orderings one canonical_form may try


class GraphError(ValueError):
    """Malformed level graph data."""


class HurwitzData(namedtuple("HurwitzData", "p h g N Lam Xi regime")):
    """Discrete datum A = (h, g, N, Lambda) with regime and twists Xi."""

    __slots__ = ()
    # _replace builds through _make, so both run the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, p, h, g, N, Lam, Xi=None, regime="mixed"):
        Lam = tuple(Lam)
        Xi = tuple(Xi) if Xi is not None else tuple(0 for _ in Lam)
        if p < 2:  # validate divides by p - 1; no primality test, which costs O(sqrt p)
            raise GraphError(f"p = {p} must be at least 2")
        if regime not in ("mixed", "equicharacteristic"):
            raise GraphError(f"unknown regime {regime!r}")
        if len(Lam) != len(Xi):
            raise GraphError("Lambda and Xi lengths differ")
        return super().__new__(cls, p, h, g, N, Lam, Xi, regime)

    @property
    def b(self):
        return len(self.Lam)

    def rh_holds(self) -> bool:
        lhs = 2 * self.h - 2
        rhs = self.p * (2 * self.g - 2) + sum(l + x - 1 for l, x in zip(self.Lam, self.Xi))
        return lhs == rhs

    def errors(self):
        out = [f"{name} = {value} must be at least 0" for name, value in zip("hgN", self[1:4]) if value < 0]
        out += [f"lambda_{i} = {lam} must be at least 1" for i, lam in enumerate(self.Lam) if lam < 1]
        if not self.rh_holds():
            out.append("Riemann-Hurwitz count fails for the discrete datum")
        if self.regime == "mixed" and any(self.Xi):
            out.append("mixed regime requires all xi to vanish")
        return out


# `image` names the record's image in the target graph (a target vertex id,
# a target edge id, a target marking label); a marking's `vertex` is the id
# of the source vertex carrying it.
SourceVertex = namedtuple("SourceVertex", "id genus level cover_type image")
SourceEdge = namedtuple("SourceEdge", "id v1 v2 slope image")
TargetVertex = namedtuple("TargetVertex", "id level")
TargetEdge = namedtuple("TargetEdge", "id v1 v2")
Marking = namedtuple("Marking", "vertex lam xi image")


_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _integer(value):
    """int(value), refusing what int() would read as an integer but JSON does not: a bool, a string and a fraction."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


class _Frame(SimpleNamespace):
    """A level graph but its markings: records, id and incidence dicts, JSON text, and facts (see _frame_facts)."""


class LevelGraph:
    """Enhanced level graph of a degree-p cover: a _Frame and its markings.

    Instances are read-only: enumerated classes share their shape's frame (see _frame_facts).
    Only _valid_for and _key change: validate and canonical_form record there a passed datum and the key.
    """

    __slots__ = ("_frame", "markings", "_marks_at", "_valid_for", "_key")
    p, regime, source_vertices, source_edges, target_vertices, target_edges = (
        property(attrgetter("_frame." + name), doc=f"The frame's {name}, read-only.")
        for name in ("p", "regime", "source_vertices", "source_edges", "target_vertices", "target_edges"))

    def __init__(self, p, regime, source_vertices, source_edges, target_vertices, target_edges, markings):
        if p < 2:  # as in HurwitzData
            raise GraphError(f"p = {p} must be at least 2")
        F = self._frame = _Frame(p=p, regime=regime, datum=None, ledger=None, signatures=None, least={}, parts={})
        F.source_vertices, F.source_edges, F.target_vertices, F.target_edges = map(
            tuple, (source_vertices, source_edges, target_vertices, target_edges))
        F.sv, F.tv, F.te = ({x.id: x for x in xs} for xs in (F.source_vertices, F.target_vertices, F.target_edges))
        for what, items in zip(("source vertex", "target vertex", "source edge", "target edge"),
                               (F.source_vertices, F.target_vertices, F.source_edges, F.target_edges)):
            if len({x.id for x in items}) != len(items):
                raise GraphError(f"duplicate {what} id")
        for e in F.source_edges:
            if e.v1 not in F.sv or e.v2 not in F.sv:
                raise GraphError(f"edge {e.id} has unknown endpoint")
            if e.image not in F.te:
                raise GraphError(f"edge {e.id} has unknown image edge")
        for e in F.target_edges:
            if e.v1 not in F.tv or e.v2 not in F.tv:
                raise GraphError(f"target edge {e.id} has unknown endpoint")
        for v in F.source_vertices:
            if v.image not in F.tv:
                raise GraphError(f"vertex {v.id} has unknown image vertex")
        # per-vertex incidence (out/inc: level-crossing edges whose upper/lower endpoint is the vertex), each
        # in source_edges order; tuples, since enumeration keeps thousands of graphs alive
        edges_at, out, inc = ({vid: [] for vid in F.sv} for _ in range(3))
        for e in F.source_edges:
            edges_at[e.v1].append(e)
            edges_at[e.v2].append(e)  # loops appear twice
            if not self.is_horizontal(e):
                down, up = self.edge_down_up(e)
                out[up.id].append(e)
                inc[down.id].append(e)
        F.edges_at, F.out, F.inc = ({v: tuple(xs) for v, xs in d.items()} for d in (edges_at, out, inc))
        F.json = _compact_json(self._frame_obj())
        self._set_markings(markings)

    def _set_markings(self, markings):
        """Check the markings against the source vertices and index them by vertex, in markings order."""
        self.markings = tuple(markings)
        marks_at = {vid: [] for vid in self._frame.sv}
        for i, m in enumerate(self.markings):
            if m.vertex not in marks_at:
                raise GraphError(f"marking on unknown vertex {m.vertex}")
            marks_at[m.vertex].append(i)
        self._marks_at = {vid: tuple(xs) for vid, xs in marks_at.items()}
        self._valid_for = self._key = None

    def _with_markings(self, markings):
        """This graph with other markings, sharing its frame."""
        G = object.__new__(type(self))
        G._frame = self._frame
        G._set_markings(markings)
        return G

    # -- derived structure -------------------------------------------------

    def levels(self):
        return sorted({v.level for v in self.source_vertices}, reverse=True)

    @property
    def min_level(self):
        if not self.source_vertices:
            raise GraphError("level graph has no source vertices")
        return min(v.level for v in self.source_vertices)

    def is_horizontal(self, e: SourceEdge) -> bool:
        return self._frame.sv[e.v1].level == self._frame.sv[e.v2].level

    def edge_down_up(self, e: SourceEdge):
        """(lower endpoint, upper endpoint) of a level-crossing edge."""
        a, b = self._frame.sv[e.v1], self._frame.sv[e.v2]
        return (a, b) if a.level < b.level else (b, a)

    def edges_at(self, vid):
        return list(self._frame.edges_at.get(vid, ()))

    def horizontal_target_edges(self):
        """Target edges that are images of horizontal source edges."""
        return {e.image for e in self.source_edges if self.is_horizontal(e)}

    def etale_target_vertices(self):
        """Target vertices covered by degree-1 sheets."""
        return {v.image for v in self.source_vertices if v.cover_type == ETALE}

    def exact_vertices(self):
        """Source components carrying exact forms.

        In the mixed regime the bottom level carries the quasi-exact
        forms, so exact components live strictly between; in
        equicharacteristic every level below the top is exact.
        """
        lmin = self.min_level
        out = []
        for v in self.source_vertices:
            if v.level < 0 and (self.regime == "equicharacteristic" or v.level > lmin):
                out.append(v)
        return out

    def source_betti(self):
        return self._betti(self.source_vertices, self.source_edges)

    def target_betti(self):
        return self._betti(self.target_vertices, self.target_edges)

    @staticmethod
    def _betti(vertices, edges):
        """(first Betti number, number of components) of a graph."""
        parent = {v.id: v.id for v in vertices}
        count = len(parent)  # ids are unique; each union joins two components
        for e in edges:
            a, b = e.v1, e.v2
            while parent[a] != a:  # path halving, inline: a nested find cost a call per end
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                count -= 1
        return len(edges) - len(vertices) + count, count

    def total_source_genus(self):
        b1, _ = self.source_betti()
        return sum(v.genus for v in self.source_vertices) + b1

    def total_target_genus(self):
        b1, _ = self.target_betti()
        return b1

    def marking_groups(self):
        """Target markings: image label -> list of marking positions."""
        groups = {}
        for i, m in enumerate(self.markings):
            groups.setdefault(m.image, []).append(i)
        return groups

    # -- serialization -----------------------------------------------------

    def _frame_obj(self):
        return {
            "p": self.p,
            "regime": self.regime,
            "source": {
                "vertices": [v._asdict() for v in self.source_vertices],
                "edges": [e._asdict() for e in self.source_edges],
            },
            "target": {
                "vertices": [v._asdict() for v in self.target_vertices],
                "edges": [e._asdict() for e in self.target_edges],
            },
        }

    def _markings_obj(self):
        # the field lam is written as the key "lambda"
        return [{"vertex": m.vertex, "lambda": m.lam, "xi": m.xi, "image": m.image} for m in self.markings]

    def to_json_obj(self):
        return {**self._frame_obj(), "markings": self._markings_obj()}

    def to_json(self) -> str:
        # "markings" sorts before the frame's keys, whose text the frame's classes share
        return '{"markings":' + _compact_json(self._markings_obj()) + "," + self._frame.json[1:]

    @classmethod
    def from_json_obj(cls, obj):
        try:
            src = obj["source"]
            tgt = obj["target"]
            return cls(
                _integer(obj["p"]),
                obj.get("regime", "mixed"),
                [
                    SourceVertex(str(v["id"]), _integer(v["genus"]), _integer(v["level"]),
                                 v["cover_type"], str(v["image"]))
                    for v in src["vertices"]
                ],
                [
                    SourceEdge(str(e["id"]), str(e["v1"]), str(e["v2"]),
                               _integer(e["slope"]), str(e["image"]))
                    for e in src["edges"]
                ],
                [TargetVertex(str(v["id"]), _integer(v["level"])) for v in tgt["vertices"]],
                [TargetEdge(str(e["id"]), str(e["v1"]), str(e["v2"])) for e in tgt["edges"]],
                [
                    Marking(str(m["vertex"]), _integer(m["lambda"]), _integer(m["xi"]), str(m["image"]))
                    for m in obj.get("markings", [])
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed level graph JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, too long an integer, too deep a nesting
            raise GraphError(f"invalid JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    def to_dot(self) -> str:
        lines = ["digraph levelgraph {", "  rankdir=TB;"]
        for lvl in self.levels():
            ids = " ".join(f'"{v.id}"' for v in self.source_vertices if v.level == lvl)
            lines.append(f"  {{ rank=same; {ids} }}")
        for v in self.source_vertices:
            label = f"{v.id}\\ng={v.genus} L{v.level}\\n{v.cover_type}"
            lines.append(f'  "{v.id}" [label="{label}"];')
        for e in self.source_edges:
            if self.is_horizontal(e):
                lines.append(f'  "{e.v1}" -> "{e.v2}" [dir=none label="0" style=dashed];')
            else:
                down, up = self.edge_down_up(e)
                lines.append(f'  "{up.id}" -> "{down.id}" [label="{e.slope}"];')
        for i, m in enumerate(self.markings):
            node = f"mark{i}"
            lines.append(f'  "{node}" [shape=plaintext label="m{i + 1}"];')
            lines.append(f'  "{m.vertex}" -> "{node}" [style=dotted arrowhead=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


class ValidationReport:
    """Outcome of validate: ok until a rule adds an error."""

    def __init__(self):
        self.ok = True
        self.errors = []

    def add(self, rule, detail):
        self.ok = False
        self.errors.append({"rule": rule, "detail": detail})


def _frame_facts(F: _Frame, A: HurwitzData):
    """What validate and stratum_dimension read off the frame F before the markings, under the datum A.

    The facts, on F and so shared by its classes, are filled on the first call with A and refilled for another
    datum; the ledger's target counts and vertex terms and canonical_form's signatures and least frame parts stay.
    """
    if F.datum is A:
        return F
    head, edges, etale = ValidationReport(), ValidationReport(), ValidationReport()
    p = A.p
    if F.p != A.p:
        head.add("datum", f"graph p={F.p} differs from datum p={A.p}")
    if F.regime != A.regime:
        head.add("datum", f"graph regime {F.regime} differs from datum {A.regime}")
    for err in A.errors():
        head.add("riemann-hurwitz", err)

    # level structure
    levels = sorted({v.level for v in F.source_vertices}, reverse=True)
    if not levels or levels[0] != 0 or levels != list(range(0, min(levels) - 1, -1)):
        head.add("levels", f"levels {levels} are not a contiguous set {{0,...,-L}}")
    tlevels = sorted({v.level for v in F.target_vertices}, reverse=True)
    if tlevels != levels:
        head.add("levels", f"target levels {tlevels} differ from source levels {levels}")
    for v in F.source_vertices:
        if F.tv[v.image].level != v.level:
            head.add("levels", f"vertex {v.id} and its image are on different levels")

    # cover types; loops that read three or more fields of a record unpack
    # it, as a named-tuple field read costs about twice a slots-class one
    for vid, _, level, cover_type, _ in F.source_vertices:
        if cover_type not in (AS, FROB, ETALE):
            head.add("cover-type", f"unknown cover type {cover_type} at {vid}")
        elif level == 0 and cover_type == FROB:
            head.add("cover-type", f"frobenius vertex {vid} at the top level")
        elif level < 0 and cover_type != FROB:
            head.add("cover-type", f"separable vertex {vid} below the top level")

    # connectivity
    b1, comps = LevelGraph._betti(F.source_vertices, F.source_edges)
    if comps != 1:
        head.add("connectivity", f"source graph has {comps} components")
    g, tcomps = LevelGraph._betti(F.target_vertices, F.target_edges)  # target components have genus 0, so g is b1
    if tcomps != 1:
        head.add("connectivity", f"target graph has {tcomps} components")

    # genus bookkeeping
    h = sum(v.genus for v in F.source_vertices) + b1
    if h != A.h:
        head.add("genus", f"source arithmetic genus {h} differs from datum h={A.h}")
    if g != A.g:
        head.add("genus", f"target arithmetic genus {g} differs from datum g={A.g}")

    # edges: slopes, images, horizontality
    for eid, v1, v2, slope, image in F.source_edges:
        if slope < 0:
            edges.add("slope", f"edge {eid} has negative slope")
        _, t1, t2 = F.te[image]
        _, _, level1, type1, image1 = F.sv[v1]
        _, _, level2, type2, image2 = F.sv[v2]
        if {image1, image2} != {t1, t2}:
            edges.add("edge-image", f"edge {eid} endpoints do not map onto its image edge")
        if level1 == level2:  # horizontal
            if slope != 0:
                edges.add("slope", f"horizontal edge {eid} has nonzero slope {slope}")
            if level1 != 0:
                edges.add("slope", f"horizontal edge {eid} below the top level")
        else:
            if slope == 0:
                edges.add("slope", f"level-crossing edge {eid} has slope 0")
            ends = [(v1, type1), (v2, type2)] if level1 < level2 else [(v2, type2), (v1, type1)]  # lower end first
            for vid, ctype in ends:
                if ctype == FROB and slope % p == 0:
                    edges.add("slope", f"edge {eid}: slope {slope} is 0 mod p at Frobenius vertex {vid}")
            if ends[1][1] == AS and slope % (p - 1) != 0:
                edges.add("slope", f"edge {eid}: top-level outgoing slope {slope} not divisible by p-1")

    # etale sheets
    for tv_id in dict.fromkeys(v.image for v in F.source_vertices if v.cover_type == ETALE):
        sheets = [v for v in F.source_vertices if v.image == tv_id]
        if len(sheets) != p or any(v.cover_type != ETALE for v in sheets):
            etale.add("etale", f"target vertex {tv_id} is not covered by exactly p degree-1 sheets")
        for v in sheets:
            for e in F.edges_at[v.id]:
                if F.sv[e.v1].level != F.sv[e.v2].level:
                    etale.add("etale", f"etale sheet {v.id} has a level-crossing edge {e.id}")

    F.head_errors, F.edge_errors, F.etale_errors = head.errors, edges.errors, etale.errors
    # per AS vertex its ramified edges as (kind, ident, slope), per Frobenius vertex its edges' plain orders
    q = F.p  # the graph's p; a datum with another is reported in head
    F.ramified = [(v, [("edge", e.id, e.slope) for e in F.out[v.id]]) for v in F.source_vertices if v.cover_type == AS]
    F.orders = [(v, [e.slope + (q - 1) for e in F.out[v.id]] + [(q - 1) - e.slope for e in F.inc[v.id]])
                for v in F.source_vertices if v.cover_type == FROB]
    F.degrees = [(vid, genus, len(F.edges_at[vid])) for vid, genus, _, _, _ in F.source_vertices]
    F.datum = A
    return F


def validate(G: LevelGraph, A: HurwitzData) -> ValidationReport:
    if G._valid_for is A:  # passed with this datum object (identity, as in _frame_facts); a failure is re-checked
        return ValidationReport()
    F = _frame_facts(G._frame, A)  # each section below that reads no marking is done there, once per frame and datum
    report = ValidationReport()
    p = A.p
    for err in F.head_errors:
        report.add(**err)

    # one pass over the markings: each against the datum (if the counts agree), the target markings as [lambda
    # sum, first target vertex, spread], and per vertex its markings' plain orders and, at AS, its ramified ones
    if len(G.markings) != A.b:
        report.add("markings", f"{len(G.markings)} markings, datum has b={A.b}")
    datum = zip(A.Lam, A.Xi) if len(G.markings) == A.b else map(attrgetter("lam", "xi"), G.markings)
    q, sv, groups, orders, ramified = F.p, F.sv, {}, {}, {}
    for i, ((vid, lam, xi, label), (lam_a, xi_a)) in enumerate(zip(G.markings, datum)):
        if lam != lam_a or xi != xi_a:
            report.add("markings", f"marking {i} carries ({lam},{xi}), datum says ({lam_a},{xi_a})")
        _, _, _, cover_type, end = sv[vid]
        group = groups.setdefault(label, [0, end, False])
        group[0] += lam
        group[2] |= end != group[1]
        orders[vid] = orders.get(vid, 0) + xi + (q - 1)
        if lam == q and cover_type == AS:
            ramified.setdefault(vid, []).append(("marking", str(i), xi))
    if len(groups) != A.N:
        report.add("markings", f"{len(groups)} target markings, datum has N={A.N}")
    for label, (total, _, spread) in groups.items():
        if total != p:
            report.add("markings", f"target marking {label} has fiber multiplicities summing to != p")
        if spread:
            report.add("markings", f"target marking {label} spread over several target vertices")

    for err in F.edge_errors:
        report.add(**err)

    # per-AS-vertex conductor balance
    for v, edge_points in F.ramified:
        if 2 * v.genus % (p - 1) != 0:
            report.add("as-balance", f"2g({v.id}) not divisible by p-1")
            continue
        conductors = []
        bad = False
        for kind, ident, val in edge_points + ramified.get(v.id, []):
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
    for v, edge_orders in F.orders:
        total = sum(edge_orders) + orders.get(v.id, 0)
        expected = (2 * v.genus - 2) * (1 - p)
        if total != expected:
            report.add(
                "frobenius-balance",
                f"vertex {v.id}: plain orders sum to {total}, expected {expected}",
            )

    for err in F.etale_errors:
        report.add(**err)

    # stability of the source curve
    marks_at = G._marks_at
    for vid, genus, degree in F.degrees:
        special = degree + len(marks_at[vid])
        if special < 3 - 2 * genus:
            report.add("stability", f"vertex {vid} (genus {genus}) has only {special} special points")

    # mixed regime needs no check: levels are contiguous, so nothing lies below log(p)
    if report.ok:
        G._valid_for = A
    return report


# ---------------------------------------------------------------------------
# dimension ledger and monoid rank


class StratumLedger(SimpleNamespace):
    """A stratum's dimension ledger, by position or keyword. A computed result, not a key: mutable, unhashable.

    contributions lists (label, value) per component; closed_form is N-3-#E_D^hor-#V_C^ex when g=0, else None.
    """

    def __init__(self, contributions, mod_as, mod_ex, mod_quex, total, closed_form, e_d_hor, v_c_ex, monoid_rank,
                 monoid_free):
        super().__init__(contributions=contributions, mod_as=mod_as, mod_ex=mod_ex, mod_quex=mod_quex, total=total,
                         closed_form=closed_form, e_d_hor=e_d_hor, v_c_ex=v_c_ex, monoid_rank=monoid_rank,
                         monoid_free=monoid_free)


def _monoid(A: HurwitzData, e_d_hor, v_c_ex):
    """Rank of the minimal base monoid and whether it is free, from #E_D^hor and #V_C^ex."""
    return e_d_hor + v_c_ex + (A.regime == "mixed"), A.p == 2


def monoid_rank(G: LevelGraph, A: HurwitzData):
    """Rank of the minimal base monoid and whether it is free."""
    return _monoid(A, len(G.horizontal_target_edges()), len(G.exact_vertices()))


def stratum_dimension(G: LevelGraph, A: HurwitzData) -> StratumLedger:
    report = validate(G, A)
    if not report.ok:
        raise GraphError(f"invalid level graph: {report.errors}")
    p = A.p
    F = _frame_facts(G._frame, A)
    if F.ledger is None:  # the frame's target counts and vertex terms, taken once it has passed (so p is F.p)
        hor = G.horizontal_target_edges()
        # per target vertex: its half-edges (target edge ends and target markings)
        # and, among them, its etale special points (ends of horizontal target
        # edges and unramified target markings); a loop counts twice
        half_edges, etale_points = dict.fromkeys(F.tv, 0), dict.fromkeys(F.tv, 0)
        for te in F.target_edges:
            for end in (te.v1, te.v2):
                half_edges[end] += 1
                etale_points[end] += te.id in hor
        # per AS vertex (id, label, image, term but the markings'), per Frobenius vertex (id, label, edges' term
        # less 4 or 3, exact): quasi-exact on the bottom level in the mixed regime, else exact (see exact_vertices)
        as_terms = [(v.id, f"AS:{v.id}", v.image, 2 * v.genus // (p - 1) - 1 - sum(s // (p * (p - 1)) for *_, s in ram))
                    for v, ram in F.ramified]
        lmin = G.min_level
        frob_terms = [(v.id, f"{'exact' if ex else 'quasi-exact'}:{v.id}", len(o) + sum(x // p for x in o) - 3 - ex, ex)
                      for v, o in F.orders for ex in [F.regime != "mixed" or v.level != lmin]]
        F.ledger = hor, half_edges, etale_points, sorted(G.etale_target_vertices()), as_terms, frob_terms
    hor, half_edges, etale_points, etale_targets, as_terms, frob_terms = F.ledger
    half_edges, etale_points = half_edges.copy(), etale_points.copy()
    # one pass over the markings: each target marking's end (validate checked there is one) and whether all its
    # lambda are 1, and per vertex sum xi // (p(p-1)) over lambda = p and the count plus sum (xi + p - 1) // p
    sv, ends, unramified, ram, orders = F.sv, {}, {}, {}, {}
    for vid, lam, xi, label in G.markings:
        ends[label] = sv[vid][4]
        unramified[label] = lam == 1 and unramified.get(label, True)
        if xi and lam == p:  # a zero twist, as every marking has in the mixed regime, adds nothing
            ram[vid] = ram.get(vid, 0) + xi // (p * (p - 1))
        orders[vid] = orders.get(vid, 0) + 1 + (xi + p - 1) // p
    for label, end in ends.items():
        half_edges[end] += 1
        etale_points[end] += unramified[label]

    contributions = []
    mod_as = mod_ex = mod_quex = v_c_ex = 0
    for vid, label, image, term in as_terms:
        val = term + etale_points[image] - ram.get(vid, 0)
        mod_as += val
        contributions.append((label, val))
    for tv_id in etale_targets:
        val = half_edges[tv_id] - 3
        mod_as += val
        contributions.append((f"etale-target:{tv_id}", val))
    for vid, label, term, exact in frob_terms:
        val = term + orders.get(vid, 0)
        contributions.append((label, val))
        if exact:
            mod_ex += val
            v_c_ex += 1
        else:
            mod_quex += val

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


def generic_dimension(A: HurwitzData) -> int:
    """Dimension of the generic stratum: 3g-3+N (mixed), N-3+sum (xi+1)/2 (equichar p=2)."""
    errs = A.errors()
    if errs:
        raise GraphError("; ".join(errs))
    if A.regime == "mixed":
        return 3 * A.g - 3 + A.N
    if A.p != 2:
        raise GraphError("equicharacteristic generic dimension implemented for p=2 only")
    total2 = sum(x + 1 for x in A.Xi)
    if total2 % 2 != 0:
        raise GraphError("sum (xi_i + 1) must be even")
    return A.N - 3 + total2 // 2


# ---------------------------------------------------------------------------
# canonical labeling


def canonical_form(G: LevelGraph):
    """A canonical hashable encoding, minimal over invariant-preserving relabelings.

    Vertices may only be permuted within classes sharing (level, genus, cover_type, incident slope multiset,
    marking positions).  A marking sits on one vertex, so a marked vertex is a class of its own and only
    unmarked vertices move: the key is the least frame part over the orderings, then the markings part, the
    same under each.  Markings are never permuted, so graphs differing only in which labeled marking sits
    where stay distinct.  Twins, vertices whose swap leaves the frame part unchanged under every relabeling,
    keep one order among themselves, which leaves the minimum as it is.  Trying more than MAX_CANON_ORDERINGS
    orderings raises GraphError.  The least frame part is found once per frame and class layout, the key once per
    graph and kept.
    """
    if G._key is not None:
        return G._key
    F = G._frame
    sigs = F.signatures
    if sigs is None:  # the frame's part of each vertex invariant
        sigs = F.signatures = {}
        for vid, genus, level, cover_type, _ in F.source_vertices:
            slopes = []
            for e in F.edges_at[vid]:  # (0, 0) if horizontal, else (+1 at the upper end or -1 at the lower, slope)
                other = F.sv[e.v2 if e.v1 == vid else e.v1].level
                slopes.append((0, 0) if other == level else (1 if level > other else -1, e.slope))
            sigs[vid] = (-level, genus, cover_type, tuple(sorted(slopes)))
    classes = {}
    for vid, sig in sigs.items():  # in source_vertices order; the invariant is (sig, marking positions)
        classes.setdefault((sig, G._marks_at[vid]), []).append(vid)
    layout = tuple([tuple(ids) for _, ids in sorted(classes.items())])  # a list, not a generator: 0.7 us less a call
    least, sigma = F.least.get(layout) or _least_frame_part(F, layout)
    groups = tuple(sorted(tuple(g) for g in G.marking_groups().values()))
    marks = tuple(F.parts.setdefault(m, m) for m in ((sigma[v], lam, xi) for v, lam, xi, _ in G.markings))
    G._key = least + (marks, F.parts.setdefault(groups, groups))  # the frame's classes' keys share each part by value
    return G._key


def _least_frame_part(F: _Frame, layout):
    """(least frame part, base positions) over the orderings of a class layout: its invariant classes, in order.

    Neither reads a marking, so the frame's classes of one layout share them in F.least, keyed by the classes
    (two layouts may list one base order).  A layout refused by MAX_CANON_ORDERINGS raises and stores nothing.
    """
    sigma = {vid: i for i, vid in enumerate(itertools.chain.from_iterable(layout))}
    frame = _encode_frame(F, sigma)
    per_class, orderings = [], 1  # (twin classes, splits of the class's positions among them)
    for ids in layout:
        if len(ids) == 1:
            continue
        twins = []
        for vid in ids:
            for tw in twins:
                a = tw[0]
                if _neighbours(F, a, {a: vid, vid: a}) == _neighbours(F, vid, {}):
                    if _encode_frame(F, {**sigma, a: sigma[vid], vid: sigma[a]}) == frame:
                        tw.append(vid)
                        break
            else:
                twins.append([vid])
        sizes = [len(tw) for tw in twins]
        orderings *= math.factorial(len(ids)) // math.prod(map(math.factorial, sizes))
        start = sigma[ids[0]]
        per_class.append((twins, _partitions_into_sizes(range(start, start + len(ids)), sizes)))
    if orderings > MAX_CANON_ORDERINGS:
        raise GraphError(f"canonical_form would try more than MAX_CANON_ORDERINGS = {MAX_CANON_ORDERINGS} orderings")
    best = frame
    for combo in itertools.product(*(splits for _, splits in per_class)):
        order = dict(sigma)
        for (twins, _), split in zip(per_class, combo):
            for tw, box in zip(twins, split):
                order.update(zip(tw, box))
        if order != sigma:  # the base ordering is encoded already
            best = min(best, _encode_frame(F, order))
    F.least[layout] = best, sigma
    return best, sigma


def _neighbours(F: _Frame, vid, swap):
    """Sorted (other end, slope) over the edges at vid, other ends renamed by swap.

    Twins agree once swapped: a first test that rejects 226 of 237 pairs a strata-enum round, for <= 2 % of its wall_s.
    """
    return sorted((swap.get(w, w), e.slope) for e in F.edges_at[vid] for w in [e.v2 if e.v1 == vid else e.v1])


def _encode_frame(F: _Frame, sigma):
    """The vertices, the edges and (target identifications) the source vertices and edges grouped by image."""
    verts = tuple(sorted((sigma[vid], -level, genus, ctype) for vid, genus, level, ctype, _ in F.source_vertices))
    vgroups, egroups = {}, {}
    edge_reps = []
    for _, v1, v2, slope, image in F.source_edges:
        a, b = sigma[v1], sigma[v2]
        rep = (a, b, slope) if a < b else (b, a, slope)
        edge_reps.append(rep)
        egroups.setdefault(image, []).append(rep)
    for vid, _, _, _, image in F.source_vertices:
        vgroups.setdefault(image, []).append(sigma[vid])
    vgrouping, egrouping = (tuple(sorted(tuple(sorted(g)) for g in groups.values())) for groups in (vgroups, egroups))
    return (verts, tuple(sorted(edge_reps)), vgrouping, egrouping)


# ---------------------------------------------------------------------------
# enumeration of irreducible components (p = 2, g = 0, mixed)


def _labeled_trees(n):
    """All labeled trees on vertices 0..n-1 as edge lists, via Pruefer sequences."""
    if n == 1:
        yield []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        edges = []
        heap = [i for i in range(n) if degree[i] == 1]  # ascending, hence a heap
        for s in seq:
            leaf = heapq.heappop(heap)
            edges.append((leaf, s))
            degree[s] -= 1
            if degree[s] == 1:
                heapq.heappush(heap, s)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        edges.append((u, v))
        yield edges


def _bipartite_trees(t, n):
    """Labeled trees on 0..n-1 whose edges all join a top (< t) to a bottom (>= t).

    In Pruefer order, each as (edges, incident) with incident[v] the
    indices of the edges at v.
    """
    out = []
    for tree in _labeled_trees(n):
        if any((u < t) == (v < t) for u, v in tree):
            continue
        incident = [[] for _ in range(n)]
        for i, (u, v) in enumerate(tree):
            incident[u].append(i)
            incident[v].append(i)
        out.append((tree, incident))
    return out


def _shape_symmetry(t, n, genera, tree, slope):
    """(key, bottom permutations) of a decorated bipartite tree.

    A relabelling permutes the tops and the bottoms, and encodes the shape
    as sorted (top, genus) pairs and sorted (top, bottom, slope) edges.
    The key, least over all relabellings, names the shape's class.  The
    automorphisms are the relabellings that fix the encoding; the set
    holds the non-identity permutations they make of the bottoms, bottom
    w going to perm[w].
    """
    ends = [(u, v - t) if u < t else (v, u - t) for u, v in tree]

    def encode(top, bottom):
        edges = sorted((top[u], bottom[w], sl) for (u, w), sl in zip(ends, slope))
        return tuple(sorted(zip(top, genera))), tuple(edges)

    own = encode(range(t), range(n - t))
    key, perms = own, set()
    for top, bottom in itertools.product(itertools.permutations(range(t)), itertools.permutations(range(n - t))):
        enc = encode(top, bottom)
        key = min(key, enc)
        if enc == own:
            perms.add(bottom)
    return key, perms - {tuple(range(n - t))}


def _orbit_least(b, mark_counts, perms):
    """The marking assignments, in _partitions_into_sizes order, least among their images under perms."""
    return (a for a in _partitions_into_sizes(range(b), mark_counts) if all(a <= tuple(a[w] for w in perm) for perm in perms))


def _partitions_into_sizes(items, sizes):
    """All ways to split `items` (ordered) into ordered boxes of the given sizes, which sum to len(items)."""
    if len(sizes) < 2:  # the last box takes what is left; a set test for `remaining` cost 14 % more than the tuple's
        yield (tuple(items),) if sizes else ()
        return
    k = sizes[0]
    for chosen in itertools.combinations(items, k):
        remaining = [i for i in items if i not in chosen]
        for rest in _partitions_into_sizes(remaining, sizes[1:]):
            yield (chosen,) + rest


def enumerate_components(A: HurwitzData, max_vertices: int = 8):
    """All two-level, no-horizontal-edge graphs up to isomorphism.

    These are the irreducible components of the special fiber for p = 2,
    g = 0 in the mixed regime with all markings ramified (lambda = 2).
    Markings are labeled; graphs differing only by which markings sit on
    which bottom component count separately.  Each class is generated
    once, as its first candidate in shape-then-assignment order; it is
    built and validated, and the result is sorted by canonical_form.
    A datum that HurwitzData.errors() refuses, and more than MAX_ENUM_CANDIDATES raw
    candidates (counted over the shapes before any graph is built), raise GraphError.
    """
    if A.p != 2 or A.g != 0:
        raise GraphError("enumeration supports p=2, g=0 only")
    if A.regime != "mixed":
        raise GraphError("enumeration supports the mixed regime only")
    if any(l != 2 for l in A.Lam):
        raise GraphError("enumeration supports ramified markings (lambda=2) only")
    if A.errors():
        raise GraphError("; ".join(A.errors()))
    b = A.b
    if A.N != b:
        return []
    h = A.h  # h < 1 lists no shape: a genus-0 top vertex can never be stable in a two-level graph

    # Shapes (genera, tree, slope) come first, each counted with its
    # multinomial(b; mark_counts) marking assignments, so an oversized
    # enumeration fails before any candidate is listed.
    shapes = []
    listed = 0
    # a class has one (t, s), so taking s before genera keeps each class's first
    # candidate; every bottom carries at least two of the b markings, so s <= b // 2
    for t in range(1, h + 1):
        for s in range(1, min(max_vertices - t, b // 2) + 1):
            n = t + s
            trees = _bipartite_trees(t, n)  # vertices 0..t-1 are tops, t..n-1 are bottoms
            for genera in _compositions(h, t):
                for tree, incident in trees:
                    # a top of degree above its genus + 1 has no slopes, so the product is empty
                    slope_choices = [
                        list(_compositions(2 * genera[v] + 2 - len(incident[v]), len(incident[v]), step=2))
                        for v in range(t)
                    ]
                    for slopes_per_top in itertools.product(*slope_choices):
                        slope = [0] * len(tree)
                        for v in range(t):
                            for ei, sl in zip(incident[v], slopes_per_top[v]):
                                slope[ei] = sl
                        mark_counts = [2 + sum(slope[ei] - 1 for ei in incident[w]) for w in range(t, n)]
                        if sum(mark_counts) != b:
                            continue
                        listed += math.factorial(b) // math.prod(map(math.factorial, mark_counts))
                        if listed > MAX_ENUM_CANDIDATES:
                            raise GraphError(
                                f"enumeration would list more than MAX_ENUM_CANDIDATES = {MAX_ENUM_CANDIDATES} candidates"
                            )
                        shapes.append((t, n, genera, tree, slope, mark_counts))
    # Orderly generation (Read 1978): isomorphic shapes hold the same classes,
    # so the first shape of each shape class holds every class's first
    # candidate, which is the assignment least among its images under the
    # shape's automorphisms.
    seen, graphs = set(), []
    for t, n, genera, tree, slope, mark_counts in shapes:
        key, perms = _shape_symmetry(t, n, genera, tree, slope)
        if key in seen:
            continue
        seen.add(key)
        # the shape's classes share its frame and one Marking per (bottom, marking index)
        frame = _build_two_level(A, t, genera, n, tree, slope)
        marks = [[Marking(v.id, 2, 0, f"q{mi}") for mi in range(b)] for v in frame.source_vertices[t:]]
        for assignment in _orbit_least(b, mark_counts, perms):
            owner = {mi: w for w, idxs in enumerate(assignment) for mi in idxs}
            G = frame._with_markings([marks[owner[mi]][mi] for mi in range(b)])
            rep = validate(G, A)
            if not rep.ok:
                raise GraphError(f"generated an invalid level graph: {rep.errors}")
            graphs.append(G)
    return sorted(graphs, key=canonical_form)


def _compositions(total, parts, step=1):
    """Compositions of `total` into `parts` positive summands, each 1 mod `step` (odd for step=2)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2, step):
        for rest in _compositions(total - first, parts - 1, step):
            yield (first,) + rest


def _build_two_level(A, t, genera, n, tree, slope):
    """The unmarked two-level graph of a shape: tops 0..t-1 of the given genera over bottoms t..n-1."""
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
    return LevelGraph(A.p, A.regime, svs, ses, tvs, tes, ())
