"""Artin-Schreier covers y^p - y = g(x) of the projective line.

The right-hand side is stored in normal form: a sum of principal parts
h_i(1/(x - b_i)) over the finite branch points plus a polynomial part
h_inf(x) when infinity is a branch point, with h_i(0) = 0, no term whose
exponent is divisible by p (such terms are absorbed by y -> y + v
substitutions since their coefficients are p-th powers), and no additive
constant.  The conductor at b_i is e_i = (pole order of g at b_i) + 1,
never congruent to 1 mod p; the genus comes from sum e_i = 2h/(p-1) + 2.

The trace form is tau = -1/g'(x) in the (dx)^v (x) dy frame; its orders
are read off the normal form.  At a branch point b of conductor e, h_b
has degree e - 1, prime to p, so ord_b g = -(e - 1), and ord_b g' = -e
at a finite b, -(e - 2) at infinity.  Upstairs the downstairs uniformizer
has value p, y has value ord_b(g) (Newton polygon) and d y drops it by
one, so tau has value -p ord_b(g') + ord_b(g) - p - v(dx/dz) = (e-1)(p-1),
with v(dx/dz) = 0 at a finite b and -2p at infinity (z = 1/x): the
"plain" order against logarithmic frames, the different exponent e(p - 1)
(Stichtenoth, Prop. 3.7.8) less p - 1.  "log" adds the marked point's one.
"""

from __future__ import annotations

import itertools

from .ffield import FieldSpec
from .mobius import Mobius
from .ratfunc import (
    INFINITY,
    Divisor,
    PartialFractions,
    Place,
    Polynomial,
    RationalFunction,
    partial_fractions,
)


class CoverError(ValueError):
    """Invalid Artin-Schreier cover data."""


class TraceForm:
    """tau = -1/g'(x) with per-ramified-point order bookkeeping."""

    __slots__ = ("coefficient", "orders")

    def __init__(self, coefficient: RationalFunction, orders):
        self.coefficient = coefficient
        self.orders = orders  # Place -> {"plain": int, "log": int}

    def plain_order(self, b: Place) -> int:
        return self.orders[b]["plain"]

    def log_order(self, b: Place) -> int:
        return self.orders[b]["log"]


class ArtinSchreierCover:
    """Degree-p cover y^p - y = g(x) in normal form."""

    __slots__ = ("spec", "branch_points", "parts", "conductors", "genus", "marked_unramified")

    def __init__(self, spec: FieldSpec, branch_parts, marked_unramified=()):
        """branch_parts: mapping Place -> Polynomial h (in u = 1/(x-b) or u = x at infinity)."""
        p = spec.p
        places = sorted(branch_parts, key=lambda q: q.sort_key())
        conductors = []
        for b in places:
            h = branch_parts[b]
            if h.degree < 1:
                raise CoverError(f"empty principal part at {b}")
            if h.coefficient(0).idx != 0:
                raise CoverError(f"principal part at {b} must vanish at 0")
            for j, c in enumerate(h.coeffs):
                if c and j > 0 and j % p == 0:
                    raise CoverError(f"unreduced p-th power term of order {j} at {b}")
            conductors.append(h.degree + 1)
        if not places:
            raise CoverError("no branch points: the cover is disconnected")
        # each conductor is at least 2, and even at p = 2, so num is even and >= 0
        num = (p - 1) * (sum(conductors) - 2)
        marked = tuple(marked_unramified)
        if len(set(marked)) != len(marked):
            raise CoverError("repeated marked points")
        for q in marked:
            if q in branch_parts:
                raise CoverError(f"marked point {q} collides with a branch point")
        self.spec = spec
        self.branch_points = tuple(places)
        self.parts = tuple(branch_parts[b] for b in places)
        self.conductors = tuple(conductors)
        self.genus = num // 2
        self.marked_unramified = marked

    # -- construction ------------------------------------------------------

    @classmethod
    def from_equation(cls, spec: FieldSpec, rhs: RationalFunction, marked_unramified=()):
        """Build the cover from any rational right-hand side.

        Partial fractions split the right-hand side by pole; terms whose
        exponent is divisible by p are replaced by their p-th root at the
        reduced exponent (an Artin-Schreier substitution), from the highest
        exponent down; additive constants are dropped.
        """
        p = spec.p
        pf = partial_fractions(rhs)
        per_point = {}
        for b, j, a in pf.terms:
            per_point.setdefault(Place.finite(b), {})[j] = a
        poly_terms = {j: spec.element(c) for j, c in enumerate(pf.poly.coeffs) if j and c}
        if poly_terms:
            per_point[INFINITY] = poly_terms

        branch_parts = {}
        for b, terms in per_point.items():
            # one descending pass: the p-th root of the term at j lands at j/p < j
            for j in range(max(terms), 0, -1):
                if j % p == 0 and j in terms:
                    r = j // p
                    new = terms.get(r, spec.zero) + terms.pop(j).pth_root()
                    if new.idx == 0:
                        terms.pop(r, None)
                    else:
                        terms[r] = new
            if terms:
                branch_parts[b] = Polynomial(spec, [terms.get(j, spec.zero) for j in range(max(terms) + 1)])
        return cls(spec, branch_parts, marked_unramified)

    # -- normal form -------------------------------------------------------

    def normal_form(self) -> RationalFunction:
        """The reduced right-hand side g(x) as a rational function."""
        poly, terms = Polynomial.from_indices(self.spec, []), []
        for b, h in zip(self.branch_points, self.parts):
            if b.is_infinity:
                poly = h
            else:
                terms += [(b.value, j, h.coefficient(j)) for j, c in enumerate(h.coeffs) if j and c]
        return PartialFractions(poly, terms).recombine()

    def __eq__(self, other):
        return (
            isinstance(other, ArtinSchreierCover)
            and self.spec == other.spec
            and self.branch_points == other.branch_points
            and self.parts == other.parts
            and self.marked_unramified == other.marked_unramified
        )

    def __repr__(self):
        return f"ArtinSchreierCover(y^{self.spec.p} - y = {self.normal_form()})"

    # -- invariants --------------------------------------------------------

    def ramification_divisor(self) -> Divisor:
        """R(f) = sum e_i (p-1) at the unique point above each branch point.

        Upstairs points are labeled by their branch point image (the cover
        is totally ramified there).
        """
        p = self.spec.p
        return Divisor({b: e * (p - 1) for b, e in zip(self.branch_points, self.conductors)})

    def trace_form(self) -> TraceForm:
        spec, p = self.spec, self.spec.p
        poly, terms = Polynomial.from_indices(spec, []), []
        for b, h in zip(self.branch_points, self.parts):
            if b.is_infinity:
                poly = h.derivative()
            else:  # d/dx a (x - b)^(-j) = -j a (x - b)^(-j-1)
                terms += [(b.value, j + 1, -j * h.coefficient(j)) for j in range(1, len(h.logs))]
        tau = PartialFractions(poly, terms).recombine()  # g', reduced; -1/g' is -den/num made monic
        lead = tau.num.logs[-1]
        tau.num, tau.den = tau.den._times(spec._log_neg_one - lead), tau.num._times(-lead)
        orders = {b: (e - 1) * (p - 1) for b, e in zip(self.branch_points, self.conductors)}
        return TraceForm(tau, {b: {"plain": n, "log": n + 1} for b, n in orders.items()})

    def moduli_dimension(self) -> int:
        return moduli_dimension(
            self.spec.p, self.genus, self.conductors, len(self.marked_unramified)
        )


def moduli_dimension(p: int, h: int, e, n: int) -> int:
    """Dimension 2h/(p-1) + n - 1 - sum floor((e_i - 1)/p) of the cover moduli.

    Once sum e_i (p-1) = 2h + 2(p-1) holds, 2h/(p-1) = sum e_i - 2 is exact,
    and the value equals n + m - 3 + sum (e_i - 1 - floor((e_i - 1)/p)).
    """
    e = tuple(e)
    for ei in e:
        if ei % p == 1:
            raise CoverError(f"conductor {ei} is 1 mod p")
    if sum(e) * (p - 1) != 2 * h + 2 * (p - 1):
        raise CoverError(f"conductors {e} inconsistent with genus {h}")
    return 2 * h // (p - 1) + n - 1 - sum((ei - 1) // p for ei in e)


def _special_tags(c: ArtinSchreierCover):
    """Special place -> tag: its conductor at a branch point, its position at a marked point."""
    tags = {b: ("branch", e) for b, e in zip(c.branch_points, c.conductors)}
    tags.update((q, ("marked", i)) for i, q in enumerate(c.marked_unramified))
    return tags


def isomorphic(c1: ArtinSchreierCover, c2: ArtinSchreierCover) -> bool:
    """Whether a Moebius map matching the special configurations carries c1 to c2.

    The first three special points of c1 (branch then marked, in stored
    order) rigidify the line; every ordered choice of their images among
    the special points of c2 that preserves conductors and marked
    positions is tried.  Fewer than three special points is rejected as
    unrigidified.
    """
    if c1.spec != c2.spec:
        raise CoverError("covers live over different fields")
    spec = c1.spec
    tags1, tags2 = _special_tags(c1), _special_tags(c2)
    if len(tags1) < 3 or len(tags2) < 3:
        raise CoverError("unrigidified: fewer than three special points")
    if sorted(tags1.values()) != sorted(tags2.values()):
        return False
    src = tuple(tags1)[:3]
    g1 = c1.normal_form()
    for dst in itertools.permutations(tags2, 3):
        if any(tags1[a] != tags2[b] for a, b in zip(src, dst)):
            continue
        phi = Mobius.from_triples(spec, src, dst)
        if any(tags2.get(phi.apply_place(a)) != tag for a, tag in tags1.items()):
            continue
        moved = g1.compose(phi.inverse().as_rational())
        marked2 = tuple(phi.apply_place(q) for q in c1.marked_unramified)
        for u in range(1, spec.p):
            candidate = ArtinSchreierCover.from_equation(
                spec, moved * spec.from_int(u).inverse(), marked2
            )
            if candidate == c2:
                return True
    return False
