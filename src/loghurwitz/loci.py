"""Exact and quasi-exact loci of marked configurations on the line.

A zero/pole pattern m = (m_1, ..., m_n) with sum 2p-2 attaches to each
configuration of n distinct marked points the bivariant form f dy/dx,
f = prod (y - p_i)^{m_i} (the product over the finite markings; the
order at a marking at infinity is then automatic).  The exact locus is
where the twisted Cartier operator kills it, the quasi-exact locus is
where it gives a nonzero constant.

Everything here works on the reduced pattern (ZeroPolePattern.reduced):
m_i = p a_i + b_i with 0 <= b_i < p splits f as g^p h, with
g = prod (y - p_i)^{a_i} and the polynomial h = prod (y - p_i)^{b_i} of
degree at most n (p - 1).  tc is p^{-1}-semilinear, so tc(f) = g tc(h),
and tc(h) is the coefficientwise p-th root of bucket p - 1 of h.  The
quasi-exact kind also reads E = prod (y - p_i)^{-a_i} over a_i < 0.
"""

from __future__ import annotations

import math

from .cartier import _prefix_ranks, _reduced_roots, _root_indices, _tc_kernel
from .ffield import FieldSpec
from .ratfunc import INFINITY, Place, Polynomial, _coeff_log, _log_mul

EXACT = "exact"
QUASI_EXACT = "quasi_exact"
MAX_SEARCH_CONFIGS = 10**7  # free-slot permutations one locus_search may visit


class ZeroPolePattern:
    """Integer vector m with sum m_i = 2p-2; negative entries are poles."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m):
        m = tuple(int(v) for v in m)
        if sum(m) != 2 * p - 2:
            raise ValueError(f"pattern {m} does not sum to 2p-2 = {2 * p - 2}")
        if any(v == 0 for v in m):
            raise ValueError("pattern entries must be nonzero")
        self.p = p
        self.m = m

    @property
    def n(self):
        return len(self.m)

    def reduced(self):
        """m'_i = m_i - p*floor(m_i/p)."""
        return tuple(v - self.p * (v // self.p) for v in self.m)

    def I_p(self):
        """Indices (0-based) where p divides m_i."""
        return tuple(i for i, v in enumerate(self.m) if v % self.p == 0)

    def __repr__(self):
        return f"ZeroPolePattern(p={self.p}, m={self.m})"


class MarkingConfig:
    """n pairwise distinct places on the line, at most one at infinity; == and hash skip a hit's witness."""

    __slots__ = ("spec", "points", "_witness")

    def __init__(self, spec: FieldSpec, points):
        points = tuple(points)
        if len(set(points)) != len(points):  # two infinities are equal places, so repeated too
            raise ValueError("repeated markings")
        self.spec, self.points, self._witness = spec, points, None

    def __eq__(self, other):
        return (
            isinstance(other, MarkingConfig)
            and self.spec == other.spec
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.spec, self.points))

    def __repr__(self):
        return f"MarkingConfig({', '.join(str(q) for q in self.points)})"


# ---------------------------------------------------------------------------
# membership and tangent spaces


def _check_compatible(config: MarkingConfig, pattern: ZeroPolePattern):
    if len(config.points) != len(pattern.m):
        raise ValueError("configuration and pattern lengths differ")
    if config.spec.p != pattern.p:
        raise ValueError("configuration field and pattern characteristic differ")


def _check_kind(kind: str):
    if kind not in (EXACT, QUASI_EXACT):
        raise ValueError(f"unknown kind {kind!r}")


_ONE = [0]  # log list of the constant polynomial 1 (see ratfunc._from_logs)


def _E(spec: FieldSpec, roots, m, p):
    """Log list of E at the places of index `roots`, for the quasi-exact kind once max(m) < p makes each a_i <= 0."""
    E = [r for r, mi in zip(roots, m) if r is not None for _ in range(-(mi // p))]
    return Polynomial._from_root_indices(spec, E).logs


def _in_locus(spec: FieldSpec, kind: str, h, h_f, E, E_f) -> bool:
    """The locus condition on h = h * h_f and E = E * E_f, the quasi-exact kind for max(m) < p.

    All four are discrete-log lists.  tc(f) = g T, where T_j is the
    p-th root of the coefficient B_{p-1+pj} of y^(p-1+pj) in h.
    Exact: T = 0, i.e. bucket p - 1 of h vanishes.  Quasi-exact, g = 1 / E:
    T = c E with c != 0, i.e. B_{p-1+pj} = 0 above j = deg E, C = B_{p-1+p deg E}
    is nonzero and B_{p-1+pj} = C E_j^p below it.  The coefficients of
    bucket p - 1 are computed one at a time from the top down, and the
    test stops at the first one that fails.
    """
    p, q1, zech = spec.p, spec.q - 1, spec._zech
    top = len(h) + len(h_f) - 2
    bucket = range(top - (top + 1) % p, -1, -p)  # degrees = p - 1 mod p, top down
    if kind == EXACT:
        for d in bucket:
            if _coeff_log(h, h_f, d, zech, q1) >= 0:
                return False
        return True
    low = p - 1 + p * (len(E) + len(E_f) - 2)  # degree of C
    if low > top:
        return False
    lead = None
    for d in bucket:
        b = _coeff_log(h, h_f, d, zech, q1)
        if d > low:
            if b >= 0:  # T has a term above deg E
                return False
        elif lead is None:
            if b < 0:  # c = 0
                return False
            lead = b
        else:
            ej = _coeff_log(E, E_f, (d - p + 1) // p, zech, q1)
            if (b < 0) != (ej < 0) or (ej >= 0 and (b - lead - p * ej) % q1):
                return False
    return True


def _member(spec: FieldSpec, kind: str, pattern: ZeroPolePattern, roots):
    """(h's roots, E's log list) if the places of index `roots` lie in the locus, else None.

    g tc(h) = c forces every a_i <= 0, and with the degree test at infinity
    max(m) < p: only then is E built.  The exact kind reads no E and gets None.
    """
    m, p = pattern.m, pattern.p
    if kind == QUASI_EXACT and max(m) >= p:
        return None
    h, E = _reduced_roots(roots, m, p), _E(spec, roots, m, p) if kind == QUASI_EXACT else None
    return (h, E) if _in_locus(spec, kind, Polynomial._from_root_indices(spec, h).logs, _ONE, E, _ONE) else None


def locus_membership(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> bool:
    """Whether the configuration lies in the exact or quasi-exact locus."""
    _check_compatible(config, pattern)
    _check_kind(kind)
    return _member(config.spec, kind, pattern, _root_indices(config.spec, config.points)) is not None


def dimension_formula(pattern: ZeroPolePattern, kind: str) -> int:
    """Closed-form locus dimension; negative values signal emptiness.

    Nonnegative values do not signal a point: the value is nonnegative on
    9,484 of the 9,658 loci that locus_search finds empty from the pattern
    alone, with p <= 5, n = 3..6 and entries in [-2p, 2p] taken as multisets.
    """
    _check_kind(kind)
    return pattern.n - 4 + (kind == QUASI_EXACT) + sum(v // pattern.p for v in pattern.m)


def tangent_report(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> dict:
    """Kernel data of the first-order deformation map at a locus point.

    The last three markings are pinned; the i-th unit deformation of a
    free marking contributes r_i = tc of the eps-part of the deformed
    product, and the tangent space is the kernel of a -> sum a_i^{1/p} r_i
    (quasi-exact kind: composed with the quotient by the constants).  The
    eps-part is -m_i g^p h / (y - p_i), zero when b_i = 0; otherwise
    r_i = -m_i g tc(h / (y - p_i)).  Dividing by that nonzero scalar and
    by g, an injective linear map, leaves the ranks below alone: row i
    holds the coefficients of tc(h / (y - p_i)), and in the quasi-exact
    kind, where g = 1 / E, a constant c has those of c E.  One elimination
    of the log rows, E last, gives the rank without E and the rank with it.
    A locus_search hit's witness stands in for the membership test when it
    holds this very points tuple, this m and this kind; any other is tested.
    """
    _check_compatible(config, pattern)
    if len(pattern.m) < 3:
        raise ValueError("need at least three markings to rigidify the line")
    _check_kind(kind)
    spec, p, m, w = config.spec, pattern.p, pattern.m, config._witness
    if w is not None and w[0] is config.points and w[1] == (m, kind):
        roots = w[2]
        found = _reduced_roots(roots, m, p), _E(spec, roots, m, p) if kind == QUASI_EXACT else None
    else:
        roots = _root_indices(spec, config.points)
        found = _member(spec, kind, pattern, roots)
    if found is None:
        raise ValueError("configuration is not in the locus")
    free = len(m) - 3
    if None in roots[:free]:
        raise ValueError("the marking at infinity must be among the three pinned ones")

    h_roots, E = found
    rows = []
    for r, mi in zip(roots[:free], m):
        if mi % p:
            rest = list(h_roots)
            rest.remove(r)
            rows.append(_tc_kernel(Polynomial._from_root_indices(spec, rest))[0].logs)
    responses = len(rows)
    if kind == QUASI_EXACT:
        rows.append(E)
    # log rows padded to the longest, as zero columns change no rank;
    # absorb the p^{-1}-semilinearity: substituting a_i -> a_i^p makes the
    # map linear without changing the kernel dimension over a finite field
    width = max(map(len, rows), default=0)
    ranks = _prefix_ranks(spec, [R + [-1] * (width - len(R)) for R in rows])
    rank = ranks[responses]
    dim = free - (rank if kind == EXACT else ranks[-1] - 1)
    return {"kind": kind, "free": free, "ker_alpha": free - responses, "rank": rank, "dimension": dim}


def tangent_dimension(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> int:
    return tangent_report(config, pattern, kind)["dimension"]


# ---------------------------------------------------------------------------
# exhaustive search


def locus_search(pattern: ZeroPolePattern, kind: str, spec: FieldSpec, pinned=None):
    """_search's hits as MarkingConfigs, each with the witness (points, (m, kind), root indices)."""
    configs, key = [], (pattern.m, kind)  # one key object for all hits keeps each hit small
    for roots, points in _search(pattern, kind, spec, pinned):
        config = object.__new__(MarkingConfig)  # past its check, which _search's hits meet (see there)
        config.spec, config.points, config._witness = spec, points, (points, key, roots)
        configs.append(config)
    return configs


def _search(pattern: ZeroPolePattern, kind: str, spec: FieldSpec, pinned=None):
    """An iterator of (root indices, places) of all locus configurations over GF(p^k), the last markings pinned.

    The pinned places (default 0, 1, infinity; at most three, truncated
    for very short patterns, checked distinct) occupy the final slots,
    killing the Moebius symmetry; the free slots take distinct places of
    the rest, so a hit's places are distinct, in the order of
    itertools.permutations, as a depth-first search that fills the free
    slots one at a time, each in candidate order.  Along a branch the
    search carries the log lists (Polynomial.logs) of the prefix products
    of h and, for the quasi-exact kind, of E, starting from the pinned
    points; a free slot at infinity contributes 1.  Every factor
    (y - a)^{b_i} of h has degree < p, and the log lists of the factors are
    cached for the call.  At the last free slot h is never formed: the
    coefficients of its bucket p - 1 are computed one at a time and the
    first that fails rules the candidate out (_in_locus).

    The pattern alone decides two cases before the search:
    - the quasi-exact kind with some m_i >= p: g tc(h) = c != 0 forces
      g+ = 1, as tc(h) is a polynomial, and at infinity the degree test of
      _in_locus, deg h >= p - 1 + p deg E, says m_i <= p - 1;
    - some m_i = -1 mod p, for the quasi-exact kind other than m_i = p - 1.
      The (p-1)-th derivative is f^(p-1) = -tc(f)^p, and at such a marking
      the falling factorial m_i (m_i - 1) ... (m_i - p + 2) is (p-1)! = -1
      mod p, a unit, so tc(f)^p has order exactly m_i - p + 1 there (at
      infinity through the degree sum of the finite m_i, which is then
      -1 mod p too).  So tc(f) is not zero, and a constant only if
      m_i = p - 1.
    A search of more than MAX_SEARCH_CONFIGS free-slot permutations raises
    ValueError before either decision, and before visiting any: all of
    these run when _search is called, and the hits are found as drawn.
    """
    if spec.p != pattern.p:
        raise ValueError("field characteristic and pattern characteristic differ")
    _check_kind(kind)
    n, m, p = pattern.n, pattern.m, pattern.p
    if pinned is None:
        pinned = (Place.finite(spec.from_int(0)), Place.finite(spec.from_int(1)), INFINITY)
    pinned = tuple(pinned)
    if len(pinned) > 3:
        raise ValueError(f"at most three places can be pinned, got {len(pinned)}")
    pinned = pinned[:n]
    if len(set(pinned)) != len(pinned):
        raise ValueError("pinned places must be distinct")
    free = n - len(pinned)
    pinned_roots = tuple(_root_indices(spec, pinned))
    # element indices in index order, then infinity (None), as Places sort
    candidates = [r for r in [*range(spec.q), None] if r not in pinned_roots]
    visits = math.perm(len(candidates), free)
    if visits > MAX_SEARCH_CONFIGS:
        raise ValueError(
            f"search would visit {visits} configurations, above MAX_SEARCH_CONFIGS = {MAX_SEARCH_CONFIGS}"
        )
    quasi = kind == QUASI_EXACT
    if quasi and max(m) >= p or any(mi % p == p - 1 and not (quasi and mi == p - 1) for mi in m):
        return iter(())

    def parts(roots, ms):
        """Log lists of h and, for the quasi-exact kind, E over the places of index `roots`."""
        h = Polynomial._from_root_indices(spec, _reduced_roots(roots, ms, p)).logs
        return h, _E(spec, roots, ms, p) if quasi else None

    h, E = parts(pinned_roots, m[free:])
    if free == 0:
        return iter([(pinned_roots, pinned)] if _in_locus(spec, kind, h, _ONE, E, _ONE) else [])
    if not visits:
        return iter(())
    places = {r: INFINITY if r is None else Place.finite(spec.element(r)) for r in candidates}
    factors = {(r, mi): parts([r], [mi]) for mi in set(m[:free]) for r in candidates}  # for the call
    zech, q1 = spec._zech, spec.q - 1

    def hits(chosen, h, E):
        """Completions of the prefix `chosen`, with log lists h and E of its products."""
        mi, last = m[len(chosen)], len(chosen) == free - 1
        for r in candidates:
            if r in chosen:
                continue
            hl, el = factors[r, mi]
            if last:
                if _in_locus(spec, kind, h, hl, E, el):
                    yield chosen + (r,)
            else:
                E_r = _log_mul(E, el, zech, q1) if quasi and mi < 0 else E  # only quasi-exact reads E
                yield from hits(chosen + (r,), _log_mul(h, hl, zech, q1), E_r)

    return ((chosen + pinned_roots, tuple(places[r] for r in chosen) + pinned) for chosen in hits((), h, E))
