"""Exact and quasi-exact loci of marked configurations on the line.

A zero/pole pattern m = (m_1, ..., m_n) with sum 2p-2 attaches to each
configuration of n distinct marked points the bivariant form
psi = prod (y - p_i)^{m_i} dy/dx (the product over the finite markings;
the order at a marking at infinity is then automatic).  The exact locus
is where the twisted Cartier operator kills psi, the quasi-exact locus
is where it gives a nonzero constant.
"""

from __future__ import annotations

import math

from .cartier import _coordinates, _form_parts, _root_indices, _tc_kernel, matrix_rank
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
    """n pairwise distinct places on the line, at most one at infinity."""

    __slots__ = ("spec", "points")

    def __init__(self, spec: FieldSpec, points):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValueError("repeated markings")
        if sum(1 for q in points if q.is_infinity) > 1:
            raise ValueError("at most one marking at infinity")
        self.spec = spec
        self.points = points

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
    if len(config.points) != pattern.n:
        raise ValueError("configuration and pattern lengths differ")
    if config.spec.p != pattern.p:
        raise ValueError("configuration field and pattern characteristic differ")


def _check_kind(kind: str):
    if kind not in (EXACT, QUASI_EXACT):
        raise ValueError(f"unknown kind {kind!r}")


_ONE = [0]  # log list of the constant polynomial 1 (see ratfunc._from_logs)


def _in_locus(spec: FieldSpec, kind: str, big, big_f, den, den_f) -> bool:
    """The locus condition, for N D^(p-1) = big * big_f and D = den * den_f.

    All four are discrete-log lists.  tc(N/D dy/dx) = T/D, where T_j is the
    p-th root of the coefficient B_{p-1+pj} of y^(p-1+pj) in N D^(p-1).
    Exact: T = 0, i.e. bucket p - 1 of N D^(p-1) vanishes.  Quasi-exact:
    T = c D with c != 0, i.e. B_{p-1+pj} = 0 above j = deg D, C = B_{p-1+p deg D}
    is nonzero and B_{p-1+pj} = C D_j^p below it.  The coefficients of
    bucket p - 1 are computed one at a time from the top down, and the
    test stops at the first one that fails.
    """
    p, q1, zech = spec.p, spec.q - 1, spec._zech
    top = len(big) + len(big_f) - 2
    bucket = range(top - (top + 1) % p, -1, -p)  # degrees = p - 1 mod p, top down
    if kind == EXACT:
        for d in bucket:
            if _coeff_log(big, big_f, d, zech, q1) >= 0:
                return False
        return True
    low = p - 1 + p * (len(den) + len(den_f) - 2)  # degree of C
    if low > top:
        return False
    lead = None
    for d in bucket:
        b = _coeff_log(big, big_f, d, zech, q1)
        if d > low:
            if b >= 0:  # T has a term above deg D
                return False
        elif lead is None:
            if b < 0:  # c = 0
                return False
            lead = b
        else:
            dj = _coeff_log(den, den_f, (d - p + 1) // p, zech, q1)
            if (b < 0) != (dj < 0) or (dj >= 0 and (b - lead - p * dj) % q1):
                return False
    return True


def locus_membership(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> bool:
    """Whether the configuration lies in the exact or quasi-exact locus."""
    _check_compatible(config, pattern)
    _check_kind(kind)
    spec = config.spec
    big, den = _form_parts(spec, _root_indices(spec, config.points), pattern.m, pattern.p - 1)
    return _in_locus(spec, kind, big.logs, _ONE, den.logs, _ONE)


def dimension_formula(pattern: ZeroPolePattern, kind: str) -> int:
    """Closed-form locus dimension; negative values signal emptiness.

    Nonnegative values do not signal a point: the value is nonnegative on
    7,276 of the 7,450 loci that locus_search finds empty from the pattern
    alone, with p <= 5, n = 3..6 and entries in [-2p, 2p].
    """
    base = sum(v // pattern.p for v in pattern.m)
    if kind == EXACT:
        return pattern.n - 4 + base
    if kind == QUASI_EXACT:
        return pattern.n - 3 + base
    raise ValueError(f"unknown kind {kind!r}")


def tangent_report(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> dict:
    """Kernel data of the first-order deformation map at a locus point.

    The last three markings are pinned; the i-th unit deformation of a
    free marking contributes r_i = tc of the eps-part of the deformed
    product, and the tangent space is the kernel of a -> sum a_i^{1/p} r_i
    (quasi-exact kind: composed with the quotient by the constants).  One
    product N D^(p-1) serves both the membership guard (_in_locus) and
    every response: N / (D (y - p_i)) is N D^(p-1) / (y - p_i) over the
    p-th power D^p, so its tc is T / (D (y - p_i)) with
    T = _tc_kernel(N D^(p-1), y - p_i).
    """
    _check_compatible(config, pattern)
    if pattern.n < 3:
        raise ValueError("need at least three markings to rigidify the line")
    _check_kind(kind)
    spec, p = config.spec, pattern.p
    roots = _root_indices(spec, config.points)
    big, D = _form_parts(spec, roots, pattern.m, p - 1)
    if not _in_locus(spec, kind, big.logs, _ONE, D.logs, _ONE):
        raise ValueError("configuration is not in the locus")
    free = pattern.n - 3
    if any(q.is_infinity for q in config.points[:free]):
        raise ValueError("the marking at infinity must be among the three pinned ones")

    # the eps-part of the i-th unit deformation is -m_i * (N/D) / (y - p_i),
    # so it vanishes exactly when p divides m_i; a nonzero scalar factor
    # does not change the rank computed below.  Its tc is T_i / (D (y - p_i)).
    responses = []
    for r, mi in zip(roots[:free], pattern.m):
        if mi % p:
            lin = Polynomial._from_root_indices(spec, [r])
            responses.append((_tc_kernel(big, lin)[0], D * lin))
    ker_alpha = free - len(responses)

    # coefficient vectors over the common denominator
    # prod (y - p_i)^{max(0, ceil(m_i / p))}, which clears every pole the
    # twisted operator can produce.
    m_inf = sum(mi for r, mi in zip(roots, pattern.m) if r is None)
    clear_roots = [r for r, mi in zip(roots, pattern.m) if r is not None for _ in range(-(mi // p))]
    clear = Polynomial._from_root_indices(spec, clear_roots)  # pole allowance ceil(-m_i / p) at each
    inf_allowance = max(0, (3 * p - 3 - m_inf) // p)
    width = clear.degree + 1 + inf_allowance
    rows = [_coordinates(T, clear, den, width) for T, den in responses]
    # absorb the p^{-1}-semilinearity: substituting a_i -> a_i^p makes the
    # map linear without changing the kernel dimension over a finite field
    rank = matrix_rank(spec, rows) if rows else 0
    if kind == EXACT:
        dim = free - rank
    else:
        one = Polynomial.constant(spec, 1)
        aug = rows + [_coordinates(one, clear, one, width)]
        dim = free - (matrix_rank(spec, aug) - 1)
    return {"kind": kind, "free": free, "ker_alpha": ker_alpha, "rank": rank, "dimension": dim}


def tangent_dimension(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> int:
    return tangent_report(config, pattern, kind)["dimension"]


# ---------------------------------------------------------------------------
# exhaustive search


def locus_search(pattern: ZeroPolePattern, kind: str, spec: FieldSpec, pinned=None):
    """All locus configurations over GF(p^k), the last markings pinned.

    The pinned places (default 0, 1, infinity; at most three, truncated
    for very short patterns) occupy the final slots, killing the Moebius
    symmetry; the free slots range over the remaining places in the order
    of itertools.permutations, as a depth-first search that fills the free
    slots one at a time, each in candidate order.  Along a branch the
    search carries the log list (Polynomial.logs) of the prefix product
    base * prod (y - a_i)^{e_i}, with e_i = m_i at a zero and (p - 1)|m_i|
    at a pole, so that the full product is the N D^(p-1) of the tc
    kernel; base is the product over the pinned points and a free slot at
    infinity contributes 1.  The log lists of the factors (y - a)^{e} are
    cached for the call.  At the last free slot the full product is never
    formed: the coefficients of its bucket p - 1 are computed one at a
    time and the first that fails rules the candidate out (_in_locus,
    shared with locus_membership).  Its quasi-exact degree test
    low <= top is decided before the search: top - low + p - 1 is the sum
    of m_i over the finite markings, so it holds iff a marking at infinity
    has m_i <= p - 1.  A pinned infinity that fails returns [], and no
    free slot that fails holds infinity.  The pattern alone decides more:
    for f = prod (y - p_i)^{m_i} over the finite markings, the (p-1)-th
    derivative is f^(p-1) = -tc(f)^p.  At a marking with m_i = -1 mod p
    the falling factorial m_i (m_i - 1) ... (m_i - p + 2) is (p-1)! = -1
    mod p, a unit, so f^(p-1), and with it tc(f)^p, has order exactly
    m_i - p + 1 there (at infinity through the degree sum of the finite
    m_i, which is then -1 mod p too).  So tc(f) is not zero, and it is a
    constant only if m_i = p - 1: such a pattern returns [] for the exact
    kind, and for the quasi-exact kind unless m_i = p - 1.  A search of
    more than MAX_SEARCH_CONFIGS free-slot permutations raises ValueError
    before either decision, and before visiting any.
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
    pinned_roots = _root_indices(spec, pinned)
    # element indices in index order, then infinity (None), as Places sort
    candidates = [r for r in [*range(spec.q), None] if r not in pinned_roots]
    visits = math.perm(len(candidates), free)
    if visits > MAX_SEARCH_CONFIGS:
        raise ValueError(
            f"search would visit {visits} configurations, above MAX_SEARCH_CONFIGS = {MAX_SEARCH_CONFIGS}"
        )
    quasi = kind == QUASI_EXACT
    if any(mi % p == p - 1 and not (quasi and mi == p - 1) for mi in m):
        return []
    if quasi and any(q.is_infinity and mi >= p for q, mi in zip(pinned, m[free:])):
        return []
    slots = [[r for r in candidates if r is not None or not quasi or mi < p] for mi in m[:free]]
    base, base_den = _form_parts(spec, pinned_roots, m[free:], p - 1)
    if free == 0:
        found = _in_locus(spec, kind, base.logs, _ONE, base_den.logs, _ONE)
        return [MarkingConfig(spec, pinned)] if found else []
    if not visits:
        return []

    log, zech, q1 = spec._log, spec._zech, spec.q - 1
    templates, cache = {}, {}

    def factor(r, mi):
        """Logs of (y - r)^{e_i} and of (y - r)^{|m_i|} at a pole, cached for the call.

        For r != 0 both are r^n f(y / r), f the same power of y - 1, so the
        coefficient of y^t is that of f times r^(n - t).
        """
        key = (r, mi)
        if key not in cache:
            if not r:  # infinity (None) contributes 1, and 0 powers of y
                cache[key] = [f.logs for f in _form_parts(spec, [r], [mi], p - 1)]
            else:
                if mi not in templates:
                    templates[mi] = [f.logs for f in _form_parts(spec, [1], [mi], p - 1)]
                lr = log[r]
                cache[key] = [
                    [c if c < 0 else (c + (len(f) - 1 - t) * lr) % q1 for t, c in enumerate(f)]
                    for f in templates[mi]
                ]
        return cache[key]

    def hits(chosen, big, den):
        """Completions of the prefix `chosen`, with log lists big of its N D^(p-1) and den of its D."""
        mi, last = m[len(chosen)], len(chosen) == free - 1
        for r in slots[len(chosen)]:
            if r in chosen:
                continue
            fl, gl = factor(r, mi)
            if last:
                if _in_locus(spec, kind, big, fl, den, gl):
                    yield chosen + (r,)
            else:
                den_r = _log_mul(den, gl, zech, q1) if quasi and mi < 0 else den  # only quasi-exact reads D
                yield from hits(chosen + (r,), _log_mul(big, fl, zech, q1), den_r)

    return [
        MarkingConfig(spec, tuple(INFINITY if a is None else Place.finite(spec.element(a)) for a in chosen) + pinned)
        for chosen in hits((), base.logs, base_den.logs)
    ]
