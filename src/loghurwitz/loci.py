"""Exact and quasi-exact loci of marked configurations on the line.

A zero/pole pattern m = (m_1, ..., m_n) with sum 2p-2 attaches to each
configuration of n distinct marked points the bivariant form
psi = prod (y - p_i)^{m_i} dy/dx (the product over the finite markings;
the order at a marking at infinity is then automatic).  The exact locus
is where the twisted Cartier operator kills psi, the quasi-exact locus
is where it gives a nonzero constant.
"""

from __future__ import annotations

import itertools
import math

from .cartier import _tc_kernel, matrix_rank
from .ffield import FieldSpec
from .ratfunc import INFINITY, Place, Polynomial

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


def _form_parts(config: MarkingConfig, pattern: ZeroPolePattern):
    """(N, D): monic polynomials with N / D the product over the finite markings."""
    spec = config.spec
    num_roots, den_roots = [], []
    for q, mi in zip(config.points, pattern.m):
        if not q.is_infinity:
            (num_roots if mi > 0 else den_roots).extend([q.value] * abs(mi))
    return Polynomial.from_roots(spec, num_roots), Polynomial.from_roots(spec, den_roots)


def locus_membership(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> bool:
    """Whether the configuration lies in the exact or quasi-exact locus."""
    _check_compatible(config, pattern)
    N, D = _form_parts(config, pattern)
    T = _tc_kernel(N, D)[0]  # tc of the attached form is T / D
    if kind == EXACT:
        return T.is_zero()
    if kind == QUASI_EXACT:
        # T / D is a nonzero constant exactly when T is a scalar multiple
        # of the (monic) denominator D
        if T.is_zero() or T.degree != D.degree:
            return False
        spec, c = config.spec, T.coeffs[-1]
        return all(spec.mul_idx(d, c) == t for d, t in zip(D.coeffs, T.coeffs))
    raise ValueError(f"unknown kind {kind!r}")


def dimension_formula(pattern: ZeroPolePattern, kind: str) -> int:
    """Closed-form locus dimension; negative values signal emptiness."""
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
    (quasi-exact kind: composed with the quotient by the constants).
    """
    _check_compatible(config, pattern)
    if pattern.n < 3:
        raise ValueError("need at least three markings to rigidify the line")
    if not locus_membership(config, pattern, kind):
        raise ValueError("configuration is not in the locus")
    spec = config.spec
    n = pattern.n
    free = n - 3
    if any(q.is_infinity for q in config.points[:free]):
        raise ValueError("the marking at infinity must be among the three pinned ones")

    # the eps-part of the i-th unit deformation is -m_i * (N/D) / (y - p_i),
    # so it vanishes exactly when p divides m_i; a nonzero scalar factor
    # does not change the rank computed below.  Its tc is T_i / (D (y - p_i)).
    p = pattern.p
    N, D = _form_parts(config, pattern)
    responses = []
    for q, mi in zip(config.points[:free], pattern.m):
        if mi % p:
            den = D * Polynomial.from_roots(spec, [q.value])
            responses.append((_tc_kernel(N, den)[0], den))
    ker_alpha = free - len(responses)

    # coefficient vectors over the common denominator
    # prod (y - p_i)^{max(0, ceil(m_i / p))}, which clears every pole the
    # twisted operator can produce.
    clear_roots = []
    m_inf = 0
    for q, mi in zip(config.points, pattern.m):
        if q.is_infinity:
            m_inf = mi
        else:
            clear_roots.extend([q.value] * -(mi // p))  # pole allowance ceil(-m_i / p)
    clear = Polynomial.from_roots(spec, clear_roots)
    inf_allowance = max(0, (3 * p - 3 - m_inf) // p)
    width = clear.degree + 1 + inf_allowance

    def coeff_row(T, den):
        g, rest = (T * clear).divmod(den)
        if not rest.is_zero() or len(g.coeffs) > width:
            raise AssertionError("tc response escapes the cleared coefficient space")
        return list(g.coeffs) + [0] * (width - len(g.coeffs))

    rows = [coeff_row(T, den) for T, den in responses]
    # absorb the p^{-1}-semilinearity: substituting a_i -> a_i^p makes the
    # map linear without changing the kernel dimension over a finite field
    rank = matrix_rank(spec, rows) if rows else 0
    if kind == EXACT:
        dim = free - rank
    else:
        one = Polynomial.constant(spec, 1)
        aug = rows + [coeff_row(one, one)]
        dim = free - (matrix_rank(spec, aug) - 1)
    return {
        "kind": kind,
        "free": free,
        "ker_alpha": ker_alpha,
        "rank": rank,
        "dimension": dim,
    }


def tangent_dimension(config: MarkingConfig, pattern: ZeroPolePattern, kind: str) -> int:
    return tangent_report(config, pattern, kind)["dimension"]


# ---------------------------------------------------------------------------
# exhaustive search


def _default_pinned(spec: FieldSpec):
    return (Place.finite(spec.from_int(0)), Place.finite(spec.from_int(1)), INFINITY)


def locus_search(pattern: ZeroPolePattern, kind: str, spec: FieldSpec, pinned=None):
    """All locus configurations over GF(p^k), the last markings pinned.

    The pinned places (default 0, 1, infinity, truncated for very short
    patterns) occupy the final slots, killing the Moebius symmetry; the
    free slots range lexicographically over the remaining places.  A
    search of more than MAX_SEARCH_CONFIGS free-slot permutations raises
    ValueError before visiting any.
    """
    if spec.p != pattern.p:
        raise ValueError("field characteristic and pattern characteristic differ")
    n = pattern.n
    if pinned is None:
        pinned = _default_pinned(spec)
    pinned = tuple(pinned)[: min(3, n)]
    if len(set(pinned)) != len(pinned):
        raise ValueError("pinned places must be distinct")
    free = n - len(pinned)
    if free < 0:
        raise ValueError("more pinned places than markings")
    places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
    candidates = [q for q in places if q not in pinned]
    visits = math.perm(len(candidates), free)
    if visits > MAX_SEARCH_CONFIGS:
        raise ValueError(
            f"search would visit {visits} configurations, above MAX_SEARCH_CONFIGS = {MAX_SEARCH_CONFIGS}"
        )
    out = []
    for combo in itertools.permutations(candidates, free):
        points = combo + pinned
        try:
            config = MarkingConfig(spec, points)
        except ValueError:
            continue
        if locus_membership(config, pattern, kind):
            out.append(config)
    return out
