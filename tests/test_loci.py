import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from loghurwitz import loci
from loghurwitz.cartier import _prefix_ranks, _root_indices, _tc_kernel, matrix_rank
from loghurwitz.ffield import FieldSpec, field
from loghurwitz.loci import (
    EXACT,
    MAX_SEARCH_CONFIGS,
    QUASI_EXACT,
    MarkingConfig,
    ZeroPolePattern,
    _check_compatible,
    dimension_formula,
    locus_membership,
    locus_search,
    tangent_dimension,
    tangent_report,
)
from loghurwitz.mobius import Mobius
from loghurwitz.ratfunc import INFINITY, Place, Polynomial, RationalFunction

F4 = field(2, 2)
F8 = field(2, 3)
F16 = field(2, 4)
F9 = field(3, 2)


def pt(spec, v):
    return Place.finite(spec.from_int(v))


# -- dual numbers k(y)[eps]/(eps^2), the first-order oracle --------------------


class DualRational:
    """a + b eps with rational a, b and eps^2 = 0."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalFunction, b: RationalFunction):
        self.a = a
        self.b = b

    @classmethod
    def constant(cls, f: RationalFunction):
        return cls(f, RationalFunction.constant(f.spec, 0))

    def __add__(self, other):
        return DualRational(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DualRational(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return DualRational(self.a * other.a, self.a * other.b + self.b * other.a)

    def inverse(self):
        inv = RationalFunction.constant(self.a.spec, 1) / self.a
        return DualRational(inv, -self.b * inv * inv)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = DualRational.constant(RationalFunction.constant(self.a.spec, 1))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def _deformed_form(config: MarkingConfig, pattern: ZeroPolePattern, a_vals):
    """(F0, F1) with prod (y - (p_i + a_i eps))^{m_i} = F0 + eps F1."""
    spec = config.spec
    y = DualRational.constant(RationalFunction.variable(spec))
    out = DualRational.constant(RationalFunction.constant(spec, 1))
    for q, mi, ai in zip(config.points, pattern.m, a_vals):
        if q.is_infinity:
            continue
        shift = DualRational(
            RationalFunction.constant(spec, q.value),
            RationalFunction.constant(spec, ai),
        )
        out = out * (y - shift) ** mi
    return out.a, out.b


# -- pattern and configuration types ------------------------------------------


def test_pattern_invariants():
    p = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    assert p.n == 5
    assert p.reduced() == (1, 1, 1, 1, 0)
    assert p.I_p() == (4,)
    with pytest.raises(ValueError):
        ZeroPolePattern(2, (1, 1, 1))  # sum is 3, not 2
    with pytest.raises(ValueError):
        ZeroPolePattern(2, (2, 0))  # zero entry


def test_config_invariants():
    with pytest.raises(ValueError):
        MarkingConfig(F16, [pt(F16, 0), pt(F16, 0)])
    # two infinities are equal places, so the distinctness check catches them
    for points in ([INFINITY, INFINITY], [INFINITY, Place.infinity(), pt(F16, 1)]):
        with pytest.raises(ValueError, match="^repeated markings$"):
            MarkingConfig(F16, points)


def test_config_hash_follows_equality():
    F3 = field(3, 1)
    pts = [pt(F3, 0), pt(F3, 1), INFINITY]
    a = MarkingConfig(F3, pts)
    b = MarkingConfig(FieldSpec(3, 1), pts)
    assert a == b
    assert len({a, b}) == 1


# -- membership ---------------------------------------------------------------


def test_exact_membership():
    pat = ZeroPolePattern(2, (2, 2, -2))
    c = MarkingConfig(F16, [pt(F16, 0), pt(F16, 1), INFINITY])
    assert locus_membership(c, pat, EXACT)
    assert not locus_membership(c, pat, QUASI_EXACT)


def test_quasi_exact_membership_on_sqrt_locus():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    for lam in F16.elements():
        if lam.idx in (0, 1):
            continue
        mu = lam.pth_root()
        c = MarkingConfig(
            F16, [pt(F16, 0), pt(F16, 1), Place.finite(lam), INFINITY, Place.finite(mu)]
        )
        assert locus_membership(c, pat, QUASI_EXACT)
        assert not locus_membership(c, pat, EXACT)


def test_membership_fails_off_locus():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    lam = F16.element(4)
    for nu in F16.elements():
        pts = [pt(F16, 0), pt(F16, 1), Place.finite(lam), INFINITY, Place.finite(nu)]
        if len(set(pts)) < 5:
            continue
        assert locus_membership(MarkingConfig(F16, pts), pat, QUASI_EXACT) == (
            nu == lam.pth_root()
        )


def test_two_point_pattern_everywhere_nonexact():
    pat = ZeroPolePattern(2, (1, 1))
    for a in F4.elements():
        for b in F4.elements():
            if a == b:
                continue
            c = MarkingConfig(F4, [Place.finite(a), Place.finite(b)])
            assert not locus_membership(c, pat, EXACT)


def test_mobius_invariance():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    lam = F16.element(6)
    mu = lam.pth_root()
    c = MarkingConfig(
        F16, [pt(F16, 0), pt(F16, 1), Place.finite(lam), INFINITY, Place.finite(mu)]
    )
    for m in [
        Mobius(F16, F16.element(3), F16.one, F16.zero, F16.one),
        Mobius(F16, F16.zero, F16.one, F16.one, F16.zero),
        Mobius(F16, F16.element(5), F16.element(2), F16.one, F16.element(9)),
    ]:
        moved = MarkingConfig(F16, [m.apply_place(q) for q in c.points])
        assert locus_membership(moved, pat, QUASI_EXACT)


# -- closed forms -------------------------------------------------------------


def test_dimension_formula():
    assert dimension_formula(ZeroPolePattern(2, (2, 2, -2)), EXACT) == 0
    assert dimension_formula(ZeroPolePattern(2, (1, 1, 1, 1, -2)), QUASI_EXACT) == 1
    assert dimension_formula(ZeroPolePattern(2, (1, 1)), EXACT) == -2
    with pytest.raises(ValueError, match=r"^unknown kind 'bogus'$"):
        dimension_formula(ZeroPolePattern(2, (2, 2, -2)), "bogus")
    for kind in (EXACT, QUASI_EXACT):
        assert type(dimension_formula(ZeroPolePattern(2, (2, 2, -2)), kind)) is int


# -- tangent spaces -----------------------------------------------------------


def test_tangent_rigid_point():
    pat = ZeroPolePattern(2, (2, 2, -2))
    c = MarkingConfig(F16, [pt(F16, 0), pt(F16, 1), INFINITY])
    assert tangent_dimension(c, pat, EXACT) == 0


def test_tangent_quasi_exact_curve():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    for lam in F16.elements():
        if lam.idx in (0, 1):
            continue
        mu = lam.pth_root()
        c = MarkingConfig(
            F16, [pt(F16, 0), pt(F16, 1), Place.finite(lam), INFINITY, Place.finite(mu)]
        )
        assert tangent_dimension(c, pat, QUASI_EXACT) == 1


def test_tangent_requires_membership():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    lam, nu = F16.element(4), F16.element(7)
    assert nu != lam.pth_root()
    c = MarkingConfig(
        F16, [pt(F16, 0), pt(F16, 1), Place.finite(lam), INFINITY, Place.finite(nu)]
    )
    with pytest.raises(ValueError):
        tangent_dimension(c, pat, QUASI_EXACT)


def test_ker_alpha_counts_p_divisible_free_entries():
    # (y-a)^2 y^2 (y-1)^2: a perfect square for every a, so the locus is
    # the whole line and the free deformation is killed by alpha
    pat = ZeroPolePattern(2, (2, 2, 2, -4))
    hits = locus_search(pat, EXACT, F16)
    assert len(hits) == 14
    for c in hits:
        rep = tangent_report(c, pat, EXACT)
        assert rep["ker_alpha"] == 1 == len([i for i in pat.I_p() if i < rep["free"]])
        assert rep["dimension"] == dimension_formula(pat, EXACT) == 1


def test_first_order_consistency():
    # brute-force count of first-order deformations keeping tc constant:
    # must be q^(tangent dimension)
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    lam = F16.element(9)
    mu = lam.pth_root()
    c = MarkingConfig(
        F16, [pt(F16, 0), pt(F16, 1), Place.finite(lam), INFINITY, Place.finite(mu)]
    )
    dim = tangent_dimension(c, pat, QUASI_EXACT)
    from loghurwitz.cartier import BivariantForm, twisted_cartier

    count = 0
    zero = F16.zero
    for a1 in F16.elements():
        for a2 in F16.elements():
            _, f1 = _deformed_form(c, pat, [a1, a2, zero, zero, zero])
            tc1 = twisted_cartier(BivariantForm(f1))
            if tc1.is_zero() or tc1.is_constant():
                count += 1
    assert count == F16.q**dim


# -- search -------------------------------------------------------------------


def test_search_quasi_exact_family():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    found = locus_search(pat, QUASI_EXACT, F16)
    assert len(found) == 14
    one = F16.one
    for c in found:
        p1, p2 = c.points[0].value, c.points[1].value
        assert p2 == p1 + one  # the free points satisfy p2 = p1 + 1
        assert (p1 * p2).idx != 0
        assert c.points[2:] == (pt(F16, 0), pt(F16, 1), INFINITY)


def test_search_exact_point():
    pat = ZeroPolePattern(2, (2, 2, -2))
    found = locus_search(pat, EXACT, F16)
    assert len(found) == 1
    assert found[0].points == (pt(F16, 0), pt(F16, 1), INFINITY)


def test_search_empty(monkeypatch):
    pat = ZeroPolePattern(2, (1, 1))
    assert locus_search(pat, EXACT, F4) == []
    assert locus_search(pat, EXACT, F16) == []
    # 15 free slots and 14 candidates, but the pattern decides first (-7 is -1 mod 2): no partial one is explored
    assert locus_search(ZeroPolePattern(2, (1,) * 16 + (-7, -7)), QUASI_EXACT, F16) == []

    def no_visit(*args):
        raise AssertionError("a search with more free slots than candidates visited a prefix")

    # all m_i even, so the exact kind gets no pattern decision: the search returns before any visit
    monkeypatch.setattr(loci, "_log_mul", no_visit)
    for spec, m in ((field(2, 1), (2, 2, 2, -4)), (F4, (2,) * 5 + (-8,)), (F16, (2,) * 17 + (-32,))):
        assert math.perm(spec.q - 2, len(m) - 3) == 0
        assert locus_search(ZeroPolePattern(2, m), EXACT, spec) == []


def test_search_work_bound():
    # GF(2^8), seven markings, three pinned: 254*253*252*251 free-slot permutations
    pat = ZeroPolePattern(2, (1, 1, 1, 1, 1, 1, -4))
    assert 254 * 253 * 252 * 251 > MAX_SEARCH_CONFIGS
    with pytest.raises(ValueError, match="MAX_SEARCH_CONFIGS"):
        locus_search(pat, EXACT, field(2, 8))


def test_search_custom_pin():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    w = F16.element(2)
    pin = (Place.finite(w), Place.finite(w + 1), INFINITY)
    found = locus_search(pat, QUASI_EXACT, F16, pin)
    assert len(found) == 14
    for c in found:
        assert c.points[2:] == pin


def test_search_rejects_more_than_three_pins():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    with pytest.raises(ValueError, match="at most three"):
        locus_search(pat, QUASI_EXACT, F16, (pt(F16, 0), pt(F16, 1), INFINITY, pt(F16, 2)))


def test_degree_decided_search_near_the_work_bound():
    # infinity is pinned under m = 3 >= p: the quasi-exact degree test fails
    # for every configuration, so the search returns before its DFS
    F27 = field(3, 3)
    pat = ZeroPolePattern(3, (1, 1, 1, 1, 1, -1, -3, 3))
    visits = math.perm(F27.q - 2, 5)
    assert MAX_SEARCH_CONFIGS // 2 < visits <= MAX_SEARCH_CONFIGS
    start = time.monotonic()
    assert locus_search(pat, QUASI_EXACT, F27) == []
    assert time.monotonic() - start < 2.0


def test_degree_test_alone_decides_a_search_near_the_work_bound():
    # no entry is 2 mod 3, so only the quasi-exact degree test (infinity
    # pinned under m = 3 >= p) returns before the DFS
    F27 = field(3, 3)
    pat = ZeroPolePattern(3, (1, 1, 1, 1, 1, -2, -2, 3))
    assert all(mi % 3 != 2 for mi in pat.m)
    visits = math.perm(F27.q - 2, 5)
    assert MAX_SEARCH_CONFIGS // 2 < visits <= MAX_SEARCH_CONFIGS
    start = time.monotonic()
    assert locus_search(pat, QUASI_EXACT, F27) == []
    assert time.monotonic() - start < 2.0


def test_pattern_decides_an_exact_search_near_the_work_bound():
    # m_1 = 2 = -1 mod 3 makes the exact locus empty; the exact kind has no
    # degree test, so only the pattern decides this search
    F27 = field(3, 3)
    pat = ZeroPolePattern(3, (2, 1, 1, 1, 1, 1, 1, -4))
    visits = math.perm(F27.q - 2, 5)
    assert MAX_SEARCH_CONFIGS // 2 < visits <= MAX_SEARCH_CONFIGS
    start = time.monotonic()
    assert locus_search(pat, EXACT, F27) == []
    assert time.monotonic() - start < 2.0


def test_pattern_entries_far_above_p_build_nothing_of_their_size():
    # m_i = p a_i + b_i: the products built are h, of degree below n p, and,
    # for the quasi-exact kind once max(m) < p, E; the exact kind never
    # builds E, which here would be (y - 1)^99999, or (y - 1)^(3.3 10^22)
    F3 = field(3, 1)
    start = time.monotonic()
    for big in (300000, 10**23 - 1):
        pattern = ZeroPolePattern(3, (big, 4 - big))
        assert [c.points for c in locus_search(pattern, EXACT, F3)] == [(pt(F3, 0), pt(F3, 1))]
        assert locus_search(pattern, QUASI_EXACT, F3) == []
        tangent = ZeroPolePattern(3, (big, 1, 3 - big))
        config = MarkingConfig(F3, (pt(F3, 0), pt(F3, 1), INFINITY))
        assert tangent_report(config, tangent, EXACT)["dimension"] == 0
        assert not locus_membership(config, tangent, QUASI_EXACT)
    config = MarkingConfig(F9, (pt(F9, 2), pt(F9, 0), pt(F9, 1), INFINITY))
    report = tangent_report(config, ZeroPolePattern(3, (30001, 1, 1, -29999)), EXACT)
    assert (report["rank"], report["dimension"]) == (1, 0)
    assert time.monotonic() - start < 2.0


def test_search_deterministic():
    pat = ZeroPolePattern(2, (1, 1, 1, 1, -2))
    a = [c.points for c in locus_search(pat, QUASI_EXACT, F16)]
    b = [c.points for c in locus_search(pat, QUASI_EXACT, F16)]
    assert a == b


# -- the search against the permutation loop it replaced -----------------------


def _reference_membership(config, pattern, kind):
    """Membership as the permutation search tested it: T = tc numerator of N / D from the kernel."""
    spec = config.spec
    num_roots, den_roots = [], []
    for q, mi in zip(config.points, pattern.m):
        if not q.is_infinity:
            (num_roots if mi > 0 else den_roots).extend([q.value] * abs(mi))
    N, D = Polynomial.from_roots(spec, num_roots), Polynomial.from_roots(spec, den_roots)
    T = _tc_kernel(N * D ** (spec.p - 1))[0]
    if kind == EXACT:
        return T.is_zero()
    if T.is_zero() or T.degree != D.degree:
        return False
    c = T.coeffs[-1]
    return all(spec.mul_idx(d, c) == t for d, t in zip(D.coeffs, T.coeffs))


def _reference_search(pattern, kind, spec, pinned):
    """Every permutation of the free places, in itertools order, each tested on its own."""
    pinned = tuple(pinned)[: min(3, pattern.n)]
    places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
    candidates = [q for q in places if q not in pinned]
    visited, found = [], []
    for combo in itertools.permutations(candidates, pattern.n - len(pinned)):
        config = MarkingConfig(spec, combo + pinned)
        visited.append(config)
        if _reference_membership(config, pattern, kind):
            found.append(config)
    return visited, found


def _patterns(p, n_max):
    values = [v for v in range(-2 * p, 2 * p + 1) if v != 0]
    for n in range(1, n_max + 1):
        for m in itertools.combinations_with_replacement(values, n):
            if sum(m) == 2 * p - 2:
                for perm in sorted(set(itertools.permutations(m)))[:2]:  # two orders of each
                    yield ZeroPolePattern(p, perm)


def _pins(spec, pins):
    """The pinned places of a pins parameter: None (the default), (q - 1, 0, 1) or (0, infinity, 1)."""
    return {"default": None,
            "finite": (Place.finite(spec.element(spec.q - 1)), pt(spec, 0), pt(spec, 1)),
            "middle": (pt(spec, 0), INFINITY, pt(spec, 1))}[pins]


# patterns whose free slots (the first two of five) mix m_i >= p, where the
# degree test bars infinity, with m_i < p, where infinity may sit
MIXED_FREE = {
    2: [(2, 1, -1, 1, -1), (1, 2, -1, 1, -1), (4, -1, 1, -1, -1), (-1, 4, 1, -1, -1)],
    3: [(3, 1, -1, 2, -1), (1, 3, -1, 2, -1), (-2, 5, 1, 1, -1), (5, -2, 1, 1, -1)],
    # no entry = -1 mod 5, so the pattern does not decide these
    5: [(5, 3, 1, 1, -2), (3, 5, 1, 1, -2), (7, -2, 1, 1, 1), (-2, 7, 1, 1, 1)],
}


@pytest.mark.parametrize("spec", [F4, F8, field(3, 1), F9, field(5, 1)], ids=["2^2", "2^3", "3", "3^2", "5"])
@pytest.mark.parametrize("pins", ["default", "finite", "middle"])
def test_search_matches_permutation_reference(spec, pins):
    # the finite pin leaves infinity among the free candidates, the middle
    # one pins it between two finite places; n = 3 has no free slot and
    # n <= 2 truncates the pin
    pinned = _pins(spec, pins) or (pt(spec, 0), pt(spec, 1), INFINITY)
    searched = hits = mixed = 0
    n_max = 4 if spec.p == 5 else 5  # n = 5 at p = 5 would take about 9 s more
    patterns = [*_patterns(spec.p, n_max), *(ZeroPolePattern(spec.p, m) for m in MIXED_FREE[spec.p])]
    for pattern in patterns:
        for kind in (EXACT, QUASI_EXACT):
            visited, want = _reference_search(pattern, kind, spec, pinned)
            got = locus_search(pattern, kind, spec, None if pins == "default" else pinned)
            assert [c.points for c in got] == [c.points for c in want], (pattern, kind)
            for config in visited:
                assert locus_membership(config, pattern, kind) == (config in want), (config, pattern, kind)
            searched += len(visited)
            hits += len(want)
            barred = [mi >= spec.p for mi in pattern.m[: pattern.n - 3]]
            if pins == "finite" and kind == QUASI_EXACT and any(barred) and not all(barred):
                mixed += 1
                # infinity turns up only in free slots that pass the degree test
                assert all(not q.is_infinity or mi < spec.p for c in got for q, mi in zip(c.points, pattern.m))
    assert searched > 100 and hits > 10
    if pins == "finite":
        assert mixed >= len(MIXED_FREE[spec.p])


# -- tangent_report against the implementation it replaced --------------------


def _form_parts(spec, roots, m):
    """(N, D): the monic products of (y - r)^{|m_i|} over the finite zeros and poles at element indices `roots`."""
    num, den = [], []
    for r, mi in zip(roots, m):
        if r is not None:
            (num if mi > 0 else den).extend([r] * abs(mi))
    return Polynomial._from_root_indices(spec, num), Polynomial._from_root_indices(spec, den)


def _reference_tangent_report(config, pattern, kind):
    """tangent_report as it was: the membership guard, then N and D again and one tc kernel per response.

    The guard is _reference_membership, after the argument and kind checks
    that locus_membership made, so it shares no code with the package's test.
    """
    _check_compatible(config, pattern)
    if pattern.n < 3:
        raise ValueError("need at least three markings to rigidify the line")
    if kind not in (EXACT, QUASI_EXACT):
        raise ValueError(f"unknown kind {kind!r}")
    if not _reference_membership(config, pattern, kind):
        raise ValueError("configuration is not in the locus")
    spec = config.spec
    free = pattern.n - 3
    if any(q.is_infinity for q in config.points[:free]):
        raise ValueError("the marking at infinity must be among the three pinned ones")
    p = pattern.p
    roots = _root_indices(spec, config.points)
    N, D = _form_parts(spec, roots, pattern.m)
    responses = []
    for r, mi in zip(roots[:free], pattern.m):
        if mi % p:
            den = D * Polynomial._from_root_indices(spec, [r])
            responses.append((_tc_kernel(N * den ** (p - 1))[0], den))
    ker_alpha = free - len(responses)
    clear_roots = []
    m_inf = 0
    for r, mi in zip(roots, pattern.m):
        if r is None:
            m_inf = mi
        else:
            clear_roots += [r] * -(mi // p)
    clear = Polynomial._from_root_indices(spec, clear_roots)
    width = clear.degree + 1 + max(0, (3 * p - 3 - m_inf) // p)

    def coeff_row(T, den):
        g, rest = (T * clear).divmod(den)
        if not rest.is_zero() or len(g.coeffs) > width:
            raise AssertionError("tc response escapes the cleared coefficient space")
        return list(g.coeffs) + [0] * (width - len(g.coeffs))

    rows = [coeff_row(T, den) for T, den in responses]
    rank = matrix_rank(spec, rows) if rows else 0
    if kind == EXACT:
        dim = free - rank
    else:
        one = Polynomial.constant(spec, 1)
        dim = free - (matrix_rank(spec, rows + [coeff_row(one, one)]) - 1)
    return {"kind": kind, "free": free, "ker_alpha": ker_alpha, "rank": rank, "dimension": dim}


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# the loci-grid benchmark cells: (p, k, largest n), every pattern of
# entries in [-2p, 2p] \ {0} with sum 2p - 2 in ascending order
LOCI_GRID = ((2, 3, 6), (3, 2, 5), (3, 3, 4), (3, 4, 4))


def _grid_cells():
    for p, k, n_max in LOCI_GRID:
        spec = field(p, k)
        values = [v for v in range(-2 * p, 2 * p + 1) if v != 0]
        for n in range(3, n_max + 1):
            for m in itertools.combinations_with_replacement(values, n):
                if sum(m) == 2 * p - 2:
                    for kind in (EXACT, QUASI_EXACT):
                        yield spec, ZeroPolePattern(p, m), kind


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2)], ids=["2^3", "3^2"])
def test_search_hits_are_the_configs_the_public_constructor_builds(p, k):
    # locus_search builds its hits without MarkingConfig's distinctness check:
    # each must equal, and hash as, the checked config of its places, and no
    # two hits may be equal, over the grid's patterns with the default pins,
    # grid-style pins (two random finite places and infinity), two pins and
    # none, where infinity lands in a free slot
    spec = field(p, k)
    rng = random.Random(31 * p + k)
    grid_pins = (*(Place.finite(spec.element(r)) for r in rng.sample(range(spec.q), 2)), INFINITY)
    two_pins, hits, free_infinity = (pt(spec, 0), pt(spec, 1)), 0, 0
    for cell_spec, pattern, kind in _grid_cells():
        if cell_spec is not spec:
            continue
        for pins in (None, grid_pins, two_pins, ()):
            free = max(pattern.n - (3 if pins is None else len(pins)), 0)
            if free > 3:
                continue
            found = locus_search(pattern, kind, spec, pins)
            for hit in found:
                checked = MarkingConfig(spec, hit.points)
                assert type(hit) is MarkingConfig and hit == checked and hash(hit) == hash(checked), hit
                assert sum(q.is_infinity for q in hit.points) <= 1, hit
                free_infinity += any(q.is_infinity for q in hit.points[:free])
            assert len(set(found)) == len(found), (pattern, kind, pins)
            hits += len(found)
    assert hits > 3000 and free_infinity > 500
    # the CLI's `loci search --field 3^2 --pattern 2,2,-2,2 --kind quasi-exact --pin 0,1`
    if spec is F9:
        found = locus_search(ZeroPolePattern(3, (2, 2, -2, 2)), QUASI_EXACT, spec, two_pins)
        assert found[0] == MarkingConfig(spec, [pt(spec, 2), INFINITY, *two_pins])


def test_recorded_grid_counts_are_zero_where_the_pattern_decides():
    # perfbench/loci_counts.json holds the counts of full searches: a cell with
    # some m_i = -1 mod p (quasi-exact: m_i != p - 1) must have count 0, and
    # the search must give every recorded count
    counts = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "loci_counts.json").read_text())
    decided = {EXACT: 0, QUASI_EXACT: 0}
    keys = set()
    for spec, pattern, kind in _grid_cells():
        p = spec.p
        key = f"{p}^{spec.k}|{','.join(map(str, pattern.m))}|{kind}"
        keys.add(key)
        if any(mi % p == p - 1 and not (kind == QUASI_EXACT and mi == p - 1) for mi in pattern.m):
            decided[kind] += 1
            assert counts[key] == 0, key
        assert len(locus_search(pattern, kind, spec)) == counts[key], key
    assert keys == set(counts)
    assert decided == {EXACT: 424, QUASI_EXACT: 362}


def test_recorded_quasi_exact_counts_are_zero_where_some_m_reaches_p():
    # g tc(h) = c != 0 forces a_i <= 0 at every finite marking, and the degree
    # test at infinity m_i <= p - 1: a quasi-exact cell with max(m) >= p has
    # count 0, and membership agrees with the reference at random places
    counts = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "loci_counts.json").read_text())
    rng = random.Random(23)
    decided = tested = 0
    for spec, pattern, kind in _grid_cells():
        if kind != QUASI_EXACT or max(pattern.m) < spec.p:
            continue
        decided += 1
        assert counts[f"{spec.p}^{spec.k}|{','.join(map(str, pattern.m))}|{kind}"] == 0, pattern
        places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
        for _ in range(12 if spec.q < 27 else 2):
            config = MarkingConfig(spec, rng.sample(places, pattern.n))
            assert locus_membership(config, pattern, kind) == _reference_membership(config, pattern, kind), config
            tested += 1
    assert decided == 493 and tested > 2000


@pytest.mark.parametrize("pins", ["default", "finite", "middle"])
def test_tangent_report_matches_reference_on_grid(pins):
    reports = 0
    for spec, pattern, kind in _grid_cells():
        for config in locus_search(pattern, kind, spec, _pins(spec, pins)):
            want = _outcome(_reference_tangent_report, config, pattern, kind)
            assert _outcome(tangent_report, config, pattern, kind) == want, (config, pattern, kind)
            reports += isinstance(want, dict)
    assert reports > 100


def test_tangent_report_matches_reference_with_the_poles_pinned():
    # the grid lists each pattern in ascending order, poles first, so its
    # free markings are the poles; reversed, the zeros are free, and the
    # response rows and the E row differ in length before padding
    reports = 0
    for spec, pattern, kind in _grid_cells():
        pattern = ZeroPolePattern(spec.p, pattern.m[::-1])
        for config in locus_search(pattern, kind, spec):
            want = _outcome(_reference_tangent_report, config, pattern, kind)
            assert _outcome(tangent_report, config, pattern, kind) == want, (config, pattern, kind)
            reports += isinstance(want, dict)
    assert reports > 100


def test_tangent_report_eliminates_its_rows_once(monkeypatch):
    # both ranks come from one pass; a second elimination of the response
    # rows gives the same reports, so only the call count tells them apart
    calls = []

    def counted(spec, rows):
        calls.append(len(rows))
        return _prefix_ranks(spec, rows)

    monkeypatch.setattr(loci, "_prefix_ranks", counted)
    with_both = 0
    for spec, pattern, kind in _grid_cells():
        for config in locus_search(pattern, kind, spec):
            del calls[:]
            tangent_report(config, pattern, kind)
            assert len(calls) == 1, (config, pattern, kind)
            with_both += kind == QUASI_EXACT and calls[0] > 1  # response rows and the E row
    assert with_both > 100


def test_tangent_report_rejects_what_the_reference_rejects():
    # configurations off the locus, and malformed calls, raise the same ValueError
    rejected = 0
    for spec, pattern, kind in _grid_cells():
        if spec.q > 9:
            continue
        places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
        pinned = (pt(spec, 0), pt(spec, 1), INFINITY)
        for combo in itertools.islice(itertools.permutations(places[2:-1], pattern.n - 3), 4):
            config = MarkingConfig(spec, combo + pinned)
            want = _outcome(_reference_tangent_report, config, pattern, kind)
            assert _outcome(tangent_report, config, pattern, kind) == want, (config, pattern, kind)
            rejected += not isinstance(want, dict)
    assert rejected > 100
    short = MarkingConfig(F4, [pt(F4, 0), pt(F4, 1)])
    for args in [(short, ZeroPolePattern(2, (1, 1)), EXACT),
                 (MarkingConfig(F4, [pt(F4, 0), pt(F4, 1), INFINITY]), ZeroPolePattern(2, (1, 1)), EXACT),
                 (short, ZeroPolePattern(2, (1, 1)), "bogus")]:
        assert _outcome(tangent_report, *args) == _outcome(_reference_tangent_report, *args)


# -- the witness a search hit carries into tangent_report ----------------------


def test_search_hits_report_as_the_configs_the_public_constructor_builds(monkeypatch):
    # every grid cell, with the poles free (ascending order) and pinned
    # (reversed), under the default pins and the middle ones, which put a
    # pinned pole at a finite place: a hit's witness holds its points, m and
    # kind, and its root indices; the hit equals, hashes as and reports as
    # the config the public constructor builds from its places, which has
    # no witness and takes the full membership test, and both eliminations
    # see the same log rows, E's among them
    rows = []

    def recorded(spec, R):
        rows.append(R)
        return _prefix_ranks(spec, R)

    monkeypatch.setattr(loci, "_prefix_ranks", recorded)
    reports = 0
    for spec, pattern, kind in _grid_cells():
        for m, pins in itertools.product((pattern.m, pattern.m[::-1]), ("default", "middle")):
            pat = ZeroPolePattern(spec.p, m)
            for hit in locus_search(pat, kind, spec, _pins(spec, pins)):
                copy = MarkingConfig(spec, hit.points)
                witness = hit._witness
                assert copy._witness is None and witness[0] is hit.points and witness[1] == (m, kind)
                assert list(witness[2]) == _root_indices(spec, hit.points), hit
                assert hit == copy and hash(hit) == hash(copy), hit
                del rows[:]
                want = _outcome(tangent_report, copy, pat, kind)
                assert _outcome(tangent_report, hit, pat, kind) == want, (hit, pat, kind)
                assert rows[:1] == rows[1:], (hit, pat, kind)
                reports += isinstance(want, dict)
    assert reports > 8000


def test_a_hit_passed_with_another_pattern_or_kind_takes_the_full_test():
    # the witness holds for the search's pattern and kind only: with the
    # other kind, or another pattern of the same p and length, a hit gets
    # the reference's outcome, a report or the same ValueError
    rng = random.Random(36)
    by_length = {}
    for spec, pattern, kind in _grid_cells():
        if kind == EXACT:  # each pattern once
            by_length.setdefault((spec, pattern.n), []).append(pattern)
    outcomes = {"report": 0, "off": 0}
    for (spec, _), patterns in by_length.items():
        for pattern in patterns:
            for kind in (EXACT, QUASI_EXACT):
                for hit in locus_search(pattern, kind, spec)[:3]:
                    others = [(pattern, EXACT if kind == QUASI_EXACT else QUASI_EXACT)]
                    others += [(other, kd) for other in rng.sample(patterns, 3) for kd in (EXACT, QUASI_EXACT)
                               if (other.m, kd) != (pattern.m, kind)]
                    for other, kd in others:
                        want = _outcome(_reference_tangent_report, hit, other, kd)
                        assert _outcome(tangent_report, hit, other, kd) == want, (hit, pattern, kind, other, kd)
                        outcomes["report" if isinstance(want, dict) else "off"] += 1
    assert outcomes["report"] > 50 and outcomes["off"] > 1000, outcomes


def test_a_hit_with_reassigned_points_takes_the_full_test():
    # the witness is trusted only for the points tuple it was made with: a
    # hit whose points are reassigned, to an equal tuple or to one off the
    # locus, gets the outcome of the public constructor's config
    equal = off = 0
    for spec, pattern, kind in _grid_cells():
        places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
        for hit in locus_search(pattern, kind, spec)[:3]:
            want = _outcome(tangent_report, MarkingConfig(spec, hit.points), pattern, kind)
            hit.points = tuple(list(hit.points))
            assert hit._witness[0] is not hit.points and _outcome(tangent_report, hit, pattern, kind) == want, hit
            equal += 1
            # one place moved so that the config leaves the locus
            moves = ((*hit.points[:i], q, *hit.points[i + 1:]) for i in range(pattern.n) for q in places)
            outside = next((points for points in moves if len(set(points)) == len(points)
                            and not _reference_membership(MarkingConfig(spec, points), pattern, kind)), None)
            if outside is not None:
                hit.points = outside
                with pytest.raises(ValueError, match="^configuration is not in the locus$"):
                    tangent_report(hit, pattern, kind)
                off += 1
    assert equal > 200 and off > 50, (equal, off)


def test_search_hits_with_infinity_in_a_free_slot_still_raise():
    # pins that leave out infinity let a hit put it in a free slot; the
    # witness makes the hit a locus point, but the tangent needs it pinned
    raised = 0
    for spec, pattern, kind in _grid_cells():
        free = pattern.n - 3
        for hit in locus_search(pattern, kind, spec, _pins(spec, "finite")):
            if any(q.is_infinity for q in hit.points[:free]):
                with pytest.raises(ValueError, match="^the marking at infinity must be among the three pinned ones$"):
                    tangent_report(hit, pattern, kind)
                raised += 1
    assert raised > 100


def test_formula_rank_agreement_p3():
    pat = ZeroPolePattern(3, (2, 1, 1))
    for kind in (EXACT, QUASI_EXACT):
        for c in locus_search(pat, kind, F9):
            assert tangent_dimension(c, pat, kind) == dimension_formula(pat, kind)
    pat2 = ZeroPolePattern(3, (-6, 1, 3, 6))
    for c in locus_search(pat2, EXACT, F9):
        assert tangent_dimension(c, pat2, EXACT) == dimension_formula(pat2, EXACT) == 1
