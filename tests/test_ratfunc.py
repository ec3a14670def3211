import itertools
import random

import pytest

from loghurwitz.cartier import integrate
from loghurwitz.expr import ExprError, ExprLimitError, parse_element, parse_expression
from loghurwitz.ffield import field
from loghurwitz.mobius import Mobius
from loghurwitz.ratfunc import (
    INFINITY,
    NEG_INF,
    Divisor,
    PartialFractions,
    Place,
    Polynomial,
    RationalFunction,
    _coeff_log,
    _from_logs,
    _log_mul,
    partial_fractions,
)

F16 = field(2, 4)
F9 = field(3, 2)
F5 = field(5, 1)


def rand_poly(spec, rng, maxdeg=4, nonzero=False):
    while True:
        deg = rng.randrange(maxdeg + 1)
        coeffs = [spec.element(rng.randrange(spec.q)) for _ in range(deg + 1)]
        p = Polynomial(spec, coeffs)
        if not nonzero or not p.is_zero():
            return p


def rand_rational(spec, rng, maxdeg=4):
    return RationalFunction(rand_poly(spec, rng, maxdeg), rand_poly(spec, rng, maxdeg, nonzero=True))


# -- polynomials -------------------------------------------------------------


def test_zero_polynomial_degree():
    assert Polynomial.constant(F16, 0).degree is NEG_INF
    assert NEG_INF < 0
    assert NEG_INF + 3 is NEG_INF
    assert 3 + NEG_INF is NEG_INF and NEG_INF + NEG_INF is NEG_INF
    assert NEG_INF < -(10**30)
    assert str(NEG_INF) == repr(NEG_INF) == "-inf"
    assert NEG_INF == float("-inf") and hash(NEG_INF) == hash(float("-inf"))


def test_poly_arith_ring_axioms():
    rng = random.Random(11)
    for spec in (F16, F9, F5):
        for _ in range(50):
            a, b, c = (rand_poly(spec, rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a - a == Polynomial.constant(spec, 0)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1), (5, 1)])
def test_poly_pow_matches_repeated_multiplication(p, k, monkeypatch):
    spec = field(p, k)
    rng = random.Random(p * 10 + k)
    mul = Polynomial.__mul__
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    for _ in range(5):
        f = rand_poly(spec, rng, maxdeg=3)
        want = Polynomial.constant(spec, 1)
        for n in range(10):
            calls.clear()
            monkeypatch.setattr(Polynomial, "__mul__", counted)
            got = f**n
            monkeypatch.setattr(Polynomial, "__mul__", mul)
            assert got == want, (f, n)
            # floor(log2 n) squarings and popcount(n) - 1 multiplies
            assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0), n
            want = want * f


def test_poly_divmod_and_gcd():
    rng = random.Random(12)
    for spec in (F16, F9):
        for _ in range(50):
            a = rand_poly(spec, rng, 6)
            b = rand_poly(spec, rng, 3, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
            g = a.gcd(b)
            if not a.is_zero():
                assert (a % g).is_zero() and (b % g).is_zero()
                assert g.leading() == spec.one  # monic


def test_poly_division_rejects_foreign_operands():
    p = Polynomial.variable(F9)
    for divide in (lambda: p % "x", lambda: p // "x", lambda: divmod(p, "x"), lambda: p.divmod("x"),
                   lambda: p.gcd("x"), lambda: p.divmod(RationalFunction(p))):
        with pytest.raises(TypeError):
            divide()
    assert divmod(p * p + 1, 2) == ((p * p + 1) * 2, Polynomial.constant(F9, 0))  # scalars still coerce


def test_evaluation_rejects_an_element_of_another_field():
    F4 = field(2, 2)
    y, f = Polynomial.variable(F4), RationalFunction.variable(F4)
    for point in (field(3, 1).element(2), F16.element(9)):
        with pytest.raises(ValueError):
            y(point)
        with pytest.raises(ValueError):
            f(point)
    assert y(3) == f(3) == F4.one  # an integer is taken mod p


def test_from_roots_and_roots():
    a, b = F16.element(3), F16.element(7)
    p = Polynomial.from_roots(F16, [a, a, b])
    roots, cofactor = p.roots()
    assert sorted(roots, key=lambda t: t[0].idx) == sorted(
        [(a, 2), (b, 1)], key=lambda t: t[0].idx
    )
    assert cofactor.degree == 0


# -- roots against a brute-force oracle -------------------------------------------

ROOT_FIELDS = [(2, 1), (2, 3), (3, 2), (5, 1), (7, 1), (3, 6)]


def _brute_force_roots(P):
    """Every element where __call__ gives 0, its multiplicity by repeated divmod, and the cofactor, checked."""
    F = P.spec
    found, cofactor = [], P
    for x in F.elements():
        if P(x).idx:
            continue
        lin, m = Polynomial.from_roots(F, [x]), 0
        while not (cofactor % lin):
            m, cofactor = m + 1, cofactor // lin
        found.append((x, m))
    assert cofactor * Polynomial.from_roots(F, [x for x, m in found for _ in range(m)]) == P
    assert all(cofactor(x).idx for x in F.elements())  # no root left in the field
    return found, cofactor


def _root_cases(F, rng):
    """c prod (y - r)^m Q: roots at indices 0 and q - 1 among random ones, multiplicities that are multiples of p
    (no closed-form candidate) among others, an irreducible quadratic Q or none, c other than 1 in most."""
    p, q = F.p, F.q

    def quadratic():  # y^2 + s y + t without a root in the field, by trial: about half of them are
        while True:
            Q = Polynomial.from_indices(F, [rng.randrange(1, q), rng.randrange(q), 1])
            if all(Q(x).idx for x in F.elements()):
                return Q

    yield Polynomial.from_indices(F, [rng.randrange(1, q)])  # a constant: no root, and itself as cofactor
    for i in range(30):
        roots = rng.sample(range(q), rng.randint(0, min(3, q)))
        roots += [r for r in ((0, q - 1) if i % 3 == 0 else ()) if r not in roots]
        mults = [p * rng.randint(1, 2) if (i + n) % 2 else rng.randint(1, 2 * p + 1) for n in range(len(roots))]
        c = Polynomial.from_indices(F, [rng.randrange(2, q) if i % 5 and q > 2 else 1])
        P = c * Polynomial._from_root_indices(F, [r for r, m in zip(roots, mults) for _ in range(m)])
        yield P * quadratic() if i % 2 else P
    if q >= 5:  # the candidate (1 + 2 + 3)/3 = 2 is a root, and two are left
        yield Polynomial._from_root_indices(F, [1, 2, 3])


@pytest.mark.parametrize("p,k", ROOT_FIELDS)
def test_roots_match_brute_force(p, k):
    F = field(p, k)
    rng = random.Random(53 * p + k)
    for P in _root_cases(F, rng):
        assert P.roots() == _brute_force_roots(P), P


@pytest.mark.parametrize("p,k", ROOT_FIELDS)
def test_roots_scan_stops_at_the_last_root(p, k, monkeypatch):
    """On c (y-a)^e (y-b)^f with a < b and p not dividing f, the value is taken at most a + 3 times: the candidate,
    the scan up to a, then the candidate b.  On c (y-a)^(p n) no candidate is tried: the scan takes a + 1."""
    F = field(p, k)
    rng = random.Random(59 * p + k)
    value_idx, calls = Polynomial._value_idx, []
    monkeypatch.setattr(Polynomial, "_value_idx", lambda P, x: calls.append(x) or value_idx(P, x))
    for _ in range(40):
        a, b = sorted(rng.sample(range(F.q), 2))
        e, f, n = rng.randint(1, 2 * p + 1), rng.choice([j for j in range(1, 2 * p + 2) if j % p]), rng.randint(1, 2)
        c = Polynomial.from_indices(F, [rng.randrange(1, F.q)])
        calls.clear()
        got = (c * Polynomial._from_root_indices(F, [a] * e + [b] * f)).roots()
        assert got == ([(F.element(a), e), (F.element(b), f)], c) and len(calls) <= a + 3, (a, e, b, f)
        calls.clear()
        assert (c * Polynomial._from_root_indices(F, [a] * (p * n))).roots() == ([(F.element(a), p * n)], c)
        assert len(calls) == a + 1, (a, n)


# -- log-domain kernels against schoolbook loops on add_idx / mul_idx ----------


def _school_mul(F, a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add_idx(out[i + j], F.mul_idx(x, y))
    return out


def _school_divmod(F, a, b):
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = F.inv_idx(b[-1])
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = F.mul_idx(rem[shift + len(b) - 1], inv)
        for i, y in enumerate(b):
            rem[shift + i] = F.add_idx(rem[shift + i], F.neg_idx(F.mul_idx(c, y)))
    return quot, rem[: len(b) - 1]


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _well_formed(P):
    """Every log lies in range(-1, q - 1), and the last one is not -1."""
    q1 = P.spec.q - 1
    return all(-1 <= s < q1 for s in P.logs) and (not P.logs or P.logs[-1] >= 0)


@pytest.mark.parametrize(
    "p,k", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (2, 16), (3, 10), (65521, 1)]
)
def test_log_kernels_match_schoolbook(p, k):
    F = field(p, k)
    rng = random.Random(31 * p + k)

    def coeffs(n):  # about half the coefficients zero
        return [rng.randrange(F.q) if rng.random() < 0.5 else 0 for _ in range(n)]

    for _ in range(300):
        a, b = coeffs(rng.randrange(0, 12)), coeffs(rng.randrange(0, 7))
        A, B = Polynomial.from_indices(F, a), Polynomial.from_indices(F, b)
        assert (A * B).coeffs == _trim(_school_mul(F, a, b))
        assert _well_formed(A) and _well_formed(B) and _well_formed(A * B)
        if B:
            quot, rem = A.divmod(B)
            want_q, want_r = _school_divmod(F, A.coeffs, B.coeffs)
            assert quot.coeffs == _trim(want_q) and rem.coeffs == _trim(want_r)
            assert quot * B + rem == A
            assert _well_formed(quot) and _well_formed(rem)
        roots = [rng.choice([0, rng.randrange(F.q)]) for _ in range(rng.randrange(0, 8))]
        want = [1]
        for r in roots:
            want = _school_mul(F, want, [F.neg_idx(r), 1])
        R = Polynomial.from_roots(F, [F.element(r) for r in roots])
        assert R.coeffs == tuple(want) and _well_formed(R)
        # sums and differences, each longer operand on either side; at p = 2, -1 = 1
        for X, Y, x, y in ((A, B, a, b), (B, A, b, a)):
            pad = max(len(x), len(y))
            x0, y0 = x + [0] * (pad - len(x)), y + [0] * (pad - len(y))
            assert (X + Y).coeffs == _trim(map(F.add_idx, x0, y0)) and _well_formed(X + Y)
            assert (X - Y).coeffs == _trim(F.add_idx(u, F.neg_idx(v)) for u, v in zip(x0, y0))
            assert _well_formed(X - Y) and not (X - X)

    # log lists, with entries near q - 1 so that unreduced sums would show
    q1, zech = F.q - 1, F._zech

    def log_list(n):
        return [rng.choice([-1, q1 - 1, max(q1 - 2, 0), rng.randrange(q1)]) for _ in range(n)]

    for _ in range(300):
        la, lb = log_list(rng.randrange(1, 12)), log_list(rng.randrange(1, 7))
        prod = _log_mul(la, lb, zech, q1)
        assert all(-1 <= e < q1 for e in prod)
        # _from_logs keeps and trims the list it is given, so it gets copies
        a, b = _from_logs(F, list(la)).coeffs, _from_logs(F, list(lb)).coeffs
        P = _from_logs(F, list(prod))
        assert P.coeffs == _trim(_school_mul(F, a, b))
        assert [F._log[c] for c in P.coeffs] == prod[: len(P.coeffs)]
        if len(la) != len(lb):  # either order puts the longer factor in the row, so one of them swaps
            swapped = _log_mul(lb, la, zech, q1)
            assert _from_logs(F, list(swapped)).coeffs == _trim(_school_mul(F, b, a)) and swapped == prod
        again = _log_mul(prod, la, zech, q1)  # products feed back in, as in the locus search
        assert _from_logs(F, again).coeffs == _trim(_school_mul(F, P.coeffs, a))
        assert _well_formed(P) and _well_formed(_from_logs(F, again))
        for d, e in enumerate(prod):
            c = _coeff_log(la, lb, d, zech, q1)
            assert (c < 0) == (e < 0) and (c < 0 or (c - e) % q1 == 0)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 16)])
def test_products_by_a_constant_match_schoolbook(p, k):
    F = field(p, k)
    rng = random.Random(41 * p + k)
    for _ in range(60):
        a = [rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(rng.randrange(0, 8))]
        A = Polynomial.from_indices(F, a)
        for c in (0, F.one.idx, F.q - 1, rng.randrange(F.q)):
            C, want = Polynomial.from_indices(F, [c]), _trim(_school_mul(F, a, [c]))
            for got in (A * C, C * A, A * F.element(c), F.element(c) * A):
                assert got.coeffs == want and _well_formed(got), (a, c)
        for n in (0, 1, -1):
            assert (A * n).coeffs == (n * A).coeffs == _trim(_school_mul(F, a, [F.from_int(n).idx]))


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_degenerate_operands_take_the_general_path(spec):
    """A zero or constant factor, a dividend below the divisor, gcd(0, 0) and a polynomial's partial fractions."""
    y, zero = Polynomial.variable(spec), Polynomial.constant(spec, 0)
    c = spec.element(spec.q - 1)
    a = y**3 + c * y + 1
    for got in (a * zero, zero * a, zero * zero, zero * c):
        assert got == zero and _well_formed(got)
    assert (a * Polynomial.constant(spec, c)).coeffs == tuple((c * x).idx for x in map(spec.element, a.coeffs))
    for low in (zero, Polynomial.constant(spec, c), y + c, y * y):
        quot, rem = low.divmod(a)
        assert (quot, rem) == (zero, low) and _well_formed(rem)
    assert zero.gcd(zero) == zero and zero.gcd(a * c) == a == (a * c).gcd(zero)
    for f in (a, zero, Polynomial.constant(spec, c)):
        pf = partial_fractions(RationalFunction(f))
        assert (pf.poly, pf.terms) == (f, []) and pf.recombine() == RationalFunction(f)


def _school_value(F, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = F.add_idx(F.mul_idx(acc, x), c)
    return acc


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_log_horner_matches_schoolbook(p, k):
    F = field(p, k)
    rng = random.Random(17 * p + k)
    for _ in range(200):
        coeffs = [rng.randrange(F.q) if rng.random() < 0.5 else 0 for _ in range(rng.randrange(0, 9))]
        P = Polynomial.from_indices(F, coeffs)
        points = {0, 1, F.q - 1, *(rng.randrange(F.q) for _ in range(6))}
        for x in points:
            assert P(F.element(x)).idx == _school_value(F, P.coeffs, x)
        if P:  # roots() rejects the zero polynomial
            found, cofactor = P.roots()
            want = [x for x in range(F.q) if not _school_value(F, P.coeffs, x)]
            assert [a.idx for a, _ in found] == want
            assert cofactor * Polynomial.from_roots(F, [a for a, mult in found for _ in range(mult)]) == P
    assert Polynomial.from_indices(F, [3 % F.q, 0, 1])(0).idx == 3 % F.q


def test_derivative_leibniz():
    rng = random.Random(14)
    for spec in (F16, F9, F5):
        for _ in range(30):
            a, b = rand_poly(spec, rng), rand_poly(spec, rng)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_pth_power_derivative_vanishes():
    p = Polynomial.variable(F9) ** 3
    assert p.derivative().is_zero()


# -- rational functions ------------------------------------------------------


def test_canonical_reduction():
    y = Polynomial.variable(F16)
    two = Polynomial.constant(F16, 1)
    f = RationalFunction(y * y, y)
    assert f.num == y and f.den == two
    # monic denominator
    c = F16.element(5)
    g = RationalFunction(y, Polynomial(F16, [F16.element(0), c]))
    assert g.den.leading() == F16.one


def test_rational_field_axioms():
    rng = random.Random(15)
    for spec in (F16, F9):
        for _ in range(30):
            a, b, c = (rand_rational(spec, rng, 3) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            if not b.is_zero():
                assert (a / b) * b == a


def test_fractions_skip_the_gcd_against_a_constant_denominator(monkeypatch):
    gcd = Polynomial.gcd
    constant_operands = []

    def watched(a, b):
        if isinstance(b, Polynomial) and b.degree <= 0:
            constant_operands.append((a, b))
        return gcd(a, b)

    def reference(num, den):  # reduce by the full gcd, then make den monic
        g = gcd(num, den)
        num, den = num // g, den // g
        inv = den.leading().inverse()
        return num * inv, den * inv

    rng = random.Random(16)
    for spec in (F16, F9, F5):
        y = RationalFunction.variable(spec)
        values = [rand_rational(spec, rng, 3) for _ in range(6)]
        values += [RationalFunction.constant(spec, c) for c in (0, 1, -1)] + [y, 1 / (y + 1)]
        for a, b in itertools.product(values, repeat=2):
            ops = [lambda: a + b, lambda: a - b, lambda: a * b]
            want = [(a.num * b.den + b.num * a.den, a.den * b.den), (a.num * b.den - b.num * a.den, a.den * b.den),
                    (a.num * b.num, a.den * b.den)]
            if b:
                ops.append(lambda: a / b)
                want.append((a.num * b.den, a.den * b.num))
            monkeypatch.setattr(Polynomial, "gcd", watched)
            got = [op() for op in ops]
            monkeypatch.undo()
            assert [(f.num, f.den) for f in got] == [reference(*w) for w in want], (a, b)
    assert not constant_operands


def test_order_at_and_divisor():
    y = RationalFunction.variable(F16)
    one = F16.one
    f = y**2 * (y - 1) ** -3
    assert f.order_at(Place.finite(F16.from_int(0))) == 2
    assert f.order_at(Place.finite(one)) == -3
    assert f.order_at(INFINITY) == 1
    d = f.divisor()
    assert d.degree() == 0
    assert d.order(INFINITY) == 1


def test_divisor_nonsplit_raises():
    # x^2 + x + 1 is irreducible over GF(2)
    F2 = field(2, 1)
    f = RationalFunction(
        Polynomial(F2, [F2.one, F2.one, F2.one]), Polynomial.constant(F2, 1)
    )
    with pytest.raises(ValueError):
        f.divisor()


def test_divisor_degree_zero_random():
    rng = random.Random(16)
    for _ in range(50):
        f = rand_rational(F16, rng, 4)
        if f.is_zero():
            continue
        try:
            assert f.divisor().degree() == 0
        except ValueError:
            pass  # a factor without roots in the field


def test_compose():
    rng = random.Random(17)
    y = RationalFunction.variable(F16)
    f = (y**2 + 1) / (y - F16.element(3))
    g = (y + 1) / y
    h = f.compose(g)
    for t in [F16.element(i) for i in (2, 5, 9, 11)]:
        try:
            gt = g(t)
            assert h(t) == f(gt)
        except ZeroDivisionError:
            pass  # t hits a pole of the composition


def test_partial_fractions_round_trip():
    rng = random.Random(18)
    for spec in (F16, F9, F5):
        done = 0
        while done < 25:
            f = rand_rational(spec, rng, 4)
            try:
                pf = partial_fractions(f)
            except ValueError:
                continue  # denominator does not split
            assert pf.recombine() == f
            done += 1


# -- partial fractions against their uniqueness and sympy ------------------------


def rand_split_den(spec, rng, first_mult):
    """A nonzero constant times prod (y - b)^e over up to three distinct roots, the first of order first_mult."""
    den = Polynomial.constant(spec, spec.element(rng.randrange(1, spec.q)))
    roots = rng.sample(range(spec.q), rng.randint(1, min(3, spec.q)))
    for i, r in enumerate(roots):
        den = den * Polynomial.from_roots(spec, [spec.element(r)] * (first_mult if i == 0 else rng.randint(1, 6)))
    return den


def _reference_partial_fractions(f):
    """partial_fractions as it was before it worked from the root list: each pole's cofactor by _divide_out,
    and each peel step by operator arithmetic."""
    spec = f.spec
    poly_part, rest = f.num.divmod(f.den)
    if rest.is_zero():
        return PartialFractions(poly_part, [])
    found, cofactor = f.den.roots()
    if cofactor.degree > 0:
        raise ValueError(f"denominator factor does not split over {spec!r}: {cofactor}")
    terms = []
    for b, e in found:
        lin = Polynomial._from_root_indices(spec, [b.idx])
        g_q, g_b = f.den._divide_out(b.idx)[1].divmod(lin)
        inv = g_b.leading().inverse()
        r = rest
        for j in range(e, 0, -1):
            r, r_b = r.divmod(lin)
            if r_b:
                a = r_b.leading() * inv
                terms.append((b, j, a))
                r = r - g_q * a
    return PartialFractions(poly_part, terms)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_partial_fractions_match_reference(p, k):
    """The reference is the defining property of the decomposition:

    f = num // den + sum of a/(y-b)^j over sorted, distinct (b, j), a != 0, 1 <= j <= the multiplicity of b in den.

    Over a split denominator the 1/(y-b)^j with j up to b's multiplicity are a basis of the proper fractions with
    that denominator, so this sum is unique.
    """
    F = field(p, k)
    rng = random.Random(41 * p + k)
    y = Polynomial.variable(F)
    for i in range(48):
        f = RationalFunction(rand_poly(F, rng, 12), rand_split_den(F, rng, 1 + i % 6))
        pf, ref = partial_fractions(f), _reference_partial_fractions(f)
        assert pf.poly == ref.poly and pf.terms == ref.terms
        assert pf.poly == f.num // f.den
        keys = [(b.idx, j) for b, j, _ in pf.terms]
        assert keys == sorted(set(keys))
        total = RationalFunction(pf.poly)
        for b, j, a in pf.terms:
            multiplicity, g = 0, f.den
            while (g % (y - b)).is_zero():
                multiplicity, g = multiplicity + 1, g // (y - b)
            assert a and 1 <= j <= multiplicity
            total = total + RationalFunction(Polynomial.constant(F, a), (y - b) ** j)
        assert total == f
        assert pf.recombine() == f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_partial_fractions_and_orders_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    F = field(p)
    t = sympy.Symbol("t")

    def sp(poly):  # over GF(p) the element index is the residue
        return sympy.Poly(list(reversed(poly.coeffs)) or [0], t, modulus=p)

    def multiplicity(P, b):
        return sum(m for fac, m in P.factor_list()[1] if fac.degree() == 1 and fac.eval(b) % p == 0)

    rng = random.Random(43 * p)
    places = [Place.finite(F.element(b)) for b in range(p)] + [INFINITY]
    for i in range(30):
        f = RationalFunction(rand_poly(F, rng, 10), rand_split_den(F, rng, 1 + i % 6))
        pf = partial_fractions(f)
        N, D = sp(f.num), sp(f.den)
        total = sp(pf.poly) * D
        for b, j, a in pf.terms:
            total += D.exquo(sp(Polynomial.from_roots(F, [b] * j))) * a.idx
        assert total == N
        g = rand_rational(F, rng, 6)  # any denominator: order_at needs no splitting
        for h in (f, g):
            if h:
                want = [multiplicity(sp(h.num), b) - multiplicity(sp(h.den), b) for b in range(p)]
                want.append(h.den.degree - h.num.degree)
                assert [h.order_at(q) for q in places] == want


def _cover_rhs(F, rng, shape):
    """A constant plus, at two poles, sum_(i <= j) a_i/(y-b)^i with j prime to p and a_i != 0, and for an even
    shape a polynomial part of degree prime to p: the right-hand sides of Artin-Schreier covers."""
    y, p = RationalFunction.variable(F), F.p
    orders = [j for j in range(1, 5) if j % p]
    rhs = RationalFunction.constant(F, F.element(rng.randrange(F.q)))
    for n, b in enumerate(rng.sample(range(F.q), 2)):
        for i in range(1, orders[(shape + n) % len(orders)] + 1):
            rhs = rhs + RationalFunction.constant(F, F.element(rng.randrange(1, F.q))) / (y - F.element(b)) ** i
    if shape % 2 == 0:
        for i in range(1, orders[shape % len(orders)] + 1):
            rhs = rhs + RationalFunction.constant(F, F.element(rng.randrange(1, F.q))) * y**i
    return rhs


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 1), (3, 6)])
def test_partial_fractions_equal_the_reference_on_cover_equations(p, k):
    F = field(p, k)
    rng = random.Random(47 * p + k)
    for shape in range(24):
        f = _cover_rhs(F, rng, shape)
        pf, ref = partial_fractions(f), _reference_partial_fractions(f)
        assert pf.poly == ref.poly and pf.terms == ref.terms
        assert len({b.idx for b, _, _ in pf.terms}) == 2 and (pf.poly.degree > 0) == (shape % 2 == 0)


def test_partial_fractions_build_no_cofactor_from_the_other_roots(monkeypatch):
    """Over GF(2^8), 1/(y^255 - 1) has 255 simple poles.  Each pole's cofactor is den/(y-b)^e, so the root lists
    given to _from_root_indices hold 3 roots a pole (y - b twice, and once in roots); a cofactor built from
    the other roots would make them hold 255 a pole."""
    F = field(2, 8)
    f = 1 / (RationalFunction.variable(F) ** 255 - 1)
    build, sizes = Polynomial._from_root_indices.__func__, []

    def counted(cls, spec, roots):
        sizes.append(len(roots))
        return build(cls, spec, roots)

    with monkeypatch.context() as m:
        m.setattr(Polynomial, "_from_root_indices", classmethod(counted))
        pf = partial_fractions(f)
    assert sum(sizes) == 3 * 255
    ref = _reference_partial_fractions(f)
    assert pf.poly == ref.poly and pf.terms == ref.terms


def test_partial_fractions_terms_sorted():
    y = RationalFunction.variable(F16)
    a, b = F16.element(9), F16.element(2)
    f = 1 / (y - a) + 1 / (y - b) ** 2
    pf = partial_fractions(f)
    keys = [(q.idx, j) for q, j, _ in pf.terms]
    assert keys == sorted(keys)


# -- recombine against the gcd-reducing one ------------------------------------


def _reference_recombine(pf):
    """poly plus, per pole b of order e, (sum_j a_j (y-b)^(e-j)) / (y-b)^e, each sum reduced by RationalFunction."""
    spec = pf.poly.spec
    poles = {}
    for b, j, a in pf.terms:
        poles.setdefault(b.idx, {})[j] = a
    out = RationalFunction(pf.poly)
    for b, parts in poles.items():
        lin = Polynomial._from_root_indices(spec, [b])
        e = max(parts)
        num = Polynomial.from_indices(spec, [])
        for j in range(1, e + 1):  # Horner in (y - b)
            num = num * lin + parts.get(j, spec.zero)
        out = out + RationalFunction(num, lin**e)
    return out


RECOMBINE_FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


@pytest.mark.parametrize("p,k", RECOMBINE_FIELDS)
def test_recombine_equals_the_reference(p, k):
    """Random terms at up to four poles, orders up to 3p, some coefficients zero (dropped), top ones included."""
    F = field(p, k)
    rng = random.Random(61 * p + k)
    for _ in range(40):
        terms = []
        for b in rng.sample(range(F.q), rng.randint(0, min(4, F.q))):
            e = rng.randint(1, 3 * p)
            terms += [(F.element(b), j, F.element(rng.randrange(F.q))) for j in range(1, e)]
            terms.append((F.element(b), e, F.element(rng.randrange(1, F.q))))
        pf = PartialFractions(rand_poly(F, rng, 5), rng.sample(terms, len(terms)))
        assert all(a for _, _, a in pf.terms)
        assert pf.recombine() == _reference_recombine(pf)


@pytest.mark.parametrize("p,k", RECOMBINE_FIELDS)
def test_integrate_equals_the_reference_recombine(p, k, monkeypatch):
    """cartier.integrate on derivatives of random fractions with split denominators, with either recombine."""
    F = field(p, k)
    rng = random.Random(67 * p + k)
    for i in range(24):
        h = RationalFunction(rand_poly(F, rng, 8), rand_split_den(F, rng, 1 + i % (2 * p)))
        f = h.derivative()
        got = integrate(f)
        with monkeypatch.context() as m:
            m.setattr(PartialFractions, "recombine", _reference_recombine)
            assert integrate(f) == got
        assert got.derivative() == f


def test_zero_terms_are_dropped():
    """(b, 2, 0) next to (b, 1, a) recombines to a/(y-b), not to the unreduced a(y-b)/(y-b)^2."""
    y = RationalFunction.variable(F9)
    b, a = F9.element(3), F9.element(5)
    pf = PartialFractions(Polynomial.from_indices(F9, []), [(b, 2, F9.zero), (b, 1, a)])
    assert pf.terms == [(b, 1, a)]
    assert pf.recombine() == RationalFunction.constant(F9, a) / (y - b)
    assert pf.recombine().den == Polynomial.from_roots(F9, [b])


def test_divisor_add():
    d = Divisor({INFINITY: -2}) + Divisor({INFINITY: 3})
    assert d.order(INFINITY) == 1


# -- expression parsing ------------------------------------------------------


def test_parse_precedence():
    f = parse_expression("y^2 + 2*y + 1", F9)
    y = RationalFunction.variable(F9)
    assert f == y**2 + RationalFunction.constant(F9, F9.from_int(2)) * y + 1
    assert parse_expression("y**2", F9) == y**2


def test_parse_negative_exponent_and_division():
    y = RationalFunction.variable(F16)
    assert parse_expression("1/(y-1)^2", F16) == (y - 1) ** -2
    assert parse_expression("(y-1)^-2", F16) == (y - 1) ** -2


def test_parse_generator_and_bindings():
    w = F16.element(2)
    f = parse_expression("y - w^2", F16)
    y = RationalFunction.variable(F16)
    assert f == y - w**2
    g = parse_expression("y - a", F16, bindings={"a": w + 1})
    assert g == y - (w + 1)
    with pytest.raises(ExprError):
        parse_expression("w", field(5, 1))  # no generator in a prime field
    with pytest.raises(ExprError):
        parse_expression("y + unknown", F16)
    # atom reads the variable and w before any binding, and a name is one token [A-Za-z_][A-Za-z_0-9]*
    for name in ["y", "w", "1", "", " a", "a ", "a-1", "\u00e9", "a\n"]:
        with pytest.raises(ExprError, match="is not one an expression can read"):
            parse_expression("y", F16, bindings={name: w})
    assert parse_expression("x - y", F16, variable="x", bindings={"y": w}) == y - w


def test_parse_element():
    assert parse_element("w^2+1", F16) == F16.element(2) ** 2 + 1
    with pytest.raises(ExprError):
        parse_element("y", F16)  # the variable is not a constant


def test_parse_errors():
    for bad in ["", "y +", "(y", "y ^ y", "1//2"]:
        with pytest.raises(ExprError):
            parse_expression(bad, F16)


def test_deep_nesting_is_a_limit_error():
    with pytest.raises(ExprLimitError, match="nests too deeply"):
        parse_expression("(" * 2000 + "y" + ")" * 2000, F16)
    assert parse_expression("(" * 50 + "y" + ")" * 50, F16) == RationalFunction.variable(F16)



@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_str_parses_back(p, k):
    spec = field(p, k)
    rng = random.Random(23 + spec.q)
    fs = [rand_rational(spec, rng) for _ in range(80)]
    # every constant as a numerator over y - b: w+1 must not print as w+1/(...)
    for c in spec.elements():
        b = spec.element(rng.randrange(spec.q))
        fs.append(RationalFunction(Polynomial.constant(spec, c), Polynomial(spec, [-b, 1])))
    for f in fs:
        assert parse_expression(str(f), spec) == f, str(f)


# -- Moebius maps ------------------------------------------------------------


def test_mobius_to_standard():
    q = [Place.finite(F16.element(i)) for i in (3, 7, 12)]
    m = Mobius.to_standard(F16, *q)
    assert m.apply_place(q[0]) == Place.finite(F16.from_int(0))
    assert m.apply_place(q[1]) == Place.finite(F16.from_int(1))
    assert m.apply_place(q[2]) == INFINITY


def test_mobius_to_standard_with_infinity():
    zero, one = Place.finite(F16.from_int(0)), Place.finite(F16.from_int(1))
    for triple in [
        (INFINITY, one, Place.finite(F16.element(5))),
        (zero, INFINITY, Place.finite(F16.element(5))),
        (zero, one, INFINITY),
    ]:
        m = Mobius.to_standard(F16, *triple)
        assert m.apply_place(triple[0]) == zero
        assert m.apply_place(triple[1]) == one
        assert m.apply_place(triple[2]) == INFINITY


def _reference_to_standard(spec, q0, q1, qinf):
    """The cross ratio (x - q0)(q1 - qinf) / ((x - qinf)(q1 - q0)), one branch per infinite point."""
    one, zero = spec.from_int(1), spec.from_int(0)
    if qinf.is_infinity:
        scale = (q1.value - q0.value).inverse()
        return Mobius(spec, scale, -q0.value * scale, zero, one)
    if q0.is_infinity:
        return Mobius(spec, zero, q1.value - qinf.value, one, -qinf.value)
    if q1.is_infinity:
        return Mobius(spec, one, -q0.value, one, -qinf.value)
    k = (q1.value - qinf.value) / (q1.value - q0.value)
    return Mobius(spec, k, -q0.value * k, one, -qinf.value)


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
def test_mobius_to_standard_every_triple(p, k):
    spec = field(p, k)
    places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
    zero, one = Place.finite(spec.from_int(0)), Place.finite(spec.from_int(1))
    for triple in itertools.permutations(places, 3):
        m = Mobius.to_standard(spec, *triple)
        assert [m.apply_place(q) for q in triple] == [zero, one, INFINITY]
        ref = _reference_to_standard(spec, *triple)
        # the same map up to a scalar: the same function and the same action on every place
        assert m.as_rational() == ref.as_rational()
        assert [m.apply_place(q) for q in places] == [ref.apply_place(q) for q in places]


def test_mobius_from_triples_and_inverse():
    rng = random.Random(19)
    places = [Place.finite(e) for e in F16.elements()] + [INFINITY]
    for _ in range(30):
        src = tuple(rng.sample(places, 3))
        dst = tuple(rng.sample(places, 3))
        m = Mobius.from_triples(F16, src, dst)
        assert tuple(m.apply_place(q) for q in src) == dst
        inv = m.inverse()
        for q in places:
            assert inv.apply_place(m.apply_place(q)) == q


def test_mobius_composition_matches_rational():
    m1 = Mobius(F9, 1, 2, 3, 4)
    m2 = Mobius(F9, 2, 0, 1, 1)
    comp = m1 @ m2
    assert comp.as_rational() == m1.as_rational().compose(m2.as_rational())


def test_mobius_singular_rejected():
    with pytest.raises(ValueError):
        Mobius(F16, 1, 1, 1, 1)
