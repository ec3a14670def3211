import functools
import itertools
import json
import random
from pathlib import Path

import pytest

from loghurwitz.ascover import (
    ArtinSchreierCover,
    CoverError,
    isomorphic,
    moduli_dimension,
)
from loghurwitz.cli import main
from loghurwitz.ffield import field
from loghurwitz.mobius import Mobius
from loghurwitz.ratfunc import INFINITY, Place, Polynomial, RationalFunction

F16 = field(2, 4)
F9 = field(3, 2)
F5 = field(5, 1)


def x_of(spec):
    return RationalFunction.variable(spec)


# -- construction and normal form --------------------------------------------


def test_cubic_cover():
    x = x_of(F16)
    c = ArtinSchreierCover.from_equation(F16, x**3)
    assert c.branch_points == (INFINITY,)
    assert c.conductors == (4,)
    assert c.genus == 1
    assert c.normal_form() == x**3


def test_two_pole_cover():
    x = x_of(F16)
    a = F16.element(F16.generator_index)
    c = ArtinSchreierCover.from_equation(F16, 1 / x + 1 / (x - a))
    assert c.conductors == (2, 2)
    assert c.genus == 1
    assert c.moduli_dimension() == 1


def test_p_power_reduction():
    x = x_of(F16)
    # 1/x^2 reduces to 1/x by a p-th root substitution; 1/x^2 + 1/x^3 has e = 4
    c = ArtinSchreierCover.from_equation(F16, 1 / x**2 + 1 / x**3)
    assert c.conductors == (4,)
    c2 = ArtinSchreierCover.from_equation(F16, 1 / x**2)
    assert c2.conductors == (2,)
    assert c2.normal_form() == 1 / x


# `ascover` CLI bytes and exit codes, recorded while partial fractions still
# re-centred each pole and inverted a power series, and the p-th-root
# reduction still looped to a fixed point: nested p-powers (y^9 + y^2 over
# GF(3) reduces through y^3, which has no term of its own), p-powers at
# finite points and at infinity, a cancelling part at infinity, a total
# cancellation, and the ascover calls of the benchmark's cli-cold call sets
ASCOVER_GOLDEN = json.loads((Path(__file__).parent / "data" / "ascover_golden.json").read_text())


def test_cli_bytes_match_golden(capsys):
    mismatched = []
    for case in ASCOVER_GOLDEN:
        code = main(case["argv"])
        if [code, capsys.readouterr().out] != [case["code"], case["out"]]:
            mismatched.append(case["argv"])
    assert not mismatched


@pytest.mark.parametrize(
    "spec, coeffs, order",
    [(field(3, 1), [0, 0, 0, 1], 3), (F16, [0, 1, 1], 2), (F5, [0, 1, 0, 2] + [0] * 6 + [1], 10)],
)
def test_principal_part_of_degree_divisible_by_p_is_unreduced(spec, coeffs, order):
    """A pole order divisible by p is caught by the p-th power check on its leading term."""
    h = Polynomial(spec, coeffs)
    for b in (INFINITY, Place.finite(spec.one)):
        with pytest.raises(CoverError, match=f"^unreduced p-th power term of order {order} at "):
            ArtinSchreierCover(spec, {b: h})


def test_total_cancellation_rejected():
    x = x_of(F16)
    with pytest.raises(CoverError):
        # 1/x^2 + 1/x: the substitution cancels the pole entirely
        ArtinSchreierCover.from_equation(F16, 1 / x**2 + 1 / x)


def test_constant_dropped():
    x = x_of(F16)
    a = F16.element(7)
    c1 = ArtinSchreierCover.from_equation(F16, 1 / x + RationalFunction.constant(F16, a * a))
    c2 = ArtinSchreierCover.from_equation(F16, 1 / x)
    assert c1 == c2


def test_normal_form_idempotent():
    rng = random.Random(51)
    for spec in (F16, F9, F5):
        x = x_of(spec)
        done = 0
        while done < 20:
            g = _random_rhs(spec, rng)
            try:
                c = ArtinSchreierCover.from_equation(spec, g)
            except (CoverError, ValueError):
                continue
            c2 = ArtinSchreierCover.from_equation(spec, c.normal_form())
            assert c == c2
            done += 1


def _random_rhs(spec, rng):
    x = x_of(spec)
    out = RationalFunction.constant(spec, 0)
    for _ in range(rng.randrange(1, 4)):
        b = spec.element(rng.randrange(spec.q))
        j = rng.randrange(1, 5)
        a = spec.element(rng.randrange(1, spec.q))
        out = out + RationalFunction.constant(spec, a) / (x - b) ** j
    if rng.random() < 0.4:
        j = rng.randrange(1, 4)
        out = out + x**j
    return out


# -- invariants ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_riemann_hurwitz_random(spec):
    rng = random.Random(53 + spec.p)
    p = spec.p
    done = 0
    while done < 40:
        try:
            c = ArtinSchreierCover.from_equation(spec, _random_rhs(spec, rng))
        except (CoverError, ValueError):
            continue
        R = c.ramification_divisor()
        assert R.degree() == sum(e * (p - 1) for e in c.conductors)
        # 2h - 2 = p(-2) + deg R
        assert 2 * c.genus - 2 == -2 * p + R.degree()
        # conductor balance sum e_i = 2h/(p-1) + 2
        assert sum(c.conductors) == 2 * c.genus // (p - 1) + 2
        done += 1


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_trace_form_orders(spec):
    rng = random.Random(59 + spec.p)
    p = spec.p
    done = 0
    while done < 30:
        try:
            c = ArtinSchreierCover.from_equation(spec, _random_rhs(spec, rng))
        except (CoverError, ValueError):
            continue
        tau = c.trace_form()
        for b, e in zip(c.branch_points, c.conductors):
            assert tau.plain_order(b) == (e - 1) * (p - 1)
            assert tau.log_order(b) == (e - 1) * (p - 1) + 1
        done += 1


def _reference_trace_form(c):
    """(g, -1/g', orders) as computed before the orders were read off the normal form.

    g is summed from the stored parts by RationalFunction arithmetic, -1/g' is a RationalFunction division, and
    each order is valuation bookkeeping on order_at of g and g' (see the ascover module docstring).
    """
    spec, p, x = c.spec, c.spec.p, x_of(c.spec)
    g = RationalFunction.constant(spec, 0)
    for b, h in zip(c.branch_points, c.parts):
        g = g + RationalFunction(h).compose(x if b.is_infinity else 1 / (x - b.value))
    gp = g.derivative()
    orders = {}
    for b in c.branch_points:
        v_dxdz = -2 * p if b.is_infinity else 0  # value of dx/dz upstairs: z = x - b, or z = 1/x at infinity
        plain = -p * gp.order_at(b) - v_dxdz - p + g.order_at(b)
        orders[b] = {"plain": plain, "log": plain + 1}
    return g, RationalFunction.constant(spec, -1) / gp, orders


def _normal_form_covers(spec, rng, count):
    """Covers built from parts in normal form: pole orders prime to p up to 3p, zero or nonzero lower terms.

    Cover i leaves infinity unramified (i % 3 == 0), branches there with e = 2 (1) or with a random order (2),
    and has up to three finite branch points and up to two marked points.
    """
    p = spec.p
    orders = [m for m in range(1, 3 * p + 1) if m % p]
    line = [INFINITY, *(Place.finite(spec.element(i)) for i in range(spec.q))]
    for i in range(count):
        places = rng.sample(line[1:], rng.randint(0 if i % 3 else 1, min(3, spec.q)))
        places += [INFINITY] if i % 3 else []
        parts = {}
        for b in places:
            m = 1 if b.is_infinity and i % 3 == 1 else rng.choice(orders)
            low = [rng.randrange(spec.q) if j % p else 0 for j in range(1, m)]
            parts[b] = Polynomial.from_indices(spec, [0, *low, rng.randrange(1, spec.q)])
        rest = [q for q in line if q not in parts]
        yield ArtinSchreierCover(spec, parts, rng.sample(rest, min(len(rest), rng.randint(0, 2))))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_trace_form_equals_the_reference(p, k):
    spec = field(p, k)
    rng = random.Random(71 * p + k)
    seen = set()
    for c in _normal_form_covers(spec, rng, 36):
        g, coefficient, orders = _reference_trace_form(c)
        tau = c.trace_form()
        assert c.normal_form() == g
        assert tau.coefficient == coefficient
        assert tau.orders == orders
        seen.add(dict(zip(c.branch_points, c.conductors)).get(INFINITY))
        seen.add(bool(c.marked_unramified))
    assert {None, 2, True, False} <= seen


def test_trace_form_and_recombine_make_no_gcd(monkeypatch):
    calls = []
    gcd = Polynomial.gcd
    monkeypatch.setattr(Polynomial, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rng = random.Random(73)
    for spec in (field(2, 3), F9, field(7, 1)):
        for c in _normal_form_covers(spec, rng, 12):
            c.trace_form()
            c.normal_form()
    assert not calls
    x = x_of(F9)
    assert x / (x + 1) and calls  # the patched gcd counts


def test_trace_log_order_cubic():
    x = x_of(F16)
    c = ArtinSchreierCover.from_equation(F16, x**3)
    tau = c.trace_form()
    assert tau.log_order(INFINITY) == 4
    # tau = -1/g' = -1/(3x^2) = 1/x^2 at p=2
    assert tau.coefficient == 1 / x**2


def test_moduli_dimension_formula():
    assert moduli_dimension(2, 1, (2, 2), 0) == 1
    assert moduli_dimension(2, 1, (4,), 0) == 0
    assert moduli_dimension(3, 1, (3,), 0) == 0
    assert moduli_dimension(3, 1, (3,), 1) == 1
    with pytest.raises(CoverError):
        moduli_dimension(2, 1, (3,), 0)  # conductor 1 mod p
    with pytest.raises(CoverError):
        moduli_dimension(2, 2, (2, 2), 0)  # inconsistent genus


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_moduli_dimension_equals_closed_form_on_grid(p):
    """Where sum e_i (p-1) = 2h + 2(p-1), both dimension formulas agree and 2h/(p-1) is exact."""
    checked = 0
    for m in range(1, 4):
        for e in itertools.combinations_with_replacement(range(2, 13), m):
            for h, n in itertools.product(range(100), range(4)):
                if sum(e) * (p - 1) != 2 * h + 2 * (p - 1):
                    continue
                assert 2 * h % (p - 1) == 0
                dim = 2 * h // (p - 1) + n - 1 - sum((ei - 1) // p for ei in e)
                assert dim == n + m - 3 + sum(ei - 1 - (ei - 1) // p for ei in e)
                if all(ei % p != 1 for ei in e):
                    assert moduli_dimension(p, h, e, n) == dim
                    checked += 1
    assert checked > 100


# -- isomorphism --------------------------------------------------------------


def test_isomorphic_reflexive():
    x = x_of(F16)
    a = F16.element(3)
    c = ArtinSchreierCover.from_equation(F16, 1 / x + 1 / (x - a), (Place.finite(F16.element(9)),))
    assert isomorphic(c, c)


def test_isomorphic_translation():
    x = x_of(F16)
    a = F16.element(3)
    t = F16.element(5)
    m1 = (Place.finite(F16.element(9)),)
    m2 = (Place.finite(F16.element(9) + t),)
    c1 = ArtinSchreierCover.from_equation(F16, 1 / x + 1 / (x - a), m1)
    c2 = ArtinSchreierCover.from_equation(F16, 1 / (x - t) + 1 / (x - a - t), m2)
    assert isomorphic(c1, c2)


def test_not_isomorphic_different_shape():
    x = x_of(F16)
    a, b = F16.element(3), F16.element(5)
    q = Place.finite(F16.element(9))
    c1 = ArtinSchreierCover.from_equation(F16, 1 / x + 1 / (x - a), (q,))
    c2 = ArtinSchreierCover.from_equation(F16, 1 / x**3 + 1 / (x - b), (q,))
    assert not isomorphic(c1, c2)


def test_isomorphic_permutes_branch_points():
    # y -> 1 - y swaps the branch points 0 and 1, whose conductors differ:
    # (2, 3, 2) at (0, 1, inf) becomes (3, 2, 2)
    y = x_of(F9)
    g = 1 / y + 1 / (y - 1) ** 2 + y
    c1 = ArtinSchreierCover.from_equation(F9, g)
    c2 = ArtinSchreierCover.from_equation(F9, g.compose(1 - y))
    assert (c1.conductors, c2.conductors) == ((2, 3, 2), (3, 2, 2))
    assert isomorphic(c1, c2) and isomorphic(c2, c1)
    # same conductors at the same points, but no Moebius map and unit matches
    c3 = ArtinSchreierCover.from_equation(F9, 1 / y + 1 / (y - 1) ** 2 + 2 * y)
    assert c3.conductors == c1.conductors
    assert not isomorphic(c1, c3)
    assert not isomorphic(c3, c2)


def test_unrigidified_rejected():
    x = x_of(F16)
    c = ArtinSchreierCover.from_equation(F16, 1 / x)
    with pytest.raises(CoverError):
        isomorphic(c, c)


def test_unit_scaling_detected():
    # over p = 3 the rhs may be scaled by units of GF(3)
    x = x_of(F9)
    q = (Place.finite(F9.element(5)), Place.finite(F9.element(7)))
    c1 = ArtinSchreierCover.from_equation(F9, 1 / x, q)
    c2 = ArtinSchreierCover.from_equation(F9, RationalFunction.constant(F9, F9.from_int(2)) / x, q)
    assert isomorphic(c1, c2)


@functools.cache
def _pgl2(spec):
    """One matrix per element of PGL2(spec): c = 1, or c = 0 and d = 1."""
    els = [spec.element(i) for i in range(spec.q)]
    maps = [Mobius(spec, a, b, 1, d) for a, b, d in itertools.product(els, repeat=3) if a * d != b]
    maps += [Mobius(spec, a, b, 0, 1) for a, b in itertools.product(els, repeat=2) if a.idx]
    assert len(maps) == spec.q * (spec.q**2 - 1)
    return maps


def _brute_isomorphic(c1, c2):
    """Some (phi, u) in PGL2(F_q) x F_p^* carries y^p - y = g1 to y^p - y = g2 and marks to marks."""
    spec, g1 = c1.spec, c1.normal_form()
    for phi in _pgl2(spec):
        if {phi.apply_place(b) for b in c1.branch_points} != set(c2.branch_points):
            continue  # a Moebius map keeps each pole order, so phi moves the branch locus to c2's
        marked = tuple(phi.apply_place(q) for q in c1.marked_unramified)
        moved = g1.compose(phi.inverse().as_rational())
        for u in range(1, spec.p):
            if ArtinSchreierCover.from_equation(spec, moved * spec.from_int(u), marked) == c2:
                return True
    return False


def _random_cover(spec, rng, orders, n_marked):
    """A cover with a pole of each order in `orders` at distinct random places, and n_marked marks."""
    line = [INFINITY, *(Place.finite(spec.element(i)) for i in range(spec.q))]
    places = rng.sample(line, len(orders) + n_marked)
    x = x_of(spec)
    g = RationalFunction.constant(spec, 0)
    for q, d in zip(places, orders):
        u = x if q.is_infinity else 1 / (x - q.value)
        for j in range(1, d + 1):
            c = rng.randrange(1 if j == d else 0, spec.q)
            g = g + RationalFunction.constant(spec, spec.element(c)) * u**j
    return ArtinSchreierCover.from_equation(spec, g, tuple(places[len(orders):]))


@pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (3, 2)])
def test_isomorphic_matches_brute_force(p, k):
    """isomorphic agrees with a search over PGL2(F_q) x F_p^*.

    The pairs are isomorphic by construction, or random with the same pole orders and number of marks.
    """
    spec = field(p, k)
    rng = random.Random(7 * p + k)
    pole_orders = [d for d in (1, 2, 3) if d % p]
    verdicts = []
    for _ in range(20):
        orders = [rng.choice(pole_orders) for _ in range(rng.randrange(1, 4))]
        n_marked = rng.randrange(max(0, 3 - len(orders)), 5 - len(orders))
        c1 = _random_cover(spec, rng, orders, n_marked)
        phi, u = rng.choice(_pgl2(spec)), rng.randrange(1, p)
        moved = c1.normal_form().compose(phi.inverse().as_rational()) * spec.from_int(u)
        marked = tuple(phi.apply_place(q) for q in c1.marked_unramified)
        image = ArtinSchreierCover.from_equation(spec, moved, marked)
        other = _random_cover(spec, rng, rng.sample(orders, len(orders)), n_marked)
        for c2 in (image, other):
            verdict = isomorphic(c1, c2)
            assert verdict == _brute_isomorphic(c1, c2)
            verdicts.append(verdict)
        assert verdicts[-2]
    assert False in verdicts


# -- validation ---------------------------------------------------------------


def test_invalid_branch_parts():
    h_bad = Polynomial(F16, [F16.one, F16.one])  # h(0) != 0
    with pytest.raises(CoverError):
        ArtinSchreierCover(F16, {Place.finite(F16.from_int(0)): h_bad})
    h_div = Polynomial(F16, [F16.zero, F16.zero, F16.one])  # top degree 2 = 0 mod 2
    with pytest.raises(CoverError):
        ArtinSchreierCover(F16, {Place.finite(F16.from_int(0)): h_div})
    with pytest.raises(CoverError):
        ArtinSchreierCover(F16, {})
    for h_empty in (Polynomial(F16, []), Polynomial(F16, [F16.one])):  # degree -inf, then 0
        with pytest.raises(CoverError, match="^empty principal part at 0$"):
            ArtinSchreierCover(F16, {Place.finite(F16.from_int(0)): h_empty})


def test_marked_collision_rejected():
    x = x_of(F16)
    with pytest.raises(CoverError):
        ArtinSchreierCover.from_equation(F16, 1 / x, (Place.finite(F16.from_int(0)),))
