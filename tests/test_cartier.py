import random

import pytest

from loghurwitz.cartier import (
    _prefix_ranks,
    _root_indices,
    BivariantForm,
    Differential,
    TcMatrix,
    cartier,
    differential_of,
    global_tc_matrix,
    integrate,
    is_exact,
    is_quasi_exact,
    matrix_rank,
    ppower_decompose,
    twisted_cartier,
)
from loghurwitz.ffield import FieldSpec, field
from loghurwitz.mobius import Mobius
from loghurwitz.ratfunc import INFINITY, Divisor, Place, Polynomial, RationalFunction

F16 = field(2, 4)
F9 = field(3, 2)
F5 = field(5, 1)


def rand_rational(spec, rng, maxdeg=4):
    def poly(nonzero=False):
        while True:
            deg = rng.randrange(maxdeg + 1)
            p = Polynomial(spec, [spec.element(rng.randrange(spec.q)) for _ in range(deg + 1)])
            if not nonzero or not p.is_zero():
                return p

    return RationalFunction(poly(), poly(nonzero=True))


# -- p-power decomposition ---------------------------------------------------


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_decompose_recombines(spec):
    rng = random.Random(spec.p)
    for _ in range(60):
        f = rand_rational(spec, rng)
        dec = ppower_decompose(f)
        assert len(dec.parts) == spec.p
        assert dec.recombine() == f


def test_decompose_uniqueness_on_monomials():
    y = RationalFunction.variable(F9)
    # y^4 = (y)^3 * y: part index 1 should be y, others 0
    dec = ppower_decompose(y**4)
    assert dec.parts[1] == y
    assert dec.parts[0].is_zero() and dec.parts[2].is_zero()


@pytest.mark.parametrize("spec", [F16, F9, F5, field(7, 1)], ids=["2^4", "3^2", "5", "7"])
def test_tc_to_the_p_is_minus_the_p_minus_1st_derivative(spec):
    # f^(p-1) = -tc(f)^p, on which locus_search's pattern decision rests; the
    # derivatives are taken one at a time, apart from the tc kernel's buckets
    rng = random.Random(71 + spec.p)
    for _ in range(40):
        f = rand_rational(spec, rng)
        d = f
        for _ in range(spec.p - 1):
            d = d.derivative()
        assert twisted_cartier(BivariantForm(f)) ** spec.p == -d


# -- worked golden identity --------------------------------------------------


def test_genus_one_family_tc():
    y = RationalFunction.variable(F16)
    for lam in F16.elements():
        for mu in F16.elements():
            psi = BivariantForm(y * (y - 1) * (y - lam) / (y - mu) ** 2)
            tc = twisted_cartier(psi)
            assert tc == (y - lam.pth_root()) / (y - mu)
            flag, witness = is_quasi_exact(psi)
            assert flag == (mu == lam.pth_root())
            if flag:
                assert witness == F16.one


def test_square_form_exact():
    y = RationalFunction.variable(F16)
    assert is_exact(BivariantForm(y**2 * (y - 1) ** 2))


def test_dlog_fixed_point():
    # tc(df/f) = df/f for the logarithmic derivative
    rng = random.Random(23)
    for spec in (F16, F9):
        y = RationalFunction.variable(spec)
        for _ in range(20):
            f = rand_rational(spec, rng, 3)
            if f.is_zero() or f.derivative().is_zero():
                continue
            dlog = f.derivative() / f
            assert twisted_cartier(BivariantForm(dlog)) == dlog


# -- operator laws -----------------------------------------------------------


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_additivity_and_semilinearity(spec):
    rng = random.Random(29 + spec.p)
    y = RationalFunction.variable(spec)
    for _ in range(40):
        f = rand_rational(spec, rng, 3)
        g = rand_rational(spec, rng, 3)
        assert twisted_cartier(BivariantForm(f + g)) == twisted_cartier(
            BivariantForm(f)
        ) + twisted_cartier(BivariantForm(g))
        # tc(g^p psi) = g tc(psi)
        assert twisted_cartier(BivariantForm(g**spec.p * f)) == g * twisted_cartier(
            BivariantForm(f)
        )


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_kernel_is_exact_forms(spec):
    rng = random.Random(31 + spec.p)
    for _ in range(40):
        h = rand_rational(spec, rng, 3)
        dh = h.derivative()
        assert is_exact(BivariantForm(dh))
        assert cartier(differential_of(h)).f.is_zero()


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_integrate_round_trip(spec):
    rng = random.Random(37 + spec.p)
    done = 0
    while done < 25:
        f = rand_rational(spec, rng, 3)
        try:
            h = integrate(f)
        except ValueError:
            continue
        assert h.derivative() == f
        done += 1


def test_integrate_obstructions():
    y = RationalFunction.variable(F16)
    with pytest.raises(ValueError):
        integrate(y)  # degree 1: antiderivative y^2/2 does not exist at p=2
    with pytest.raises(ValueError):
        integrate(1 / y)  # simple pole
    with pytest.raises(ValueError):
        integrate(1 / (y - 1) ** 3)  # pole order 3 = 1 mod 2


def test_exact_tc_vanishes_iff_antiderivative():
    rng = random.Random(41)
    for spec in (F16, F9):
        done = 0
        while done < 20:
            f = rand_rational(spec, rng, 3)
            try:
                exact = is_exact(BivariantForm(f))
            except ZeroDivisionError:
                continue
            try:
                integrate(f)
                integrable = True
            except ValueError:
                integrable = False
            assert exact == integrable
            done += 1


# -- divisor bookkeeping -----------------------------------------------------


def test_degree_bookkeeping():
    y = RationalFunction.variable(F16)
    f = y * (y - 1)
    omega = Differential(f)
    assert omega.divisor().degree() == -2  # 2g - 2 on the line
    psi = BivariantForm(f)
    assert psi.divisor().degree() == 2 * F16.p - 2


@pytest.mark.parametrize("spec", [F16, F9, F5])
def test_form_contract(spec):
    """f dy and f dy/dx: one class in two frames, never equal to each other and never hashable."""
    y = RationalFunction.variable(spec)
    f, g = y * (y - 1) / (y + 1), 1 / y
    for cls, frame, order in ((Differential, "dy", -2), (BivariantForm, "dy/dx", 2 * spec.p - 2)):
        form = cls(f)
        assert repr(form) == f"({f}) {frame}"
        assert form.spec is spec
        assert cls(RationalFunction.constant(spec, 1)).divisor() == Divisor({INFINITY: order})
        assert form.divisor() == f.divisor() + Divisor({INFINITY: order})
        total = form + cls(g)
        assert type(total) is cls and total == cls(f + g)
        assert form == cls(f) and form != cls(g)
        with pytest.raises(TypeError):
            hash(form)
    assert Differential(f) != BivariantForm(f) and BivariantForm(f) != Differential(f)
    assert not isinstance(Differential(f), BivariantForm) and not isinstance(BivariantForm(f), Differential)


# -- chart independence ------------------------------------------------------


@pytest.mark.parametrize("spec", [F16, F9])
def test_tc_chart_independence(spec):
    """tc commutes with Moebius changes of coordinate.

    For z = m(y) upstairs the downstairs chart moves by the Moebius map
    with Frobenius-twisted coefficients; the transported coefficient
    function is f(m^{-1}(z)) (m^{-1})'(z) / (m_p^{-1})'(z^p) and its tc
    must be tc(f)(m^{-1}(z)).
    """
    rng = random.Random(43 + spec.p)
    y = RationalFunction.variable(spec)
    for _ in range(15):
        while True:
            a, b, c, d = (spec.element(rng.randrange(spec.q)) for _ in range(4))
            if (a * d - b * c).idx != 0:
                break
        m = Mobius(spec, a, b, c, d)
        mp = Mobius(spec, a.frobenius(), b.frobenius(), c.frobenius(), d.frobenius())
        minv = m.inverse().as_rational()
        mpinv = mp.inverse().as_rational()
        f = rand_rational(spec, rng, 3)
        transported = f.compose(minv) * minv.derivative() / mpinv.derivative().compose(y**spec.p)
        lhs = twisted_cartier(BivariantForm(transported))
        rhs = twisted_cartier(BivariantForm(f)).compose(minv)
        assert lhs == rhs


# -- global sections ---------------------------------------------------------


def test_matrix_rank():
    rows = [[1, 0, 1], [0, 1, 0], [1, 1, 1]]
    assert matrix_rank(F16, rows) == 2
    assert matrix_rank(F16, []) == 0
    for ragged in ([[1, 1], [1]], [[1], [1, 1]]):
        with pytest.raises(ValueError):
            matrix_rank(F16, ragged)


def test_matrix_rank_rejects_entries_that_are_not_element_indices():
    F4 = field(2, 2)
    for bad in (-1, 4, 17):
        for rows in ([[bad]], [[1, 0], [0, bad]]):
            with pytest.raises(ValueError, match=rf"^element index {bad} out of range for GF\(2\^2\)$"):
                matrix_rank(F4, rows)
    assert matrix_rank(F4, [[0, 3], [3, 0]]) == 2


def test_global_tc_matrix_no_marks():
    M = global_tc_matrix(F16, [])
    assert (M.source_dim, M.target_dim) == (3, 1)
    assert M.surjective
    assert M.semilinear_exponent == -1


def test_global_tc_matrix_surjective_patterns():
    # spot checks; the exhaustive sweep is in the acceptance suite
    cases = [
        (F16, [(Place.finite(F16.from_int(0)), 1), (Place.finite(F16.from_int(1)), 1)]),
        (F9, [(Place.finite(F9.from_int(0)), 3), (Place.finite(F9.from_int(1)), 1)]),
        (F16, [(INFINITY, 2)]),
    ]
    for spec, marked in cases:
        total = sum(m for _, m in marked)
        assert total == 2 * spec.p - 2
        assert global_tc_matrix(spec, marked).surjective


def test_global_tc_matrix_rejects_repeats():
    q = Place.finite(F16.from_int(0))
    with pytest.raises(ValueError):
        global_tc_matrix(F16, [(q, 1), (q, 1)])


def test_root_indices_keep_the_operand_rule():
    """An element of spec itself is read directly; an int, an equal spec's element and anything else take the rule."""
    w = F9.element(5)
    places = [Place.finite(w), INFINITY, Place(7), Place.finite(FieldSpec(3, 2).element(5))]
    assert _root_indices(F9, places) == [5, None, F9.from_int(1).idx, 5]
    with pytest.raises(ValueError, match="^mismatched FieldSpec$"):
        _root_indices(F9, [Place.finite(F5.element(1))])
    with pytest.raises(TypeError):
        _root_indices(F9, [Place("1")])


def _reference_tc_matrix(spec, marked):
    """(entries, source_dim, target_dim), built column by column through RationalFunction."""
    p = spec.p
    src = {q: m for q, m in marked}
    src[INFINITY] = src.get(INFINITY, 0) + 2 * p - 2
    tgt = {q: -(-m // p) for q, m in marked}
    source_dim = max(sum(src.values()) + 1, 0)
    target_dim = max(sum(tgt.values()) + 1, 0)
    if source_dim == 0 or target_dim == 0:
        return [[0] * source_dim for _ in range(target_dim)], source_dim, target_dim
    y = RationalFunction.variable(spec)
    f0 = RationalFunction.constant(spec, 1)
    g0_inv = RationalFunction.constant(spec, 1)
    for q, n in src.items():
        if not q.is_infinity:
            f0 = f0 * (y - q.value) ** (-n)
    for q, n in tgt.items():
        if not q.is_infinity:
            g0_inv = g0_inv * (y - q.value) ** n
    columns = []
    for j in range(source_dim):
        coords = twisted_cartier(BivariantForm(y**j * f0)) * g0_inv
        assert coords.is_polynomial()
        cs = coords.num.coeffs
        assert len(cs) <= target_dim
        columns.append(list(cs) + [0] * (target_dim - len(cs)))
    entries = [[columns[j][i] for j in range(source_dim)] for i in range(target_dim)]
    return entries, source_dim, target_dim


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (7, 1)])
def test_global_tc_matrix_matches_reference(p, k):
    spec = field(p, k)
    rng = random.Random(53 + p)
    places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
    values = [v for v in range(-2 * p, 2 * p + 1) if v != 0]
    samples = [
        [(INFINITY, -p), (places[0], 2 * p - 2), (places[1], p)],  # pole of order p at infinity
        [(places[0], -2 * p), (places[1], 2 * p - 1), (places[2], p - 1)],  # m <= -p finite
    ]
    for _ in range(10):
        n = rng.randrange(1, 5)
        samples.append(list(zip(rng.sample(places, n), (rng.choice(values) for _ in range(n)))))
    # every finite m <= -p, so each finite a_q = floor(-m_q / p) >= 1, and |m| up to 3p at infinity
    samples += [
        [(places[0], -p), (places[1], -p), (INFINITY, 3 * p)],
        [(places[0], -2 * p + 1), (INFINITY, 3 * p)],
        [(places[0], -3 * p), (INFINITY, -3 * p)],
    ]
    for _ in range(10):
        finite = [(q, rng.randint(-3 * p, -p)) for q in rng.sample(places[:-1], rng.randrange(1, 3))]
        samples.append([*finite, (INFINITY, rng.choice([v for v in range(-3 * p, 3 * p + 1) if v]))])
    nontrivial = 0
    for marked in samples:
        M = global_tc_matrix(spec, marked)
        assert (M.entries, M.source_dim, M.target_dim) == _reference_tc_matrix(spec, marked), marked
        nontrivial += M.source_dim > 0 and M.target_dim > 0
    assert nontrivial >= 8



def _reference_matrix_rank(spec, rows):
    """Rank by Gauss-Jordan on element indices with normalised pivots, as matrix_rank once computed it."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        pivot = None
        for i, r in enumerate(rows):
            if r[col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        row = rows.pop(pivot)
        inv = spec.inv_idx(row[col])
        row = [spec.mul_idx(c, inv) for c in row]
        new_rows = []
        for r in rows:
            if r[col]:
                factor = spec.neg_idx(r[col])
                r = [spec.add_idx(c, spec.mul_idx(factor, rc)) for c, rc in zip(r, row)]
            if any(r):
                new_rows.append(r)
        rows = new_rows
        rank += 1
        col += 1
    return rank


def _brute_force_rank(spec, rows):
    """log_q of the size of the row space, listed combination by combination."""
    span = {(0,) * len(rows[0])} if rows else {()}
    for r in rows:
        span = {tuple(spec.add_idx(v, spec.mul_idx(c, x)) for v, x in zip(vec, r)) for vec in span for c in range(spec.q)}
    rank = 0
    while spec.q**rank < len(span):
        rank += 1
    if spec.q**rank != len(span):
        raise AssertionError(f"row space of size {len(span)} is not a power of {spec.q}")
    return rank


def _random_low_rank(spec, rng, rows, cols, r):
    """rows x r times r x cols over spec, as element indices: rank at most r."""
    A = [[rng.randrange(spec.q) if rng.random() < 0.7 else 0 for _ in range(r)] for _ in range(rows)]
    B = [[rng.randrange(spec.q) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(r)]
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = 0
            for t in range(r):
                acc = spec.add_idx(acc, spec.mul_idx(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 4), (5, 2), (2, 8)])
def test_matrix_rank_matches_reference_and_brute_force(p, k):
    spec = field(p, k)
    rng = random.Random(67 * p + k)
    samples = [[], [[]] * 3, [[0] * 4] * 3, [[0] * 3, [1, 0, 2 % spec.q], [0] * 3]]
    for _ in range(300):
        rows, cols = rng.randrange(0, 8), rng.randrange(0, 8)
        m = _random_low_rank(spec, rng, rows, cols, rng.randrange(0, 6))
        if m and rng.random() < 0.3:  # a zero row
            m.insert(rng.randrange(len(m) + 1), [0] * cols)
        samples.append(m)
    for m in samples:
        got = matrix_rank(spec, m)
        assert got == _reference_matrix_rank(spec, m), m
        if len(m) <= 4 and spec.q <= 9:
            assert got == _brute_force_rank(spec, m), m


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 1), (3, 4)])
def test_prefix_ranks_match_reference_on_every_leading_block(p, k):
    # ragged rows padded with zeros, as tangent_report pads its log rows, with
    # zero rows and repeated rows: ranks[i] is the rank of the first i rows
    spec = field(p, k)
    rng = random.Random(71 * p + k)
    samples, dropped = [[], [[]] * 3], 0
    for _ in range(150):
        m = _random_low_rank(spec, rng, rng.randrange(0, 7), rng.randrange(1, 7), rng.randrange(0, 5))
        m = [r[: rng.randrange(len(r) + 1)] if rng.random() < 0.3 else r for r in m]  # ragged
        for _ in range(rng.randrange(3)):
            extra = list(rng.choice(m)) if m and rng.random() < 0.5 else [0] * rng.randrange(4)
            m.insert(rng.randrange(len(m) + 1), extra)
        samples.append(m)
    for m in samples:
        width = max(map(len, m), default=0)
        ranks = _prefix_ranks(spec, [[spec._log[c] for c in r] + [-1] * (width - len(r)) for r in m])
        padded = [r + [0] * (width - len(r)) for r in m]
        assert ranks == [_reference_matrix_rank(spec, padded[:i]) for i in range(len(m) + 1)], m
        assert ranks[-1] == matrix_rank(spec, padded)
        dropped += any(a == b for a, b in zip(ranks[1:], ranks[2:]))
    assert dropped > 50  # a later row in the span of those above it


def _reference_linearised_rank(spec, entries):
    """The rank after entrywise Frobenius linearisation, as TcMatrix once computed it."""
    return _reference_matrix_rank(spec, [[spec.frobenius_idx(c) for c in row] for row in entries])


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_tc_matrix_rank_matches_linearised_reference(p, k):
    # Frobenius is not the identity on these fields, yet as an automorphism it keeps every rank
    spec = field(p, k)
    rng = random.Random(61 + spec.q)
    places = [Place.finite(e) for e in spec.elements()] + [INFINITY]
    values = [v for v in range(-2 * p, 2 * p + 1) if v != 0]
    for _ in range(20):
        n = rng.randrange(1, 5)
        M = global_tc_matrix(spec, list(zip(rng.sample(places, n), (rng.choice(values) for _ in range(n)))))
        assert M.rank == _reference_linearised_rank(spec, M.entries)
    for _ in range(40):
        # rows x r times r x cols: rank at most r, so often below full rank
        rows, cols, r = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(4)
        A = [[spec.element(rng.randrange(spec.q)) for _ in range(r)] for _ in range(rows)]
        B = [[spec.element(rng.randrange(spec.q)) for _ in range(cols)] for _ in range(r)]
        entries = [[sum((A[i][t] * B[t][j] for t in range(r)), spec.from_int(0)).idx for j in range(cols)]
                   for i in range(rows)]
        assert matrix_rank(spec, entries) == _reference_linearised_rank(spec, entries)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_twisted_cartier_matches_sympy_bucket(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    spec = field(p, 1)
    rng = random.Random(59 + p)
    y = RationalFunction.variable(spec)
    for _ in range(25):
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 7))]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [rng.randrange(1, p)]
        # sympy coefficient lists are high degree first
        big = sympy.Poly(a[::-1], t, modulus=p) * sympy.Poly(b[::-1], t, modulus=p) ** (p - 1)
        coeffs = [int(c) % p for c in reversed(big.all_coeffs())]
        # over GF(p) the p-th root is the identity
        bucket = Polynomial(spec, coeffs[p - 1 :: p])
        f = RationalFunction(Polynomial(spec, a), Polynomial(spec, b))
        assert twisted_cartier(BivariantForm(f)) == RationalFunction(bucket, Polynomial(spec, b))
        assert ppower_decompose(f).parts[-1] == twisted_cartier(BivariantForm(f))
