import math
import os
import random
import subprocess
import sys
import time

import pytest

from loghurwitz.ffield import MAX_ORDER, FieldSpec, _smallest_modulus, field, is_prime, parse_field


def test_prime_validation():
    with pytest.raises(ValueError):
        field(4, 1)
    with pytest.raises(ValueError):
        field(1, 2)
    with pytest.raises(ValueError):
        field(2, 17)  # order 2^17 exceeds the table limit
    with pytest.raises(ValueError):
        field(2, 0)
    # the order bound comes before primality and before p**k is built
    for p in (10**14 + 31, 2 * (10**14 + 31)):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds supported maximum field order {MAX_ORDER}"):
            field(p, 1)
        assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError, match=f"exceeds supported maximum {MAX_ORDER}"):
        field(2, 10**5)


def test_gf4_modulus():
    F = field(2, 2)
    # lexicographically smallest irreducible: x^2 + x + 1
    assert F.modulus == (1, 1, 1)


def test_gf16_modulus():
    F = field(2, 4)
    # x^4 + x + 1
    assert F.modulus == (1, 1, 0, 0, 1)


def test_field_cache():
    assert field(3, 2) is field(3, 2)


def test_parse_field():
    F = parse_field("2^4")
    assert (F.p, F.k, F.q) == (2, 4, 16)
    assert parse_field("5").q == 5
    with pytest.raises(ValueError):
        parse_field("6^2")
    with pytest.raises(ValueError):
        parse_field("not a field")


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 1), (7, 1), (3, 3)])
def test_field_axioms_sampled(p, k):
    F = field(p, k)
    rng = random.Random(1000 * p + k)
    elems = F.elements()
    zero, one = F.zero, F.one
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if a != zero:
            assert a * a.inverse() == one


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 2)])
def test_frobenius_and_pth_root(p, k):
    F = field(p, k)
    for a in F.elements():
        assert a.frobenius() == a**p
        assert a.pth_root().frobenius() == a
        assert a.frobenius().pth_root() == a
    # Frobenius is additive
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.choice(F.elements()), rng.choice(F.elements())
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_every_element_is_pth_power():
    for p, k in [(2, 4), (3, 2), (5, 1)]:
        F = field(p, k)
        assert {(a**p).idx for a in F.elements()} == {a.idx for a in F.elements()}


def test_prime_field_matches_integers_mod_p():
    F = field(7, 1)
    for a in range(7):
        for b in range(7):
            assert (F.from_int(a) + F.from_int(b)).idx == (a + b) % 7
            assert (F.from_int(a) * F.from_int(b)).idx == (a * b) % 7


def test_generator_is_primitive():
    for p, k in [(2, 4), (3, 2)]:
        F = field(p, k)
        g = F.element(F.generator_index)
        seen = set()
        x = F.one
        for _ in range(F.q - 1):
            seen.add(x.idx)
            x = x * g
        assert len(seen) == F.q - 1


def test_int_coercion_and_str():
    F = field(2, 2)
    w = F.element(2)
    assert str(F.from_int(0)) == "0"
    assert str(F.from_int(1)) == "1"
    assert str(w) == "w"
    assert str(w + 1) == "w+1"
    assert w + 1 == F.element(3)
    assert 1 + w == w + F.from_int(1)
    assert (2 * w).idx == 0  # char 2


def test_element_index_bounds():
    F = field(3, 1)
    with pytest.raises(ValueError):
        F.element(3)
    with pytest.raises(ValueError):
        F.element(-1)


# -- the Zech-log tables against an independent digit-vector oracle -----------


def _oracle(F):
    """Digit-vector model of GF(p^k): vectors mod p, products mod F.modulus."""
    p, k, mod = F.p, F.k, F.modulus
    digits = [tuple((i // p**j) % p for j in range(k)) for i in range(F.q)]
    index = {d: i for i, d in enumerate(digits)}

    def times_w(v):
        top = v[-1]
        return [(c - top * m) % p for c, m in zip((0,) + tuple(v[:-1]), mod)]

    def sweep(start, basis):
        """Indices of start + sum_i b_i basis_i for b = 0, 1, ..., q-1 in index order."""
        cur, out = list(start), []
        for b in range(F.q):
            out.append(index[tuple(cur)])
            i = 0
            while i < k:  # b -> b + 1: digit i rising from p-1 to 0 adds p * basis_i = 0
                cur = [(c + e) % p for c, e in zip(cur, basis[i])]
                if (b // p**i) % p != p - 1:
                    break
                i += 1
        return out

    units = [[int(i == j) for j in range(k)] for i in range(k)]

    def add_row(a):
        return sweep(digits[a], units)

    def mul_row(a):
        basis = [list(digits[a])]
        for _ in range(k - 1):
            basis.append(times_w(basis[-1]))
        return sweep([0] * k, basis)

    return add_row, mul_row


def _check_rows(F, rows):
    add_row, mul_row = _oracle(F)
    everything = range(F.q)
    for a in rows:
        adds, muls = add_row(a), mul_row(a)
        assert [F.add_idx(a, b) for b in everything] == adds
        assert [F.mul_idx(a, b) for b in everything] == muls
        assert adds[F.neg_idx(a)] == 0
        if a:
            assert muls[F.inv_idx(a)] == 1


# every field of order <= 729 except the prime fields above 127, whose rows
# are sampled below (all of them would be 2 * 10^7 pairs)
SMALL_FIELDS = [(p, k) for p in range(2, 128) if is_prime(p) for k in range(1, 10) if p**k <= 729]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_arithmetic_matches_digit_oracle_exhaustively(p, k):
    F = FieldSpec(p, k)
    _check_rows(F, range(F.q))


@pytest.mark.parametrize("p,k", [(3, 7), (7, 4), (2, 16), (3, 10), (65521, 1), (727, 1), (251, 2)])
def test_arithmetic_matches_digit_oracle_sampled(p, k):
    F = field(p, k)
    rng = random.Random(p * 100 + k)
    a = rng.randrange(1, F.q)
    # one full row each for a random a and for -1, then random pairs
    _check_rows(F, [a, F.neg_idx(1)])
    digits = lambda i: [(i // p**j) % p for j in range(k)]  # noqa: E731
    for _ in range(2000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        s = sum(((x + y) % p) * p**j for j, (x, y) in enumerate(zip(digits(a), digits(b))))
        assert F.add_idx(a, b) == s
        assert F.add_idx(F.add_idx(a, b), F.neg_idx(b)) == a
        if a and b:
            assert F.mul_idx(F.mul_idx(a, b), F.inv_idx(b)) == a


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101, 257, 727])
def test_prime_field_matches_sympy(p):
    from sympy.polys.domains import GF

    K = GF(p, symmetric=False)
    F = field(p, 1)
    rng = random.Random(p)
    pairs = [(a, b) for a in range(p) for b in range(p)] if p < 40 else [
        (rng.randrange(p), rng.randrange(p)) for _ in range(3000)
    ]
    for a, b in pairs:
        assert F.add_idx(a, b) == K.to_int(K(a) + K(b))
        assert F.mul_idx(a, b) == K.to_int(K(a) * K(b))
        assert F.neg_idx(a) == K.to_int(-K(a))
        if a:
            assert F.inv_idx(a) == K.to_int(1 / K(a))


@pytest.mark.parametrize(
    "p,k,gen",
    [(2, 4, 2), (3, 2, 4), (3, 7, 5), (7, 4, 12), (5, 4, 6), (2, 16, 3), (3, 10, 34), (251, 2, 256), (65521, 1, 17)],
)
def test_generator_index_pinned(p, k, gen):
    assert field(p, k).generator_index == gen


def test_modulus_is_the_first_candidate_sympy_finds_irreducible():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    fields = [(p, k) for p in range(2, 256) if is_prime(p) for k in range(1, 17) if p**k <= MAX_ORDER]
    assert len(fields) == 147
    for p, k in fields:
        # candidates x^k + c_{k-1} x^{k-1} + ... + c_0 with (c_0, ..., c_{k-1})
        # the base-p digits of 0, 1, 2, ...; sympy takes coefficients high to low
        for idx in range(p**k):
            cand = [(idx // p**i) % p for i in range(k)] + [1]
            if gf_irreducible_p(cand[::-1], p, ZZ):
                break
        assert _smallest_modulus(p, k) == cand, (p, k)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_generator_is_the_least_primitive_index(p, k):
    # g^n has order (q-1)/gcd(n, q-1): primitive exactly when gcd(n, q-1) = 1
    F = field(p, k)
    gen, q1 = F.generator_index, F.q - 1
    assert math.gcd(F._log[gen], q1) == 1
    assert all(math.gcd(F._log[c], q1) > 1 for c in range(1, gen))


def test_field_layer_is_linear_in_q():
    F = field(3, 6)
    assert len(F._exp) == len(F._zech) == 2 * (F.q - 1) and len(F._log) == F.q
    assert not any(isinstance(v, list) and len(v) >= F.q**2 for v in vars(F).values())


@pytest.mark.parametrize("p,k", [(3, 10), (2, 16), (251, 2), (65521, 1)])
def test_largest_fields_build_fast(p, k):
    start = time.perf_counter()
    F = FieldSpec(p, k)
    assert time.perf_counter() - start < 2.0
    assert F.mul_idx(F.generator_index, F.inv_idx(F.generator_index)) == 1


def test_largest_fields_build_in_small_memory():
    # ru_maxrss of a grandchild: a process forked straight from this one
    # would report at least this process's peak.  (tracemalloc would slow
    # the builds 15-20x.)
    build = (
        "import resource, sys\n"
        "from loghurwitz.ffield import FieldSpec\n"
        "FieldSpec(int(sys.argv[1]), int(sys.argv[2]))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    launch = "import subprocess, sys\nsubprocess.run([sys.executable, '-c'] + sys.argv[1:], check=True)\n"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for p, k in [(3, 10), (2, 16), (251, 2), (65521, 1)]:
        out = subprocess.run(
            [sys.executable, "-c", launch, build, str(p), str(k)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert int(out.stdout) < 50 * 1024, (p, k, out.stdout)  # KiB on Linux
