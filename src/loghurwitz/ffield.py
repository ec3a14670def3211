"""Exact arithmetic in GF(p^k).

Elements are represented by their integer index sum(c_i * p^i) where
(c_0, ..., c_{k-1}) is the coefficient vector with respect to the power
basis of a generator w.  The modulus is the lexicographically smallest
irreducible monic polynomial of degree k over GF(p), coefficients
compared low-to-high, so element indices are reproducible across runs.

All arithmetic, for every p, goes through three tables of size O(q)
built for the smallest primitive element g: exp (n -> index of g^n),
log, and the Zech logarithm Z[n] = log(1 + g^n), so that
a + b = a (1 + b/a) is one lookup (Huber, IEEE Trans. IT 36, 1990).
Fields of order up to 2^16 are supported, which is the intended desk
scale; building one takes O(q k) time and O(q) memory.
"""

from __future__ import annotations

import functools
import operator

MAX_ORDER = 1 << 16


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _digits(idx, p, k):
    """The k base-p digits of idx, low to high: the coefficients of element idx."""
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return out


# GF(p)[x] on coefficient lists, low to high, enough to bootstrap a field:
# `mod` is monic, and remainders carry no trailing zeros.


def _gfp_mul(a, b, p, mod):
    """Multiply coefficient lists over GF(p) modulo the list `mod`."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                res[i + j] = (res[i + j] + ca * cb) % p
    return _gfp_rem(res, p, mod)


def _gfp_rem(a, p, mod):
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * mod[i]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_powmod(base, exp, p, mod):
    result = [1]
    base = _gfp_rem(base, p, mod)
    while exp:
        if exp & 1:
            result = _gfp_mul(result, base, p, mod)
        base = _gfp_mul(base, base, p, mod)
        exp >>= 1
    return result


def _smallest_modulus(p, k):
    """Lex smallest (low-to-high coefficients) irreducible monic degree-k polynomial.

    A monic polynomial of degree k is irreducible when no monic polynomial
    of degree 1..k//2 divides it; at q <= MAX_ORDER that is at most 510
    trial divisors, at GF(2^16).
    """
    divisors = [_digits(i, p, d) + [1] for d in range(1, k // 2 + 1) for i in range(p**d)]
    for idx in range(p**k):
        mod = _digits(idx, p, k) + [1]
        if all(_gfp_rem(mod, p, d) for d in divisors):
            return mod
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldSpec:
    """The field GF(p^k) with deterministic modulus and exp/log/Zech tables."""

    def __init__(self, p: int, k: int):
        # rejected before is_prime(p) and p**k, whose cost grows with p and k
        if p > MAX_ORDER:
            raise ValueError(f"p = {p} exceeds supported maximum field order {MAX_ORDER}")
        if p >= 2 and k >= MAX_ORDER.bit_length():
            raise ValueError(f"field order {p}^{k} exceeds supported maximum {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        q = p**k
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = tuple(_smallest_modulus(p, k))
        self._build_tables()
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        mod = list(self.modulus)
        # The smallest primitive element: g^((q-1)/r) != 1 for each prime r | q - 1.
        factors = _prime_factors(q - 1)
        for gen in range(2 if q > 2 else 1, q):
            g = _digits(gen, p, k)
            if all(_gfp_powmod(g, (q - 1) // r, p, mod) != [1] for r in factors):
                break
        else:
            raise RuntimeError(f"GF({p}^{k}) has no primitive element")

        # exp[n] = index of gen^n, stepped on digit vectors: multiply by
        # gen = sum g_j w^j as sum g_j (w^j cur), reducing w^k with the
        # modulus.  exp is stored twice over so that a sum of two logs
        # needs no reduction mod q - 1.
        while g[-1] == 0:
            g.pop()
        red = [(-c) % p for c in mod[:k]]  # w^k = sum red_i w^i
        weights = [p**i for i in range(k)]
        q1 = q - 1
        exp = [0] * q1
        log = [-1] * q  # log[0] = -1 stands for the zero element
        cur = [1] + [0] * (k - 1)
        for n in range(q1):
            idx = sum(map(operator.mul, cur, weights))
            exp[n] = idx
            log[idx] = n
            acc = [g[0] * c for c in cur]
            for gj in g[1:]:  # digits grow a little here; reduced mod p below
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    cur = [c + top * r for c, r in zip(cur, red)]
                if gj:
                    acc = [a + gj * c for a, c in zip(acc, cur)]
            cur = [a % p for a in acc]
        # Zech logarithms: zech[n] = log(1 + gen^n), or -1 where 1 + gen^n = 0.
        # Adding 1 raises digit 0 of the index by one, mod p.
        zech = [log[e + 1 if e % p != p - 1 else e + 1 - p] for e in exp]
        self.generator_index = gen
        self._exp = exp + exp
        self._log = log
        self._zech = zech + zech
        self._log_neg_one = log[p - 1]  # index p - 1 is the element -1

    # -- index-level arithmetic -------------------------------------------
    #
    # A nonzero element is gen^n with n = _log[index]; a + b = a (1 + b/a)
    # turns addition into one Zech lookup.  _exp and _zech repeat with
    # period q - 1 over 2(q - 1) entries, so any sum or difference of two
    # logs indexes them without reduction (a negative index wraps).

    def add_idx(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg_idx(self, a):
        if not a:
            return 0
        return self._exp[self._log[a] + self._log_neg_one]

    def mul_idx(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv_idx(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def pow_idx(self, a, n):
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius_idx(self, a):
        return self.pow_idx(a, self.p)

    def pth_root_idx(self, a):
        return self.pow_idx(a, self.p ** (self.k - 1))

    # -- element constructors ---------------------------------------------

    def element(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise ValueError(f"element index {idx} out of range for GF({self.p}^{self.k})")
        return FieldElement(self, idx)

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under the natural map Z -> GF(p^k).

        By the operand rule (see _operator), an element of this field is
        returned as it is and any other type raises TypeError.
        """
        return _operand(self.zero, n)

    def elements(self):
        return [FieldElement(self, i) for i in range(self.q)]

    def __eq__(self, other):
        if other is self:
            return True
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def field(p: int, k: int = 1) -> FieldSpec:
    """Cached FieldSpec factory."""
    return FieldSpec(p, k)


def parse_field(designator: str) -> FieldSpec:
    """Parse a designator like "2^4" or "5" into a FieldSpec."""
    text = designator.strip()
    if "^" in text:
        ps, ks = text.split("^", 1)
    else:
        ps, ks = text, "1"
    try:
        p, k = int(ps), int(ks)
    except ValueError as exc:
        raise ValueError(f"malformed field designator {designator!r}") from exc
    return field(p, k)


def _operator(impl, reflected=False):
    """impl(a, b), on two values of one class, as a binary operator of that class.

    This is the one operand rule of FieldElement, Polynomial and
    RationalFunction.  The operator passes its operand through the class's
    `_coerce`: an int, an element of the same field or a value of a smaller
    of these types over that field becomes a value of the class; a value
    over another field raises ValueError; any other operand gives None, and
    the operator returns NotImplemented, so Python tries the other operand.
    With reflected=True (__rsub__, __rtruediv__) the operands are swapped,
    as in fractions._operator_fallbacks.
    """
    if reflected:

        def op(b, a):
            a = b._coerce(a)
            return NotImplemented if a is None else impl(a, b)

    else:

        def op(a, b):
            b = a._coerce(b)
            return NotImplemented if b is None else impl(a, b)

    return op


def _operand(value, other):
    """other coerced by value's class (see _operator); TypeError naming its type if it does not coerce."""
    coerced = value._coerce(other)
    if coerced is None:
        raise TypeError(f"unsupported operand type for {type(value).__name__}: {type(other).__name__!r}")
    return coerced


class FieldElement:
    """Immutable element of GF(p^k), identified by its integer index."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        self.spec = spec
        self.idx = idx

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("mismatched FieldSpec")
            return other
        if isinstance(other, int):
            return FieldElement(self.spec, other % self.spec.p)
        return None

    def _sub(self, other):
        return FieldElement(self.spec, self.spec.add_idx(self.idx, self.spec.neg_idx(other.idx)))

    def _truediv(self, other):
        return FieldElement(self.spec, self.spec.mul_idx(self.idx, self.spec.inv_idx(other.idx)))

    __add__ = __radd__ = _operator(lambda a, b: FieldElement(a.spec, a.spec.add_idx(a.idx, b.idx)))
    __sub__ = _operator(_sub)
    __rsub__ = _operator(_sub, reflected=True)
    __mul__ = __rmul__ = _operator(lambda a, b: FieldElement(a.spec, a.spec.mul_idx(a.idx, b.idx)))
    __truediv__ = _operator(_truediv)
    __rtruediv__ = _operator(_truediv, reflected=True)

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_idx(self.idx))

    def __pow__(self, n: int):
        return FieldElement(self.spec, self.spec.pow_idx(self.idx, n))

    def inverse(self):
        return FieldElement(self.spec, self.spec.inv_idx(self.idx))

    def frobenius(self):
        return FieldElement(self.spec, self.spec.frobenius_idx(self.idx))

    def pth_root(self):
        return FieldElement(self.spec, self.spec.pth_root_idx(self.idx))

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.idx == other.idx

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.idx))

    def coeffs(self):
        return tuple(_digits(self.idx, self.spec.p, self.spec.k))

    def __str__(self):
        terms = []
        for i, c in enumerate(_digits(self.idx, self.spec.p, self.spec.k)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("w" if c == 1 else f"{c}*w")
            else:
                terms.append(f"w^{i}" if c == 1 else f"{c}*w^{i}")
        return "+".join(reversed(terms)) if terms else "0"

    def __repr__(self):
        return f"{self!s} in {self.spec!r}"
