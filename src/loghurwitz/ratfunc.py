"""Univariate polynomials and rational functions over GF(p^k).

Polynomials are log lists (see _from_logs), low degree first, with no
trailing zeros; the zero polynomial has an empty list and degree NEG_INF.
Rational functions are kept in canonical reduced form: gcd(num, den) = 1
and den monic.  Places on the projective line are either finite field
elements or the distinguished point at infinity, with the convention
(y - infinity) = y^(-1); order_at(infinity) is deg(den) - deg(num).

Roots are located by evaluation over the field, exact and fast at the
supported field sizes (order <= 2^16); the scan stops once what is left
is c (y - r)^d with p not dividing d (see Polynomial.roots).
"""

from __future__ import annotations

import itertools

from .ffield import FieldElement, FieldSpec, _operand, _operator


class NegInf(float):
    """Degree of the zero polynomial: float -inf, below every integer, that keeps itself under +."""

    __add__ = __radd__ = lambda self, other: self


NEG_INF = NegInf("-inf")


def _coefficient_index(spec: FieldSpec, c) -> int:
    """Index of a coefficient given as a FieldElement of spec or an integer mod p; TypeError otherwise."""
    return _operand(spec.zero, c).idx


def _from_logs(spec, logs):
    """The Polynomial with log list `logs`, trusted and kept: not copied, trailing -1s popped.

    A log list holds the discrete log of each coefficient, low degree
    first, -1 standing for zero; every entry lies in range(-1, q - 1).
    The caller gives `logs` up and must not change it.  Products of log
    lists cost one Zech lookup per multiply-add, g^s + g^t = g^s (1 + g^(t-s)).
    """
    while logs and logs[-1] < 0:
        logs.pop()
    poly = object.__new__(Polynomial)
    poly.spec = spec
    poly.logs = logs
    return poly


def _addmul(out, at, x, row, zech, q1):
    """Add g^x g^y into out[at + j] for each (j, y) in row: the one multiply-add on log lists.

    out is a log list, changed in place; x and each y are logs in range(q1), q1 = q - 1.
    """
    for j, y in row:
        t = x + y
        s = out[at + j]
        if s < 0:
            out[at + j] = t - q1 if t >= q1 else t
        else:
            z = zech[t - s]
            if z < 0:
                out[at + j] = -1
            else:
                s += z
                out[at + j] = s - q1 if s >= q1 else s


def _log_mul(a, b, zech, q1):
    """Log list of the product of log lists a and b; one _addmul per nonzero term of the shorter."""
    if len(a) < len(b):
        a, b = b, a
    row = [(j, y) for j, y in enumerate(a) if y >= 0]
    out = [-1] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x >= 0:
            _addmul(out, i, x, row, zech, q1)
    return out


def _coeff_log(a, b, d, zech, q1):
    """Entry d of _log_mul(a, b, zech, q1), possibly one period q - 1 above it."""
    # fused, not _addmul: one coefficient alone, so a membership test stops at the first failure (1,821 calls a loci-grid round)
    s = -1
    for t in range(max(0, d - len(a) + 1), min(len(b), d + 1)):
        x, y = a[d - t], b[t]
        if x >= 0 and y >= 0:
            x += y
            if s < 0:
                s = x
            else:
                z = zech[x - s]
                if z < 0:
                    s = -1
                else:
                    s += z
                    if s >= q1:
                        s -= q1
    return s


class Polynomial:
    """Polynomial over a FieldSpec with log list `logs` (see _from_logs); == and hash read it, so it is read-only."""

    __slots__ = ("spec", "logs")

    def __init__(self, spec: FieldSpec, coeffs):
        log = spec._log
        logs = [log[_coefficient_index(spec, c)] for c in coeffs]
        while logs and logs[-1] < 0:
            logs.pop()
        self.spec = spec
        self.logs = logs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_indices(cls, spec: FieldSpec, idxs) -> "Polynomial":
        """Polynomial whose coefficients are the element indices `idxs`.

        Unlike the constructor, an int here is an element index, not an
        integer mod p; indices are trusted to lie in range(spec.q).
        """
        log = spec._log
        return _from_logs(spec, [log[c] for c in idxs])

    @classmethod
    def constant(cls, spec, c):
        return cls(spec, [c])

    @classmethod
    def variable(cls, spec):
        return cls(spec, [0, 1])

    @classmethod
    def from_roots(cls, spec, roots):
        """prod (y - r) over `roots`, each a field element or an integer mod p."""
        return cls._from_root_indices(spec, [_coefficient_index(spec, r) for r in roots])

    @classmethod
    def _from_root_indices(cls, spec, roots):
        """prod (y - r) over `roots`, each an element index trusted to lie in range(spec.q)."""
        log, zech, q1 = spec._log, spec._zech, spec.q - 1
        out = [0]  # log 1 = 0
        for r in roots:
            if not r:
                out.insert(0, -1)
                continue
            nr = (log[r] + spec._log_neg_one) % q1  # log(-r)
            # (sum c_i y^i)(y - r) has the coefficients c_{i-1} - r c_i; fused: an _addmul row per root took
            # 4.7 against 2.1 us for 4 roots over GF(3^2) and read algebra wall_s +3-9 %, query_p50_ms +5-8 %
            prev = -1
            for i, c in enumerate(out):
                if c < 0:
                    out[i] = prev
                else:
                    t = (c + nr) % q1
                    if prev >= 0:
                        z = zech[prev - t]
                        t = -1 if z < 0 else (t + z) % q1
                    out[i] = t
                prev = c
            out.append(prev)
        return _from_logs(spec, out)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as element indices, low degree first."""
        exp = self.spec._exp
        return tuple([exp[s] if s >= 0 else 0 for s in self.logs])

    @property
    def degree(self):
        return len(self.logs) - 1 if self.logs else NEG_INF

    def is_zero(self):
        return not self.logs

    def leading(self) -> FieldElement:
        if not self.logs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.spec.element(self.spec._exp[self.logs[-1]])

    def coefficient(self, i: int) -> FieldElement:
        s = self.logs[i] if 0 <= i < len(self.logs) else -1
        return self.spec.element(self.spec._exp[s] if s >= 0 else 0)

    def _times(self, t):
        """self times the element of log t: one shift of every log."""
        q1 = self.spec.q - 1
        return _from_logs(self.spec, [(s + t) % q1 if s >= 0 else -1 for s in self.logs])

    def monic(self) -> "Polynomial":
        return self._times(-self.logs[-1]) if self.logs else self

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.spec == other.spec and self.logs == other.logs

    def __hash__(self):
        return hash((self.spec, tuple(self.logs)))

    def __bool__(self):
        return bool(self.logs)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.spec != self.spec:
                raise ValueError("mismatched FieldSpec")
            return other
        if isinstance(other, (int, FieldElement)):
            return Polynomial.constant(self.spec, other)
        return None

    def _add(self, other, sign=0):
        """self + g^sign other: other's nonzero terms multiply-added into a padded copy of self."""
        spec = self.spec
        out = self.logs + [-1] * (len(other.logs) - len(self.logs))
        row = [(j, y) for j, y in enumerate(other.logs) if y >= 0]
        _addmul(out, 0, sign, row, spec._zech, spec.q - 1)
        return _from_logs(spec, out)

    def _sub(self, other):
        return self._add(other, self.spec._log_neg_one)

    def _mul(self, other):
        spec = self.spec
        return _from_logs(spec, _log_mul(self.logs, other.logs, spec._zech, spec.q - 1))

    def __neg__(self):
        return self._times(self.spec._log_neg_one)

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(_sub)
    __rsub__ = _operator(_sub, reflected=True)
    __mul__ = __rmul__ = _operator(_mul)
    # through the public divmod, the one division entry
    __divmod__ = _operator(lambda a, b: a.divmod(b))
    __mod__ = _operator(lambda a, b: a.divmod(b)[1])
    __floordiv__ = _operator(lambda a, b: a.divmod(b)[0])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Polynomial; use RationalFunction")
        if not n:
            return Polynomial.constant(self.spec, 1)
        result = self  # left to right: a squaring per bit after the top one, a multiply per set bit
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def divmod(self, other: "Polynomial"):
        """(quotient, remainder) of long division; TypeError for an operand that does not coerce."""
        other = _operand(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        db = other.degree
        # long division on log lists: each step subtracts
        # c y^shift times the divisor, with c = lead(rem) / lead(divisor)
        zech, q1 = spec._zech, spec.q - 1
        rem = list(self.logs)
        lead = other.logs[-1]
        neg = spec._log_neg_one
        low = [(i, (c + neg) % q1) for i, c in enumerate(other.logs[:-1]) if c >= 0]  # -b_i
        quot = [-1] * (len(rem) - db)
        for shift in range(len(rem) - 1 - db, -1, -1):
            s = rem[shift + db]
            if s < 0:
                continue
            quot[shift] = x = (s - lead) % q1
            _addmul(rem, shift, x, low, zech, q1)
        return _from_logs(spec, quot), _from_logs(spec, rem[:db])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, _operand(self, other)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def derivative(self) -> "Polynomial":
        spec = self.spec
        log, p, q1 = spec._log, spec.p, spec.q - 1  # log[i % p] is the log of the integer i
        return _from_logs(spec, [(s + log[i % p]) % q1 if s >= 0 and i % p else -1 for i, s in enumerate(self.logs) if i])

    def __call__(self, point):
        """Evaluate at a field element or an integer mod p (Horner)."""
        return self.spec.element(self._value_idx(_coefficient_index(self.spec, point)))

    def _value_idx(self, x: int) -> int:
        """Index of the value at the element of index x: Horner on discrete logs."""
        logs, spec = self.logs, self.spec
        if not logs:
            return 0
        if not x:
            return spec._exp[logs[0]] if logs[0] >= 0 else 0
        zech, q1 = spec._zech, spec.q - 1
        lx = spec._log[x]
        acc = -1  # log of the running value, -1 for zero
        for c in reversed(logs):  # fused, not _addmul: scalar Horner, one value and no row (7,383 calls an algebra round)
            if acc >= 0:  # acc * x
                acc += lx
                if acc >= q1:
                    acc -= q1
            if c >= 0:  # + c, one Zech lookup
                if acc < 0:
                    acc = c
                else:
                    z = zech[c - acc]
                    if z < 0:
                        acc = -1
                    else:
                        acc += z
                        if acc >= q1:
                            acc -= q1
        return spec._exp[acc] if acc >= 0 else 0

    def _divide_out(self, x: int):
        """(m, cofactor) with self = (y - a)^m cofactor and cofactor(a) != 0, for the a of index x.

        self must be nonzero.
        """
        lin = Polynomial._from_root_indices(self.spec, [x])
        m, poly = 0, self
        while True:
            quo, rem = poly.divmod(lin)
            if rem:
                return m, poly
            m, poly = m + 1, quo

    def roots(self):
        """All roots in the field with multiplicities, sorted by index.

        Returns (list of (root, multiplicity), cofactor) where cofactor is
        the part of the polynomial without roots in the field.  The scan stops
        once a constant is left; at the start and after each root it first tries
        r = -a_(d-1)/(d a_d), the root of c (y - r)^d if p does not divide d.
        """
        spec = self.spec
        if self.is_zero():
            raise ValueError("roots of the zero polynomial")
        rem, found, i = self, [], 0
        while len(rem.logs) > 1:
            d, (s, t) = len(rem.logs) - 1, rem.logs[-2:]
            x = spec._exp[(s + spec._log_neg_one - spec._log[d % spec.p] - t) % (spec.q - 1)] if s >= 0 else 0
            if not d % spec.p or rem._value_idx(x):  # no candidate, or not a root: scan on from i
                x = next((x for x in range(i, spec.q) if not rem._value_idx(x)), None)
                if x is None:
                    break
                i = x + 1
            m, rem = rem._divide_out(x)
            found.append((x, m))
        return [(spec.element(x), m) for x, m in sorted(found)], rem

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            cs = str(self.spec.element(c))
            if i == 0:
                terms.append(cs)
                continue
            mon = "y" if i == 1 else f"y^{i}"
            if c == 1:
                terms.append(mon)
            elif "+" in cs:
                terms.append(f"({cs})*{mon}")
            else:
                terms.append(f"{cs}*{mon}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Polynomial({self!s})"


class Place:
    """A point of the projective line: finite(a) or infinity."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # FieldElement or None for infinity

    @classmethod
    def finite(cls, a: FieldElement) -> "Place":
        return cls(a)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @property
    def is_infinity(self):
        return self.value is None

    def __eq__(self, other):
        return isinstance(other, Place) and self.value == other.value

    def __hash__(self):
        return hash(("Place", None if self.value is None else self.value))

    def sort_key(self):
        if self.is_infinity:
            return (1, 0)
        return (0, self.value.idx)

    def __str__(self):
        return "inf" if self.is_infinity else str(self.value)

    def __repr__(self):
        return f"Place({self!s})"


INFINITY = Place.infinity()


class Divisor:
    """Finite formal sum of places with integer coefficients."""

    __slots__ = ("orders",)

    def __init__(self, orders=None):
        self.orders = {}
        if orders:
            for place, n in dict(orders).items():
                if n:
                    self.orders[place] = n

    def order(self, place: Place) -> int:
        return self.orders.get(place, 0)

    def degree(self) -> int:
        return sum(self.orders.values())

    def __add__(self, other):
        out = dict(self.orders)
        for place, n in other.orders.items():
            out[place] = out.get(place, 0) + n
        return Divisor(out)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.orders == other.orders

    def items(self):
        return sorted(self.orders.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self):
        if not self.orders:
            return "0"
        return " + ".join(f"{n}*[{place}]" for place, n in self.items())

    def __repr__(self):
        return f"Divisor({self!s})"


class RationalFunction:
    """Reduced fraction num/den of polynomials; den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = _from_logs(num.spec, [0])  # log 1 = 0
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree > 0:  # a constant den is prime to num
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead = den.logs[-1]
        if lead:  # not monic
            num, den = num._times(-lead), den._times(-lead)
        self.num = num
        self.den = den

    @property
    def spec(self):
        return self.num.spec

    @classmethod
    def constant(cls, spec, c):
        return cls(Polynomial.constant(spec, c))

    @classmethod
    def variable(cls, spec):
        return cls(Polynomial.variable(spec))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.coefficient(0)

    def is_polynomial(self):
        return self.den.degree == 0

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        """other as a fraction over this field; an int, element or Polynomial p is the reduced p/1."""
        if isinstance(other, RationalFunction):
            if other.spec != self.spec:
                raise ValueError("mismatched FieldSpec")
            return other
        num = self.num._coerce(other)
        if num is None:
            return None
        frac = object.__new__(RationalFunction)
        frac.num, frac.den = num, _from_logs(num.spec, [0])
        return frac

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def _sub(self, other):
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def _truediv(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __add__ = __radd__ = _operator(lambda a, b: RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den))
    __sub__ = _operator(_sub)
    __rsub__ = _operator(_sub, reflected=True)
    __mul__ = __rmul__ = _operator(lambda a, b: RationalFunction(a.num * b.num, a.den * b.den))
    __truediv__ = _operator(_truediv)
    __rtruediv__ = _operator(_truediv, reflected=True)

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, point):
        dv = self.den(point)
        if dv.idx == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / dv

    def compose(self, g: "RationalFunction") -> "RationalFunction":
        """Substitution self(g) for a rational argument g."""
        spec = self.spec

        def poly_at(poly):
            acc = RationalFunction.constant(spec, 0)
            for c in reversed(poly.coeffs):
                acc = acc * g + spec.element(c)
            return acc

        den = poly_at(self.den)
        if den.is_zero():
            raise ZeroDivisionError("composition lands in the pole locus")
        return poly_at(self.num) / den

    def order_at(self, q: Place) -> int:
        """Zero order (positive) or pole order (negative) at the place q."""
        if self.is_zero():
            raise ValueError("the zero function has no order")
        if q.is_infinity:
            return self.den.degree - self.num.degree
        x = _coefficient_index(self.spec, q.value)
        return self.num._divide_out(x)[0] or -self.den._divide_out(x)[0]

    def divisor(self) -> Divisor:
        """Full divisor over the field, including the place at infinity.

        Raises ValueError if numerator or denominator has an irreducible
        factor of degree > 1 over the field.
        """
        if self.is_zero():
            raise ValueError("the zero function has no divisor")
        out = {}
        for poly, sign in ((self.num, 1), (self.den, -1)):
            found, rem = poly.roots()
            if rem.degree > 0:
                raise ValueError(f"factor does not split over {self.spec!r}: {rem}")
            for root, m in found:
                place = Place.finite(root)
                out[place] = out.get(place, 0) + sign * m
        inf_order = self.den.degree - self.num.degree
        if inf_order:
            out[INFINITY] = inf_order
        return Divisor(out)

    def __str__(self):
        ns = str(self.num)
        if self.den.degree == 0:
            return ns
        # several monomials, or one constant of several terms such as w+1
        if " + " in ns or (self.num.degree == 0 and "+" in ns):
            ns = f"({ns})"
        return f"{ns}/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self!s})"


class PartialFractions:
    """Exact decomposition f = poly + sum of a/(y-b)^j terms."""

    __slots__ = ("poly", "terms")

    def __init__(self, poly: Polynomial, terms):
        self.poly = poly
        # terms: list of (b: FieldElement, j: int, a: FieldElement); terms with a = 0 are dropped
        self.terms = sorted((t for t in terms if t[2]), key=lambda t: (t[0].idx, t[1]))

    def recombine(self) -> RationalFunction:
        """poly + sum of a/(y-b)^j as num/den, den = prod (y-b)^(e_b), e_b the top j at b: no gcd is needed.

        Modulo y - b every summand of num but a_(e_b) den/(y-b)^(e_b) vanishes, leaving a_(e_b) prod_(c != b)
        (b-c)^(e_c), nonzero as the poles are distinct and a_(e_b) != 0.  So num is prime to den, which is monic.
        """
        spec, num, den = self.poly.spec, list(self.poly.logs), [0]  # untrimmed log lists; log 1 = 0
        zech, q1, out = spec._zech, spec.q - 1, RationalFunction(self.poly)
        for b, terms in itertools.groupby(self.terms, lambda t: t[0].idx):
            e, row = 0, [(i, s) for i, s in enumerate(den) if s >= 0]
            for _, j, a in terms:  # Horner in (y - b): num (y-b)^e + sum_j a_j (y-b)^(e-j) den
                # len(num) >= len(den) - 1 before the product, which adds j - e >= 1, so den's row fits
                num, e = _log_mul(num, Polynomial._from_root_indices(spec, [b] * (j - e)).logs, zech, q1), j
                _addmul(num, 0, spec._log[a.idx], row, zech, q1)
            den = _log_mul(den, Polynomial._from_root_indices(spec, [b] * e).logs, zech, q1)
        out.num, out.den = _from_logs(spec, num), _from_logs(spec, den)
        return out


def partial_fractions(f: RationalFunction) -> PartialFractions:
    """Partial fraction decomposition; requires the denominator to split.

    Each pole b of order e is peeled from the top: with den = (y-b)^e g,
    a_e = rest(b)/g(b), and rest - a_e g is divisible by y - b, leaving
    the same problem at order e - 1.  Writing rest = (y-b) r_q + rest(b)
    and g = (y-b) g_q + g(b), the quotient is r_q - a_e g_q.
    """
    spec = f.spec
    poly_part, rest = f.num.divmod(f.den)
    found, cofactor = f.den.roots()
    if cofactor.degree > 0:
        raise ValueError(f"denominator factor does not split over {spec!r}: {cofactor}")
    zech, q1, terms = spec._zech, spec.q - 1, []
    for b, e in found:
        lin = Polynomial._from_root_indices(spec, [b.idx])
        g_q, g_b = f.den.divmod(Polynomial._from_root_indices(spec, [b.idx] * e))[0].divmod(lin)  # g = den/(y-b)^e
        row, r = [(i, s) for i, s in enumerate(g_q.logs) if s >= 0], rest
        for j in range(e, 0, -1):
            r, r_b = r.divmod(lin)
            if r_b:
                x = (r_b.logs[0] - g_b.logs[0]) % q1  # log a
                terms.append((b, j, spec.element(spec._exp[x])))
                out = r.logs + [-1] * (len(g_q.logs) - len(r.logs))
                _addmul(out, 0, (x + spec._log_neg_one) % q1, row, zech, q1)  # r - a g_q
                r = _from_logs(spec, out)
    return PartialFractions(poly_part, terms)
