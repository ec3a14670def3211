"""Cartier operator and its twist for the relative Frobenius on the line.

A differential is written omega = f dy; a bivariant form is written
psi = f (dx)^v (x) dy = f dy/dx for the chart x = y^p.  Every rational f
decomposes uniquely as sum f_i^p y^i (0 <= i < p); the Cartier operator
extracts f_{p-1} dy, the twisted operator extracts the rational function
f_{p-1}.  Exact forms are the kernel; quasi-exact forms map to nonzero
constants.

The decomposition is computed without partial fractions: f = a/b is
rewritten as (a b^{p-1}) / b^p, the numerator is split by exponent
residue mod p, and coefficientwise p-th roots (unique in GF(p^k)) give
the parts.  This is total on rational functions over a finite field.

A product of powers of linear factors is g^p h with h = prod (y - r)^b a
polynomial (exponents m = p a + b, 0 <= b < p), and tc(g^p h) = g tc(h) as tc
is p^{-1}-semilinear: global_tc_matrix and loci run the tc kernel on h alone.
"""

from __future__ import annotations

from .ffield import FieldElement, FieldSpec
from .ratfunc import (
    INFINITY,
    Divisor,
    PartialFractions,
    Polynomial,
    RationalFunction,
    _addmul,
    _coefficient_index,
    _from_logs,
    partial_fractions,
)


class _Form:
    """f times a frame on the projective line; a subclass names the frame in _basis."""

    __slots__ = ("f",)

    def __init__(self, f: RationalFunction):
        self.f = f

    @property
    def spec(self):
        return self.f.spec

    def divisor(self) -> Divisor:
        """div(f) shifted by the frame's order at infinity: -2 for dy, 2p-2 for dy/dx."""
        return self.f.divisor() + Divisor({INFINITY: 2 * self.spec.p * self._dx_dual - 2})

    def __add__(self, other):
        return type(self)(self.f + other.f)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.f == other.f

    def __repr__(self):
        return f"({self.f}) {self._basis}"


class Differential(_Form):
    """omega = f dy on the projective line."""

    __slots__ = ()
    _basis, _dx_dual = "dy", 0


class BivariantForm(_Form):
    """psi = f (dx)^v (x) dy for the relative Frobenius x = y^p."""

    __slots__ = ()
    _basis, _dx_dual = "dy/dx", 1  # x = y^p has a pole of order p at infinity, so (dx)^v adds 2p


class PPowerDecomposition:
    """parts (f_0, ..., f_{p-1}) with f = sum f_i^p y^i."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def recombine(self) -> RationalFunction:
        spec = self.parts[0].spec
        y = RationalFunction.variable(spec)
        p = spec.p
        out = RationalFunction.constant(spec, 0)
        for i, fi in enumerate(self.parts):
            out = out + (fi**p) * y**i
        return out


def _root_indices(spec: FieldSpec, places):
    """Element index of each place, None at infinity; an element of spec itself is read directly."""
    return [None if v is None else v.idx if isinstance(v, FieldElement) and v.spec is spec
            else _coefficient_index(spec, v) for v in (q.value for q in places)]


def _reduced_roots(roots, m, p):
    """Root list of h = prod (y - r)^{m_i mod p} over the markings at element indices `roots` (None at infinity)."""
    return [r for r, mi in zip(roots, m) if r is not None for _ in range(mi % p)]


def _tc_kernel(P: Polynomial, shifts=(0,)):
    """tc(y^j P dy/dx) for the polynomial P, one per j in `shifts`.

    It is the coefficientwise p-th root of bucket p-1 of y^j P: the slice of
    P in degrees = p-1-j mod p, shifted by floor(j/p).  A rational N/D is
    N D^(p-1) / D^p, so it goes in as P = N D^(p-1) and comes out over D.
    On logs the p-th root is s -> s p^(k-1) mod q - 1.
    """
    spec = P.spec
    p, e, q1 = spec.p, spec.p ** (spec.k - 1), spec.q - 1
    return [
        _from_logs(spec, [-1] * (j // p) + [s * e % q1 if s >= 0 else -1 for s in P.logs[p - 1 - j % p :: p]])
        for j in shifts
    ]


def ppower_decompose(f: RationalFunction) -> PPowerDecomposition:
    """Unique decomposition f = sum_{i<p} f_i^p y^i over GF(p^k)(y).

    The part f_i is tc(y^(p-1-i) f).
    """
    p = f.spec.p
    numerators = _tc_kernel(f.num * f.den ** (p - 1), range(p - 1, -1, -1))
    return PPowerDecomposition(RationalFunction(T, f.den) for T in numerators)


def cartier(omega: Differential) -> Differential:
    return Differential(twisted_cartier(BivariantForm(omega.f)))


def twisted_cartier(psi: BivariantForm) -> RationalFunction:
    f = psi.f
    return RationalFunction(_tc_kernel(f.num * f.den ** (f.spec.p - 1))[0], f.den)


def is_exact(psi: BivariantForm) -> bool:
    return twisted_cartier(psi).is_zero()


def is_quasi_exact(psi: BivariantForm):
    """Return (flag, witness): flag iff tc(psi) is a nonzero constant."""
    tc = twisted_cartier(psi)
    if tc.is_constant() and not tc.is_zero():
        return True, tc.constant_value()
    return False, None


def differential_of(h: RationalFunction) -> Differential:
    """The exact differential d(h)."""
    return Differential(h.derivative())


def integrate(f: RationalFunction) -> RationalFunction:
    """A rational h with h' = f, if one exists.

    Works through partial fractions; a term c y^i with i = -1 mod p or
    a term a/(y-b)^j with j = 1 mod p has no rational antiderivative and
    raises ValueError.  Requires the denominator to split.
    """
    spec = f.spec
    p = spec.p
    pf = partial_fractions(f)
    coeffs = [spec.zero]
    for i, c in enumerate(pf.poly.coeffs):
        if c and (i + 1) % p == 0:
            raise ValueError(f"term of degree {i} has no rational antiderivative")
        coeffs.append(spec.element(c) / spec.from_int(i + 1) if c else spec.zero)
    for b, j, a in pf.terms:
        if j % p == 1:
            raise ValueError(f"term of pole order {j} at {b} has no rational antiderivative")
    terms = [(b, j - 1, a / spec.from_int(1 - j)) for b, j, a in pf.terms]
    return PartialFractions(Polynomial(spec, coeffs), terms).recombine()


def matrix_rank(spec: FieldSpec, rows) -> int:
    """Rank of a matrix given as a list of rows of element indices.

    The checks (entries in range(q), rows of one length) raise ValueError;
    then _prefix_ranks eliminates the rows as log lists.
    """
    q1, log = spec.q - 1, spec._log
    # spec.element raises the ValueError for an entry outside range(q), where log[c] would wrap or fail
    rows = [[log[c] if 0 <= c <= q1 else spec.element(c) for c in r] for r in rows]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    return _prefix_ranks(spec, rows)[-1]


def _prefix_ranks(spec: FieldSpec, rows):
    """[rank of rows[:i] for i in 0..len(rows)], by one elimination in place on log lists of one length.

    Each nonzero row in turn is a pivot, and one _addmul per later row clears
    its leading column there: a row is a pivot just when those above do not span it.
    """
    zech, q1 = spec._zech, spec.q - 1
    ranks = [0]
    for i, row in enumerate(rows):
        pivot = [(j, y) for j, y in enumerate(row) if y >= 0]
        if pivot:
            col, lead = pivot[0]
            shift = spec._log_neg_one - lead  # r -= (r[col] / lead) row
            for r in rows[i + 1 :]:
                if r[col] >= 0:
                    _addmul(r, 0, (r[col] + shift) % q1, pivot, zech, q1)
        ranks.append(ranks[-1] + bool(pivot))
    return ranks


class TcMatrix:
    """Matrix of the twisted Cartier operator on global sections.

    Source: H^0 of the relative dualizing sheaf twisted by sum m_i p_i;
    basis y^j * prod (y-q)^{-m_q} = y^j g^p h for 0 <= j <= deg(source divisor).
    Target: H^0 of O(sum ceil(m_i/p) p_i); basis y^i g (see global_tc_matrix).
    The map is p^{-1}-semilinear; entries are stored raw.  Frobenius is a
    field automorphism, so the rank of the raw entries is the rank of the
    linearised map.
    """

    __slots__ = ("spec", "entries", "source_dim", "target_dim", "rank", "semilinear_exponent")

    def __init__(self, spec, entries, source_dim, target_dim):
        self.spec = spec
        self.entries = entries  # target_dim rows x source_dim cols of indices
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.rank = matrix_rank(spec, entries)
        self.semilinear_exponent = -1  # tc(c psi) = c^(1/p) tc(psi)

    @property
    def surjective(self):
        return self.rank == self.target_dim


def global_tc_matrix(spec: FieldSpec, marked) -> TcMatrix:
    """Matrix of tc on global sections for marked points with multiplicities.

    `marked` is a sequence of (Place, integer) pairs with distinct places.
    Write -m_q = p a_q + b_q (0 <= b_q < p) at each finite q, g = prod
    (y-q)^{a_q} and h = prod (y-q)^{b_q}; the target basis is y^i g, as
    a_q = -ceil(m_q/p).  tc(y^j g^p h) = g tc(y^j h), so column j is the
    coefficient vector of tc(y^j h), padded to target_dim.  It fits:
    deg h = p sum_fin ceil(m_q/p) - sum_fin m_q and j <= deg_src
    = sum_fin m_q + m_inf + 2p - 2 give deg tc(y^j h) <= floor((j + deg h
    - p + 1)/p) <= sum_fin ceil(m_q/p) + ceil(m_inf/p) = deg_tgt.
    """
    p = spec.p
    places = [q for q, _ in marked]
    if len(set(places)) != len(places):
        raise ValueError("marked places must be distinct")

    deg_src = sum(m for _, m in marked) + 2 * p - 2
    deg_tgt = sum(-(-m // p) for _, m in marked)
    source_dim = deg_src + 1 if deg_src >= 0 else 0
    target_dim = deg_tgt + 1 if deg_tgt >= 0 else 0

    if source_dim == 0 or target_dim == 0:
        return TcMatrix(spec, [[0] * source_dim for _ in range(target_dim)], source_dim, target_dim)

    h = Polynomial._from_root_indices(spec, _reduced_roots(_root_indices(spec, places), [-m for _, m in marked], p))
    columns = [list(T.coeffs) + [0] * (target_dim - len(T.logs)) for T in _tc_kernel(h, range(source_dim))]
    return TcMatrix(spec, [list(row) for row in zip(*columns)], source_dim, target_dim)
