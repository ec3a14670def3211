"""Moebius transformations of the projective line over GF(p^k)."""

from __future__ import annotations

from .ffield import FieldSpec
from .ratfunc import INFINITY, Place, Polynomial, RationalFunction


def _homogeneous(spec, q: Place):
    """Coordinates (x : z) of a place: (a : 1) for a finite a, (1 : 0) for infinity."""
    one = spec.from_int(1)
    return (one, spec.from_int(0)) if q.is_infinity else (q.value, one)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


class Mobius:
    """x -> (a x + b) / (c x + d) with ad - bc != 0."""

    __slots__ = ("spec", "a", "b", "c", "d")

    def __init__(self, spec: FieldSpec, a, b, c, d):
        a, b, c, d = map(spec.from_int, (a, b, c, d))
        if (a * d - b * c).idx == 0:
            raise ValueError("singular Moebius matrix")
        self.spec = spec
        self.a, self.b, self.c, self.d = a, b, c, d

    def inverse(self) -> "Mobius":
        return Mobius(self.spec, self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "Mobius") -> "Mobius":
        """Composition self after other."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return Mobius(self.spec, a, b, c, d)

    def as_rational(self) -> RationalFunction:
        spec = self.spec
        return RationalFunction(
            Polynomial(spec, [self.b, self.a]), Polynomial(spec, [self.d, self.c])
        )

    def apply_place(self, q: Place) -> Place:
        x, z = _homogeneous(self.spec, q)
        den = self.c * x + self.d * z
        if den.idx == 0:
            return INFINITY
        return Place.finite((self.a * x + self.b * z) / den)

    @classmethod
    def to_standard(cls, spec, q0: Place, q1: Place, qinf: Place) -> "Mobius":
        """The unique map sending (q0, q1, qinf) to (0, 1, infinity).

        It is the cross ratio on homogeneous coordinates:
        v -> (det(v, v0) det(v1, vinf) : det(v, vinf) det(v1, v0)).
        """
        if len({q0, q1, qinf}) != 3:
            raise ValueError("points must be pairwise distinct")
        (x0, z0), v1, (xi, zi) = (_homogeneous(spec, q) for q in (q0, q1, qinf))
        kn, kd = _det(v1, (xi, zi)), _det(v1, (x0, z0))
        # det(v, u) = x u_z - z u_x, so each factor is linear in (x : z)
        return cls(spec, kn * z0, -kn * x0, kd * zi, -kd * xi)

    @classmethod
    def from_triples(cls, spec, src, dst) -> "Mobius":
        """The unique map sending the source triple to the target triple."""
        return cls.to_standard(spec, *dst).inverse() @ cls.to_standard(spec, *src)

    def __repr__(self):
        return f"Mobius(({self.a})x + ({self.b})) / (({self.c})x + ({self.d}))"
