"""The operand rule of the value types, against the hand-written operators it replaced.

FieldElement, Polynomial and RationalFunction build every binary operator
from one helper, ffield._operator.  The classes named Parent* below keep
the operators as they were written out before, one coerce-or-NotImplemented
prologue each.  Every operator runs against every kind of operand, on both
sides, once with those operators patched in and once as the package has it;
the values and the exception types must agree.
"""

import operator

import pytest

from loghurwitz.ffield import FieldElement, field
from loghurwitz.ratfunc import Polynomial, RationalFunction, _from_logs, _log_mul

F = field(3, 2)
G = field(5)
W = F.element(3)


def _fe_coerce(self, other):
    if isinstance(other, FieldElement):
        if other.spec != self.spec:
            raise ValueError("mismatched FieldSpec")
        return other
    if isinstance(other, int):
        return self.spec.from_int(other)
    return NotImplemented


def _poly_coerce(self, other):
    if isinstance(other, Polynomial):
        if other.spec != self.spec:
            raise ValueError("mismatched FieldSpec")
        return other
    if isinstance(other, (int, FieldElement)):
        return Polynomial.constant(self.spec, other)
    return NotImplemented


def _rf_coerce(self, other):
    if isinstance(other, RationalFunction):
        if other.spec != self.spec:
            raise ValueError("mismatched FieldSpec")
        return other
    if isinstance(other, Polynomial):
        return RationalFunction(other)
    if isinstance(other, (int, FieldElement)):
        return RationalFunction.constant(self.spec, other)
    return NotImplemented


class ParentFieldElement:
    def __add__(self, other):
        other = _fe_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_idx(self.idx, other.idx))

    __radd__ = __add__

    def __sub__(self, other):
        other = _fe_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_idx(self.idx, self.spec.neg_idx(other.idx)))

    def __rsub__(self, other):
        other = _fe_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _fe_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_idx(self.idx, other.idx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _fe_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_idx(self.idx, self.spec.inv_idx(other.idx)))

    def __rtruediv__(self, other):
        other = _fe_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return other / self


class ParentPolynomial:
    def __add__(self, other):
        other = _poly_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        zech, q1 = spec._zech, spec.q - 1
        a, b = self.logs, other.logs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, t in enumerate(b):
            s = out[i]
            if s < 0 or t < 0:
                out[i] = max(s, t)
            else:
                z = zech[t - s]
                out[i] = -1 if z < 0 else (s + z) % q1
        return _from_logs(spec, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _poly_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _poly_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        return _from_logs(spec, _log_mul(self.logs, other.logs, spec._zech, spec.q - 1))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _poly_coerce(self, other)
        return NotImplemented if other is NotImplemented else self.divmod(other)

    def __mod__(self, other):
        other = _poly_coerce(self, other)
        return NotImplemented if other is NotImplemented else self.divmod(other)[1]

    def __floordiv__(self, other):
        other = _poly_coerce(self, other)
        return NotImplemented if other is NotImplemented else self.divmod(other)[0]


class ParentRationalFunction:
    def __add__(self, other):
        other = _rf_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _rf_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _rf_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _rf_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _rf_coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return other / self


PARENTS = {FieldElement: ParentFieldElement, Polynomial: ParentPolynomial, RationalFunction: ParentRationalFunction}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
             "//": operator.floordiv, "%": operator.mod, "divmod": divmod}
BINARY = {f"__{r}{name}__" for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod") for r in ("", "r")}

SELVES = {
    "element": F.element(5),
    "polynomial": Polynomial(F, [W, 1, 2]),
    "fraction": RationalFunction(Polynomial(F, [1, 1]), Polynomial(F, [W, 0, 2])),
}
OPERANDS = {
    "int": 2,
    "int zero": 0,
    "bool": True,
    "element": W,
    "zero": F.zero,
    "another field's element": G.element(2),
    "polynomial": Polynomial(F, [1, W]),
    "zero polynomial": Polynomial(F, []),
    "another field's polynomial": Polynomial(G, [1, 1]),
    "fraction": RationalFunction(Polynomial(F, [0, 1]), Polynomial(F, [1, 0, 1])),
    "zero fraction": RationalFunction(Polynomial(F, [])),
    "str": "1",
    "float": 1.5,
    "None": None,
}
CASES = [(s, o, op, left) for s in SELVES for o in OPERANDS for op in OPERATORS for left in (False, True)]


def _outcome(s, o, op, left):
    a, b = (OPERANDS[o], SELVES[s]) if left else (SELVES[s], OPERANDS[o])
    try:
        result = OPERATORS[op](a, b)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return "value", [type(v) for v in parts], list(parts)


@pytest.fixture(scope="module")
def parent_outcomes():
    with pytest.MonkeyPatch.context() as mp:
        for cls, parent in PARENTS.items():
            for name in BINARY & set(vars(parent)):
                mp.setattr(cls, name, vars(parent)[name])
        return {case: _outcome(*case) for case in CASES}


def test_the_operator_set_is_the_hand_written_one():
    for cls, parent in PARENTS.items():
        assert BINARY & set(vars(cls)) == BINARY & set(vars(parent)), cls
        assert cls.__radd__ is cls.__add__ and cls.__rmul__ is cls.__mul__


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[1]} {c[2]} {c[0]}" if c[3] else f"{c[0]} {c[2]} {c[1]}")
def test_operators_match_the_hand_written_ones(case, parent_outcomes):
    s, o, op, left = case
    got, want = _outcome(*case), parent_outcomes[case]
    assert got[:2] == want[:2]
    if want[0] == "value":
        assert got[2] == want[2]
    elif not (op == "-" and left and want[2].startswith("unsupported operand type(s) for +")):
        # the hand-written __rsub__ evaluated (-self) + other, so its TypeError named +
        assert got[2] == want[2]


def test_a_fraction_operation_reduces_once(monkeypatch):
    """Each + - * / of a RationalFunction, either way round, builds exactly one reduced fraction."""
    init, built = RationalFunction.__init__, []

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RationalFunction, "__init__", counted)
    f = SELVES["fraction"]
    for o in ("int", "bool", "element", "zero", "polynomial", "zero polynomial", "fraction"):
        for op in ("+", "-", "*", "/"):
            for a, b in ((f, OPERANDS[o]), (OPERANDS[o], f)):
                if op == "/" and not b:
                    continue
                built.clear()
                result = OPERATORS[op](a, b)
                assert len(built) == 1 and built[0] is result, (a, op, b)


def test_scalars_must_be_ints_or_elements_of_the_field():
    with pytest.raises(TypeError, match="'float'"):
        F.from_int(2.5)
    with pytest.raises(TypeError, match="'str'"):
        Polynomial(F, ["1"])
    with pytest.raises(TypeError, match="'float'"):
        Polynomial.from_roots(F, [0.5])
    with pytest.raises(ValueError):
        F.from_int(G.one)
    assert F.from_int(W) == W and F.from_int(True) == F.one and F.from_int(-1) == F.from_int(2)
