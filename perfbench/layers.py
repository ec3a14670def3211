"""Per-layer tracing of loghurwitz from outside the package.

`Tracer.install()` replaces public functions and methods of the package's
modules with wrappers that count calls and measure self time (time inside
the call minus time inside nested wrapped calls).  Nothing inside the
package is edited: every module namespace that holds a reference to a
wrapped function gets the wrapper instead, so `from .cartier import
twisted_cartier` in another module is traced too.

The hot arithmetic boundaries are aggregated per name, never kept as one
span per call, so a trace of millions of polynomial products fits in a
few kilobytes.
"""

from __future__ import annotations

import importlib
import sys
import time

# Prefix of the line a traced CLI child writes to standard error (cli_child.py).
TRACE_MARKER = "perfbench-trace "

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {}
for _name in (
    "ffield.build", "ratfunc.poly_mul", "ratfunc.poly_divmod", "ratfunc.poly_gcd",
    "ratfunc.ratfunc_init", "ratfunc.roots", "ratfunc.partial_fractions",
    "cartier.ppower_decompose", "cartier.twisted_cartier", "cartier.global_tc_matrix",
    "cartier.matrix_rank", "ascover.from_equation", "ascover.trace_form",
    "loci.locus_search", "loci.locus_membership", "loci.tangent_report",
    "strata.enumerate_components", "strata.canonical_form", "strata.validate",
    "strata.stratum_dimension", "expr.parse_expression",
):
    LAYER_METRICS[_name + ".calls"] = "count"
    LAYER_METRICS[_name + ".self_s"] = "s"
for _name in ("ffield.element.calls", "ratfunc.poly_init.calls", "strata.level_graph_init.calls",
              "ffield.table_entries", "ratfunc.poly_mul.coeff_products", "cartier.matrix_rank.entries",
              "loci.configs_found", "strata.classes"):
    LAYER_METRICS[_name] = "count"
LAYER_METRICS["loci.membership_yield"] = "ratio"
LAYER_METRICS["strata.candidate_yield"] = "ratio"
for _name in ("cli.import_s", "cli.field_s", "cli.command_s", "cli.process_s"):
    LAYER_METRICS[_name] = "s"


def table_entries(spec) -> int:
    """Total length of the arithmetic tables a FieldSpec holds."""
    names = getattr(spec, "__dict__", None) or {n: None for n in getattr(type(spec), "__slots__", ())}
    total = 0
    for name in names:
        value = getattr(spec, name, None)
        if isinstance(value, (list, bytes, bytearray, dict)) or type(value).__name__ == "array":
            total += len(value)
    return total


class Tracer:
    """Counters and self times for the wrapped boundaries of one process."""

    def __init__(self):
        self.values = {}
        self._stack = []
        self._undo = []

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount

    def snapshot(self):
        return dict(self.values)

    def restore(self, saved):
        self.values = dict(saved)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, after=None):
        stack = self._stack
        calls_key, self_key = name + ".calls", name + ".self_s"
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                values = tracer.values
                values[calls_key] = values.get(calls_key, 0) + 1
                values[self_key] = values.get(self_key, 0.0) + dt - child
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            values = tracer.values
            values[key] = values.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace_function(self, fn, wrapper):
        """Point every name bound to fn in a loghurwitz module at wrapper."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("loghurwitz"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapper
                    self._undo.append((namespace, attr, fn))

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        # aliases such as __rmul__ = __mul__ share the function object
        for name, value in list(cls.__dict__.items()):
            if value is original:
                setattr(cls, name, wrapped)
                self._undo.append((cls, name, original))

    def install(self):
        ascover, cartier, expr, ffield, loci, ratfunc, strata = (
            importlib.import_module(f"loghurwitz.{name}")
            for name in ("ascover", "cartier", "expr", "ffield", "loci", "ratfunc", "strata")
        )

        def after_build(tr, args, _result):
            tr.add("ffield.table_entries", table_entries(args[0]))

        def after_mul(tr, args, _result):
            # the right operand may be a scalar, which the product coerces to a constant
            a, b = args
            nb = len(b.coeffs) if isinstance(b, ratfunc.Polynomial) else 1
            tr.add("ratfunc.poly_mul.coeff_products", len(a.coeffs) * nb)

        def after_rank(tr, args, _result):
            rows = list(args[1])
            tr.add("cartier.matrix_rank.entries", len(rows) * (len(rows[0]) if rows else 0))

        def after_search(tr, _args, result):
            tr.add("loci.configs_found", len(result))

        def after_enumerate(tr, _args, result):
            tr.add("strata.classes", len(result))

        methods = [
            (ffield.FieldSpec, "__init__", lambda f: self._timed("ffield.build", f, after_build)),
            (ffield.FieldSpec, "element", lambda f: self._counted("ffield.element.calls", f)),
            (ratfunc.Polynomial, "__init__", lambda f: self._counted("ratfunc.poly_init.calls", f)),
            (ratfunc.Polynomial, "__mul__", lambda f: self._timed("ratfunc.poly_mul", f, after_mul)),
            (ratfunc.Polynomial, "divmod", lambda f: self._timed("ratfunc.poly_divmod", f)),
            (ratfunc.Polynomial, "gcd", lambda f: self._timed("ratfunc.poly_gcd", f)),
            (ratfunc.Polynomial, "roots", lambda f: self._timed("ratfunc.roots", f)),
            (ratfunc.RationalFunction, "__init__", lambda f: self._timed("ratfunc.ratfunc_init", f)),
            (ascover.ArtinSchreierCover, "from_equation", lambda f: self._timed("ascover.from_equation", f)),
            (ascover.ArtinSchreierCover, "trace_form", lambda f: self._timed("ascover.trace_form", f)),
            (strata.LevelGraph, "__init__", lambda f: self._counted("strata.level_graph_init.calls", f)),
        ]
        for cls, attr, make in methods:
            self._replace_method(cls, attr, make)

        functions = [
            (ratfunc.partial_fractions, "ratfunc.partial_fractions", None),
            (cartier.ppower_decompose, "cartier.ppower_decompose", None),
            (cartier.twisted_cartier, "cartier.twisted_cartier", None),
            (cartier.global_tc_matrix, "cartier.global_tc_matrix", None),
            (cartier.matrix_rank, "cartier.matrix_rank", after_rank),
            (loci.locus_search, "loci.locus_search", after_search),
            (loci.locus_membership, "loci.locus_membership", None),
            (loci.tangent_report, "loci.tangent_report", None),
            (strata.enumerate_components, "strata.enumerate_components", after_enumerate),
            (strata.canonical_form, "strata.canonical_form", None),
            (strata.validate, "strata.validate", None),
            (strata.stratum_dimension, "strata.stratum_dimension", None),
            (expr.parse_expression, "expr.parse_expression", None),
        ]
        for fn, name, after in functions:
            self._replace_function(fn, self._timed(name, fn, after))
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self, scale=1.0, extra=None):
        """Every per-layer metric: the traced values times `scale`, plus `extra`."""
        out = {}
        for name, unit in LAYER_METRICS.items():
            out[name] = self.values.get(name, 0) * scale
        if extra:
            out.update(extra)
        membership = out["loci.locus_membership.calls"]
        out["loci.membership_yield"] = out["loci.configs_found"] / membership if membership else 0.0
        canon = out["strata.canonical_form.calls"]
        out["strata.candidate_yield"] = out["strata.classes"] / canon if canon else 0.0
        return {name: {"value": out[name], "unit": LAYER_METRICS[name]} for name in LAYER_METRICS}
