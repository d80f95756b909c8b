"""Outside-in tracing: wrap public functions of each nctorus layer.

The wrappers are installed from the benchmark, not the program.  A class
method is replaced on its class; a module function is replaced in every
``nctorus`` module that holds it by name (``cli`` imports ``verify_axioms``
and friends directly), and everything is restored by ``remove``.  Each
wrapper counts calls and measures inclusive and self time (inclusive
minus the time of traced calls nested inside it); a few also record the
share of unit monomial operands, the terms produced, or how often an
instance is asked for a key it was asked for before.
"""

from __future__ import annotations

import sys
import time
import weakref

# (module, attribute, metric prefix, reported fields).  Fields: calls,
# self_ms, total_ms, hit_ratio (1 - distinct keys / calls per instance),
# unit_ratio (calls on two single-term unit phases), terms_out.
TARGETS = (
    ("phases", "QQi.__mul__", "phases.QQi.mul", ("calls", "self_ms")),
    ("phases", "Phase.mul", "phases.Phase.mul", ("calls", "self_ms", "unit_ratio")),
    ("phases", "Phase.add", "phases.Phase.add", ("calls", "self_ms")),
    ("phases", "Phase.__pow__", "phases.Phase.pow", ("calls", "self_ms")),
    ("algebra", "TwistedPoly.__mul__", "algebra.TwistedPoly.mul", ("calls", "self_ms", "terms_out")),
    ("algebra", "TwistedPoly.__add__", "algebra.TwistedPoly.add", ("calls", "self_ms")),
    ("algebra", "TwistedPoly.star", "algebra.TwistedPoly.star", ("calls", "self_ms")),
    ("algebra", "TwistedPoly.__eq__", "algebra.TwistedPoly.eq", ("calls", "self_ms")),
    ("algebra", "PolyMatrix.__mul__", "algebra.PolyMatrix.mul", ("calls", "self_ms")),
    ("algebra", "PolyMatrix.kron", "algebra.PolyMatrix.kron", ("calls", "self_ms")),
    ("algebra", "PolyMatrix.adjoint", "algebra.PolyMatrix.adjoint", ("calls", "self_ms")),
    ("dynamics", "is_equivariant", "dynamics.is_equivariant", ("calls", "self_ms")),
    ("factor_system", "MatrixMorphism.apply", "factor_system.MatrixMorphism.apply", ("calls", "self_ms")),
    ("factor_system", "MatrixMorphism.apply_to_matrix", "factor_system.MatrixMorphism.apply_to_matrix",
     ("calls", "self_ms")),
    ("factor_system", "FactorSystem.gamma", "factor_system.FactorSystem.gamma", ("calls", "hit_ratio")),
    ("factor_system", "FactorSystem.omega", "factor_system.FactorSystem.omega", ("calls", "hit_ratio")),
    ("factor_system", "AlgebraMorphism.apply", "factor_system.AlgebraMorphism.apply", ("calls", "self_ms")),
    ("cohomology", "TwoCocycle.value", "cohomology.TwoCocycle.value", ("calls", "self_ms", "hit_ratio")),
    ("cohomology", "extract_cocycle", "cohomology.extract_cocycle", ("total_ms",)),
    ("cohomology", "verify_cocycle", "cohomology.verify_cocycle", ("total_ms",)),
    ("cohomology", "solve_coboundary", "cohomology.solve_coboundary", ("total_ms",)),
    ("derivations", "Derivation.apply", "derivations.Derivation.apply", ("calls", "self_ms")),
    ("derivations", "verify_lift_conditions", "derivations.verify_lift_conditions", ("total_ms",)),
    ("geometry", "curvature", "geometry.curvature", ("calls", "total_ms")),
    ("report", "ReportBuilder.expect", "report.ReportBuilder.expect", ("calls", "self_ms")),
    ("cli", "main", "cli.main", ("calls", "self_ms")),
)

FIELD_UNITS = {
    "calls": ("count", "lower"),
    "self_ms": ("ms", "lower"),
    "total_ms": ("ms", "lower"),
    "hit_ratio": ("fraction", "higher"),
    "unit_ratio": ("fraction", "higher"),
    "terms_out": ("count", "lower"),
}
TIME_FIELDS = ("self_ms", "total_ms")


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(f"{prefix}.{f}", *FIELD_UNITS[f]) for _, _, prefix, fields in TARGETS for f in fields]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "units", "terms", "distinct", "live")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.units = 0
        self.terms = 0
        self.distinct = 0
        self.live = {}  # id(instance) -> (keys seen, finalizer)

    def see(self, instance, key):
        entry = self.live.get(id(instance))
        if entry is None:
            fin = weakref.finalize(instance, self._retire, id(instance))
            entry = self.live[id(instance)] = (set(), fin)
        entry[0].add(key)

    def _retire(self, ident):
        self.distinct += len(self.live.pop(ident)[0])

    def settle(self):
        for keys, fin in self.live.values():
            fin.detach()
            self.distinct += len(keys)
        self.live.clear()


def _is_unit_monomial(phase) -> bool:
    if len(phase.terms) != 1:
        return False
    (c,) = phase.terms.values()
    return (c.im == 0 and c.re in (1, -1)) or (c.re == 0 and c.im in (1, -1))


class Tracer:
    def __init__(self):
        self.stats = {prefix: _Stat() for _, _, prefix, _ in TARGETS}
        self._undo = []
        self._stack = [0.0]  # time of traced children, one slot per open call

    def _wrap(self, fn, prefix, fields):
        st = self.stats[prefix]
        stack = self._stack
        clock = time.perf_counter
        keyed = "hit_ratio" in fields
        units = "unit_ratio" in fields
        terms = "terms_out" in fields

        def traced(*args, **kwargs):
            st.calls += 1
            if keyed:
                st.see(args[0], tuple(tuple(a) for a in args[1:]))
            if units and _is_unit_monomial(args[0]) and _is_unit_monomial(args[1]):
                st.units += 1
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                if not st.depth:
                    st.total_s += dt
            if terms and hasattr(result, "terms"):
                st.terms += len(result.terms)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, prefix, fields in TARGETS:
            mod = sys.modules[f"nctorus.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, prefix, fields))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(original, prefix, fields)
            for name, other in list(sys.modules.items()):
                if (name == "nctorus" or name.startswith("nctorus.")) and \
                        getattr(other, attr, None) is original:
                    setattr(other, attr, traced)
                    self._undo.append((other, attr, original))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for st in self.stats.values():
            st.settle()

    def snapshot(self) -> dict:
        """Per-layer values of one traced pass, keyed by metric name."""
        out = {}
        for _, _, prefix, fields in TARGETS:
            st = self.stats[prefix]
            values = {
                "calls": st.calls,
                "self_ms": st.self_s * 1e3,
                "total_ms": st.total_s * 1e3,
                "hit_ratio": 1 - st.distinct / st.calls if st.calls else 0.0,
                "unit_ratio": st.units / st.calls if st.calls else 0.0,
                "terms_out": st.terms,
            }
            for f in fields:
                out[f"{prefix}.{f}"] = values[f]
        return out
