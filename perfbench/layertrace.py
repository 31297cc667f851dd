"""Per-layer call tracing of ``tailbounds`` from outside the package.

``install()`` wraps every public function of every ``tailbounds`` module,
plus ``PhiFunction.value`` and ``PhiFunction.from_csv`` on the class and the
Weibull log-MGF helpers of ``oracles``.  Modules bind their callees by name
(``from .functions import conjugate_value``), so a wrapper replaces the
original in *every* module namespace that holds it; otherwise most calls
would slip past the trace.

The hot scalar layers run millions of times per op, so no span objects are
kept: each wrapper adds to aggregate counters (calls, total, self, raised),
and a stack of child-time accumulators makes ``self`` exclude the time of
wrapped callees.  ``coverage()`` checks, with cProfile, that no call to a
wrapped function went around its wrapper.
"""

from __future__ import annotations

import cProfile
import inspect
import pstats
import sys
import time
import types

PACKAGE = "tailbounds"

# (scope, counted): calls of ``counted`` made while ``scope`` is running
SCOPED = {("lower_bilateral.pinched_lower_envelope", "functions.conjugate_value")}
# Weibull log-MGF and its derivative: the per-lambda quadrature behind phi
WEIBULL = ("_weibull_log_mgf", "_weibull_log_mgf_deriv")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s, raised]
        self.extra: dict[str, float] = {}  # derived counters
        self.originals: dict[str, object] = {}
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock, extra, stats = self._stack, time.perf_counter, self.extra, self.stats
        scoped = [c for s, c in SCOPED if s == name]
        short = name.split(".")[-1]
        cache_info = getattr(fn, "cache_info", None)

        def hot(*args, **kwargs):
            rec[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[3] += 1
                raise
            finally:
                dt = clock() - t0
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        def observed(*args, **kwargs):
            before = [stats[c][0] for c in scoped]
            misses = cache_info().misses if cache_info else 0
            try:
                out = hot(*args, **kwargs)
            finally:
                for c, b in zip(scoped, before):
                    key = f"{name}.{c.split('.')[-1]}_calls"
                    extra[key] = extra.get(key, 0) + stats[c][0] - b
                if short in WEIBULL:
                    # without a cache every call recomputes
                    gained = cache_info().misses - misses if cache_info else 1
                    extra[name + ".recomputed"] = extra.get(name + ".recomputed", 0) + gained
            if short == "tangent_bracket_log" and out == float("-inf"):
                extra[name + ".clamped"] = extra.get(name + ".clamped", 0) + 1
            return out

        wrapper = observed if scoped or short in WEIBULL or short == "tangent_bracket_log" else hot
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = {n: m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        targets = {}  # id(original) -> (name, original)
        for modname, mod in mods.items():
            if modname == PACKAGE:
                continue
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) and attr not in WEIBULL:
                    continue
                if attr.startswith("_") and attr not in WEIBULL:
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {}
        for key, (name, obj) in targets.items():
            wrappers[key] = self._wrap(name, obj)
            self.originals[name] = obj
        # rebind in every namespace that holds an original, package included
        for mod in mods.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers and callable(obj):
                    ns[attr] = wrappers[id(obj)]
        phi_cls = sys.modules[PACKAGE + ".functions"].PhiFunction
        value = phi_cls.value
        self.originals["functions.PhiFunction.value"] = value
        phi_cls.value = self._wrap("functions.PhiFunction.value", value)
        from_csv = inspect.getattr_static(phi_cls, "from_csv").__func__
        self.originals["functions.PhiFunction.from_csv"] = from_csv
        phi_cls.from_csv = staticmethod(self._wrap("functions.PhiFunction.from_csv", from_csv))

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "extra": dict(self.extra)}

    def coverage(self, fn) -> list[str]:
        """Run ``fn`` under cProfile; list wrapped functions whose wrapper saw
        a different number of calls than the profiler saw of the original."""
        before = {k: v[0] for k, v in self.stats.items()}
        before_extra = dict(self.extra)
        prof = cProfile.Profile()
        prof.runcall(fn)
        seen = {}
        for (path, line, func), row in pstats.Stats(prof).stats.items():
            seen[(path, line, func)] = row[1]
        problems = []
        for name, orig in self.originals.items():
            code = getattr(getattr(orig, "__wrapped__", orig), "__code__", None)
            if code is None:
                continue
            profiled = seen.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
            traced = self.stats[name][0] - before.get(name, 0)
            if name.split(".")[-1] in WEIBULL:
                # behind a cache the profiler sees only the recomputations
                key = name + ".recomputed"
                traced = self.extra.get(key, 0) - before_extra.get(key, 0)
            if profiled != traced:
                problems.append(f"{name}: cProfile {profiled} calls, trace {traced}")
        return problems


def layer_metrics(stats: dict, extra: dict) -> dict:
    """Per-layer metric values from merged wrapper counters."""

    def s(name, i):
        return float(stats.get(name, [0, 0.0, 0.0, 0])[i])

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for name in ("cli.main", "cli.write_report", "functions.conjugate",
                 "functions.biconjugate", "functions.PhiFunction.from_csv",
                 "integrals.cramer_check", "lower_unilateral.certify_dilation_dominance",
                 "lower_unilateral.absorb_normalization",
                 "lower_unilateral.m_surrogate_from_upper",
                 "lower_unilateral.unilateral_lower_envelope",
                 "lower_bilateral.pinched_lower_envelope",
                 "lower_bilateral.verify_regularity",
                 "lower_bilateral.closure_lower_envelope",
                 "lower_bilateral.exact_mgf_sandwich", "moments.growth_tail_recovery",
                 "moments.power_tail_lower", "moments.moment_envelope_from_csv",
                 "tauberian.tauberian_check", "oracles.quadrature",
                 "functions.saddle_point", "integrals.k_integral"):
        put(f"{name}.total_s", s(name, 1), "s")
    for name in ("functions.PhiFunction.value", "functions.conjugate_value",
                 "functions.saddle_point", "oracles.log_integral_exp", "oracles.quadrature",
                 "integrals.k_integral", "lower_bilateral.make_geometry",
                 "lower_bilateral.tangent_bracket_log"):
        put(f"{name}.calls", s(name, 0), "count")
    for name in ("functions.PhiFunction.value", "functions.conjugate_value",
                 "oracles.log_integral_exp"):
        put(f"{name}.self_s", s(name, 2), "s")
    for name in ("functions.conjugate_value", "lower_bilateral.make_geometry"):
        put(f"{name}.raised", s(name, 3), "count")
    put("lower_bilateral.pinched_lower_envelope.conjugate_value_calls",
        float(extra.get("lower_bilateral.pinched_lower_envelope.conjugate_value_calls", 0)),
        "count")
    brackets = s("lower_bilateral.tangent_bracket_log", 0)
    clamped = float(extra.get("lower_bilateral.tangent_bracket_log.clamped", 0))
    put("lower_bilateral.tangent_bracket_log.clamped_ratio",
        clamped / brackets if brackets else 0.0, "ratio")
    weibull_calls = sum(s(f"oracles.{n}", 0) for n in WEIBULL)
    recomputed = float(sum(extra.get(f"oracles.{n}.recomputed", 0) for n in WEIBULL))
    put("oracles.weibull_phi.calls", weibull_calls, "count")
    put("oracles.weibull_phi.recomputed_ratio",
        recomputed / weibull_calls if weibull_calls else 0.0, "ratio")
    return out


def merge(into: dict, part: dict) -> None:
    """Add one worker's ``snapshot()`` into an accumulated one."""
    for name, rec in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(rec):
            acc[i] += v
    for k, v in part["extra"].items():
        into["extra"][k] = into["extra"].get(k, 0) + v
