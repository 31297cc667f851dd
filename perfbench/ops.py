"""Operations a benchmark worker runs against ``tailbounds``.

Each op takes the plain-data arguments that ``workloads.py`` drew from the
seed and returns plain data (lists and floats) for the independent checker
in ``check.py``.  Only this module and ``worker.py`` import ``tailbounds``;
the parent process and the checker never do.
"""

from __future__ import annotations

import math

import numpy as np

# call through the package namespace, never a name bound at import, so the
# tracer's wrappers see every call
import tailbounds as tb
from tailbounds import cli


def _phi(spec: dict) -> tb.PhiFunction:
    fam = spec["family"]
    lo = spec.get("lo", 0.0)
    if fam == "quadratic":
        return tb.PhiFunction.quadratic(coeff=spec["coeff"], lo=lo)
    if fam == "power_log":
        return tb.PhiFunction.power_log(spec["p"], spec["r"], lo=lo)
    if fam == "mixture":
        w, a, b = spec["w"], spec["s1"], spec["s2"]

        def exponent(l: float) -> float:
            t1, t2 = 0.5 * (a * l) ** 2, 0.5 * (b * l) ** 2
            m = max(t1, t2)
            return m + math.log(w * math.exp(t1 - m) + (1 - w) * math.exp(t2 - m))

        return tb.PhiFunction.from_callable(exponent, lo, math.inf, convex=True,
                                            label=f"mixture({w},{a},{b})",
                                            slope_lim=math.inf)
    raise ValueError(f"unknown family {fam!r}")


def _env(env) -> dict:
    return {"x": env.x.tolist(), "log_values": env.log_values.tolist()}


def op_pinch(a: dict) -> dict:
    env, cert = tb.pinched_lower_envelope(_phi(a["phi"]), a["delta"], np.asarray(a["z"]))
    return {"lower": _env(env), "c": cert.c, "certified_from": cert.certified_from}


def op_chain(a: dict) -> dict:
    """Closure, exact-MGF sandwich, unilateral chain and regularity on one phi."""
    phi = _phi(a["phi"])
    closure, _ = tb.closure_lower_envelope(phi, phi, np.asarray(a["z"]))
    low, up, c2 = tb.exact_mgf_sandwich(phi, np.asarray(a["x_sandwich"]))
    m_bound = tb.m_surrogate_from_upper(phi, a["eps"])
    uni, _ = tb.unilateral_lower_envelope(phi, a["eps"], m_bound, np.asarray(a["x_uni"]),
                                          nonnegative=False)
    reg = tb.verify_regularity(phi)
    return {"closure": _env(closure), "sandwich_lower": _env(low),
            "sandwich_upper": _env(up), "c2": c2, "unilateral": _env(uni),
            "m_bound": m_bound, "regularity_v": reg.v_value, "regularity_ok": reg.ok}


def op_grid_closure(a: dict) -> dict:
    """Closure with a closed-form floor and a grid-backed ceiling."""
    lam = np.asarray(a["knots"])
    phi2 = tb.PhiFunction.from_grid(lam, a["coeff"] * lam ** 2)
    phi1 = tb.PhiFunction.quadratic(coeff=a["coeff"], lo=float(lam[0]))
    env, _ = tb.closure_lower_envelope(phi1, phi2, np.asarray(a["z"]))
    return {"lower": _env(env)}


def op_tauber(a: dict) -> dict:
    rep = tb.tauberian_check(tb.PhiFunction.quadratic(coeff=a["coeff"], lo=0.0),
                             tb.gaussian(a["scale"]), monte_carlo=a["mc"],
                             n_samples=a["n_samples"], seed=a["seed"])
    return {"k_mgf": rep.k_mgf, "k_tail": rep.k_tail, "consistency": rep.consistency}


def op_growth(a: dict) -> dict:
    env = tb.moment_power_growth(a["m"], a["c"], a["c"])
    lower, upper, rep = tb.growth_tail_recovery(a["m"], env, np.asarray(a["x"]))
    return {"lower": None if lower is None else _env(lower), "upper": _env(upper),
            "recovered_m": rep.recovered_m, "c1": rep.c1_coeff, "c2": rep.c2_coeff}


def op_pole(a: dict) -> dict:
    env, rep = tb.power_tail_lower(tb.moment_power_pole(a["c"], a["b"], a["beta"]),
                                   np.asarray(a["x"]))
    return {"lower": _env(env), "gamma": rep.gamma}


def op_conjugate(a: dict) -> dict:
    if "csv" in a:
        phi = tb.PhiFunction.from_csv(a["csv"])
    else:
        phi = _phi(a["phi"])
    res = tb.conjugate(phi, np.linspace(a["x_lo"], a["x_hi"], a["n_x"]))
    return {"x": res.x_grid.tolist(), "values": res.values.tolist(),
            "argmax": res.argmax.tolist()}


def op_biconjugate(a: dict) -> dict:
    res = tb.biconjugate(_phi(a["phi"]), np.linspace(a["lam_lo"], a["lam_hi"], a["n"]))
    return {"lam": res.x_grid.tolist(), "values": res.values.tolist()}


def op_lower_table(a: dict) -> dict:
    """Unilateral lower envelope over a dense x grid (a batch of conjugates)."""
    phi = _phi(a["phi"])
    m_bound = tb.m_surrogate_from_upper(phi, a["eps"])
    env, _ = tb.unilateral_lower_envelope(phi, a["eps"], m_bound,
                                          np.linspace(a["x_lo"], a["x_hi"], a["n_x"]),
                                          nonnegative=False)
    return {"lower": _env(env)}


def op_validate(a: dict) -> dict:
    code = cli.main(["validate", "--dist", a["law"], "--seed", str(a["seed"]),
                     "--normalize", "--out", a["out"]])
    return {"exit_code": code, "report": a["out"]}


OPS = {
    "pinch": op_pinch,
    "chain": op_chain,
    "grid_closure": op_grid_closure,
    "tauber": op_tauber,
    "growth": op_growth,
    "pole": op_pole,
    "conjugate": op_conjugate,
    "biconjugate": op_biconjugate,
    "lower_table": op_lower_table,
    "validate": op_validate,
}

# a typed refusal is a correct outcome of an op that asks for an envelope
REFUSALS = (tb.NotCertifiedError,)
