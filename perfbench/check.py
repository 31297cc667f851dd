"""Independent soundness checks of op outputs.

Nothing here imports ``tailbounds``.  Exact tails come from closed forms
evaluated with ``scipy.special``; conjugates are checked against closed forms
(x^2/(4c), (p-1)/p * x^(p/(p-1))) or against a brute-force argmax; and each
lower envelope is checked against the lightest law that meets the op's
hypothesis (for the pinch, N(0, 2c(1 - delta^2)), from the threshold its
certificate states; see ``pinch_sound``).

``classify`` returns ``(outcome, slack_points, reason)`` where outcome is
``certified`` (an envelope was asked for and emitted soundly), ``ok`` (no
envelope asked for, output correct), ``refused`` (a typed refusal) or
``failed``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import erf, log_ndtr

LOG_TOL = 1e-9  # relative slack of log-space comparisons
NEG_INF = float("-inf")


class Rejected(Exception):
    """The output is wrong; the message says where."""


# --------------------------------------------------------------------------
# exact references
# --------------------------------------------------------------------------


def gauss_log_tail(x, sigma2: float) -> np.ndarray:
    """ln P(X >= x) for X ~ N(0, sigma2)."""
    return log_ndtr(-np.asarray(x, dtype=float) / math.sqrt(sigma2))


LAW_LOG_TAIL = {
    "gaussian": lambda x: float(log_ndtr(-x)),
    "exponential": lambda x: -x,
    "weibull2": lambda x: -x ** 2,
    "weibull4": lambda x: -x ** 4,
    "pareto3": lambda x: -3.0 * math.log(x) if x >= 1 else 0.0,
}


def _weibull2_log_mgf(lam: float) -> float:
    if lam == 0.0:
        return 0.0
    t = lam * lam / 4.0 + math.log(lam * math.sqrt(math.pi) / 2.0 * (1.0 + erf(lam / 2.0)))
    return t + math.log1p(math.exp(-t))


def _weibull_log_mgf(m: float, lam: float) -> float:
    """ln int_0^inf m x^(m-1) exp(lam x - x^m) dx, shifted by its peak."""
    g = lambda x: math.log(m) + (m - 1) * math.log(x) + lam * x - x ** m  # noqa: E731
    dg = lambda x: (m - 1) / x + lam - m * x ** (m - 1)  # noqa: E731
    peak = optimize.brentq(dg, 1e-12, max(2.0, 2.0 * (lam + m) ** (1 / (m - 1))))
    gp = g(peak)
    width = 1.0 / math.sqrt(m * (m - 1) * peak ** (m - 2) + (m - 1) / peak ** 2)
    f = lambda x: math.exp(g(x) - gp) if x > 0 else 0.0  # noqa: E731
    lo, hi = max(0.0, peak - 40 * width), peak + 40 * width
    total = sum(integrate.quad(f, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                for a, b in ((0.0, lo), (lo, peak), (peak, hi), (hi, hi + 50 * width)) if b > a)
    return gp + math.log(total)


LAW_LOG_MGF = {
    "gaussian": lambda l: 0.5 * l * l,
    "exponential": lambda l: -math.log1p(-l),
    "weibull2": _weibull2_log_mgf,
    "weibull4": lambda l: _weibull_log_mgf(4.0, l),
}


def law_conjugate(law: str, x: float) -> float:
    """sup over lam of lam*x - ln MGF(lam), by bounded Brent search."""
    if law == "gaussian":
        return 0.5 * x * x
    if law == "exponential":
        return x - 1.0 - math.log(x)
    top = 4.0 * x ** 3 + 10.0 if law == "weibull4" else 2.0 * x + 10.0
    f = LAW_LOG_MGF[law]
    res = optimize.minimize_scalar(lambda l: f(l) - l * x, bounds=(0.0, top), method="bounded",
                                   options={"xatol": 1e-10 * top})
    return -float(res.fun)


def power_log(p: float, r: float, lam):
    lam = np.asarray(lam, dtype=float)
    return lam ** p * np.log(math.e + lam) ** r / p


def mixture(w: float, a: float, b: float, lam):
    lam = np.asarray(lam, dtype=float)
    t1, t2 = 0.5 * (a * lam) ** 2, 0.5 * (b * lam) ** 2
    m = np.maximum(t1, t2)
    return m + np.log(w * np.exp(t1 - m) + (1 - w) * np.exp(t2 - m))


def phi_values(spec: dict, lam):
    fam = spec["family"]
    if fam == "quadratic":
        return spec["coeff"] * np.asarray(lam, dtype=float) ** 2
    if fam == "power_log":
        return power_log(spec["p"], spec["r"], lam)
    return mixture(spec["w"], spec["s1"], spec["s2"], lam)


def conjugate_closed(spec: dict, x):
    """phi*(x) where a closed form exists (domain [0, inf)), else None."""
    x = np.asarray(x, dtype=float)
    if spec["family"] == "quadratic":
        return x * x / (4.0 * spec["coeff"])
    if spec["family"] == "power_log" and spec["r"] == 0.0:
        p = spec["p"]
        return (p - 1.0) / p * x ** (p / (p - 1.0))
    return None


def conjugate_brute(spec: dict, x: float) -> float:
    """sup_{lam >= 0} lam*x - phi(lam): dense scan, then Brent in the bracket."""
    lam = np.linspace(0.0, 4.0 * x + 4.0, 4001)
    vals = lam * x - phi_values(spec, lam)
    i = int(np.argmax(vals))
    a, b = lam[max(i - 1, 0)], lam[min(i + 1, lam.size - 1)]
    if b <= a:
        return float(vals[i])
    res = optimize.minimize_scalar(lambda t: float(phi_values(spec, t)) - t * x,
                                   bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-12 * max(1.0, b)})
    return max(float(vals[i]), -float(res.fun))


def read_grid(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------


def _arr(v) -> np.ndarray:
    return np.asarray([NEG_INF if t in ("-inf", None) else t for t in v], dtype=float)


def below(log_lower, log_ref, what: str) -> None:
    """ln L <= ln T (clamped -inf always passes)."""
    lo, ref = _arr(log_lower), _arr(log_ref)
    bad = lo > ref + LOG_TOL * np.maximum(1.0, np.abs(ref))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise Rejected(f"{what}: ln lower {lo[i]:.6g} > ln reference {ref[i]:.6g} (point {i})")


def close(got, want, rel: float, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not np.all(err <= rel):
        i = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        raise Rejected(f"{what}: {got.flat[i]:.12g} vs reference {want.flat[i]:.12g}")


def slack(log_lower, log_ref) -> list[float]:
    """(ln T - ln L)/(-ln T) per point; a clamped point counts as +inf."""
    lo, ref = _arr(log_lower), _arr(log_ref)
    return [math.inf if l == NEG_INF else float((t - l) / -t) for l, t in zip(lo, ref)]


def chernoff(spec: dict, x) -> np.ndarray:
    star = conjugate_closed(spec, x)
    if star is None:
        star = np.array([conjugate_brute(spec, float(t)) for t in np.asarray(x)])
    return -np.asarray(star)


def lower_sound(env: dict, sigma2: float | None, spec: dict | None, what: str) -> list[float]:
    """Check a lower envelope; return slack points when an exact law exists."""
    if any(v > 1e-12 for v in _arr(env["log_values"])):
        raise Rejected(f"{what}: log value above 0")
    if sigma2 is not None:
        ref = gauss_log_tail(env["x"], sigma2)
        below(env["log_values"], ref, what)
        return slack(env["log_values"], ref)
    # no law attains this exponent: the Chernoff bound is still an upper
    # bound on the tail of every law meeting the hypothesis
    below(env["log_values"], chernoff(spec, env["x"]), what + " vs Chernoff")
    return []


def _pinch_points(out: dict, sigma2: float):
    lo = out["lower"]
    x = np.asarray(lo["x"], dtype=float)
    return x, _arr(lo["log_values"]), gauss_log_tail(x, sigma2), x >= out["certified_from"]


def pinch_sound(out: dict, sigma2: float, what: str) -> list[float]:
    """Check a pinched envelope where its certificate claims it.

    ``pinched_lower_envelope`` certifies its form from ``certified_from`` on
    (its docstring, and the package's own test of it), so every point there
    must lie below N(0, 2c(1 - delta^2)).  Points below the threshold must
    only be probabilities; those above the exact tail are counted by
    ``pinch_overshoot``.  Slack is taken over every emitted point.
    """
    x, lv, ref, on = _pinch_points(out, sigma2)
    if np.any(lv > 1e-12):
        raise Rejected(f"{what}: log value above 0")
    if not np.any(on):
        raise Rejected(f"{what}: no point at or above certified_from {out['certified_from']:.6g}")
    below(lv[on], ref[on], what)
    return slack(lv, ref)


def pinch_overshoot(op, result: dict) -> int:
    """Emitted pinch points below the certified threshold that exceed the exact tail.

    The envelope says ``valid_from = e`` although its certificate starts
    higher; at delta = 0.05 its first points lie above the tail of
    N(0, 2c(1 - delta^2)), a law that meets the hypothesis.
    """
    if op.kind != "pinch" or result.get("status") != "ok":
        return 0
    x, lv, ref, on = _pinch_points(result["output"], op.meta["sigma2"])
    over = lv > ref + LOG_TOL * np.maximum(1.0, np.abs(ref))
    return int(np.sum(over & ~on))


# --------------------------------------------------------------------------
# per-op checks
# --------------------------------------------------------------------------


def _lib(op, out) -> list[float]:
    k, a, meta = op.kind, op.args, op.meta
    if k == "pinch":
        return pinch_sound(out, meta["sigma2"], op.label)
    if k in ("grid_closure", "lower_table"):
        return lower_sound(out["lower"], meta["sigma2"], None, op.label)
    if k == "chain":
        spec = a["phi"]
        sigma2 = 2 * spec["coeff"] if spec["family"] == "quadratic" else None
        pts = lower_sound(out["closure"], sigma2, spec, "closure")
        pts += lower_sound(out["unilateral"], sigma2, spec, "unilateral")
        pts += lower_sound(out["sandwich_lower"], sigma2, spec, "sandwich lower")
        up = out["sandwich_upper"]
        close(up["log_values"], np.minimum(chernoff(spec, up["x"]), 0.0), 1e-8, "sandwich upper")
        below(out["sandwich_lower"]["log_values"], up["log_values"], "sandwich order")
        if not (out["regularity_ok"] and out["regularity_v"] > 0):
            raise Rejected(f"regularity: V = {out['regularity_v']}")
        if sigma2 is not None:
            close(out["regularity_v"], 1.0, 1e-7, "regularity V of a quadratic")
        return pts
    if k == "tauber":
        return _tauber(op, out["k_mgf"], out["k_tail"])
    if k == "growth":
        lo = out["lower"]
        _growth(out["recovered_m"], meta["m"], lo and (lo["x"], lo["log_values"]),
                (out["upper"]["x"], out["upper"]["log_values"]))
        return []
    if k == "pole":
        _power_lower(out["lower"]["log_values"], out["gamma"], meta["b"])
        return []
    if k == "conjugate":
        _conjugate_table(a, out)
        return []
    if k == "biconjugate":
        close(out["values"], meta["coeff"] * np.asarray(out["lam"]) ** 2, 1e-6,
              "biconjugate of a convex quadratic")
        return []
    if k == "validate":
        if out["exit_code"] != 0:
            raise Rejected(f"validate exited {out['exit_code']}")
        return _validate_report(meta["report"], meta["laws"])
    raise Rejected(f"no checker for op kind {k!r}")


def _tauber(op, k_mgf: float, k_tail: float) -> list[float]:
    # for N(0, s^2) against reference c*lam^2 both limits are exact:
    # k_mgf = s / sqrt(2c), k_tail = sqrt(2c) / s
    want = op.meta["scale"] / math.sqrt(2 * op.meta["coeff"])
    close(k_mgf, want, 1e-6, "tauberian MGF constant")
    if op.meta["mc"]:
        # Monte Carlo mode reports the raw top-of-ladder value, which sits
        # above the limit; it must still be on the right scale
        if not (0.9 <= k_tail * want <= 1.4):
            raise Rejected(f"Monte Carlo tail constant {k_tail} vs limit {1 / want}")
    else:
        close(k_tail * want, 1.0, 0.02, "tauberian tail constant")
    return []


def _growth(recovered_m: float, m: float, lower, upper) -> None:
    """Recovered exponent near m; lower <= upper wherever both have a point.

    ``lower`` and ``upper`` are (x, log values) pairs; the lower side's x went
    through exp(log x), so points are matched to nine digits.
    """
    close(recovered_m, m, 0.05, "recovered growth exponent")
    if lower is None:
        return
    up = dict(zip(np.round(upper[0], 9), upper[1]))
    pairs = [(lv, up[x]) for x, lv in zip(np.round(lower[0], 9), lower[1]) if x in up]
    if not pairs:
        raise Rejected("growth envelopes share no x")
    below([p[0] for p in pairs], [p[1] for p in pairs], "growth order")


def _power_lower(log_values, gamma: float, b: float) -> None:
    lv = _arr(log_values)
    if np.any(lv > 1e-12) or np.any(np.diff(lv) > 1e-9 * np.maximum(1.0, np.abs(lv[1:]))):
        raise Rejected("power-tail lower envelope not a nonincreasing probability")
    if not (1.0 < gamma < b):
        raise Rejected(f"power-tail exponent {gamma} outside (1, {b})")


def _conjugate_table(a: dict, out: dict) -> None:
    x, v = np.asarray(out["x"]), _arr(out["values"])
    if "csv" in a:
        lam, vals = read_grid(a["csv"])
        idx = np.unique(np.linspace(0, x.size - 1, 64).astype(int))
        ref = np.array([np.max(lam * t - vals) for t in x[idx]])
        close(v[idx], ref, 1e-12, "grid conjugate vs brute-force argmax")
        return
    spec = a["phi"]
    ref = conjugate_closed(spec, x)
    if ref is not None:
        close(v, ref, 1e-8, f"{spec['family']} conjugate vs closed form")
        return
    idx = np.unique(np.linspace(0, x.size - 1, 40).astype(int))
    ref = np.array([conjugate_brute(spec, float(t)) for t in x[idx]])
    close(v[idx], ref, 1e-8, f"{spec['family']} conjugate vs brute-force argmax")


def _validate_report(path: str, laws: list[str]) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    if rep["status"] != "ok":
        raise Rejected(f"validate status {rep['status']}")
    pts = []
    for law in laws:
        checks = rep["results"][law]
        failed = [k for k, c in checks.items() if not c["pass"]]
        if failed:
            raise Rejected(f"{law}: checks failed: {failed}")
        log_tail = LAW_LOG_TAIL[law]
        emp = checks["empirical_tail"]
        for x, frac, half in zip((1.0, 2.0), emp["fractions"], emp["halfwidths"]):
            if abs(frac - math.exp(log_tail(x))) > 4.0 * half:
                raise Rejected(f"{law}: empirical tail {frac} at x={x} off the exact tail")
        if checks["cramer"]["certified"] != (law != "pareto3"):
            raise Rejected(f"{law}: Cramer certificate {checks['cramer']['certified']}")
        if "exact_mgf_sandwich" in checks:
            # the emitted lower envelope exp(-phi*(x) - c2 x) on the command's grid
            c2 = checks["exact_mgf_sandwich"]["c2"]
            xs = np.linspace(2.0, 8.0, 13)
            lower = [-law_conjugate(law, float(x)) - c2 * float(x) for x in xs]
            ref = [log_tail(float(x)) for x in xs]
            below(lower, ref, f"{law} exact-MGF sandwich")
            pts += slack(lower, ref)
    return pts


def _cli(op, out) -> list[float]:
    with open(op.meta["report"], encoding="utf-8") as fh:
        rep = json.load(fh)
    cmd, res, meta = rep["command"], rep["results"], op.meta
    if cmd == "validate":
        return _validate_report(meta["report"], meta["laws"])
    if cmd == "tauber":
        return _tauber(op, res["k_mgf"], res["k_tail"])
    if cmd == "conjugate":
        table = res["table"]
        _conjugate_table({"csv": meta["csv"]},
                         {"x": [r["x"] for r in table], "values": [r["value"] for r in table]})
        return []
    if cmd == "upper":
        env = res["chernoff"]
        if "csv" in meta:
            lam, vals = read_grid(meta["csv"])
            ref = [-np.max(lam * x - vals) for x in env["x"]]
        else:
            ref = -np.asarray(env["x"]) ** 2 / (2 * meta["sigma2"])
        close(_arr(env["log_value"]), np.minimum(ref, 0.0), 1e-8, "Chernoff envelope")
        return []
    if cmd in ("lower-uni", "lower-bi"):
        env = res["envelope"]
        return lower_sound({"x": env["x"], "log_values": env["log_value"]},
                           meta["sigma2"], None, cmd)
    if cmd == "richter":
        lo, up = res["lower"], res["upper"]
        ref = gauss_log_tail(lo["x"], meta["sigma2"])
        below(lo["log_value"], ref, "richter lower")
        below(ref, up["log_value"], "richter upper")
        return slack(lo["log_value"], ref)
    if cmd == "moments":
        if "lower" in res and "report" in res and "gamma" in res["report"]:
            _power_lower(res["lower"]["log_value"], res["report"]["gamma"], meta["b"])
            return []
        lo = res.get("lower")
        _growth(res["report"]["recovered_m"], meta["m"], lo and (lo["x"], lo["log_value"]),
                (res["upper"]["x"], res["upper"]["log_value"]))
        return []
    raise Rejected(f"no checker for command {cmd!r}")


def classify(op, result: dict) -> tuple[str, list[float], str]:
    """Outcome of one op from the worker's (or CLI process's) result."""
    status = result["status"]
    if status == "refused":
        return ("refused", [], result["output"]["refusal"]) if op.envelope \
            else ("failed", [], "refusal from an op that asks for no envelope")
    if status != "ok":
        return "failed", [], str(result["output"])[-2000:]
    try:
        pts = _cli(op, result["output"]) if op.kind == "cli" else _lib(op, result["output"])
    except Rejected as exc:
        return "failed", [], f"checker: {exc}"
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return "failed", [], f"checker: malformed output: {type(exc).__name__}: {exc}"
    return ("certified" if op.envelope else "ok"), pts, ""
