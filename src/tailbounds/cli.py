"""Batch command-line interface.

The CLI parses arguments and formats output: each subcommand calls the
library and returns (report, CSV rows), and ``main`` adds the command and
a status ("ok" unless the report sets one) and writes a versioned JSON
report (all realized constants and diagnostics included) plus an optional
CSV envelope table.  Exit codes: 0 success, 1 input error, 2 validation
failure.  Reports are byte-identical across runs for a fixed config and
seed once timestamps are normalized away (--normalize).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .envelope import TailEnvelope, chernoff_envelope
from .errors import InputError, TailboundsError
from .functions import PhiFunction, conjugate
from .integrals import epsilon_report, log_i_integral
from .lower_bilateral import (
    closure_lower_envelope,
    exact_mgf_sandwich,
    pinched_lower_envelope,
    verify_regularity,
)
from .lower_unilateral import (
    m_surrogate_from_upper,
    unilateral_lower_envelope,
)
from .moments import (
    growth_tail_recovery,
    moment_envelope_from_csv,
    moment_power_growth,
    moment_power_pole,
    power_tail_lower,
)
from .oracles import battery, gaussian, suite
from .tauberian import tauberian_check

SCHEMA_VERSION = 1
SEED_ENV_VAR = "TAILBOUNDS_SEED"
DEFAULT_SEED = 42


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------


def parse_grid(spec: str) -> np.ndarray:
    """Parse ``start:stop:step`` (inclusive of stop within half a step) or a
    comma-separated list; InputError unless every number is finite."""
    spec = spec.strip()
    ranged = ":" in spec
    parts = spec.split(":") if ranged else [p for p in spec.split(",") if p.strip()]
    if ranged and len(parts) != 3:
        raise InputError(f"grid spec {spec!r}: expected start:stop:step")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"grid spec {spec!r}: non-numeric "
                         f"{'field' if ranged else 'entry'}") from None
    if not all(map(math.isfinite, nums)):
        raise InputError(f"grid spec {spec!r}: entries must be finite")
    if ranged:
        start, stop, step = nums
        if step <= 0 or stop <= start:
            raise InputError(f"grid spec {spec!r}: need stop > start and step > 0")
        n = int(round((stop - start) / step))
        try:
            grid = start + step * np.arange(n + 1)
        except ValueError:  # numpy's "Maximum allowed size exceeded"
            raise InputError(f"grid spec {spec!r}: {n + 1} points exceed numpy's array "
                             "size limit") from None
        grid = grid[grid <= stop + 1e-12 * max(1.0, abs(stop))]
    else:
        grid = np.array(nums)
    if grid.size == 0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
        raise InputError(f"grid spec {spec!r}: must be strictly increasing, nonempty")
    return grid


def build_function(args: argparse.Namespace) -> PhiFunction:
    if getattr(args, "grid_csv", None):
        return PhiFunction.from_csv(args.grid_csv)
    fam = args.family
    lo = args.lambda_min
    hi = args.lambda_max if args.lambda_max is not None else math.inf
    if fam == "quadratic":
        return PhiFunction.quadratic(coeff=args.coeff, lo=lo, hi=hi)
    if fam == "quartic":
        return PhiFunction.power_log(4.0, 0.0, lo=lo, hi=hi)
    if fam == "power-log":
        return PhiFunction.power_log(args.p, args.r, lo=lo, hi=hi)
    if fam == "linear":
        return PhiFunction.linear(slope=args.slope, lo=lo, hi=hi)
    raise InputError(f"unknown family {fam!r} (and no --grid-csv given)")


def add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="quadratic",
                   choices=["quadratic", "quartic", "power-log", "linear"],
                   help="named closed form (ignored when --grid-csv is given)")
    p.add_argument("--coeff", type=float, default=0.5, help="quadratic coefficient")
    p.add_argument("--p", type=float, default=2.0, help="power-log exponent p")
    p.add_argument("--r", type=float, default=0.0, help="power-log log-exponent r")
    p.add_argument("--slope", type=float, default=1.0, help="linear slope")
    p.add_argument("--lambda-min", type=float, default=1.0, help="domain lower end")
    p.add_argument("--lambda-max", type=float, default=None, help="domain upper end (open)")
    p.add_argument("--grid-csv", default=None,
                   help="CSV with header lambda,value for a grid-backed function")


def add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.add_argument("--csv", default=None, help="optional CSV envelope table path")
    p.add_argument("--normalize", action="store_true",
                   help="zero out the timestamp for byte-identical reports")
    p.add_argument("--seed", type=int, default=None,
                   help=f"sampling seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")


def resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise InputError(f"${SEED_ENV_VAR} must be an integer seed, got {env!r}") from None


def to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {k: to_jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def envelope_payload(env: TailEnvelope) -> dict:
    return {
        "x": to_jsonable(env.x),
        "value": to_jsonable(env.values),
        "log_value": to_jsonable(env.log_values),
        "side": env.side,
        "provenance": env.provenance,
        "valid_from": env.valid_from,
    }


def write_report(report: dict, args: argparse.Namespace) -> None:
    report["schema_version"] = SCHEMA_VERSION
    report["generated_at"] = 0 if args.normalize else time.time()
    payload = json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def write_csv_table(path: Optional[str], rows: list[dict]) -> None:
    if not path or not rows:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_conjugate(args) -> tuple[dict, list]:
    f = build_function(args)
    xs = parse_grid(args.x)
    res = conjugate(f, xs)
    rows = [{"x": float(x), "value": float(v), "argmax": float(a)}
            for x, v, a in zip(res.x_grid, res.values, res.argmax)]
    return {"config": {"function": f.label, "x": xs},
            "results": {"table": rows}}, rows


def cmd_upper(args) -> tuple[dict, list]:
    f = build_function(args)
    xs = parse_grid(args.x)
    env = chernoff_envelope(xs, conjugate(f, xs).values)
    results = {"chernoff": envelope_payload(env)}
    if args.bound_lambda is not None:
        lam_grid = parse_grid(args.bound_lambda)
        # K and R depend on eps alone: one report serves every lambda
        rep = epsilon_report(f, args.epsilon)
        bounds = {}
        for lam in lam_grid:
            entry = {}
            try:
                log_c = rep.log_compound_bound(f, float(lam))
                entry["log_compound"] = log_c
                # the bound itself, +inf where its exp leaves float range
                entry["compound"] = math.exp(log_c) if log_c < 709.0 else math.inf
                entry["log_integral"] = log_i_integral(f, float(lam))
            except TailboundsError as exc:
                entry["error"] = str(exc)
            bounds[str(float(lam))] = entry
        results["integral_bounds"] = bounds
        results["epsilon_report"] = rep
    rows = [{"x": float(x), "upper": float(v)} for x, v in zip(env.x, env.values)]
    return {"config": {"function": f.label, "x": xs, "epsilon": args.epsilon},
            "results": results}, rows


def cmd_lower_uni(args) -> tuple[dict, list]:
    f = build_function(args)
    xs = parse_grid(args.x)
    if args.m_surrogate is not None:
        m_bound = args.m_surrogate
    else:
        m_bound = m_surrogate_from_upper(f, args.epsilon)
    env, cert = unilateral_lower_envelope(
        f, args.epsilon, m_bound, xs, nonnegative=not args.signed,
    )
    chern = chernoff_envelope(env.x, conjugate(f, env.x).values)
    rows = [{"x": float(x), "lower": float(v), "chernoff_upper": float(u)}
            for x, v, u in zip(env.x, env.values, chern.values)]
    return {"config": {"function": f.label, "x": xs,
                       "epsilon": args.epsilon, "m_surrogate": m_bound},
            "results": {"envelope": envelope_payload(env),
                        "chernoff": envelope_payload(chern),
                        "certificate": cert}}, rows


def cmd_lower_bi(args) -> tuple[dict, list]:
    f = build_function(args)
    xs = parse_grid(args.x)
    if args.delta is not None:
        env, cert = pinched_lower_envelope(f, args.delta, xs)
        results = {"envelope": envelope_payload(env), "certificate": cert}
    else:
        env, diag = closure_lower_envelope(f, f, xs)
        results = {"envelope": envelope_payload(env),
                   "diagnostics": {
                       "all_clamped": diag.all_clamped,
                       # a list in z order: a float z never becomes a JSON key
                       "per_z": [{"z": z, **d} for z, d in diag.per_z.items()]}}
    results["chernoff"] = envelope_payload(chernoff_envelope(env.x, conjugate(f, env.x).values))
    results["regularity"] = verify_regularity(f)
    rows = [{"x": float(x), "lower": float(v)} for x, v in zip(env.x, env.values)]
    return {"config": {"function": f.label, "x": xs, "delta": args.delta},
            "results": results}, rows


def cmd_richter(args) -> tuple[dict, list]:
    f = build_function(args)
    xs = parse_grid(args.x)
    lower, upper, c2 = exact_mgf_sandwich(f, xs)
    rows = [{"x": float(x), "lower": float(lv), "upper": float(uv)}
            for x, lv, uv in zip(xs, lower.values, upper.values)]
    return {"config": {"function": f.label, "x": xs},
            "results": {"lower": envelope_payload(lower),
                        "upper": envelope_payload(upper), "c2": c2}}, rows


def cmd_moments(args) -> tuple[dict, list]:
    xs = parse_grid(args.x)
    if args.mode == "pole" and args.moments_csv:
        raise InputError("--mode pole reads --c, --b and --beta and takes no --moments-csv; "
                         "the CSV's p,lower,upper columns feed --mode growth")
    if args.mode == "growth":
        if args.moments_csv:
            env = moment_envelope_from_csv(args.moments_csv)
        else:
            env = moment_power_growth(args.m, args.c_low, args.c_high)
        lower, upper, rep = growth_tail_recovery(args.m, env, xs,
                                                 m_surrogate=args.m_surrogate)
        results = {"upper": envelope_payload(upper), "report": rep}
        if lower is not None:
            results["lower"] = envelope_payload(lower)
    else:
        env = moment_power_pole(args.c, args.b, args.beta)
        tail_env, rep = power_tail_lower(env, xs, m_surrogate=args.m_surrogate)
        results = {"lower": envelope_payload(tail_env), "report": rep}
    rows = []
    for key in ("lower", "upper"):
        if key in results:
            for x, v in zip(results[key]["x"], results[key]["value"]):
                rows.append({"x": x, "side": key, "value": v})
    return {"config": {"mode": args.mode, "x": xs}, "results": results}, rows


def cmd_tauber(args) -> tuple[dict, list]:
    dists = suite()
    if args.dist not in dists:
        raise InputError(f"unknown distribution {args.dist!r}")
    if args.scale != 1.0 and args.dist != "gaussian":
        raise InputError(f"--scale {args.scale!r}: only the gaussian takes a scale")
    dist = gaussian(args.scale) if args.dist == "gaussian" else dists[args.dist]
    phi = PhiFunction.quadratic(lo=0.0) if args.reference == "quadratic" \
        else build_function(args)
    seed = resolve_seed(args)
    rep = tauberian_check(phi, dist, monte_carlo=args.mc,
                          n_samples=args.mc_samples, seed=seed)
    return {"config": {"dist": dist.name, "reference": phi.label,
                       "mc": args.mc, "seed": seed},
            "results": rep}, []


def cmd_validate(args) -> tuple[dict, list]:
    seed = resolve_seed(args)
    known = suite()
    names = list(known) if args.dist == "all" else [args.dist]
    for n in names:
        if n not in known:
            raise InputError(f"unknown distribution {n!r}; choose from {sorted(known)}")
    results = {n: battery(known[n], seed, args.mc_samples) for n in names}
    ok = all(c["pass"] for per in results.values() for c in per.values())
    return {"config": {"dist": names, "seed": seed, "mc_samples": args.mc_samples},
            "results": results, "status": "ok" if ok else "failed"}, []


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError and exit 1; subcommand parsers inherit this."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tailbounds",
        description="Certified tail-probability envelopes from MGF bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjugate", help="Legendre transform table")
    add_function_args(p); add_io_args(p)
    p.add_argument("--x", default="1:8:0.5", help="x grid, start:stop:step or list")
    p.set_defaults(fn=cmd_conjugate)

    p = sub.add_parser("upper", help="Chernoff envelope and integral upper bounds")
    add_function_args(p); add_io_args(p)
    p.add_argument("--x", default="1:8:0.5")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--bound-lambda", default=None,
                   help="lambda grid for the compound integral bound")
    p.set_defaults(fn=cmd_upper)

    p = sub.add_parser("lower-uni", help="lower envelope from a one-sided MGF floor")
    add_function_args(p); add_io_args(p)
    p.add_argument("--x", default="1:8:0.5")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--m-surrogate", type=float, default=None,
                   help="normalization bound; computed from the function when omitted")
    p.add_argument("--signed", action="store_true",
                   help="variable may be negative (costs ln 2 in the linear branch)")
    p.set_defaults(fn=cmd_lower_uni)

    p = sub.add_parser("lower-bi", help="bilateral closure / pinched envelope")
    add_function_args(p); add_io_args(p)
    p.add_argument("--x", default="2:8:0.5")
    p.add_argument("--delta", type=float, default=None,
                   help="pinch parameter; closure with phi1 = phi2 when omitted")
    p.set_defaults(fn=cmd_lower_bi)

    p = sub.add_parser("richter", help="two-sided sandwich for an exact MGF")
    add_function_args(p); add_io_args(p)
    p.add_argument("--x", default="2:8:0.5")
    p.set_defaults(fn=cmd_richter)

    p = sub.add_parser("moments", help="tail envelopes from moment envelopes")
    add_io_args(p)
    p.add_argument("--mode", choices=["growth", "pole"], default="growth")
    p.add_argument("--x", default="3:10:0.5")
    p.add_argument("--m", type=float, default=2.0, help="growth exponent (p^(1/m))")
    p.add_argument("--c-low", type=float, default=1.0)
    p.add_argument("--c-high", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0, help="pole constant")
    p.add_argument("--b", type=float, default=3.0, help="pole location")
    p.add_argument("--beta", type=float, default=1.0, help="pole order")
    p.add_argument("--m-surrogate", type=float, default=2.0)
    p.add_argument("--moments-csv", default=None, help="CSV p,lower,upper (--mode growth)")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("tauber", help="two-sided limit diagnostic")
    add_function_args(p); add_io_args(p)
    p.add_argument("--dist", default="gaussian")
    p.add_argument("--scale", type=float, default=1.0, help="the gaussian's standard deviation")
    p.add_argument("--reference", default="quadratic", choices=("quadratic", "family"),
                   help="'quadratic' for the subgaussian reference, 'family' for the --family")
    p.add_argument("--mc", action="store_true")
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_tauber)

    p = sub.add_parser("validate", help="oracle sandwich suite")
    add_io_args(p)
    p.add_argument("--dist", default="gaussian",
                   help="distribution name or 'all'")
    p.add_argument("--mc-samples", type=int, default=200_000)
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, rows = args.fn(args)
        report["command"] = args.command
        report.setdefault("status", "ok")
        write_csv_table(args.csv, rows)
        write_report(report, args)
    except (InputError, OSError) as exc:  # OSError: a missing or unwritable path
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except TailboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["status"] == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
