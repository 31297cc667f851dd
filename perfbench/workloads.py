"""Seeded op lists of the four workloads.

Every input is drawn from ``random.Random(f"{workload}:{seed}:{round}")``:
family parameters, grid offsets, knot positions and Monte Carlo seeds.  The
ranges are narrow on purpose: at the commit that introduced this benchmark
no op's certified-or-refused outcome depends on the seed (for example the
pinch at delta = 0.15 certifies at coeff 0.5 but refuses at 1 and 2, so it
is not in the mix).  CSV inputs are written under the run's scratch
directory; the program receives only those files and arguments.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass, field

LAWS = ("gaussian", "exponential", "weibull2", "weibull4", "pareto3")


@dataclass
class Op:
    label: str
    kind: str               # a worker op name, or "cli"
    args: dict              # worker op arguments, or {"argv": [...]} for "cli"
    keys: tuple             # inputs the program could cache across ops
    envelope: bool          # the op asks for a tail envelope
    meta: dict = field(default_factory=dict)  # what the checker needs to know
    group: str = ""         # replicas of one op on distinct inputs share it

    def __post_init__(self):
        self.group = self.group or self.label


# Ops shorter than about 0.3 s run this many times per round, each on its
# own inputs, so that op_p50_s is a median of several samples per op.  With
# three, op_p50_s spread by 8-11% from seed to seed; with five, by 3-4%.
REPLICAS = 5


def _distinct(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k distinct values in [lo, hi], six decimals."""
    grid = range(round(lo * 1e6), round(hi * 1e6) + 1)
    return [v / 1e6 for v in rng.sample(grid, k)]


def _steps(start: float, step: float, n: int) -> list[float]:
    return [start + step * i for i in range(n)]


def _key(phi: dict) -> tuple:
    """Cold-cache key of a phi input."""
    return ("phi",) + tuple(sorted(phi.items()))


def _quad(coeff: float) -> dict:
    return {"family": "quadratic", "coeff": coeff}


def _name(phi: dict) -> str:
    if phi["family"] == "power_log" and phi["r"] == 0.0:
        return "quartic"
    return phi["family"]


def _spec(x: list[float]) -> str:
    return ",".join(repr(v) for v in x)


def _knots(rng: random.Random, n: int, top: float) -> list[float]:
    """n strictly increasing knots on [0, top] with jittered positions."""
    step = top / (n - 1)
    return [0.0] + [step * (i + rng.uniform(-0.3, 0.3)) for i in range(1, n - 1)] + [top]


def _write_csv(path: str, header: tuple, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def envelope_search(rng: random.Random, tmp: str) -> list[Op]:
    c = iter(_distinct(rng, 0.45, 0.55, 3 + 1 + 2 * REPLICAS))
    c_chain = iter(_distinct(rng, 0.4995, 0.5005, REPLICAS))  # see lower-table
    ops = []
    for delta in (0.05, 0.1, 0.3):
        coeff = next(c)
        # 3 to 8.5, then out to 300: past the certificate's threshold (122-137
        # at delta = 0.05, 51-69 at delta = 0.1), where the form is claimed
        u = rng.uniform(0.0, 0.1)
        z = _steps(3.0 + u, 0.5, 12) + [(10.0 + u) * 30.0 ** (i / 7) for i in range(8)]
        phi = _quad(coeff)
        ops.append(Op(f"pinch[delta={delta}]", "pinch", {"phi": phi, "delta": delta, "z": z},
                      (_key(phi),), True, {"sigma2": 2 * coeff * (1 - delta ** 2)}))
    coeff = next(c)
    top = rng.uniform(28.0, 32.0)
    knots = _knots(rng, rng.randint(240, 260), top)
    ops.append(Op("grid-closure", "grid_closure",
                  {"knots": knots, "coeff": coeff, "z": _steps(2.0 + rng.uniform(0, 0.1), 0.5, 13)},
                  (("grid", len(knots), top), _key(_quad(coeff))), True, {"sigma2": 2 * coeff}))
    for i in range(REPLICAS):
        families = [
            _quad(next(c_chain)),
            {"family": "power_log", "p": 4.0 + rng.uniform(-0.02, 0.02), "r": 0.0},
            {"family": "power_log", "p": 2.0, "r": 1.0 + rng.uniform(-0.02, 0.02)},
        ]
        for phi in families:
            u = rng.uniform(0.0, 0.1)
            args = {"phi": phi, "z": _steps(2.0 + u, 0.5, 13), "eps": 0.2,
                    "x_sandwich": _steps(2.0 + u, 0.5, 13), "x_uni": _steps(1.0 + u, 0.5, 15)}
            ops.append(Op(f"chain[{_name(phi)}]#{i}", "chain", args, (_key(phi),), True,
                          {"phi": phi}, f"chain[{_name(phi)}]"))
        for mc in (False, True):
            coeff, scale = next(c), rng.uniform(1.5, 2.5)
            group = f"tauber[{'mc' if mc else 'analytic'}]"
            ops.append(Op(f"{group}#{i}", "tauber",
                          {"coeff": coeff, "scale": scale, "mc": mc, "n_samples": 1_000_000,
                           "seed": rng.randrange(1, 2 ** 31)},
                          (_key(_quad(coeff)), ("gaussian", scale)), False,
                          {"coeff": coeff, "scale": scale, "mc": mc}, group))
        m, cm = rng.uniform(1.8, 2.2), rng.uniform(0.9, 1.1)
        ops.append(Op(f"growth#{i}", "growth",
                      {"m": m, "c": cm, "x": _steps(3.0 + rng.uniform(0, 0.5), 0.5, 14)},
                      (("growth", m, cm),), True, {"m": m}, "growth"))
        cp, b = rng.uniform(0.9, 1.1), rng.uniform(2.8, 3.2)
        ops.append(Op(f"pole#{i}", "pole",
                      {"c": cp, "b": b, "beta": 1.0,
                       "x": _steps(3.0 + rng.uniform(0, 0.5), 1.0, 8)},
                      (("pole", cp, b),), True, {"b": b}, "pole"))
    return ops


def conjugate_tables(rng: random.Random, tmp: str) -> list[Op]:
    c = _distinct(rng, 0.51, 0.55, 2)
    ops = []
    families = [
        _quad(c[0]),
        {"family": "power_log", "p": 4.0 + rng.uniform(-0.02, 0.02), "r": 0.0},
        {"family": "power_log", "p": 2.0, "r": 1.0 + rng.uniform(-0.02, 0.02)},
        {"family": "mixture", "w": rng.uniform(0.2, 0.4), "s1": rng.uniform(0.8, 1.2),
         "s2": rng.uniform(1.8, 2.2)},
    ]
    for phi in families:
        args = {"phi": phi, "x_lo": 0.0, "x_hi": rng.uniform(18.0, 22.0), "n_x": 2000}
        ops.append(Op(f"conjugate[{_name(phi)}]", "conjugate", args, (_key(phi),), False,
                      {"phi": phi}))
    for nominal in (2000, 8000, 20000):
        n = nominal + rng.randint(-nominal // 50, nominal // 50)
        top, coeff = rng.uniform(36.0, 44.0), rng.uniform(0.45, 0.55)
        knots = _knots(rng, n, top)
        path = _write_csv(os.path.join(tmp, f"grid{n}.csv"), ("lambda", "value"),
                          ((repr(k), repr(coeff * k * k)) for k in knots))
        ops.append(Op(f"conjugate[grid-{nominal // 1000}k]", "conjugate",
                      {"csv": path, "x_lo": 0.0, "x_hi": rng.uniform(18.0, 22.0), "n_x": 2000},
                      (("grid", n, top),), False, {"csv": path}))
    ops.append(Op("biconjugate", "biconjugate",
                  {"phi": _quad(c[1]), "lam_lo": 0.5, "lam_hi": rng.uniform(28.0, 32.0), "n": 64},
                  (_key(_quad(c[1])),), False, {"coeff": c[1]}))
    # the chain's dilation constant moves steeply with the coefficient (a =
    # 4.7 at 0.505, 3.7 at 0.543) and the slack goes as a^2, so a narrow range
    # keeps lower_slack comparable across seeds
    for i, c_table in enumerate(_distinct(rng, 0.4995, 0.5005, REPLICAS)):
        ops.append(Op(f"lower-table#{i}", "lower_table",
                      {"phi": _quad(c_table), "eps": 0.2, "x_lo": 1.0 + rng.uniform(0, 0.05),
                       "x_hi": 8.0, "n_x": 1000},
                      (_key(_quad(c_table)),), True, {"sigma2": 2 * c_table}, "lower-table"))
    return ops


def oracle_battery(rng: random.Random, tmp: str) -> list[Op]:
    ops = []
    for law in LAWS:
        cheap = law not in ("weibull2", "weibull4")
        for i in range(REPLICAS if cheap else 1):
            label = f"validate[{law}]" + (f"#{i}" if cheap else "")
            out = os.path.join(tmp, f"{label}.json")
            ops.append(Op(label, "validate",
                          {"law": law, "seed": rng.randrange(1, 2 ** 31), "out": out},
                          (("law", law),), law != "pareto3", {"report": out, "laws": [law]},
                          f"validate[{law}]"))
    return ops


def cli_session(rng: random.Random, tmp: str) -> list[Op]:
    c = _distinct(rng, 0.45, 0.55, 4)
    ops = []

    def add(label, argv, envelope, **meta):
        out = os.path.join(tmp, f"{label}.json")
        meta["report"] = out
        ops.append(Op(label, "cli", {"argv": argv + ["--normalize", "--out", out]},
                      (label,), envelope, meta))

    def quad(coeff):
        return ["--family", "quadratic", "--coeff", repr(coeff), "--lambda-min", "0"]

    u = lambda: rng.uniform(0.0, 0.25)  # noqa: E731
    add("upper", ["upper", *quad(c[0]), "--x", _spec(_steps(1.0 + u(), 0.5, 15))], True,
        sigma2=2 * c[0])
    add("lower-uni", ["lower-uni", *quad(c[1]), "--epsilon", "0.2", "--signed",
                      "--x", _spec(_steps(1.0 + u(), 0.5, 15))], True, sigma2=2 * c[1])
    add("lower-bi", ["lower-bi", *quad(c[2]), "--x", _spec(_steps(2.0 + u(), 0.5, 13))], True,
        sigma2=2 * c[2])
    add("richter", ["richter", *quad(c[3]), "--x", _spec(_steps(2.0 + u(), 0.5, 13))], True,
        sigma2=2 * c[3])
    m, cm = rng.uniform(1.8, 2.2), rng.uniform(0.9, 1.1)
    add("moments-growth", ["moments", "--mode", "growth", "--m", repr(m), "--c-low", repr(cm),
                           "--c-high", repr(cm), "--x", _spec(_steps(3.0 + u(), 0.5, 14))],
        True, m=m)
    b = rng.uniform(2.8, 3.2)
    add("moments-pole", ["moments", "--mode", "pole", "--c", repr(rng.uniform(0.9, 1.1)),
                         "--b", repr(b), "--beta", "1", "--x", _spec(_steps(3.0 + u(), 1.0, 8))],
        True, b=b)
    scale = rng.uniform(1.5, 2.5)
    add("tauber", ["tauber", "--dist", "gaussian", "--scale", repr(scale)], False,
        coeff=0.5, scale=scale, mc=False)
    add("validate", ["validate", "--dist", "gaussian", "--seed", str(rng.randrange(1, 2 ** 31))],
        True, laws=["gaussian"])
    coeff, top = rng.uniform(0.45, 0.55), rng.uniform(28.0, 32.0)
    grid = _write_csv(os.path.join(tmp, "phi-grid.csv"), ("lambda", "value"),
                      ((repr(k), repr(coeff * k * k)) for k in _knots(rng, rng.randint(400, 600), top)))
    add("conjugate-csv", ["conjugate", "--grid-csv", grid,
                          "--x", _spec(_steps(u(), 0.25, 60))], False, csv=grid)
    add("upper-csv", ["upper", "--grid-csv", grid, "--x", _spec(_steps(1.0 + u(), 0.5, 15))],
        True, csv=grid)
    m2, lo2 = rng.uniform(1.8, 2.2), rng.uniform(0.9, 1.0)
    ps = _knots(rng, 200, 59.0)
    moments = _write_csv(os.path.join(tmp, "moments.csv"), ("p", "lower", "upper"),
                         ((repr(1.0 + p), repr(lo2 * (1.0 + p) ** (1 / m2)),
                           repr(1.05 * lo2 * (1.0 + p) ** (1 / m2))) for p in ps))
    add("moments-csv", ["moments", "--moments-csv", moments, "--m", repr(m2),
                        "--x", _spec(_steps(3.0 + u(), 0.5, 14))], True, m=m2)
    return ops


BUILDERS = {
    "oracle-battery": oracle_battery,
    "envelope-search": envelope_search,
    "conjugate-tables": conjugate_tables,
    "cli-session": cli_session,
}

# A workload whose ops all share one worker; the others start a fresh
# worker (oracle-battery) or a fresh CLI process (cli-session) per op.
IN_PROCESS = {"envelope-search", "conjugate-tables"}


def build(workload: str, seed: int, round_no: int, tmp: str) -> list[Op]:
    os.makedirs(tmp, exist_ok=True)
    ops = BUILDERS[workload](random.Random(f"{workload}:{seed}:{round_no}"), tmp)
    if len({op.label for op in ops}) != len(ops):
        raise ValueError(f"{workload}: op labels must be unique")
    return ops


def coverage_op(workload: str, seed: int, tmp: str) -> Op:
    """A cheap op, on inputs no other op uses, for the trace coverage check."""
    rng = random.Random(f"coverage:{workload}:{seed}")
    if workload in IN_PROCESS:
        phi = _quad(rng.uniform(0.56, 0.6))
        return Op("coverage", "chain", {"phi": phi, "z": _steps(2.0, 1.0, 4), "eps": 0.2,
                                        "x_sandwich": _steps(2.0, 2.0, 4),
                                        "x_uni": _steps(1.0, 1.0, 4)}, (), True)
    out = os.path.join(tmp, "coverage.json")
    return Op("coverage", "validate", {"law": "exponential", "seed": rng.randrange(1, 2 ** 31),
                                       "out": out}, (), True)
