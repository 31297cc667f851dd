"""Self-tests of the benchmark itself (not of tailbounds).

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The coverage test runs one 5 s pinch under
cProfile and takes about 30 s; the rest take a few seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    path = os.path.join(ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_oracle_battery_twice_in_one_worker_trips_the_guard(scratch):
    ops = workloads.build("oracle-battery", 7, 0, scratch)
    once = list({op.group: op for op in ops}.values())  # one op per law
    guard = run.ColdGuard()
    for op in once:
        guard.admit(op.keys)
    # the second pass differs only in its Monte Carlo seeds; the laws repeat
    with pytest.raises(run.ColdCacheError):
        for op in workloads.build("oracle-battery", 8, 0, scratch):
            guard.admit(op.keys)
    # a real worker refuses before it computes anything twice
    ctx = run.Ctx(ROOT, scratch)
    w = run.Worker(ctx, trace=False).ready()
    try:
        pareto = next(op for op in ops if op.args["law"] == "pareto3")
        assert w.run(pareto)["status"] == "ok"
        with pytest.raises(run.ColdCacheError):
            w.run(pareto)
    finally:
        w.stop()


def test_a_round_never_repeats_inputs_in_a_worker(scratch):
    for name in workloads.IN_PROCESS:  # the others start a process per op
        guard = run.ColdGuard()
        for op in workloads.build(name, 3, 0, scratch):
            guard.admit(op.keys)


def test_inputs_are_a_function_of_the_seed(scratch):
    for name in workloads.BUILDERS:
        a = [(op.label, json.dumps(op.args)) for op in workloads.build(name, 5, 0, scratch)]
        b = [(op.label, json.dumps(op.args)) for op in workloads.build(name, 5, 0, scratch)]
        c = [(op.label, json.dumps(op.args)) for op in workloads.build(name, 6, 0, scratch)]
        assert a == b
        assert a != c


def _pinch_op(scratch):
    return next(op for op in workloads.build("envelope-search", 1, 0, scratch)
                if op.kind == "pinch")


def test_unsound_envelope_is_counted_failed(scratch):
    op = _pinch_op(scratch)
    z = np.asarray(op.args["z"])
    exact = check.gauss_log_tail(z, op.meta["sigma2"])
    sound = {"status": "ok", "output": {"lower": {"x": z.tolist(),
                                                  "log_values": (exact - 1.0).tolist()},
                                        "certified_from": z[0]}}
    unsound = {"status": "ok", "output": {"lower": {"x": z.tolist(),
                                                    "log_values": (exact + 0.5).tolist()},
                                          "certified_from": z[0]}}
    assert check.classify(op, sound)[0] == "certified"
    outcome, _, why = check.classify(op, unsound)
    assert outcome == "failed" and "ln lower" in why
    timing = {"start": 0.0, "end": 1.0, "busy": 1.0, "probe": [0.002, 0.002]}
    rnd = {"ops": [op, op], "results": [dict(sound, **timing), dict(unsound, **timing)]}
    assert [c[1] for c in run.check_round(rnd)] == ["certified", "failed"]


def test_pinch_overshoot_below_its_threshold_is_counted_not_failed(scratch):
    op = _pinch_op(scratch)
    z = np.asarray(op.args["z"])
    exact = check.gauss_log_tail(z, op.meta["sigma2"])
    lv = np.where(z < 5.0, exact + 0.5, exact - 1.0)
    res = {"status": "ok", "output": {"lower": {"x": z.tolist(), "log_values": lv.tolist()},
                                      "certified_from": 5.0}}
    assert check.classify(op, res)[0] == "certified"
    assert check.pinch_overshoot(op, res) == int(np.sum(z < 5.0)) > 0
    res["output"]["certified_from"] = z[0]
    assert check.classify(op, res)[0] == "failed"
    # a threshold past every emitted point leaves nothing checked
    res["output"]["certified_from"] = z[-1] + 1.0
    assert check.classify(op, res)[0] == "failed"


def test_refusal_is_not_a_failure_but_is_not_certified(scratch):
    op = _pinch_op(scratch)
    outcome, pts, _ = check.classify(op, {"status": "refused",
                                          "output": {"refusal": "NotCertifiedError: no c"}})
    assert outcome == "refused" and pts == []


def test_cli_refusal_is_told_from_other_errors_by_type(scratch):
    """cli.main exits 2 for every package error; only a NotCertifiedError is
    a refusal, as in the in-process ops."""
    op = next(op for op in workloads.build("cli-session", 1, 0, scratch)
              if op.label == "lower-bi")
    refusal = [{"type": "NotCertifiedError", "refusal": True}]
    other = [{"type": "NotConvergedError", "refusal": False}]
    assert run.cli_outcome(op, 2, "error: no c", refusal)["status"] == "refused"
    assert run.cli_outcome(op, 2, "error: quad", other)["status"] == "error"
    assert run.cli_outcome(op, 2, "error: ?", [])["status"] == "error"
    # the CLI child records what a subcommand raised
    bad = workloads.Op("bad-grid", "cli", {"argv": ["conjugate", "--x", "1:2"]}, (), False)
    res, _, _ = run.run_cli(run.Ctx(ROOT, scratch), bad, trace=False)
    assert res["status"] == "error" and "(InputError)" in res["output"]["error"]


def test_clamped_points_count_as_infinite_slack():
    assert check.slack([-math.inf, -2.0], [-1.0, -1.0]) == [math.inf, 1.0]


def test_wrong_conjugate_table_is_rejected(scratch):
    op = next(op for op in workloads.build("conjugate-tables", 1, 0, scratch)
              if op.label == "conjugate[quadratic]")
    x = np.linspace(op.args["x_lo"], op.args["x_hi"], op.args["n_x"])
    exact = x * x / (4 * op.args["phi"]["coeff"])
    good = {"status": "ok", "output": {"x": x.tolist(), "values": exact.tolist()}}
    bad = {"status": "ok", "output": {"x": x.tolist(), "values": (exact * 1.001).tolist()}}
    assert check.classify(op, good)[0] == "ok"
    assert check.classify(op, bad)[0] == "failed"


def test_trace_agrees_with_cprofile_on_the_pinch(scratch):
    """Quadratic pinch at delta = 0.1: every conjugate_value and
    PhiFunction.value call passes through a wrapper."""
    ctx = run.Ctx(ROOT, scratch)
    op = workloads.Op("pinch-coverage", "pinch",
                      {"phi": {"family": "quadratic", "coeff": 0.5}, "delta": 0.1,
                       "z": [3.0 + 0.5 * i for i in range(12)]}, (), True)
    w = run.Worker(ctx, trace=True).ready()
    try:
        assert w.run(op, coverage=True)["coverage"] == []
        snap = w.close()["trace"]
    finally:
        w.stop()
    calls = snap["stats"]["functions.conjugate_value"][0]
    values = snap["stats"]["functions.PhiFunction.value"][0]
    scoped = snap["extra"]["lower_bilateral.pinched_lower_envelope.conjugate_value_calls"]
    print(f"conjugate_value {calls} (from the pinch {scoped}), PhiFunction.value {values}")
    assert scoped == calls > 0 and values > 1_000_000


def test_exits_nonzero_without_the_program(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-session",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
