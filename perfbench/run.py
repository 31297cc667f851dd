"""Benchmark of the tailbounds envelope constructions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program runs from ``src`` on
PYTHONPATH, as the test suite does.  Workloads (see ``workloads.py``):
oracle-battery, envelope-search, conjugate-tables, cli-session.

Each run is a closed loop: one client runs one op at a time.  A round is the
workload's op list drawn from (seed, round); each round runs in fresh
workers and starts cold (see ``ColdGuard``).  ``--seconds`` fixes the number
of rounds (see ``ROUND_S``).  Outputs are checked by ``check.py``
after each round, so checking is not timed.  Times are calibrated against
the machine's current speed (see ``speed.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced round on the same inputs and
reports the per-layer metrics of the traced one.  Exits 2 without a result
when the checkout has no ``src/tailbounds``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

from check import classify, pinch_overshoot  # noqa: E402
from layertrace import layer_metrics, merge  # noqa: E402
from speed import calibrated, probe  # noqa: E402
from workloads import BUILDERS, IN_PROCESS, coverage_op, build  # noqa: E402

# Hard stop for every op of a run: 170 s keeps a run at the benchmark's own
# --seconds under 180 s; longer runs get three times their nominal length.
RUN_BUDGET_S = 170.0
SETUP_PROBES = 3       # fresh interpreters timed for setup_s
IMPORTTIME_PROBES = 3  # fresh interpreters run with -X importtime when tracing
MAX_ROUNDS = 20
# Seconds of one round of each workload at the commit that introduced this
# benchmark (2 vCPU, typical machine speed).  --seconds sets the number of
# rounds through these constants, not through measured time, so two commits
# compared at the same --seconds run exactly the same ops.
ROUND_S = {"oracle-battery": 16.0, "envelope-search": 10.0, "conjugate-tables": 9.0,
           "cli-session": 7.0}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ColdCacheError(RuntimeError):
    pass


class ColdGuard:
    """Refuses an op whose inputs its worker has already computed.

    When this benchmark was introduced, tailbounds memoized the Weibull
    log-MGF per lambda for the life of a process, so a warm ``validate
    --dist all`` took 0.88 s against 20.5 s cold.  A benchmark that repeated
    inputs in one worker would time the cache, not the code.
    """

    def __init__(self):
        self.seen: set = set()

    def admit(self, keys) -> None:
        repeated = self.seen.intersection(keys)
        if repeated:
            raise ColdCacheError(f"worker already computed {sorted(map(str, repeated))}")
        self.seen.update(keys)


class Ctx:
    """What every process of one run shares: paths, environment, deadline."""

    def __init__(self, root: str, tmp: str, budget: float = RUN_BUDGET_S):
        self.root, self.tmp = root, tmp
        src = os.path.join(root, "src")
        pp = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pp if pp else ""))
        self.deadline = now() + budget
        self.n_proc = 0

    def errfile(self):
        self.n_proc += 1
        return open(os.path.join(self.tmp, f"proc{self.n_proc}.err"), "w+", encoding="utf-8")

    def watchdog(self, proc) -> threading.Timer:
        t = threading.Timer(max(0.0, self.deadline - now()), proc.kill)
        t.daemon = True
        t.start()
        return t


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A fresh interpreter running ``worker.py``; one request at a time."""

    def __init__(self, ctx: Ctx, trace: bool):
        self.err = ctx.errfile()
        cmd = [sys.executable, os.path.join(HERE, "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True, env=ctx.env, cwd=ctx.root)
        self.timer = ctx.watchdog(self.proc)
        self.guard = ColdGuard()
        self.started = False

    def ready(self) -> "Worker":
        if not self.started:
            self._recv()  # tailbounds imported
            self.started = True
        return self

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.err.seek(0)
            raise WorkerDied(f"worker exited {self.proc.returncode}: {self.err.read()[-2000:]}")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def run(self, op, coverage: bool = False) -> dict:
        self.guard.admit(op.keys)
        return self.request({"id": op.label, "op": op.kind, "args": op.args,
                             "coverage": coverage})

    def close(self) -> dict:
        try:
            return self.request({"op": "exit"})
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.timer.cancel()
        self.err.close()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


def _failed(msg: str) -> dict:
    return {"status": "error", "output": {"error": msg}}


def run_cli(ctx: Ctx, op, trace: bool) -> tuple[dict, float, dict | None]:
    """One CLI op in a fresh process; returns (result, peak RSS in MB, trace)."""
    argv = op.args["argv"]
    side = os.path.join(ctx.tmp, f"cli-{op.label}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--cli", side,
           *(["--trace"] if trace else []), "--", *argv]
    err = ctx.errfile()
    before = probe()
    start = now()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=err, env=ctx.env, cwd=ctx.root)
    timer = ctx.watchdog(proc)
    _, status, usage = os.wait4(proc.pid, 0)
    end = now()
    timer.cancel()
    after = probe()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    err.seek(0)
    stderr = err.read()
    err.close()
    extra = {"slices": [], "raised": [], "trace": None}
    if os.path.exists(side):
        with open(side, encoding="utf-8") as fh:
            extra = json.load(fh)
    result = {"start": start, "end": end, "busy": end - start - sum(extra["slices"]),
              "probe": [before, after], "slices": extra["slices"], "output": {}}
    result.update(cli_outcome(op, code, stderr, extra["raised"]))
    return result, usage.ru_maxrss / 1024.0, extra["trace"]


def cli_outcome(op, code: int, stderr: str, raised: list) -> dict:
    """Status of a CLI op from its exit code and the exceptions it raised.

    As in the in-process ops, only a typed refusal (``NotCertifiedError``) of
    an op that asks for an envelope is a refusal; ``validate``, like the
    in-process op, must exit 0.
    """
    if code == 0:
        return {"status": "ok"}
    if (code == 2 and op.envelope and op.args["argv"][0] != "validate"
            and raised and raised[-1]["refusal"]):
        return {"status": "refused", "output": {"refusal": stderr.strip()}}
    kind = f" ({raised[-1]['type']})" if raised else ""
    return {"status": "error", "output": {"error": f"exit {code}{kind}: {stderr[-2000:]}"}}


def run_round(ctx: Ctx, workload: str, ops: list, trace: bool) -> dict:
    """Run one op list; returns per-op results, wall time, peak RSS and trace."""
    results, rss, snaps = [], [0.0], []

    def finish(worker: Worker) -> None:
        try:
            bye = worker.close()
        except (WorkerDied, OSError):
            return  # its ops already failed
        rss.append(bye["maxrss_mb"])
        if bye["trace"]:
            snaps.append(bye["trace"])

    if workload == "cli-session":
        for op in ops:
            if now() >= ctx.deadline:
                results.append(_failed("run deadline reached"))
                continue
            res, peak, snap = run_cli(ctx, op, trace)
            results.append(res)
            rss.append(peak)
            if snap:
                snaps.append(snap)
    else:
        # in-process workloads share one worker; oracle-battery starts a fresh
        # one for each op
        started = []
        try:
            shared = Worker(ctx, trace) if workload in IN_PROCESS else None
            started += [shared] if shared else []
            for op in ops:
                w = shared or Worker(ctx, trace)
                if w is not shared:
                    started.append(w)
                try:
                    results.append(w.ready().run(op))
                except (WorkerDied, OSError) as exc:
                    results.append(_failed(str(exc)))
                if w is not shared:
                    finish(w)
            if shared:
                finish(shared)
        finally:
            for w in started:
                w.stop()
    # the round's wall time is its ops back to back, calibrated: first op
    # start to last op end without the calibration work between ops
    wall = sum(latency(r) for r in results)
    return {"ops": ops, "results": results, "wall": wall, "rss": max(rss), "snaps": snaps}


def latency(result: dict) -> float:
    """Calibrated seconds of one op; 0 for an op that never started."""
    if "start" not in result:
        return 0.0
    return calibrated(result["busy"], result["probe"], result.get("slices", ()))


def check_round(rnd: dict) -> list[tuple]:
    """Classify every op of a round: (op, outcome, slack points, reason, latency)."""
    out = []
    for op, res in zip(rnd["ops"], rnd["results"]):
        outcome, pts, why = classify(op, res)
        out.append((op, outcome, pts, why, latency(res)))
    return out


def probe_import(ctx: Ctx) -> float:
    """Calibrated seconds of a cold ``import tailbounds`` in a fresh interpreter."""
    before = probe()
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--import"],
                         env=ctx.env, cwd=ctx.root, capture_output=True, text=True,
                         timeout=60, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return calibrated(res["seconds"], [before, probe()], res["slices"])


def probe_importtime(ctx: Ctx) -> dict:
    """Cumulative import seconds of tailbounds and scipy.integrate (-X importtime)."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tailbounds"],
                         env=ctx.env, cwd=ctx.root, capture_output=True, text=True,
                         timeout=60, check=True)
    found = {"tailbounds": 0.0, "scipy.integrate": 0.0}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


def median(xs) -> float:
    return float(statistics.median(xs))


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, min(MAX_ROUNDS, round(seconds / ROUND_S[workload])))


def measure(ctx: Ctx, workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    n_rounds = rounds_for(workload, seconds)
    # setup probes bracket the rounds so that they sample the same machine
    # conditions as the ops
    setup = [probe_import(ctx) for _ in range(SETUP_PROBES // 2)]
    rounds, checked = [], []
    for r in range(n_rounds):
        ops = build(workload, seed, r, os.path.join(ctx.tmp, f"round{r}"))
        rnd = run_round(ctx, workload, ops, trace=False)
        rounds.append(rnd)
        checked += check_round(rnd)
    setup += [probe_import(ctx) for _ in range(SETUP_PROBES - len(setup))]
    by_group: dict[str, list] = {}
    for op, _, _, _, lat in checked:
        if lat > 0:
            by_group.setdefault(op.group, []).append(lat)
    slack = [p for _, _, pts, _, _ in checked for p in pts]
    env_ops = [c for c in checked if c[0].envelope]
    failed = sum(1 for c in checked if c[1] == "failed")
    metrics = {
        "wall_s": (median(r["wall"] for r in rounds), "s"),
        "op_p50_s": (median(median(v) for v in by_group.values()), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (max(r["rss"] for r in rounds), "MB"),
        "ok_ratio": (1.0 - failed / len(checked), "ratio"),
        "certified_ratio": (sum(1 for c in env_ops if c[1] == "certified") / len(env_ops),
                            "ratio"),
        # no slack point at all is the loosest outcome, not a crash
        "lower_slack": (median(slack) if slack else math.inf, "ratio"),
    }
    print(f"# {workload}: {n_rounds} round(s) of {len(by_group)} ops, "
          f"{len(slack)} slack points, "
          f"fail_ratio {failed / len(checked):.4g} ({failed} of {len(checked)})")
    return checked, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure_traced(ctx: Ctx, workload: str, seed: int) -> tuple[list, dict, list]:
    starts = [probe_importtime(ctx) for _ in range(IMPORTTIME_PROBES)]
    ops = build(workload, seed, 0, os.path.join(ctx.tmp, "plain"))
    plain = run_round(ctx, workload, ops, trace=False)
    ops = build(workload, seed, 0, os.path.join(ctx.tmp, "traced"))
    traced = run_round(ctx, workload, ops, trace=True)
    checked = check_round(plain) + check_round(traced)
    total = {"stats": {}, "extra": {}}
    for snap in traced["snaps"]:
        merge(total, snap)
    metrics = layer_metrics(total["stats"], total["extra"])
    metrics["startup.import_s"] = {"value": median(s["tailbounds"] for s in starts), "unit": "s"}
    metrics["startup.scipy_integrate_import_s"] = {
        "value": median(s["scipy.integrate"] for s in starts), "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced["wall"] / plain["wall"], "unit": "ratio"}
    metrics["lower_bilateral.pinched_lower_envelope.uncertified_overshoot"] = {
        "value": sum(pinch_overshoot(op, res) for op, res in zip(plain["ops"], plain["results"])),
        "unit": "count"}
    # coverage: no call to a wrapped function may bypass its wrapper
    op = coverage_op(workload, seed, os.path.join(ctx.tmp, "coverage"))
    os.makedirs(os.path.join(ctx.tmp, "coverage"), exist_ok=True)
    w = Worker(ctx, trace=True)
    try:
        problems = w.ready().run(op, coverage=True)["coverage"]
        w.close()
    finally:
        w.stop()
    print(f"# {workload} traced: coverage {'ok' if not problems else problems}")
    return checked, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tailbounds", "__init__.py")):
        print("perfbench: run from a tailbounds checkout (no src/tailbounds here)",
              file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        rounds = 2 if args.trace else rounds_for(args.workload, args.seconds)
        ctx = Ctx(root, tmp, max(RUN_BUDGET_S, 3.0 * rounds * ROUND_S[args.workload]))
        problems: list = []
        if args.trace:
            checked, metrics, problems = measure_traced(ctx, args.workload, args.seed)
        else:
            checked, metrics = measure(ctx, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    failed = [c for c in checked if c[1] == "failed"]
    for op, _, _, why, _ in failed:
        print(f"# FAILED {op.label}: {why}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed and not problems, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
