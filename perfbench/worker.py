"""Benchmark child processes; ``src`` must be on PYTHONPATH.

    python perfbench/worker.py [--trace]
        A worker: imports ``tailbounds``, then reads one JSON request per
        line on stdin and answers one JSON line per request on stdout.
    python perfbench/worker.py --cli OUT [--trace] -- ARGS...
        One CLI op: calls ``tailbounds.cli.main(ARGS)`` in a fresh
        interpreter, which is what ``python -m tailbounds.cli ARGS`` does,
        and exits with its code.  It writes to OUT its calibration slices,
        the type of any exception a subcommand raised (``cli.main`` turns
        every package error into exit code 2 and an ``error:`` line, so the
        exit code alone cannot tell a typed refusal from another failure),
        and with --trace its layer counters.
    python perfbench/worker.py --import
        A set-up probe: times a cold ``import tailbounds``.

Every op and import is timed with the machine's speed during it
(``speed.py``); the calibration work is not part of the op's time.  Only
``speed`` is imported before the timed part, and it imports no numpy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from speed import Sampler, probe


def _now() -> float:
    # CLOCK_MONOTONIC is shared by every process on the machine
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(trace: bool) -> None:
    # the protocol owns the real stdout; stray prints go to stderr
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")

    import tailbounds  # noqa: F401
    from layertrace import Tracer
    from ops import OPS, REFUSALS

    tracer = Tracer()
    if trace:
        tracer.install()
    sampler = Sampler()
    send({"ready": True})
    for line in iter(sys.stdin.readline, ""):
        req = json.loads(line)
        if req["op"] == "exit":
            send({"maxrss_mb": _maxrss_mb(), "trace": tracer.snapshot() if trace else None})
            return
        fn = OPS[req["op"]]
        if req.get("coverage"):
            try:
                problems = tracer.coverage(lambda: fn(req["args"]))
            except Exception:
                problems = [traceback.format_exc()]
            send({"id": req["id"], "coverage": problems})
            continue
        before = probe()
        with sampler:
            start = _now()
            try:
                out = fn(req["args"])
                status = "ok"
            except REFUSALS as exc:
                out, status = {"refusal": f"{type(exc).__name__}: {exc}"}, "refused"
            except Exception:
                out, status = {"error": traceback.format_exc()}, "error"
            end = _now()
        send({"id": req["id"], "status": status, "start": start, "end": end,
              "busy": end - start - sum(sampler.slices), "probe": [before, probe()],
              "slices": sampler.slices, "output": out})


def _record_raised(cli_module, raised: list) -> None:
    """Rebind every ``cmd_*`` subcommand so that an exception escaping it is
    recorded (type name, and whether it is a typed refusal) before
    ``cli.main`` handles it."""
    from ops import REFUSALS

    for name, fn in list(vars(cli_module).items()):
        if name.startswith("cmd_") and callable(fn):
            def recorded(args, fn=fn):
                try:
                    return fn(args)
                except Exception as exc:
                    raised.append({"type": type(exc).__name__,
                                   "refusal": isinstance(exc, REFUSALS)})
                    raise
            setattr(cli_module, name, recorded)


def cli(out: str, trace: bool, argv: list[str]) -> int:
    sampler = Sampler()
    tracer = None
    raised: list = []
    with sampler:
        from tailbounds import cli as cli_module

        if trace:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        _record_raised(cli_module, raised)
        code = cli_module.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"slices": sampler.slices, "raised": raised,
                   "trace": tracer.snapshot() if tracer else None}, fh)
    return code


def timed_import() -> None:
    sampler = Sampler()
    with sampler:
        t0 = time.perf_counter()
        import tailbounds  # noqa: F401

        seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds - sum(sampler.slices), "slices": sampler.slices}))


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--cli"]:
        sep = args.index("--")
        sys.exit(cli(args[1], "--trace" in args[2:sep], args[sep + 1:]))
    elif args[:1] == ["--import"]:
        timed_import()
    else:
        serve(trace="--trace" in args)
