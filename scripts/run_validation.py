#!/usr/bin/env python3
"""Run the full oracle validation battery and summarize it.

Writes one normalized JSON report per reference law under --out-dir and
prints a per-check pass/fail table.  Exit status 0 only if every check of
every law passes.
"""

import argparse
import json
import pathlib
import sys

from tailbounds import cli, oracles


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="validation_reports")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--mc-samples", type=int, default=200_000)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name in oracles.suite():
        path = out_dir / f"{name}.json"
        code = cli.main([
            "validate", "--dist", name, "--seed", str(args.seed),
            "--mc-samples", str(args.mc_samples),
            "--normalize", "--out", str(path),
        ])
        report = json.loads(path.read_text())
        for check, payload in report["results"][name].items():
            mark = "ok  " if payload["pass"] else "FAIL"
            print(f"{mark} {name:12s} {check}")
        if code != 0:
            failures += 1
    print("all reports in", out_dir)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
