#!/usr/bin/env python3
"""Sweep the envelope machinery over its tuning knobs for one family.

For the subgaussian reference this produces:
  * the one-sided chain dilation a(eps) over an eps grid,
  * the pinched-envelope constant c(delta) over a delta grid, plus the
    non-asserted tightening-rate diagnostic,
  * the exact-MGF sandwich constant c2 over widening x ranges,
and writes everything to a CSV for plotting.
"""

import argparse
import csv
import math
import sys

import numpy as np

from tailbounds import (
    PhiFunction,
    TailboundsError,
    exact_mgf_sandwich,
    m_surrogate_from_upper,
    pinch_rate_diagnostic,
    pinched_lower_envelope,
    unilateral_lower_envelope,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="envelope_sweep.csv")
    ap.add_argument("--coeff", type=float, default=0.5,
                    help="quadratic exponent coefficient")
    args = ap.parse_args()

    phi = PhiFunction.quadratic(coeff=args.coeff, lo=0.0)
    rows = []

    xs = np.linspace(1.0, 8.0, 15)
    for eps in (0.05, 0.1, 0.2, 0.3, 0.5):
        m_bound = m_surrogate_from_upper(phi, eps)
        _, cert = unilateral_lower_envelope(phi, eps, m_bound, xs)
        rows.append({"sweep": "one-sided", "knob": eps,
                     "value": cert.dilation,
                     "extra": f"c1={cert.c1:.4f},c2={cert.c2:.4f},M={m_bound:.4f}"})
        print(f"eps={eps}: dilation a={cert.dilation:.4f}")

    zs = np.linspace(math.e, 8.0, 8)
    deltas = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45)
    for delta in deltas:
        try:
            _, cert = pinched_lower_envelope(phi, delta, zs)
        except TailboundsError as exc:  # report, keep sweeping
            print(f"delta={delta}: {exc}")
            continue
        rows.append({"sweep": "pinched", "knob": delta, "value": cert.c,
                     "extra": f"certified_from={cert.certified_from:.1f}"})
        print(f"delta={delta}: c={cert.c:.3f} certified from z={cert.certified_from:.1f}")

    diag = pinch_rate_diagnostic(phi, deltas, 6.0)
    rows.append({"sweep": "pinch-rate", "knob": 6.0, "value": diag["rate"],
                 "extra": f"gaps={['%.3f' % g for g in diag['gaps']]}"})
    print(f"tightening-rate diagnostic at z=6: {diag['rate']:.3f} "
          "(reported, not asserted)")

    for hi in (6.0, 8.0, 12.0):
        xr = np.linspace(2.0, hi, 13)
        _, _, c2 = exact_mgf_sandwich(phi, xr)
        rows.append({"sweep": "exact-mgf", "knob": hi, "value": c2, "extra": ""})
        print(f"x range [2, {hi}]: sandwich c2={c2:.3f}")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["sweep", "knob", "value", "extra"])
        writer.writeheader()
        writer.writerows(rows)
    print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
