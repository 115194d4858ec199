"""Set-up probe: what one quantproc invocation pays before its first result.

Imports the package (and whatever the call imports lazily), runs the
workload's smallest job once, and prints "ready".  ``run.py`` times a few of
these fresh interpreters, one at a time, from spawn to that line.

    PYTHONPATH=src python3 perfbench/probe.py <workload>
"""

import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"


def main(workload: str) -> int:
    if workload == "mc-pricing":
        from quantproc import drivers, transforms, valuation
        req = valuation.ValuationRequest(
            drivers.Brownian(), transforms.canonical_map(transforms.TukeyG(0.0, 1.0, 0.4)),
            valuation.Layer(0.5, 2.0), 0.0, 1.0, 0.03, valuation.MCSettings(1_000, 1))
        valuation.qpvp_price(req)
    elif workload == "density-dominance":
        from quantproc import dominance, transforms
        dominance.crossing_report(transforms.TukeyGH(0.0, 1.0, 2.0, 0.4),
                                  transforms.TukeyGH(0.0, 1.0, 0.8, 0.05))
    elif workload == "levy-marginals":
        from quantproc import drivers
        drivers.VarianceGamma(-0.1, 0.3, 0.4).marginal_cdf(1.0, [-0.5, 0.0, 0.5])
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
