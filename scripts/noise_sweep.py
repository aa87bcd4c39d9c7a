#!/usr/bin/env python3
"""Sweep sensor noise level and report normal RMSE / radius error.

Simulates the bearing-ball scene at each Gaussian read-noise sigma
(fraction of full scale), reconstructs with the exact-Fresnel DoP model,
and prints one row per noise level. Useful for checking how accuracy
degrades between the acceptance points sigma = 0 and sigma = 0.5%.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from poldefl import pipeline
from poldefl.manifest import bearing_ball_manifest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigmas", type=float, nargs="+",
                    default=[0.0, 0.0025, 0.005, 0.01])
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None,
                    help="keep artifacts here (default: a temporary directory removed on exit)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="noise_sweep_") as tmp:
        root = Path(args.out or tmp)
        print(f"{'sigma':>8}  {'normal RMSE [deg]':>18}  {'radius err [um]':>16}  {'ok pixels':>10}")
        for sigma in args.sigmas:
            case = root / f"sigma_{sigma:g}"
            doc = bearing_ball_manifest(size=args.size, sigma=sigma, seed=args.seed,
                                        dop_model="exact")
            pipeline.simulate(doc, case)
            rec = pipeline.reconstruct(case, "multi")
            ev = pipeline.evaluate(case / "solution", case / "truth")
            r = ev["report"]
            print(f"{sigma:>8g}  {r.normal_rmse_deg:>18.4f}  {r.radius_error_um:>16.2f}  "
                  f"{rec['stats']['counts']['ok']:>10}")
    if args.out:
        print(f"\nartifacts in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
