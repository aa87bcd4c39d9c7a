"""Command-line front end.

Subcommands: simulate, reconstruct, evaluate, reproduce. Exit codes:
0 success, 2 configuration error (bad manifest/arguments), 3 data error
(missing, inconsistent or unusable inputs: no solved pixel, none to score).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .manifest import ManifestError, load_manifest
from .metrics import MetricError
from .pfmio import IOFormatError


EXIT_CONFIG = 2
EXIT_DATA = 3


def _default_out_root() -> str:
    return os.environ.get("POLDEFL_OUT", "poldefl_out")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="poldefl",
        description="Polarimetric deflectometry simulator and reconstructor",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a scene manifest to disk")
    sim.add_argument("--manifest", required=True, help="scene manifest JSON path")
    sim.add_argument("--out", default=None, help="output directory")

    rec = sub.add_parser("reconstruct", help="decode and fuse a simulated capture")
    rec.add_argument("input", help="simulate output directory")
    rec.add_argument("--mode", choices=["multi", "single"], required=True)
    rec.add_argument("--out", default=None)
    rec.add_argument("--strict-dop", action="store_true",
                     help="invalidate DoP-saturated pixels instead of clamping")
    rec.add_argument("--model", choices=["eq5", "eq6", "exact-fresnel"], default=None,
                     help="DoP model used for inversion (default: scene manifest)")
    rec.add_argument("--baseline", action="store_true",
                     help="also emit the orthographic SfP baseline maps")

    ev = sub.add_parser("evaluate", help="compare a solution against ground truth")
    ev.add_argument("solution", help="solution directory")
    ev.add_argument("truth", help="ground-truth directory")
    ev.add_argument("--out", default=None)

    rep = sub.add_parser("reproduce", help="run the full experiment set")
    rep.add_argument("--out", default=None)
    rep.add_argument("--size", type=int, default=512,
                     help="sensor resolution for the bearing-ball cases")
    rep.add_argument("--heightfield-size", type=int, default=192,
                     help="sensor resolution for the qualitative heightfield cases")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import pipeline

    try:
        if args.command == "simulate":
            doc = load_manifest(args.manifest)
            out = args.out or doc.get("output_dir") or Path(_default_out_root()) / "simulate"
            res = pipeline.simulate(doc, out)
            print(f"simulated {res['frames']} frames -> {res['out']}")
        elif args.command == "reconstruct":
            model = {"exact-fresnel": "exact"}.get(args.model, args.model)
            res = pipeline.reconstruct(
                args.input, args.mode, args.out,
                strict_dop=args.strict_dop, dop_model=model,
                with_baseline=args.baseline,
            )
            stats = res["stats"]
            print(f"reconstructed -> {res['out']} "
                  f"(ok fraction {stats['ok_fraction']:.3f})")
        elif args.command == "evaluate":
            res = pipeline.evaluate(args.solution, args.truth, args.out)
            r = res["report"]
            print(f"normal RMSE {r.normal_rmse_deg:.4f} deg, "
                  f"depth RMSE {r.depth_rmse_mm:.4f} mm")
            if r.radius_error_um is not None:
                print(f"fitted radius {r.sphere_radius_mm:.4f} mm "
                      f"(error {r.radius_error_um:.1f} um)")
        elif args.command == "reproduce":
            out = args.out or Path(_default_out_root()) / "reproduce"
            res = pipeline.reproduce(out, size=args.size,
                                     heightfield_size=args.heightfield_size)
            print(res["table"])
    except ManifestError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (pipeline.DataError, MetricError, IOFormatError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
