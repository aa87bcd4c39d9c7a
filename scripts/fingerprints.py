#!/usr/bin/env python3
"""Output fingerprints of four small scenes, run end to end.

Each scene is simulated, reconstructed and evaluated in a temporary
directory. Its fingerprint holds the status counts, the sha256 of
`solution/status.pfm` and of each `truth/*.pfm`, one sha256 over all
frame rasters in index order, and the normal and depth RMSE. The scene
named by BASELINE_SCENE is reconstructed with the orthographic baseline
on and also stores the sha256 of `solution/orthographic_best.pfm`.
`tests/test_fingerprints.py` recomputes them and compares with the stored
file: the hashes must match exactly, the two RMSEs within REL_TOL.

    python3 scripts/fingerprints.py          # rewrite tests/fingerprints.json
    python3 scripts/fingerprints.py --check  # compare only; exit 1 on a change

Rewrite the file only for a change that is meant to move the outputs, and
say why in the commit.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from poldefl import pipeline
from poldefl.manifest import bearing_ball_manifest, qualitative_heightfield_manifest
from poldefl.simulator import CHANNEL_NAMES

FILE = Path(__file__).resolve().parents[1] / "tests" / "fingerprints.json"
REL_TOL = 1e-9  # on normal_rmse_deg and depth_rmse_mm
BASELINE_SCENE = "ball-multi-noise-64"


def _dielectric_ball():
    doc = bearing_ball_manifest(size=64, dop_model="eq5")
    doc["material"] = {"m": 1.5}
    return doc


# name -> (manifest builder, reconstruct mode)
SCENES = {
    "ball-multi-noise-64": (
        lambda: bearing_ball_manifest(size=64, sigma=0.005, seed=7, dop_model="exact"), "multi"),
    # the smallest single-shot ball with OK pixels (at 64^2 none decode)
    "ball-single-96": (lambda: bearing_ball_manifest(size=96, mode="single"), "single"),
    "horse-48": (lambda: qualitative_heightfield_manifest("horse", size=48), "multi"),
    "ball-dielectric-eq5-64": (_dielectric_ball, "multi"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(doc: dict, mode: str, root: Path, with_baseline: bool = False) -> dict:
    pipeline.simulate(doc, root)
    pipeline.reconstruct(root, mode, with_baseline=with_baseline)
    report = pipeline.evaluate(root / "solution", root / "truth")["report"]
    frames = hashlib.sha256()
    for entry in json.loads((root / "frames" / "frames.json").read_text()):
        for name in CHANNEL_NAMES:
            frames.update((root / entry["files"][name]).read_bytes())
    out = {
        "status_counts": report.status_counts,
        "status_sha256": _sha256(root / "solution" / "status.pfm"),
        "truth_sha256": {p.name: _sha256(p) for p in sorted((root / "truth").glob("*.pfm"))},
        "frames_sha256": frames.hexdigest(),
        "normal_rmse_deg": report.normal_rmse_deg,
        "depth_rmse_mm": report.depth_rmse_mm,
    }
    if with_baseline:
        out["baseline_sha256"] = _sha256(root / "solution" / "orthographic_best.pfm")
    return out


def compute() -> dict:
    with tempfile.TemporaryDirectory(prefix="fingerprints_") as tmp:
        scenes = {name: fingerprint(build(), mode, Path(tmp) / name,
                                    with_baseline=name == BASELINE_SCENE)
                  for name, (build, mode) in SCENES.items()}
    return {"rel_tol": REL_TOL, "scenes": scenes}


def differences(stored: dict, fresh: dict) -> list[str]:
    """Fields of `fresh` that differ from `stored`, as 'scene.field' lines."""
    out = []
    for name in sorted(stored["scenes"].keys() | fresh["scenes"].keys()):
        a, b = stored["scenes"].get(name, {}), fresh["scenes"].get(name, {})
        for key in sorted(a.keys() | b.keys()):
            x, y = a.get(key), b.get(key)
            if key.endswith(("_deg", "_mm")) and x is not None and y is not None:
                same = abs(x - y) <= stored["rel_tol"] * abs(x)
            else:
                same = x == y
            if not same:
                out.append(f"{name}.{key}: stored {x!r}, now {y!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the stored file instead of rewriting it")
    args = ap.parse_args(argv)
    fresh = compute()
    if args.check:
        diff = differences(json.loads(FILE.read_text()), fresh)
        print("\n".join(diff) or "fingerprints match")
        return 1 if diff else 0
    FILE.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
