"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 perfbench/rep.py '<json job>'

The job names the workload, seed, scene size, work directory, result
file, launch time, whether to trace, and whether to stop after set-up
(a set-up sample: no command runs). The repetition builds the
workload's manifest, writes it to disk, then runs `simulate`,
`reconstruct` and `evaluate` in sequence through `poldefl.cli.main`,
timing each command. It then checks the outputs, records their digests
and the bytes on disk, deletes the run directory and writes one JSON
result. Exit code 0 means the repetition ran to the end (its commands
may still have failed); anything else is a harness error.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

USABLE_STATUSES = ("OK", "BOTH_FEASIBLE", "SATURATED_DOP")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_simulate(run: Path, spec: dict, doc: dict) -> dict:
    index = json.loads((run / "frames" / "frames.json").read_text())
    errors = []
    if len(index) != spec["frames"]:
        errors.append(f"simulate wrote {len(index)} frames, expected {spec['frames']}")
    for name in ("depth", "normal", "mask"):
        if not (run / "truth" / f"{name}.pfm").is_file():
            errors.append(f"simulate wrote no truth/{name}.pfm")
    record = json.loads((run / "run_record.json").read_text())
    return {"errors": errors, "digests": record["outputs"]}


def _check_reconstruct(run: Path, spec: dict, doc: dict) -> dict:
    """The no-silent-fill invariant: unusable pixels carry zero depth and
    normal; usable ones a finite depth inside the working interval."""
    import numpy as np
    from poldefl.pfmio import read_pfm
    from poldefl.reconstruct import Status

    sol = run / "solution"
    status = read_pfm(sol / "status.pfm").astype(np.int16)
    depth = read_pfm(sol / "depth.pfm")
    normal = read_pfm(sol / "normal.pfm")
    usable = np.isin(status, [int(Status[s]) for s in USABLE_STATUSES])
    s_min = doc["working_distance"]["s_min"]
    s_max = doc["working_distance"]["s_max"]
    errors = []
    filled = int(np.sum(~usable & ((depth != 0) | np.any(normal != 0, axis=-1))))
    if filled:
        errors.append(f"{filled} unusable pixels carry a depth or normal")
    d = depth[usable]
    # depth.pfm stores float32, so compare against the float32 interval
    bad = int(np.sum(~np.isfinite(d) | (d < np.float32(s_min)) | (d > np.float32(s_max))))
    if bad:
        errors.append(f"{bad} usable pixels have a depth outside [{s_min}, {s_max}]")
    record = json.loads((sol / "run_record_reconstruct.json").read_text())
    return {"errors": errors, "digests": record["outputs"]}


def _check_evaluate(run: Path, spec: dict, doc: dict) -> dict:
    sol = run / "solution"
    report = json.loads((sol / "report.json").read_text())
    accuracy = {
        "normal_rmse_deg": report["normal_rmse_deg"],
        "depth_rmse_mm": report["depth_rmse_mm"],
        "ok_pixels": report["status_counts"]["ok"],
        "radius_error_um": report["radius_error_um"],
    }
    errors = []
    if accuracy["ok_pixels"] <= 0:
        errors.append("no pixel was solved")
    if not accuracy["normal_rmse_deg"] <= spec["max_normal_rmse_deg"]:
        errors.append(f"normal RMSE {accuracy['normal_rmse_deg']} deg exceeds "
                      f"{spec['max_normal_rmse_deg']} deg")
    limit = spec["max_radius_error_um"]
    radius = accuracy["radius_error_um"]
    if limit is not None and (radius is None or not radius <= limit):
        errors.append(f"radius error {accuracy['radius_error_um']} um exceeds {limit} um")
    digests = {p.name: _sha256(p) for p in
               (sol / "report.json", sol / "err_normal_deg.pfm", sol / "err_depth.pfm")}
    return {"errors": errors, "digests": digests, "accuracy": accuracy}


CHECKS = {
    "simulate": _check_simulate,
    "reconstruct": _check_reconstruct,
    "evaluate": _check_evaluate,
}


def main(job: dict) -> dict:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import poldefl.pipeline  # noqa: F401  (set-up includes the pipeline import)
    from poldefl import cli

    spec = WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()

    work = Path(job["work_dir"])
    work.mkdir(parents=True)
    run = work / "run"
    manifest = work / "manifest.json"
    doc = spec["manifest"](job["seed"], job["size"])
    manifest.write_text(json.dumps(doc))

    commands = [
        ("simulate", ["simulate", "--manifest", str(manifest), "--out", str(run)]),
        ("reconstruct", ["reconstruct", str(run), *spec["reconstruct"]]),
        ("evaluate", ["evaluate", str(run / "solution"), str(run / "truth")]),
    ]
    setup_s = time.monotonic() - job["launched"]
    if job["setup_only"]:
        shutil.rmtree(work)
        return {"setup_s": setup_s}
    times = {}
    ok = {name: False for name, _ in commands}
    errors = []
    for name, argv in commands:
        t0 = time.perf_counter()
        try:
            if tracer:
                code = tracer.call(f"cli.{name}", cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a harness error
            code = None
            errors.append(f"{name} raised:\n{traceback.format_exc()}")
        times[name] = time.perf_counter() - t0
        if code != 0:
            errors.append(f"{name} exited with {code}")
            break
        ok[name] = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # snapshot now: the output checks below also call traced functions
    spans = tracer.records() if tracer else None
    counters = dict(tracer.counters) if tracer else None

    digests = {}
    accuracy = None
    for name, check in CHECKS.items():
        if not ok[name]:
            continue
        try:
            out = check(run, spec, doc)
        except (OSError, ValueError, KeyError) as e:
            out = {"errors": [f"{name} outputs could not be read: {e!r}"]}
        digests[name] = out.get("digests")
        accuracy = out.get("accuracy", accuracy)
        if out["errors"]:
            ok[name] = False
            errors.extend(out["errors"])

    bytes_on_disk = sum(p.stat().st_size for p in work.rglob("*") if p.is_file())
    shutil.rmtree(work)

    result = {
        "run_id": job["run_id"],
        "traced": bool(tracer),
        "ok": ok,
        "errors": errors,
        "setup_s": setup_s,
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": accuracy,
        "digests": digests,
        "bytes_on_disk": bytes_on_disk,
    }
    if tracer:
        result["spans"] = spans
        result["counters"] = counters
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    res = main(job)
    Path(job["result_file"]).write_text(json.dumps(res))
