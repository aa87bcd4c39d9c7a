"""poldefl benchmark: three fixed scenes through the real commands.

    python3 perfbench/run.py --workload ball-multi-noise-512 --seed 1 \
        --seconds 40 --trace 0

Run from the root of a poldefl checkout. The loop is closed: one
repetition after another, each in a fresh Python process (rep.py) that
runs `simulate`, `reconstruct` and `evaluate` through `poldefl.cli.main`,
until the next repetition would end after --seconds (with a minimum
count). Nothing else runs beside it.

--trace 0 reports the end-to-end metrics as medians over repetitions;
setup_s is the median of at least MIN_SETUPS set-ups, topped up with
set-up-only processes when the run had fewer repetitions.
--trace 1 alternates untraced and traced repetitions; the traced ones
wrap the pipeline's public functions (spans.py) and give the per-layer
metrics, and the difference of the two medians of total_s is the
tracing overhead.

Every repetition's outputs are checked (accuracy limits, the
no-silent-fill invariant, and digests that must match across the
repetitions of the run); a command that exits non-zero or fails a check
counts as a failed operation. The last line of standard output is one
JSON object; the environment, every repetition and (traced) every span
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics, nesting_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = HERE / "out"
COMMANDS = ("simulate", "reconstruct", "evaluate")
# A run measures at least this many repetitions (untraced) or pairs of
# untraced and traced repetitions, so every median has several samples.
MIN_REPS = 4
MIN_PAIRS = 2
# setup_s is a median over at least this many set-ups; runs with fewer
# repetitions add set-up-only processes after the measured loop.
MIN_SETUPS = 9
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "reconstruct_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "normal_rmse_deg": "deg",
    "depth_rmse_mm": "mm",
    "ok_pixels": "count",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    if name == "pfmio.bytes_written":
        return "bytes"
    return "count"


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "git_commit": _git_commit(root),
    }


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def run_rep(args, work: Path, index: int, traced: bool, setup_only: bool = False) -> dict:
    suffix = "-traced" if traced else "-setup" if setup_only else ""
    run_id = f"{args.workload}-s{args.seed}-r{index}{suffix}"
    result_file = work / f"{run_id}.json"
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": traced,
        "setup_only": setup_only,
        "run_id": run_id,
        "work_dir": str(work / run_id),
        "result_file": str(result_file),
    }
    job["launched"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise HarnessError(f"{run_id} did not finish within {REP_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise HarnessError(f"{run_id} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_file.read_text())
    result_file.unlink()
    return result


def check_determinism(reps: list[dict]):
    """Outputs must be bit-identical across the repetitions of one run; a
    command whose digests differ from the first repetition's fails."""
    reference = {}
    for rep in reps:
        for cmd, digests in rep["digests"].items():
            if digests is None:
                continue
            reference.setdefault(cmd, digests)
            if digests != reference[cmd]:
                rep["ok"][cmd] = False
                rep["errors"].append(f"{cmd} outputs differ from the first repetition's")


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    """Medians over repetitions (setup_s over all set-up samples); a metric
    no repetition produced (every one failed before it) is left out."""
    complete = [r for r in reps if len(r["times"]) == len(COMMANDS)]
    accuracy = [r["accuracy"] for r in reps if r["accuracy"]]
    samples = {
        "setup_s": setups,
        "simulate_s": [r["times"]["simulate"] for r in complete],
        "reconstruct_s": [r["times"]["reconstruct"] for r in complete],
        "total_s": [sum(r["times"].values()) for r in complete],
        "peak_rss_mb": [r["peak_rss_mb"] for r in complete],
        **{k: [a[k] for a in accuracy] for k in ("normal_rmse_deg", "depth_rmse_mm", "ok_pixels")},
    }
    return {k: statistics.median(v) for k, v in samples.items() if v}


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced repetitions' layer metrics. The self times of
    each repetition's spans must add up to its traced wall time, timed
    around the three commands independently of the spans."""
    errors = []
    rows = []
    for rep in traced:
        errors += [f"{rep['run_id']}: {e}" for e in nesting_errors(rep["spans"])]
        row = layer_metrics(rep["spans"], rep["counters"])
        row["trace.wall_s"] = sum(rep["times"].values())
        if abs(row["trace.self_sum_s"] - row["trace.wall_s"]) > 0.01 * row["trace.wall_s"]:
            errors.append(f"{rep['run_id']}: span self times add up to "
                          f"{row['trace.self_sum_s']} s, not the wall time {row['trace.wall_s']} s")
        rows.append(row)
    values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    total = lambda reps: statistics.median(sum(r["times"].values()) for r in reps)
    values["trace.overhead_s"] = values["trace.wall_s"] - total(untraced)
    return values, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", type=int, default=512,
                   help="scene size in pixels (selftest.py uses a tiny one)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "poldefl" / "cli.py").is_file():
        print(f"error: {root} is not a poldefl checkout (no src/poldefl/cli.py)",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(root)
    print(json.dumps({"environment": env}))

    reps = []
    t0 = time.monotonic()
    units = 0
    try:
        while True:
            for traced in ((False, True) if args.trace else (False,)):
                rep = run_rep(args, work, len(reps), traced)
                reps.append(rep)
                print(f"{rep['run_id']}: setup {rep['setup_s']:.3f} s, "
                      + ", ".join(f"{k} {v:.3f} s" for k, v in rep["times"].items())
                      + f", peak RSS {rep['peak_rss_mb']:.0f} MB, accuracy {rep['accuracy']}",
                      flush=True)
            units += 1
            elapsed = time.monotonic() - t0
            if (units >= (MIN_PAIRS if args.trace else MIN_REPS)
                    and elapsed * (units + 1) / units > args.seconds):
                break
        setups = [r["setup_s"] for r in reps]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(run_rep(args, work, len(setups), False, setup_only=True)["setup_s"])
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_determinism(reps)
    errors = [f"{r['run_id']}: {e}" for r in reps for e in r["errors"]]
    failed = sum(not ok for r in reps for ok in r["ok"].values())
    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        values, trace_errors = per_layer(traced, untraced)
        errors += trace_errors
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        spans_file = OUT / f"spans-{tag}.jsonl"
        with open(spans_file, "w") as f:
            for rep in traced:
                for sp in rep["spans"]:
                    f.write(json.dumps(sp) + "\n")
    else:
        values = end_to_end(untraced, setups)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in values}

    for rep in reps:
        rep.pop("spans", None)
    record = {"environment": env, "args": vars(args), "measured_s": time.monotonic() - t0,
              "errors": errors, "repetitions": reps, "setup_samples_s": setups,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": len(COMMANDS) * len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
