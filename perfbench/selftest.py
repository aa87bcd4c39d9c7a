"""Fast self-check of the benchmark harness on tiny scenes.

    python3 perfbench/selftest.py

Run from the root of a poldefl checkout. Every workload runs at 96x96
pixels, untraced and traced. The check asserts that the last output line
is the result object and that it holds every metric BENCHMARK.json names,
in the same unit. For the traced runs it also asserts that the span self
times add up to the traced wall time. Finally it asserts that the
benchmark refuses to run, without a result, in a directory that holds
only the benchmark. The accuracy limits apply to the 512x512 scenes
only, so `correct` is printed here but not asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZE = 96
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int, size: int = SIZE):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", str(size)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(proc, expected: list[dict], label: str) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    for m in expected:
        assert m["name"] in metrics, f"{label}: metric {m['name']} missing"
        assert metrics[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    extra = set(metrics) - {m["name"] for m in expected}
    assert not extra, f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}"
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{w} trace {trace}"
            result = check_result(run(ROOT, w, trace), expected, label)
            if trace:
                m = result["metrics"]
                wall, self_sum = m["trace.wall_s"]["value"], m["trace.self_sum_s"]["value"]
                assert abs(wall - self_sum) <= 0.01 * wall, f"{label}: {self_sum} != {wall}"
            print(f"ok  {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert proc.returncode != 0 and not last.startswith("{"), "ran outside a checkout"
    print("ok  refuses to run outside a poldefl checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
