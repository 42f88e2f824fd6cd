"""Smoke test of the benchmark: every workload once, at a tiny size.

    python3 perfbench/smoke.py

For each workload, untraced and traced, it checks that the run exits 0, that
the metric names and units of its last line match BENCHMARK.json and that no
operation failed (error_rate 0).  It then checks that the benchmark refuses
to run, without printing a result, in a copy of the checkout that holds only
BENCHMARK.json and perfbench/.  Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_workload(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    return problems


def check_bare_copy() -> list[str]:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "desk", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["a copy without src/ still ran and printed a result"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_workload(bench, workload, trace)
    problems += check_bare_copy()
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
