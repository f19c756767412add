"""Tiny-scale self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` at a fiftieth of its trace
scale, untraced and traced, and checks that the result line has the
required keys, is correct, and prints every named metric with its unit.
It also checks that the benchmark refuses to run without the program.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(root, workload, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", "0", "--seconds", "2",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=300, check=False)


def _check_result(spec, workload, trace, done):
    problems = []
    if done.returncode != 0:
        return [f"{workload} --trace {trace}: exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{workload} --trace {trace}: not correct: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{workload}: attempted {result.get('attempted')!r}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in named):
        problems.append(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
    for metric in named:
        got = metrics.get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{workload}: {metric['name']} printed as {got!r}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{workload}: {metric['name']} is {got['value']}")
    return problems


def _check_without_program(spec):
    """A directory with only BENCHMARK.json and perfbench/ must fail."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        return [f"ran without the program: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            done = _run(ROOT, workload["name"], trace)
            problems += _check_result(spec, workload["name"], trace, done)
    problems += _check_without_program(spec)
    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
