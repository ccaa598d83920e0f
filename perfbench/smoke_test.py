#!/usr/bin/env python3
"""The benchmark's own smoke test, at tiny problem sizes.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload, traced and untraced,
it asserts that every metric named in BENCHMARK.json is printed with its
unit and lands in the JSON result with that unit, and that all answers
verified. It then corrupts one solution and asserts that the failure is
counted in `failed`, `fail_rate` and `correct`.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, f"{cmd} exited {out.returncode}"
    lines = out.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def printed(lines, name, unit):
    return any(l.split()[:1] == [name] and unit in l.split()[2:3] for l in lines)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run(w["name"], trace)
            names = {m["name"]: m["unit"] for m in bench[section]}
            assert set(result["metrics"]) == set(names), (
                w["name"], trace, set(result["metrics"]) ^ set(names))
            for name, unit in names.items():
                m = result["metrics"][name]
                assert m["unit"] == unit, (name, m["unit"], unit)
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
                assert printed(text, name, unit), f"{name} not printed with unit {unit}"
            if trace == 0:
                assert printed(text, "fail_rate", "fraction"), "fail_rate not printed"
            assert result["correct"] and result["failed"] == 0, (w["name"], trace, result)
            assert result["attempted"] >= 1
            print(f"ok  {w['name']:<14} trace {trace}: {len(names)} metrics, "
                  f"{result['attempted']} answers verified")

    text, result = run("laplace64", 0, "--corrupt")
    rates = [float(l.split()[1]) for l in text if l.split()[:1] == ["fail_rate"]]
    assert result["failed"] >= 1 and not result["correct"], result
    assert rates and all(r > 0 for r in rates), rates
    print(f"ok  corrupted solution counted: failed {result['failed']} of {result['attempted']}")


if __name__ == "__main__":
    main()
