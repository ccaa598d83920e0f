#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <laplace64|implicit3000|serve_open> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr, so the last line
of standard output is the run's JSON result.

An untraced run splits its seconds over several processes of the
benchmark binary (`PROCESSES`), each drawing its own inputs from
`(seed, part)`, and reports each metric's median over them: on a shared
host a process's memory layout and hash seeds move millisecond timings
by tens of percent, and a pause of the host can stall one process's
requests for tens of milliseconds; the median over processes is what
repeats. A traced run is one process; it also writes its spans as CSV
under `<target dir>/perfbench-spans/`.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Processes per untraced run. implicit3000 runs one: a single pass of
# its solves already outlasts the run's seconds, and bandwidth-bound
# kernels barely feel layout.
PROCESSES = {"laplace64": 3, "implicit3000": 1, "serve_open": 5}


def flag(args, name):
    """Value following `name` in `args`, or None."""
    for a, b in zip(args, args[1:]):
        if a == name:
            return b
    return None


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")

    args = sys.argv[1:]
    workload, seconds = flag(args, "--workload"), flag(args, "--seconds")
    if flag(args, "--trace") == "1" or workload not in PROCESSES or seconds is None:
        if flag(args, "--trace") == "1" and "--spans-out" not in args:
            name = f"{workload}-seed{flag(args, '--seed')}.csv"
            args += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
        return subprocess.run([binary] + args, env=env).returncode

    procs = PROCESSES[workload]
    child_args = list(args)
    i = child_args.index("--seconds") + 1
    child_args[i] = str(float(seconds) / procs)
    results = []
    for part in range(procs):
        out = subprocess.run([binary] + child_args + ["--part", str(part)],
                             env=env, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return out.returncode
        lines = out.stdout.rstrip("\n").split("\n")
        print(f"--- process {part + 1} of {procs} ---")
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    print(f"--- median over {procs} processes ---")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>18.9f} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
