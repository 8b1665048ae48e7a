#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-ms691 --seed 1 --seconds 30 --trace 0

The benchmark is the Go program in perfbench/, a module of its own that
uses the repository through a replace directive. This script builds it into
.bench_build/ at the current directory, keeping the Go build cache and
temporary files there too, then replaces itself with the built program,
passing every argument through. The program's last output line is the JSON
result. A failed build exits non-zero without printing a result.

With --workload all it runs every workload of BENCHMARK.json in turn and
ends with one JSON object mapping each workload to its result.
"""

import json
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # Keep the go command's own config and telemetry files in the build
        # directory, and never fetch a toolchain.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=src, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode or 1)
    args = sys.argv[1:]
    if "all" not in args or args[args.index("all") - 1].lstrip("-") != "workload":
        sys.stdout.flush()
        os.execve(binary, [binary] + args, env)

    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    results, ok = {}, True
    for name in names:
        one = [name if a == "all" else a for a in args]
        run = subprocess.run([binary] + one, env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps(results))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
