#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (inside the checkout, with the
shared dune cache off), runs it with the same arguments, and passes its
output through.  The last line of standard output is the result object.
The run fails (non-zero exit, no result) when the checkout cannot be
built, when the program's metric names or units differ from the lists in
BENCHMARK.json, or when a correctness check fails.
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def git_rev(env):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv):
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a dct checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled",
               GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed")
    try:
        run = subprocess.run([EXE] + argv + ["--git-rev", git_rev(env)], env=env,
                             capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return fail("run failed (exit %d)" % run.returncode)
    # The program's metric names and units must be the declared ones.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    expected = {m["name"]: m["unit"]
                for m in declared["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail("metrics differ from BENCHMARK.json: %s"
                    % sorted(set(got.items()) ^ set(expected.items())))
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
