#!/usr/bin/env python3
"""Build and run the LEED benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <ycsb-b|ycsb-a-full|chaos-cache> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/leedbench.exe with dune (release profile, shared cache
off so the build reads and writes only inside the checkout), runs it,
and passes its output through. The last line of standard output is the
JSON result; see perfbench/README.md for every metric. Exits non-zero,
without printing a result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "leedbench.exe")
WORKLOADS = ("ycsb-b", "ycsb-a-full", "chaos-cache")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument " + flag)
        opts[flag[2:]] = next(it, None)
    if opts.get("workload") not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    for key in ("seed", "seconds"):
        try:
            int(opts.get(key))
        except (TypeError, ValueError):
            fail("--%s needs a whole number" % key)
    if opts.get("trace") not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return opts


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    opts = parse(sys.argv[1:])
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = run(
            ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/leedbench.exe"],
            BUILD_TIMEOUT_S,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")
    code, out = run(
        [EXE, "--workload", opts["workload"], "--seed", opts["seed"],
         "--seconds", opts["seconds"], "--trace", opts["trace"]],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
