#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (and with it the guoq library of the
checkout) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset, then runs the benchmark with the same
arguments from the checkout root. Build output goes to stderr; the
benchmark's output, ending in the one-line JSON result, goes to stdout.
The exit code is the benchmark's own (nonzero when an output failed its
check), or 1 when the build fails. A traced run also writes its spans
to the build directory as trace-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the perfbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            return False
    return True


def commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def option(argv, name):
    """The value following `name` in argv, or None."""
    if name in argv[:-1]:
        return argv[argv.index(name) + 1]
    return None


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench")] + argv
    cmd += ["--commit", commit()]
    if option(argv, "--trace") == "1":
        name = "trace-%s-%s.json" % (option(argv, "--workload"),
                                     option(argv, "--seed"))
        cmd += ["--trace-out", os.path.join(build_dir, name)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
