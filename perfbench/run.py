#!/usr/bin/env python3
"""Build the layered benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload lib-runs --seed 1 --seconds 10 --trace 0

The Go program in _go/ is built into the build directory
($CARGO_TARGET_DIR, default .bench_build), with Go's build cache, module
cache, configuration and temporary files all kept inside it, then run
with the same arguments plus the checkout's git commit. The program's
last line of standard output is the result JSON; build output goes to
standard error. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit():
    """Return the checkout's HEAD commit, or "unknown" outside a git repository."""
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        TMPDIR=tmp,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=os.path.join(HERE, "_go"), env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + ["--commit", git_commit()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
