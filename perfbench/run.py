#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper_fig7 --seed 1 --seconds 20 --trace 0

The arguments go to perfbench/main.exe unchanged.  Its last line of
standard output is the JSON result, and its exit code is passed on.
dune builds with its shared cache off, so everything the build writes
stays under _build/ in the checkout.  See perfbench/BENCHMARK.md.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def toolchain_env():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH")) is None:
        # Not on PATH: use the first opam switch that has dune.
        for bindir in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin"))):
            if os.path.isfile(os.path.join(bindir, "dune")):
                env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
                break
    return env


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a repository checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    env = toolchain_env()
    try:
        build = subprocess.run(["dune", "build", "--root", ".", TARGET],
                               stdout=sys.stderr, env=env)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # A terminated run stops the simulator too (see the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([EXE] + sys.argv[1:], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
