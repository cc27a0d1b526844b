#!/usr/bin/env python3
"""Build and run the request-path benchmark.

    python3 perfbench/run.py --workload <login_rush|cluster_day|fairshare_storm> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, or `perfbench/target` when unset, then
runs it with the same arguments. The last line of standard output is the
JSON result. Exits non-zero, without a result, when the build fails, for
example outside a full checkout of the repository.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "eus-perfbench")
    env["PERFBENCH_GIT_REV"] = git_revision()
    # Every run uses the library defaults: one scheduler thread, and no
    # flight-recorder dump files.
    for knob in ("RAYON_THREADS", "EUS_FLIGHT_DUMP"):
        env.pop(knob, None)
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
