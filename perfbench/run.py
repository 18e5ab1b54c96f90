#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs it.

    python3 perfbench/run.py --workload server-ucp --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). All arguments pass through to the benchmark
binary; see `perfbench/src/main.rs` for them. The binary's standard output
passes through unchanged, so its last line is the JSON result. Exits
non-zero, printing no result, if the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """A digest of the simulator's sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Only ask git inside a repository, so a plain checkout is all it reads.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env["PERFBENCH_GIT_REV"] = tool_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
