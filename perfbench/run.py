#!/usr/bin/env python3
"""Build the benchmark and the audit daemon from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload build-reliable --seed 7 --seconds 10 --trace 0

`--trace 0` runs the timed `perfbench` binary, `--trace 1` the traced
`perfbench-traced` one. Both builds go to $CARGO_TARGET_DIR (default
`.bench_build`); outputs other than stdout go to `.perfbench/`.
"""

import hashlib
import os
import subprocess
import sys

# What the two builds read. Outside a git checkout the `obs` build
# script names a file that does not exist, so cargo reruns it and
# recompiles every crate above it on each build; a stamp of these
# sources lets an unchanged tree skip cargo altogether.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "perfbench")


def source_stamp(root):
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            st = os.stat(f)
            digest.update(f"{os.path.relpath(f, root)}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's own output belongs on stderr: stdout ends with the result line.
    done = subprocess.run(cmd + extra, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    release = os.path.join(target, "release")
    binaries = [os.path.join(release, b) for b in ("perfbench", "perfbench-traced", "repro")]
    stamp_file = os.path.join(target, "perfbench.stamp")
    try:
        with open(stamp_file) as f:
            fresh = f.read() == source_stamp(root) and all(map(os.path.exists, binaries))
    except OSError:
        fresh = False
    if not fresh:
        build(os.path.join(here, "Cargo.toml"), [], env)
        build(os.path.join(root, "Cargo.toml"), ["-p", "langcrux-bench", "--bin", "repro"], env)
        # Taken after the builds, which write the lock files it covers.
        with open(stamp_file, "w") as f:
            f.write(source_stamp(root))

    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    exe = binaries[1] if traced else binaries[0]
    out = os.path.join(root, ".perfbench")
    os.execv(exe, [exe] + args + ["--repro", binaries[2], "--out", out])


if __name__ == "__main__":
    main()
