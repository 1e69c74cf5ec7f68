#!/usr/bin/env python3
"""Builds the OHA request benchmark from source and runs one measurement.

Usage (from the repository root):

    python3 ohabench/run.py --workload optft-java --seed 1 --seconds 30 --trace 0

The benchmark is a Cargo package of its own (ohabench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode (into $CARGO_TARGET_DIR when set, else ohabench/target),
computes the git tree hash of crates/ from the files on disk for the
report, and runs the benchmark binary, whose last line of standard output
is the result. Build output goes to standard error. The exit code is the
benchmark's: non-zero on a build failure, a wrong answer or a failed run.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A measurement never needs longer than this; the process group is
# killed after it, worker daemons included.
RUN_TIMEOUT_S = 170


def git_object(kind, body):
    return hashlib.sha1(b"%s %d\0" % (kind, len(body)) + body).hexdigest()


def tree_hash(path):
    """The git tree-object hash of a directory, from the files on disk
    (equal to `git rev-parse HEAD:<dir>` for a clean checkout)."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        raw = os.fsencode(name)
        if os.path.islink(full):
            entries.append((raw, b"120000", git_object(b"blob", os.fsencode(os.readlink(full)))))
        elif os.path.isdir(full):
            sub = tree_hash(full)
            if sub is not None:
                entries.append((raw + b"/", b"40000", sub))
        else:
            with open(full, "rb") as f:
                blob = git_object(b"blob", f.read())
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            entries.append((raw, mode, blob))
    if not entries:
        return None
    entries.sort(key=lambda e: e[0])
    body = b"".join(
        mode + b" " + key.rstrip(b"/") + b"\0" + bytes.fromhex(sha) for key, mode, sha in entries
    )
    return git_object(b"tree", body)


def main():
    crates = os.path.join(ROOT, "crates")
    if not os.path.isdir(crates):
        sys.stderr.write("error: %s not found; run from a full checkout\n" % crates)
        return 2
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("error: the benchmark failed to build\n")
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "ohabench")
    child = subprocess.Popen(
        [binary] + sys.argv[1:] + ["--tree-hash", tree_hash(crates) or "empty"],
        start_new_session=True,
    )
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.stderr.write("error: the run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
