#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the checkout); cargo's output goes to standard
error. The benchmark's own output (a report line, then the result line)
goes to standard output, and its exit code is passed through. Run-scoped
files (span logs, WAL directories) go to `<target dir>/perfbench`.
`BATCHER_MAX_THREADS` defaults to 1 (the serial path) unless set.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def source_version(root: Path) -> str:
    """The git commit when the checkout is a repository, otherwise a
    digest of the sources the benchmark builds from."""
    if (root / ".git").exists():
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env.setdefault("PERFBENCH_COMMIT", source_version(root))
    # The serial path: the reference host has two cores, so wins must be
    # algorithmic, and one kernel thread keeps peak memory deterministic.
    env.setdefault("BATCHER_MAX_THREADS", "1")
    binary = target / "release" / "perfbench"
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--out-dir", str(target / "perfbench")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
