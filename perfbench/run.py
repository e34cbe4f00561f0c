#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 30 --trace 0

Every argument goes to the `perfbench` binary (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR, or to .bench_build when it is unset.
Cargo's own output goes to standard error, so the last line of standard
output is the benchmark's JSON result. A failed build exits non-zero
without printing a result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def source_revision():
    """The git revision, or a hash of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if rev:
            return "git:" + rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    exe = target / "release" / "perfbench"
    args = [str(exe), *sys.argv[1:], "--rev", source_revision(), "--rustc", rustc_version()]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
